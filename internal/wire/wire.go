// Package wire is the HTTP contract kpjserver replicas and the kpjrouter
// tier both speak: the X-Kpj-* headers, the typed error body and its
// kinds, the bounded body read, the (epoch, fingerprint) generation and
// the update fence built on it, and the probe bodies of /readyz and
// /healthz. Both doors write and parse these here and nowhere else.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kpj/internal/obs"
)

// Header names.
const (
	HeaderEpoch             = "X-Kpj-Epoch"
	HeaderFingerprint       = "X-Kpj-Fingerprint"
	headerExpectEpoch       = "X-Kpj-Expect-Epoch"
	headerExpectFingerprint = "X-Kpj-Expect-Fingerprint"
	HeaderErrorKind         = "X-Kpj-Error-Kind"
	HeaderReplica           = "X-Kpj-Replica"
)

// Kind classifies a failure for programmatic handling. It is carried in
// the error body and in the X-Kpj-Error-Kind header.
type Kind string

const (
	KindBadRequest    Kind = "bad-request"    // malformed body or parameters
	KindTooLarge      Kind = "too-large"      // body exceeds its cap
	KindDraining      Kind = "draining"       // shedding or shutting down; retry elsewhere
	KindEpochConflict Kind = "epoch-conflict" // fence failed; retry against the X-Kpj-Epoch sent back
	KindWAL           Kind = "wal"            // durability failure; epoch not published
	KindInternal      Kind = "internal"       // recovered panic or apply-path fault; epoch kept
	KindUnavailable   Kind = "unavailable"    // no replica could answer; retryable
	KindUpstream      Kind = "upstream"       // attempts exhausted on upstream 5xx
	KindCanceled      Kind = "canceled"       // the client went away mid-request
)

// ErrorBody is every error response body.
type ErrorBody struct {
	Error string `json:"error"`
	Kind  Kind   `json:"kind"`
}

// MaxBodyBytes caps /batch and /update request bodies.
const MaxBodyBytes = 16 << 20

// WriteJSON writes body as JSON with status. A 503 carries Retry-After: 1
// unless the caller set one.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable && h.Get("Retry-After") == "" {
		h.Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError writes a typed error body and its X-Kpj-Error-Kind header.
func WriteError(w http.ResponseWriter, status int, kind Kind, format string, args ...any) {
	w.Header().Set(HeaderErrorKind, string(kind))
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// ReadBody reads r's body up to limit bytes. On failure it has already
// answered 413 too-large or 400 bad-request and returns ok false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		WriteError(w, http.StatusRequestEntityTooLarge, KindTooLarge, "body exceeds %d bytes", limit)
	case err != nil:
		WriteError(w, http.StatusBadRequest, KindBadRequest, "read body: %v", err)
	}
	return body, err == nil
}

// Gen is a serving generation: the epoch sequence number and the index
// fingerprint (0 when unindexed).
type Gen struct{ Epoch, FP uint64 }

func (g Gen) String() string { return fmt.Sprintf("%d/%s", g.Epoch, FormatFP(g.FP)) }

// FormatFP renders a fingerprint as the 16 hex digits of the wire form.
func FormatFP(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFP reads FormatFP's form; anything else reads as 0.
func ParseFP(s string) uint64 {
	fp, _ := strconv.ParseUint(s, 16, 64)
	return fp
}

// Fingerprint is g's fingerprint in wire form, "" when unindexed.
func (g Gen) Fingerprint() string {
	if g.FP == 0 {
		return ""
	}
	return FormatFP(g.FP)
}

// SetHeader stamps X-Kpj-Epoch, and X-Kpj-Fingerprint when indexed.
func (g Gen) SetHeader(h http.Header) { g.set(h, HeaderEpoch, HeaderFingerprint) }

func (g Gen) set(h http.Header, epochKey, fpKey string) {
	h.Set(epochKey, strconv.FormatUint(g.Epoch, 10))
	if g.FP != 0 {
		h.Set(fpKey, FormatFP(g.FP))
	}
}

// ReadGen reads SetHeader's headers; absent or malformed values read as 0.
func ReadGen(h http.Header) Gen {
	epoch, _ := strconv.ParseUint(h.Get(HeaderEpoch), 10, 64)
	return Gen{Epoch: epoch, FP: ParseFP(h.Get(HeaderFingerprint))}
}

// SetFence preconditions an update on generation g: the receiver applies
// it only while it serves exactly g. FP 0 leaves the fingerprint unchecked.
func SetFence(h http.Header, g Gen) { g.set(h, headerExpectEpoch, headerExpectFingerprint) }

// ParseFence reads SetFence's headers. Without an epoch header the update
// is unfenced, so direct operator updates keep working. A fingerprint
// without an epoch, or a malformed value, is an error.
func ParseFence(h http.Header) (fence Gen, fenced bool, err error) {
	eh, fh := h.Get(headerExpectEpoch), h.Get(headerExpectFingerprint)
	if eh == "" {
		if fh != "" {
			return fence, false, fmt.Errorf("%s requires %s", headerExpectFingerprint, headerExpectEpoch)
		}
		return fence, false, nil
	}
	if fence.Epoch, err = strconv.ParseUint(eh, 10, 64); err != nil {
		return fence, false, fmt.Errorf("bad %s %q", headerExpectEpoch, eh)
	}
	if fh != "" {
		if fence.FP, err = strconv.ParseUint(fh, 16, 64); err != nil {
			return fence, false, fmt.Errorf("bad %s %q", headerExpectFingerprint, fh)
		}
	}
	return fence, true, nil
}

// Satisfies reports whether g meets fence: the same epoch, and the same
// fingerprint unless the fence leaves it unchecked.
func (g Gen) Satisfies(fence Gen) bool {
	return g.Epoch == fence.Epoch && (fence.FP == 0 || g.FP == fence.FP)
}

// Readyz is a replica's /readyz body. Recovered and RecoverTotal are
// present only while the write-ahead log replays.
type Readyz struct {
	Ready        bool   `json:"ready"`
	Epoch        uint64 `json:"epoch"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	Reason       string `json:"reason,omitempty"`
	Recovered    *int64 `json:"recovered,omitempty"`
	RecoverTotal *int64 `json:"recoverTotal,omitempty"`
}

// Healthz is a replica's /healthz body: liveness, the served graph's
// shape and its generation (epoch, fingerprint).
type Healthz struct {
	Status      string `json:"status"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Categories  int    `json:"categories"`
	Indexed     bool   `json:"indexed"`
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Draining    bool   `json:"draining"`
}

// MountMetrics serves reg on GET /metrics (Prometheus text). A nil
// registry mounts nothing.
func MountMetrics(mux *http.ServeMux, reg *obs.Registry) {
	if reg == nil {
		return
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}
