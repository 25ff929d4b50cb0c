package wire

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFingerprintForm(t *testing.T) {
	for _, fp := range []uint64{0, 1, 0xdfc8b58446228fc9, ^uint64(0)} {
		s := FormatFP(fp)
		if want := fmt.Sprintf("%016x", fp); s != want {
			t.Fatalf("FormatFP(%#x) = %q, want %q", fp, s, want)
		}
		if got := ParseFP(s); got != fp {
			t.Fatalf("ParseFP(%q) = %#x, want %#x", s, got, fp)
		}
	}
	g := Gen{Epoch: 3, FP: 0xaa}
	h := http.Header{}
	g.SetHeader(h)
	if got := ReadGen(h); got != g {
		t.Fatalf("ReadGen(SetHeader(%v)) = %v", g, got)
	}
	h = http.Header{}
	Gen{Epoch: 3}.SetHeader(h)
	if _, ok := h[HeaderFingerprint]; ok {
		t.Fatal("an unindexed generation must not stamp X-Kpj-Fingerprint")
	}
}

func TestFence(t *testing.T) {
	for _, g := range []Gen{{Epoch: 4, FP: 0xaa}, {Epoch: 4}} {
		h := http.Header{}
		SetFence(h, g)
		fence, fenced, err := ParseFence(h)
		if err != nil || !fenced || fence != g {
			t.Fatalf("ParseFence(SetFence(%v)) = %v %v %v", g, fence, fenced, err)
		}
	}
	if _, fenced, err := ParseFence(http.Header{}); fenced || err != nil {
		t.Fatalf("no headers: fenced %v err %v, want unfenced", fenced, err)
	}
	for _, bad := range []map[string]string{
		{headerExpectFingerprint: "aa"},
		{headerExpectEpoch: "x"},
		{headerExpectEpoch: "1", headerExpectFingerprint: "xyz"},
	} {
		h := http.Header{}
		for k, v := range bad {
			h.Set(k, v)
		}
		if _, _, err := ParseFence(h); err == nil {
			t.Fatalf("ParseFence(%v) accepted a malformed fence", bad)
		}
	}
	cur := Gen{Epoch: 4, FP: 0xaa}
	for fence, want := range map[Gen]bool{
		{Epoch: 4, FP: 0xaa}: true,
		{Epoch: 4}:           true, // fingerprint unchecked
		{Epoch: 4, FP: 0xab}: false,
		{Epoch: 3, FP: 0xaa}: false,
	} {
		if got := cur.Satisfies(fence); got != want {
			t.Fatalf("%v.Satisfies(%v) = %v, want %v", cur, fence, got, want)
		}
	}
}

func TestWriteErrorAndReadBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusServiceUnavailable, KindDraining, "shed %d", 1)
	if rec.Header().Get(HeaderErrorKind) != string(KindDraining) || rec.Header().Get("Retry-After") != "1" ||
		rec.Body.String() != `{"error":"shed 1","kind":"draining"}`+"\n" {
		t.Fatalf("503: headers %v body %q", rec.Header(), rec.Body)
	}
	rec = httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("0123456789"))
	if _, ok := ReadBody(rec, r, 4); ok || rec.Code != http.StatusRequestEntityTooLarge ||
		rec.Header().Get(HeaderErrorKind) != string(KindTooLarge) {
		t.Fatalf("oversized body: ok %v status %d kind %q", ok, rec.Code, rec.Header().Get(HeaderErrorKind))
	}
	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader("0123"))
	if body, ok := ReadBody(httptest.NewRecorder(), r, 4); !ok || string(body) != "0123" {
		t.Fatalf("body at the cap: %q ok %v", body, ok)
	}
}
