package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"kpj"
	"kpj/internal/gen"
	"kpj/internal/graph"
	"kpj/internal/server"
)

// This file is the kill -9 crash harness: a real kpjserver process (this
// test binary re-exec'ed into TestHelperCrashServer) serves over TCP
// with a WAL, takes a stream of churn updates, is killed with SIGKILL
// while one more update is in flight, and is restarted on the same
// directory. The recovered process must come back at an epoch covering
// every acknowledged update (the in-flight one may land on either side
// of the kill), with fingerprint and per-engine query answers identical
// to an in-process oracle that applied the same delta prefix without
// ever being interrupted.

// The index the parent builds, writes into the subprocess's flat file
// and hands to the oracle: the serving fingerprint hashes the landmark
// id sequence, so both sides must start from the same selection.
const (
	crashLandmarks = 3
	crashSeed      = 7
)

// TestHelperCrashServer is not a test: it is the subprocess body. The
// parent re-execs the test binary with -test.run pinned here and the
// configuration in the environment, then talks to it over real HTTP.
func TestHelperCrashServer(t *testing.T) {
	if os.Getenv("KPJ_CRASH_HELPER") != "1" {
		t.Skip("crash-harness helper; spawned by TestCrashRecoveryKill9")
	}
	err := run(os.Getenv("KPJ_CRASH_FLAT"), os.Getenv("KPJ_CRASH_ADDR"), 1000,
		0, 0, 0, 0, time.Second,
		false, false, 0, 2, os.Getenv("KPJ_CRASH_WAL"), 3 /* checkpoint-every */)
	// Reached only if the listener never starts or a graceful shutdown
	// sneaks in; the harness ends this process with SIGKILL otherwise.
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(3)
	}
	os.Exit(0)
}

// writeCrashWorld builds the seeded grid city and its index, writes both
// as the flat file the subprocess boots from, and returns the same world
// in both in-process views (kpj for the oracle, internal/graph for
// churn).
func writeCrashWorld(t *testing.T, dir string) (flatPath string, g *kpj.Graph, ix *kpj.Index, og *graph.Graph) {
	t.Helper()
	const w, h = 5, 4
	rng := rand.New(rand.NewSource(40_123))
	id := func(x, y int) int64 { return int64(y*w + x) }
	var edges [][3]int64
	add := func(u, v int64) {
		wt := int64(5 + rng.Intn(20))
		edges = append(edges, [3]int64{u, v, wt}, [3]int64{v, u, wt})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				add(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				add(id(x, y), id(x, y+1))
			}
		}
	}
	var gr bytes.Buffer
	fmt.Fprintf(&gr, "p sp %d %d\n", w*h, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&gr, "a %d %d %d\n", e[0]+1, e[1]+1, e[2])
	}
	cats := []struct {
		name  string
		nodes []int64
	}{
		{"poi", []int64{2, 9, 17}},
		{"depot", []int64{0, 19}},
	}
	var err error
	if g, err = kpj.ReadGraph(bytes.NewReader(gr.Bytes())); err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if og, err = graph.ReadGr(bytes.NewReader(gr.Bytes())); err != nil {
		t.Fatalf("ReadGr: %v", err)
	}
	for _, c := range cats {
		kn := make([]kpj.NodeID, len(c.nodes))
		on := make([]graph.NodeID, len(c.nodes))
		for i, v := range c.nodes {
			kn[i], on[i] = kpj.NodeID(v), graph.NodeID(v)
		}
		if err := g.AddCategory(c.name, kn); err != nil {
			t.Fatal(err)
		}
		if err := og.AddCategory(c.name, on); err != nil {
			t.Fatal(err)
		}
	}
	if ix, err = kpj.BuildIndex(g, crashLandmarks, crashSeed); err != nil {
		t.Fatal(err)
	}
	flatPath = filepath.Join(dir, "city.kpjflat")
	if err := kpj.WriteFlatFile(flatPath, g, ix); err != nil {
		t.Fatal(err)
	}
	return flatPath, g, ix, og
}

// freeAddr reserves a loopback port by binding and releasing it; the
// tiny race before the subprocess rebinds is accepted (a lost port
// fails waitServing loudly with the helper's log attached).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

type readyzState struct {
	Ready       bool   `json:"ready"`
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

// waitServing polls /readyz until the subprocess answers ready. Recovery
// runs behind this gate, so a successful wait implies replay finished.
func waitServing(t *testing.T, base, logPath string) readyzState {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		st, err := fetchReadyz(base)
		if err == nil && st.Ready {
			return st
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	log, _ := os.ReadFile(logPath)
	t.Fatalf("server at %s never became ready (last error %v)\nhelper log:\n%s", base, lastErr, log)
	return readyzState{}
}

func fetchReadyz(base string) (readyzState, error) {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return readyzState{}, err
	}
	defer resp.Body.Close()
	var st readyzState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return readyzState{}, err
	}
	if resp.StatusCode != http.StatusOK {
		st.Ready = false
	}
	return st, nil
}

// postDelta sends one update to the subprocess and requires a 200 ack —
// which, with a WAL configured, means the record is fsynced.
func postDelta(t *testing.T, base string, d *graph.Delta) {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	body, _ := json.Marshal(d)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update %s: status %d", body, resp.StatusCode)
	}
}

// oracleUpdate applies one delta to the in-process oracle server.
func oracleUpdate(t *testing.T, app *server.Server, d *graph.Delta) {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(b))
	rec := httptest.NewRecorder()
	app.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("oracle update: %d %s", rec.Code, rec.Body.String())
	}
}

var crashEngines = kpj.Algorithms()

var kill9Queries = []string{
	"/query?source=0&category=poi&k=4",
	"/query?source=1&target=17&k=3",
	"/query?source=3&category=depot&k=2",
}

// renderAnswer flattens one query response (status, epoch, fingerprint,
// paths) into a comparable string.
func renderAnswer(t *testing.T, code int, body []byte) string {
	t.Helper()
	var q struct {
		Paths       []server.PathJSON `json:"paths"`
		Epoch       uint64            `json:"epoch"`
		Fingerprint string            `json:"fingerprint"`
	}
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatalf("bad query body %s: %v", body, err)
		}
	}
	paths, err := json.Marshal(q.Paths)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d epoch=%d fp=%s %s", code, q.Epoch, q.Fingerprint, paths)
}

// assertMatchesOracle compares the recovered subprocess against the
// uninterrupted in-process oracle: fingerprint, epoch, and every query
// across every engine.
func assertMatchesOracle(t *testing.T, label, base string, oracle *server.Server) {
	t.Helper()
	sub, err := fetchReadyz(base)
	if err != nil {
		t.Fatalf("%s: readyz: %v", label, err)
	}
	oreq := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	orec := httptest.NewRecorder()
	oracle.ServeHTTP(orec, oreq)
	var ost readyzState
	if err := json.Unmarshal(orec.Body.Bytes(), &ost); err != nil {
		t.Fatal(err)
	}
	if sub.Epoch != ost.Epoch || sub.Fingerprint != ost.Fingerprint {
		t.Fatalf("%s: recovered (epoch %d, fp %s) != oracle (epoch %d, fp %s)",
			label, sub.Epoch, sub.Fingerprint, ost.Epoch, ost.Fingerprint)
	}
	for _, query := range kill9Queries {
		for _, alg := range crashEngines {
			url := query + "&alg=" + alg.String()
			resp, err := http.Get(base + url)
			if err != nil {
				t.Fatalf("%s: GET %s: %v", label, url, err)
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			got := renderAnswer(t, resp.StatusCode, buf.Bytes())

			req := httptest.NewRequest(http.MethodGet, url, nil)
			rec := httptest.NewRecorder()
			oracle.ServeHTTP(rec, req)
			want := renderAnswer(t, rec.Code, rec.Body.Bytes())
			if got != want {
				t.Fatalf("%s: %s %s:\nrecovered %s\noracle    %s", label, alg, query, got, want)
			}
		}
	}
}

// TestCrashRecoveryKill9 is the end-to-end acceptance crash test: the
// process dies by SIGKILL — no defers, no flushes — and the WAL alone
// must carry every acknowledged update across the restart.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	flatPath, g, ix, og := writeCrashWorld(t, dir)
	deltas, _, err := gen.Churn(og, gen.ChurnConfig{Steps: 8, Ops: 5, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	addr := freeAddr(t)
	base := "http://" + addr

	start := func(attempt int) (*exec.Cmd, string) {
		logPath := filepath.Join(dir, fmt.Sprintf("helper-%d.log", attempt))
		logFile, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelperCrashServer$")
		cmd.Env = append(os.Environ(),
			"KPJ_CRASH_HELPER=1",
			"KPJ_CRASH_FLAT="+flatPath,
			"KPJ_CRASH_ADDR="+addr,
			"KPJ_CRASH_WAL="+walDir,
		)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			logFile.Close()
		})
		return cmd, logPath
	}

	// Phase 1: serve, ack five updates, then SIGKILL with a sixth racing
	// the kill — it may or may not reach the log first.
	cmd1, log1 := start(1)
	if st := waitServing(t, base, log1); st.Epoch != 0 {
		t.Fatalf("fresh server starts at epoch %d, want 0", st.Epoch)
	}
	const acked = 5
	for i := 0; i < acked; i++ {
		postDelta(t, base, deltas[i])
	}
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		b, err := json.Marshal(deltas[acked])
		if err != nil {
			return
		}
		// Outcome deliberately ignored: this request races the SIGKILL.
		if resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(b)); err == nil {
			resp.Body.Close()
		}
	}()
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd1.Wait() // "signal: killed"
	<-inflight

	// Phase 2: restart on the same WAL directory. Readiness implies
	// checkpoint load + log replay finished and the chain verified.
	_, log2 := start(2)
	st := waitServing(t, base, log2)
	if st.Epoch < acked || st.Epoch > acked+1 {
		t.Fatalf("recovered epoch %d, want %d (all acked) or %d (in-flight landed)", st.Epoch, acked, acked+1)
	}
	t.Logf("recovered at epoch %d (acked %d, in-flight 1)", st.Epoch, acked)

	// Oracle: the same world updated in-process, never interrupted.
	oracle := server.New(g, ix)
	for i := uint64(0); i < st.Epoch; i++ {
		oracleUpdate(t, oracle, deltas[i])
	}
	assertMatchesOracle(t, "post-crash", base, oracle)

	// Phase 3: the recovered server keeps accepting the rest of the
	// schedule and stays equivalent through to the final epoch.
	for i := int(st.Epoch); i < len(deltas); i++ {
		postDelta(t, base, deltas[i])
		oracleUpdate(t, oracle, deltas[i])
	}
	final, err := fetchReadyz(base)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != uint64(len(deltas)) {
		t.Fatalf("final epoch %d, want %d", final.Epoch, len(deltas))
	}
	assertMatchesOracle(t, "final", base, oracle)
}
