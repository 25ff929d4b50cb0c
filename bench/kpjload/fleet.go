package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kpj"
	"kpj/internal/router"
	"kpj/internal/server"
	"kpj/internal/wal"
)

// This file starts the fleet inside the harness process, wired the way
// cmd/kpjserver and cmd/kpjrouter wire it and with their flag defaults:
// one durable replica behind one router, each on its own loopback
// listener. Three real binaries would add an OS wake-up to every hop and
// measure the VM's scheduler; a second replica would run every update
// twice on the same two cores.

func discardLog(string, ...any) {}

// replica is one in-process kpjserver.
type replica struct {
	app   *server.Server
	srv   *http.Server
	log   *wal.Log
	flat  io.Closer
	url   string
	done  chan struct{}
	stats restartStats
}

// restartStats splits one replica start into its layers.
type restartStats struct {
	total, walOpen, recoverTime time.Duration // total: openReplica, entry to /readyz 200
	replayed                    int
}

// openReplica follows kpjserver's -flat/-wal start-up: verified read of
// the seed flat file, wal.Open, checkpoint load when one exists,
// server.New, listener up, Recover, /readyz 200. wrap, when non-nil,
// interposes the tracer between listener and handler.
func openReplica(flatPath, walDir string, wrap func(http.Handler) http.Handler, c *client) (*replica, error) {
	r := &replica{done: make(chan struct{})}
	begin := time.Now()
	g, ix, closer, err := kpj.OpenFlat(flatPath, false)
	if err != nil {
		return nil, fmt.Errorf("open flat: %w", err)
	}
	r.flat = closer

	t := time.Now()
	wlog, rec, err := wal.Open(walDir)
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	r.log = wlog
	r.stats.walOpen = time.Since(t)
	r.stats.replayed = len(rec.Records)
	if rec.CheckpointPath != "" {
		f, err := os.Open(rec.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
		g, ix, err = kpj.ReadFlat(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
	}

	r.app = server.New(g, ix,
		server.WithMaxK(1000), server.WithParallelism(1), server.WithBoundsCacheSize(0),
		server.WithMaxUpdateBytes(16<<20), server.WithWAL(wlog, checkpointEvery),
		server.WithLogf(discardLog))
	var h http.Handler = r.app
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns ErrServerClosed after crash()
	}()
	t = time.Now()
	if err := r.app.Recover(rec); err != nil {
		r.crash()
		return nil, fmt.Errorf("wal recovery: %w", err)
	}
	r.stats.recoverTime = time.Since(t)
	if err := c.waitReady(r.url); err != nil {
		r.crash()
		return nil, err
	}
	r.stats.total = time.Since(begin)
	return r, nil
}

// crash stops the replica the way kill -9 leaves it: connections and
// listener dropped, no drain, no checkpoint. Every acknowledged update
// is already fsynced, so there is nothing unflushed to discard.
func (r *replica) crash() {
	_ = r.srv.Close()
	<-r.done
	_ = r.log.Close()
	_ = r.flat.Close()
}

// front is one in-process kpjrouter.
type front struct {
	rt   *router.Router
	srv  *http.Server
	url  string
	done chan struct{}
}

func openRouter(replicaURL string, wrap func(http.Handler) http.Handler, c *client) (*front, error) {
	rt, err := router.New(router.Config{
		Replicas: []router.ReplicaConfig{{Name: "r0", URL: replicaURL}},
		Seed:     1,
		Logf:     discardLog,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = rt
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	f := &front{rt: rt, url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln)
	}()
	if err := c.waitReady(f.url); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *front) close() {
	_ = f.srv.Close()
	<-f.done
	f.rt.Close()
}

// client is the one closed-loop client: one keep-alive connection per
// host, one operation in flight.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() {
	c.http.Transport.(*http.Transport).CloseIdleConnections()
}

// do sends one operation and returns the status, the whole body (valid
// until the next call) and the latency from send to last body byte.
func (c *client) do(base string, o *op) (status int, body []byte, lat time.Duration, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if o.update {
		method, rd = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, base+o.target, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), lat, nil
}

func (c *client) get(url string) (int, []byte, error) {
	status, body, _, err := c.do(url, &op{})
	return status, body, err
}

// waitReady polls base/readyz until it answers 200.
func (c *client) waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := c.get(base + "/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("%s/readyz not ready after 30s: %w", base, err)
			}
			return fmt.Errorf("%s/readyz not ready after 30s: status %d", base, status)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// coldStart is one setup cycle: import the DIMACS files, build the
// index, write the flat file, start a replica on an empty WAL directory
// and a router in front of it — what kpjindex, kpjserver and kpjrouter do
// between an empty machine and the first routable query. It keeps the
// harness's own copy of epoch 0 (graph and index) next to the fleet.
type coldStart struct {
	g      *kpj.Graph
	ix     *kpj.Index
	rep    *replica
	front  *front
	flat   string
	walDir string
	total  time.Duration
}

func readDataset(grPath, poisPath string) (*kpj.Graph, error) {
	gf, err := os.Open(grPath)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	g, err := kpj.ReadGraph(gf)
	if err != nil {
		return nil, err
	}
	pf, err := os.Open(poisPath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	return g, g.ReadCategories(pf)
}

func runColdStart(dir, grPath, poisPath string, tr *tracer, c *client) (*coldStart, error) {
	cs := &coldStart{flat: filepath.Join(dir, "seed.kpjflat"), walDir: filepath.Join(dir, "wal")}
	start := time.Now()
	var err error
	tr.timed("setup.read_graph", func() { cs.g, err = readDataset(grPath, poisPath) })
	if err != nil {
		return nil, err
	}
	tr.timed("setup.build_index", func() { cs.ix, err = kpj.BuildIndex(cs.g, landmarkCount, datasetSeed) })
	if err != nil {
		return nil, err
	}
	tr.timed("setup.write_flat", func() { err = kpj.WriteFlatFile(cs.flat, cs.g, cs.ix) })
	if err != nil {
		return nil, err
	}
	tr.timed("setup.open_replica", func() { cs.rep, err = openReplica(cs.flat, cs.walDir, tr.wrap("server"), c) })
	if err != nil {
		return nil, err
	}
	tr.timed("setup.open_router", func() { cs.front, err = openRouter(cs.rep.url, tr.wrap("router"), c) })
	if err != nil {
		cs.rep.crash()
		return nil, err
	}
	cs.total = time.Since(start)
	return cs, nil
}

func (cs *coldStart) close() {
	cs.front.close()
	cs.rep.crash()
}
