// Command kpjserver serves KPJ / KSP / GKPJ queries over HTTP from a flat
// graph+categories+index file written by kpjindex.
//
// Usage:
//
//	kpjserver -flat sj.kpjflat -addr :8080 \
//	          -timeout 2s -budget 5000000 -maxinflight 64
//
// -flat is the only way in: DIMACS input is imported once, offline, by
// kpjindex. The file is read in one pass and verified (checksum and full
// adjacency validation) before anything is served.
//
// Endpoints (see internal/server):
//
//	GET  /healthz
//	GET  /categories
//	GET  /query?source=42&category=T2&k=5[&alg=IterBoundI][&alpha=1.1][&budget=100000][&stats=1]
//	POST /batch   with a JSON array of {sources|sourceCategory, targets|category, k}
//	POST /update  with a JSON delta {setWeights, inserts, deletes, addPOIs, removePOIs}
//
// Queries that exceed -timeout or -budget return the paths found so far
// with "truncated": true; requests beyond -maxinflight are shed with 503.
// SIGINT/SIGTERM flip /readyz to 503, shed late arrivals, and drain
// in-flight requests for up to -draintimeout before exiting.
//
// SIGHUP re-reads the -flat file with full verification and atomically
// swaps its landmark index in: rebuild the file with kpjindex (another
// -landmarks or -seed) and signal. The file must carry the very graph
// being served, so once a live update has been applied a file from
// before it is refused; any failed reload logs the error and keeps
// serving the old index.
//
// POST /update applies live graph changes — edge weights, segment
// insertions/deletions, POI membership — and atomically publishes a new
// serving epoch (visible in /healthz and in every query response). The
// landmark index is repaired incrementally. A failed update keeps the
// old epoch serving and answers a typed 500; the next update runs
// normally.
//
// -wal DIR makes accepted updates durable: each delta is appended to a
// CRC-framed log and fsynced before its epoch is published, the serving
// state is checkpointed (and the log truncated) every -checkpoint-every
// epochs, and startup recovers from the newest checkpoint plus log
// replay — /readyz answers 503 "recovering" until the recovered chain's
// fingerprints verify against the durably recorded ones. /update and
// /batch bodies above 16 MiB are shed with a typed 413; every query and
// update response carries X-Kpj-Epoch, and every error is a typed JSON
// body with a matching X-Kpj-Error-Kind header (internal/wire).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kpj"
	"kpj/internal/server"
	"kpj/internal/wal"
)

func main() {
	flatPath := flag.String("flat", "", "flat graph+categories+index file from kpjindex (required)")
	addr := flag.String("addr", ":8080", "listen address")
	maxK := flag.Int("maxk", 1000, "per-request k limit")
	timeout := flag.Duration("timeout", 0, "per-request deadline for /query and /batch (0 = none)")
	budget := flag.Int64("budget", 0, "per-query work cap in heap pops + edge relaxations (0 = unlimited)")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrently executing queries before shedding with 503 (0 = unlimited)")
	drain := flag.Duration("draintimeout", 10*time.Second, "bound on the graceful-shutdown drain window: in-flight queries get this long to finish after SIGINT/SIGTERM while late arrivals are shed with 503")
	metrics := flag.Bool("metrics", false, "expose GET /metrics (Prometheus) and /debug/vars, and collect engine counters")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under GET /debug/pprof/")
	walDir := flag.String("wal", "", "write-ahead log directory: POST /update deltas are fsynced here before they are served, and startup recovers the chain from the newest checkpoint plus log replay")
	checkpointEvery := flag.Int("checkpoint-every", 64, "with -wal, snapshot the serving state and truncate the log every N epochs (0 = never)")
	flag.Parse()

	if err := run(*flatPath, *addr, *maxK,
		*timeout, *budget, *maxInFlight, *drain, *metrics, *pprofOn,
		*walDir, *checkpointEvery); err != nil {
		fmt.Fprintf(os.Stderr, "kpjserver: %v\n", err)
		os.Exit(1)
	}
}

func run(flatPath, addr string, maxK int,
	timeout time.Duration, budget int64, maxInFlight int, drain time.Duration,
	metrics, pprofOn bool, walDir string, checkpointEvery int) error {
	if flatPath == "" {
		return fmt.Errorf("-flat is required")
	}
	start := time.Now()
	g, ix, _, err := kpj.OpenFlat(flatPath, false)
	if err != nil {
		return err
	}
	count := 0
	if ix != nil {
		count = ix.Count()
	}
	fmt.Printf("loaded flat file %s with %d-landmark index in %v\n",
		flatPath, count, time.Since(start).Round(time.Millisecond))

	opts := []server.Option{
		server.WithMaxK(maxK),
		server.WithTimeout(timeout),
		server.WithBudget(budget),
		server.WithMaxInFlight(maxInFlight),
	}

	// Durability: open the WAL before the server exists. When a checkpoint
	// is present the serving state starts from it — the -flat file only
	// anchors epoch 0 of a chain the checkpoint has already advanced past.
	var wlog *wal.Log
	var rec *wal.Recovery
	if walDir != "" {
		wlog, rec, err = wal.Open(walDir)
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		defer wlog.Close()
		if rec.CheckpointPath != "" {
			// A checkpoint is a flat file, verified like -flat.
			cg, cix, _, err := kpj.OpenFlat(rec.CheckpointPath, false)
			if err != nil {
				return fmt.Errorf("load checkpoint: %w", err)
			}
			g, ix = cg, cix
			fmt.Printf("loaded checkpoint %s (epoch %d)\n", rec.CheckpointPath, rec.CheckpointEpoch)
		}
		opts = append(opts, server.WithWAL(wlog, checkpointEvery))
		fmt.Printf("wal %s: %d log records to replay (%d torn bytes dropped)\n",
			walDir, len(rec.Records), rec.TruncatedBytes)
	}
	if metrics {
		reg := kpj.NewMetricsRegistry()
		kpj.EnableMetrics(reg)
		opts = append(opts, server.WithMetrics(reg))
		fmt.Println("metrics on /metrics and /debug/vars")
	}
	if pprofOn {
		opts = append(opts, server.WithPprof())
		fmt.Println("profiling on /debug/pprof/")
	}
	app := server.New(g, ix, opts...)
	srv := &http.Server{
		Addr:              addr,
		Handler:           app,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("serving %d nodes / %d edges (categories %v) on %s\n",
		g.NumNodes(), g.NumEdges(), g.Categories(), addr)

	// Index hot-reload: SIGHUP re-reads -flat and swaps its index in
	// atomically; a reload that fails for any reason keeps the old index
	// serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go watchReload(app, flatPath, hup, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})

	// Graceful shutdown: SIGINT/SIGTERM stop accepting connections and
	// drain in-flight requests (whose query contexts end when the drain
	// window closes and the connections are forcibly dropped).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if wlog != nil {
		// Replay the log suffix with the listener already up: /readyz
		// answers 503 "recovering (i/n records)" while this runs and flips
		// ready only once the recovered chain's fingerprints have been
		// verified against the durably recorded ones. A replica that cannot
		// prove its chain must not serve: recovery failure is fatal.
		if err := app.Recover(rec); err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		fmt.Printf("recovered to epoch %d\n", app.Epoch())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills immediately
		fmt.Printf("shutting down (draining up to %v)...\n", drain)
		if err := drainAndShutdown(app, srv, drain); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// drainAndShutdown bounds graceful shutdown by -draintimeout: readiness
// flips off first (so /readyz turns 503 and routers stop sending traffic,
// and late arrivals on kept-alive connections are shed with 503), then
// the listener closes and in-flight queries get the remainder of the
// window to finish before their connections are dropped.
func drainAndShutdown(app *server.Server, srv *http.Server, timeout time.Duration) error {
	app.StartDraining()
	sctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return srv.Shutdown(sctx)
}

// watchReload hot-reloads the index from path each time a signal (SIGHUP
// in production) arrives on ch; it returns when ch is closed. Factored
// out of run so the reload behavior is testable without sending signals
// to the test process.
func watchReload(app *server.Server, path string, ch <-chan os.Signal, logf func(string, ...any)) {
	for range ch {
		if err := app.ReloadIndex(path); err != nil {
			logf("index reload failed (keeping current index): %v", err)
			continue
		}
		logf("index reloaded from %s", path)
	}
}
