// Command kpjrouter fronts N kpjserver replicas with the resilient
// routing tier in internal/router: requests rotated over the up replicas,
// health-probed failover, and hedged requests.
//
// Usage:
//
//	kpjrouter -replicas http://10.0.0.7:8080,http://10.0.0.8:8080 \
//	          -addr :8090 -probeinterval 500ms -hedgeafter 0
//
// Each -replicas entry is a base URL, optionally prefixed "name=" to name
// the replica in logs, metrics and X-Kpj-Replica (defaults to r0, r1,
// ...).
//
// Endpoints:
//
//	GET  /healthz     router + per-replica states, fleet epoch
//	GET  /readyz      200 while at least one replica is routable
//	GET  /query       routed with rotation, hedging, and failover
//	POST /batch       routed (body buffered so failover can replay it)
//	POST /update      fanned to every routable replica with epoch fencing
//	GET  /categories  routed to any up replica
//
// POST /update fans the delta to every routable replica, fenced on the
// fleet's agreed (epoch, fingerprint): a replica that fails, conflicts,
// or diverges is marked down, resynced by a full snapshot transfer from
// a caught-up peer, and readmitted only once a probe observes it at the
// fleet generation. The router keeps no delta history, so a restarted
// router brings a lagging replica back the same way. Update bodies are
// capped at 16 MiB, the replicas' own cap.
//
// Responses carry X-Kpj-Replica naming the backend that answered, with
// Retry-After, X-Kpj-Epoch, and X-Kpj-Fingerprint passed through from it
// unchanged.
// Every error, the router's own or a replica's passed through, is a typed
// JSON body ({"error","kind"}) with a matching X-Kpj-Error-Kind header
// (internal/wire). -hedgeafter 0 adapts the hedge
// threshold to observed latency; a fixed duration pins it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kpj"
	"kpj/internal/router"
)

func main() {
	var cfg router.Config
	replicas := flag.String("replicas", "", "comma-separated replica base URLs, each optionally name=url (required)")
	addr := flag.String("addr", ":8090", "listen address")
	flag.DurationVar(&cfg.ProbeInterval, "probeinterval", 500*time.Millisecond, "health-probe interval for up replicas")
	flag.DurationVar(&cfg.ProbeTimeout, "probetimeout", time.Second, "per-probe request deadline")
	flag.IntVar(&cfg.DownAfter, "downafter", 2, "consecutive probe failures before a replica is down")
	flag.DurationVar(&cfg.HedgeAfter, "hedgeafter", 0, "fixed hedge delay; 0 adapts to observed latency")
	flag.DurationVar(&cfg.MaxHedge, "maxhedge", time.Second, "adaptive hedge-delay ceiling")
	flag.IntVar(&cfg.MaxAttempts, "maxattempts", 3, "attempt cap per request, hedges included")
	flag.IntVar(&cfg.RetryBudget, "retrybudget", 64, "retry token bucket capacity bounding fleet-wide retry amplification")
	flag.DurationVar(&cfg.RequestTimeout, "reqtimeout", 30*time.Second, "per-attempt upstream deadline")
	flag.Int64Var(&cfg.Seed, "seed", 1, "probe-jitter seed")
	metrics := flag.Bool("metrics", false, "expose GET /metrics (Prometheus)")
	drain := flag.Duration("draintimeout", 10*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")
	flag.Parse()

	cfg.Replicas = parseReplicas(*replicas)
	if *metrics {
		cfg.Metrics = kpj.NewMetricsRegistry()
	}
	if err := run(cfg, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "kpjrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg router.Config, addr string, drain time.Duration) error {
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()

	srv := &http.Server{
		Addr:              addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("routing to %d replicas on %s\n", len(cfg.Replicas), addr)
	if cfg.Metrics != nil {
		fmt.Println("metrics on /metrics")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Printf("shutting down (draining up to %v)...\n", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// parseReplicas splits "-replicas a,b,name=c" into configs; URL
// validation happens in router.New.
func parseReplicas(s string) []router.ReplicaConfig {
	var out []router.ReplicaConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rc := router.ReplicaConfig{URL: part}
		if name, u, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			rc.Name, rc.URL = name, u
		}
		out = append(out, rc)
	}
	return out
}
