package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"kpj"
	"kpj/internal/flatindex"
	"kpj/internal/graph"
	"kpj/internal/landmark"
	"kpj/internal/pqueue"
	"kpj/internal/server"
	"kpj/internal/sssp"
	"kpj/internal/wal"
)

// perLayer are the numbers of single layers, printed by a traced run.
// Timings are medians of direct calls made with the workload's own
// operations; counts are exact. A metric whose layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"core.query_ms", "ms", "lower", 0},
	{"core.pops_per_query", "count", "lower", 0},
	{"core.relax_per_query", "count", "lower", 0},
	{"core.searches_per_query", "count", "lower", 0},
	{"core.tau_rounds_per_query", "count", "lower", 0},
	{"core.spt_nodes_per_query", "count", "lower", 0},
	{"core.allocs_per_query", "count", "lower", 0},
	{"sssp.dijkstra_ms", "ms", "lower", 0},
	{"pqueue.pushpop_ns", "ns", "lower", 0},
	{"landmark.build_ms", "ms", "lower", 0},
	{"landmark.bounds_to_set_us", "us", "lower", 0},
	{"landmark.repair_ms", "ms", "lower", 0},
	{"landmark.tables_repaired", "count", "lower", 0},
	{"landmark.full_rebuild_ratio", "ratio", "lower", 0},
	{"landmark.rekey_us", "us", "lower", 0},
	{"landmark.cache_dropped_per_update", "count", "lower", 0},
	{"graph.read_gr_ms", "ms", "lower", 0},
	{"graph.apply_ms", "ms", "lower", 0},
	{"flatindex.write_ms", "ms", "lower", 0},
	{"flatindex.open_ms", "ms", "lower", 0},
	{"flatindex.bytes", "B", "lower", 0},
	{"wal.append_ms", "ms", "lower", 0},
	{"wal.append_bytes", "B", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_bytes", "B", "lower", 0},
	{"wal.open_ms", "ms", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},
	{"server.handler_self_ms", "ms", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.response_bytes", "B", "lower", 0},
	{"server.update_self_ms", "ms", "lower", 0},
	{"server.restart_ms", "ms", "lower", 0},
	{"server.recover_ms", "ms", "lower", 0},
	{"server.replay_records", "count", "lower", 0},
	{"server.first_query_after_update_ms", "ms", "lower", 0},
	{"router.proxy_self_ms", "ms", "lower", 0},
	{"router.update_self_ms", "ms", "lower", 0},
	{"net.loopback_self_ms", "ms", "lower", 0},
	{"net.update_loopback_self_ms", "ms", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.alloc_kb_per_op", "KiB", "lower", 0},
	{"proc.rss_peak_mb", "MiB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// layerProbe collects a traced run's direct-call measurements.
type layerProbe struct {
	direct map[string]float64 // layers timed once per run on the dataset

	restarts      []restartStats
	responseBytes []float64
	firstReadMs   float64

	// Replays of the workload's reads straight into the engine.
	cache    *kpj.BoundsCache
	engineMs map[int]float64 // plan index -> TopKJoin ms
	encodeUs []float64
	stats    kpj.Stats
	queries  int
	allocs   []float64

	// The shadow chain re-applies each routed delta layer by layer.
	shadow  *shadowChain
	updates []updateSample
	// WAL directory of the replica: bytes it grew by, seen after each ack
	// — log frames on ordinary epochs, a checkpoint (and the frame before
	// it) on checkpoint epochs.
	walSeen   map[string]int64
	walFrames []float64
	walCkpts  []float64
}

type shadowChain struct {
	g   *kpj.Graph
	ix  *kpj.Index
	log *wal.Log
	dir string
}

// updateSample is one timed update: the routed latency, the replica's
// own counters, and the same delta's cost at each layer of the shadow
// chain. Only tapped samples have router and server spans.
type updateSample struct {
	exec                           int
	tapped                         bool
	routedMs                       float64
	applyMs, indexApplyMs, rekeyMs float64
	appendMs, appendBytes          float64
	checkpointMs, checkpointBytes  float64
	repaired, cacheDropped         float64
	fullRebuild                    bool
}

func medianOf(n int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// probeLayers times the layers that do not depend on traffic by calling
// them directly on the dataset: DIMACS parse, landmark build, one full
// Dijkstra, the node queue, a bound table, flat write and verified open.
func probeLayers(ds *dataset, category, dir string) (*layerProbe, error) {
	l := &layerProbe{direct: map[string]float64{}, engineMs: map[int]float64{},
		cache: kpj.NewBoundsCache(0), walSeen: map[string]int64{}}
	var err error
	if l.direct["graph.read_gr_ms"], err = medianOf(3, func() error {
		_, err := graph.ReadGr(bytes.NewReader(ds.gr))
		return err
	}); err != nil {
		return nil, err
	}
	var lix *landmark.Index
	if l.direct["landmark.build_ms"], err = medianOf(3, func() error {
		lix, err = landmark.BuildParallel(ds.g, landmarkCount, datasetSeed, 0)
		return err
	}); err != nil {
		return nil, err
	}
	lms := lix.Landmarks()
	i := 0
	l.direct["sssp.dijkstra_ms"], _ = medianOf(5, func() error {
		sssp.Dijkstra(ds.g, graph.Forward, lms[i%len(lms)])
		i++
		return nil
	})
	const keys = 1 << 16
	rng := rand.New(rand.NewSource(datasetSeed))
	q := pqueue.NewNodeQueue(keys)
	pushpop, _ := medianOf(5, func() error {
		q.Reset()
		for v := int32(0); v < keys; v++ {
			q.PushOrDecrease(v, rng.Int63n(1<<30))
		}
		for q.Len() > 0 {
			q.Pop()
		}
		return nil
	})
	l.direct["pqueue.pushpop_ns"] = pushpop * 1e6 / keys
	targets, err := ds.g.Category(category)
	if err != nil {
		return nil, err
	}
	const tables = 64
	bounds, _ := medianOf(5, func() error {
		for j := 0; j < tables; j++ {
			lix.BoundsToSet(targets)
		}
		return nil
	})
	l.direct["landmark.bounds_to_set_us"] = bounds * 1e3 / tables
	path := filepath.Join(dir, "probe.kpjflat")
	if l.direct["flatindex.write_ms"], err = medianOf(3, func() error {
		return flatindex.WriteFile(path, ds.g, lix)
	}); err != nil {
		return nil, err
	}
	if l.direct["flatindex.open_ms"], err = medianOf(3, func() error {
		ld, err := flatindex.Open(path, false)
		if err != nil {
			return err
		}
		return ld.Close()
	}); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	l.direct["flatindex.bytes"] = float64(st.Size())
	return l, os.Remove(path)
}

// replayQueries calls the engine directly for each read in ops (plan
// indexes base, base+1, ...) with the options the server uses, then
// times the JSON encoding of the answer the server would send.
func (l *layerProbe) replayQueries(tr *tracer, g *kpj.Graph, ix *kpj.Index, ops []op, base int) {
	for i := range ops {
		o := &ops[i]
		if o.update {
			continue
		}
		var st kpj.Stats
		var before, after runtime.MemStats
		countAllocs := len(l.allocs) < 50
		if countAllocs {
			runtime.ReadMemStats(&before)
		}
		tr.setOp(-1000 - base - i)
		var paths []kpj.Path
		ms := tr.timed("engine", func() {
			paths, _ = g.TopKJoin(o.source, o.category, o.k, &kpj.Options{Index: ix, BoundsCache: l.cache, Stats: &st})
		})
		if countAllocs {
			runtime.ReadMemStats(&after)
			l.allocs = append(l.allocs, float64(after.Mallocs-before.Mallocs))
		}
		l.engineMs[base+i] = ms
		l.stats.Add(st)
		l.queries++
		resp := server.QueryResponse{Paths: make([]server.PathJSON, len(paths)), Fingerprint: "0000000000000000"}
		for j, p := range paths {
			resp.Paths[j] = server.PathJSON{Nodes: p.Nodes, Length: p.Length}
		}
		l.encodeUs = append(l.encodeUs, 1e3*tr.timed("encode", func() {
			_ = json.NewEncoder(io.Discard).Encode(&resp)
		}))
	}
}

func dirSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			out[e.Name()] = info.Size()
		}
	}
	return out, nil
}

// grown adds up what dir gained since seen: growth of known files plus
// the size of new ones. Files that shrank or vanished were rotated away
// and count nothing.
func grown(dir string, seen map[string]int64) (int64, error) {
	now, err := dirSizes(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for name, size := range now {
		if size > seen[name] {
			sum += size - seen[name]
		}
	}
	for name := range seen {
		delete(seen, name)
	}
	for name, size := range now {
		seen[name] = size
	}
	return sum, nil
}

// shadowUpdate runs after the routed update o was acknowledged in
// routedMs: it accounts the bytes the replica's WAL directory gained and
// repeats the delta on the shadow chain, timing graph.Apply, the index
// apply (apply + landmark repair), the cache rekey, wal.Append and, on
// checkpoint epochs, wal.Checkpoint. timed says whether to keep the
// timings or only advance the chain (an untimed warm-up update).
func (l *layerProbe) shadowUpdate(r *runner, o *op, routedMs float64, timed bool) {
	if l.shadow == nil {
		dir := filepath.Join(r.dir, "shadow-wal")
		log, _, err := wal.Open(dir)
		if err != nil {
			r.problem("shadow wal: %v", err)
			return
		}
		l.shadow = &shadowChain{g: r.g0, ix: r.ix0, log: log, dir: dir}
	}
	if n, err := grown(r.fleet.walDir, l.walSeen); err == nil {
		if r.epoch%checkpointEvery == 0 {
			l.walCkpts = append(l.walCkpts, float64(n))
		} else {
			l.walFrames = append(l.walFrames, float64(n))
		}
	}
	sh := l.shadow
	s := updateSample{exec: r.execs, tapped: r.tr.enabled(), routedMs: routedMs}
	r.tr.setOp(-r.execs - 1000000)
	s.applyMs = r.tr.timed("graph.Apply", func() {
		_, _, _ = graph.Apply(sh.g.Unwrap(), o.delta)
	})
	var app *kpj.Applied
	var err error
	s.indexApplyMs = r.tr.timed("Index.Apply", func() { app, err = sh.ix.Apply(o.delta) })
	if err != nil {
		r.problem("shadow apply: %v", err)
		return
	}
	s.rekeyMs = r.tr.timed("RekeyBounds", func() { app.RekeyBounds(l.cache) })
	sh.g, sh.ix = app.Graph, app.Index
	seen, _ := dirSizes(sh.dir)
	rec := wal.Record{Epoch: r.epoch, Fingerprint: app.Index.Fingerprint(),
		Nodes: app.Graph.NumNodes(), Edges: app.Graph.NumEdges(), Delta: o.delta}
	s.appendMs = r.tr.timed("wal.Append", func() { err = sh.log.Append(rec) })
	if err != nil {
		r.problem("shadow append: %v", err)
		return
	}
	n, _ := grown(sh.dir, seen)
	s.appendBytes = float64(n)
	if r.epoch%checkpointEvery == 0 {
		s.checkpointMs = r.tr.timed("wal.Checkpoint", func() {
			err = sh.log.Checkpoint(r.epoch, func(w io.Writer) error {
				_, err := kpj.WriteFlat(w, app.Graph, app.Index)
				return err
			})
		})
		if err != nil {
			r.problem("shadow checkpoint: %v", err)
			return
		}
		n, _ := grown(sh.dir, seen)
		s.checkpointBytes = float64(n)
	}
	if !timed {
		return
	}
	var ur server.UpdateResponse
	if s.tapped && json.Unmarshal(r.tr.lastUpdateBody(), &ur) == nil && ur.Epoch == r.epoch {
		s.repaired, s.cacheDropped, s.fullRebuild = float64(ur.RepairedTables), float64(ur.CacheDropped), ur.FullRebuild
	}
	l.updates = append(l.updates, s)
}

func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerMetrics turns spans and samples into the per-layer metrics. A
// layer's self time is its span minus its child span, per operation.
func (r *runner) layerMetrics() {
	l, m := r.layers, r.res.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range l.direct {
		m[k] = v
	}
	req, rtr, srv := r.tr.durations("request"), r.tr.durations("router"), r.tr.durations("server")

	// Reads: request ⊃ router ⊃ server, engine from the direct replay.
	var loop, proxy, handler, tapped []float64
	for exec, idx := range r.execOp {
		if r.plan.ops[idx].update || rtr[exec] == 0 {
			continue
		}
		tapped = append(tapped, req[exec])
		loop = append(loop, req[exec]-rtr[exec])
		proxy = append(proxy, rtr[exec]-srv[exec])
		if e, ok := l.engineMs[idx]; ok {
			handler = append(handler, srv[exec]-e)
		}
	}
	if l.queries > 0 {
		n := float64(l.queries)
		var engine []float64
		for _, v := range l.engineMs {
			engine = append(engine, v)
		}
		m["core.query_ms"] = median(engine)
		m["core.pops_per_query"] = float64(l.stats.NodesPopped) / n
		m["core.relax_per_query"] = float64(l.stats.EdgesRelaxed) / n
		m["core.searches_per_query"] = float64(l.stats.Searches) / n
		m["core.tau_rounds_per_query"] = float64(l.stats.TauRounds) / n
		m["core.spt_nodes_per_query"] = float64(l.stats.SPTNodes) / n
		m["core.allocs_per_query"] = median(l.allocs)
		m["server.encode_us"] = median(l.encodeUs)
		m["server.handler_self_ms"] = median(handler)
		m["router.proxy_self_ms"] = median(proxy)
		m["net.loopback_self_ms"] = median(loop)
		m["server.response_bytes"] = mean(l.responseBytes)
		m["server.first_query_after_update_ms"] = l.firstReadMs
	}

	// Writes: the means over the tapped updates, so that the layers add up
	// to the routed mean; server.update_self_ms is what the replica's span
	// holds beyond the shadow chain's layers. Checkpoints are rare, so
	// their own cost is taken from every timed update that made one.
	var ckptMs, ckptB []float64
	var tappedUpdates []updateSample
	for _, s := range l.updates {
		if s.checkpointMs > 0 {
			ckptMs = append(ckptMs, s.checkpointMs)
			ckptB = append(ckptB, s.checkpointBytes)
		}
		if s.tapped {
			tappedUpdates = append(tappedUpdates, s)
		}
	}
	if len(tappedUpdates) > 0 {
		var routed, uloop, urouter, userver, apply, repair, rekey, appendMs, appendB, ckptShare, repaired, dropped, full float64
		for _, s := range tappedUpdates {
			routed += s.routedMs
			uloop += req[s.exec] - rtr[s.exec]
			urouter += rtr[s.exec] - srv[s.exec]
			userver += srv[s.exec]
			apply += s.applyMs
			repair += s.indexApplyMs - s.applyMs
			rekey += s.rekeyMs
			appendMs += s.appendMs
			appendB += s.appendBytes
			ckptShare += s.checkpointMs
			repaired += s.repaired
			dropped += s.cacheDropped
			if s.fullRebuild {
				full++
			}
		}
		n := float64(len(tappedUpdates))
		m["graph.apply_ms"] = apply / n
		m["landmark.repair_ms"] = repair / n
		m["landmark.rekey_us"] = 1e3 * rekey / n
		m["landmark.tables_repaired"] = repaired / n
		m["landmark.full_rebuild_ratio"] = full / n
		m["landmark.cache_dropped_per_update"] = dropped / n
		m["wal.append_ms"] = appendMs / n
		m["wal.append_bytes"] = appendB / n
		m["wal.checkpoint_ms"] = mean(ckptMs)
		m["wal.checkpoint_bytes"] = mean(ckptB)
		m["server.update_self_ms"] = (userver - apply - repair - rekey - appendMs - ckptShare) / n
		m["router.update_self_ms"] = urouter / n
		m["net.update_loopback_self_ms"] = uloop / n
		for _, name := range []string{"server.update_self_ms", "router.update_self_ms", "graph.apply_ms", "landmark.repair_ms", "wal.append_ms"} {
			r.res.samples[name] = len(tappedUpdates)
		}
		r.res.samples["wal.checkpoint_ms"] = len(ckptMs)
		r.res.extra["routed_update_mean_ms"] = routed / n
		r.res.extra["checkpoint_share_ms"] = ckptShare / n
	}
	if len(l.walFrames) > 0 {
		m["wal.bytes_per_update"] = mean(l.walFrames) + mean(l.walCkpts)/checkpointEvery
	}
	if len(r.tapLat[0]) > 0 && len(r.tapLat[1]) > 0 {
		m["trace.overhead_ratio"] = percentile(r.tapLat[1], 0.5) / percentile(r.tapLat[0], 0.5)
	}
	r.res.extra["routed_read_p50_ms"] = percentile(tapped, 0.5)
	if r.timedOps > 0 {
		m["proc.cpu_ms_per_op"] = float64(r.timedCost.cpu) / 1e6 / float64(r.timedOps)
		m["proc.alloc_kb_per_op"] = float64(r.timedCost.alloc) / 1024 / float64(r.timedOps)
	}
	m["proc.gc_cycles"] = float64(gcCycles() - r.gcStart)
	m["proc.rss_peak_mb"] = rssPeakMiB()
	if len(tapped) > 0 {
		for _, name := range []string{"net.loopback_self_ms", "router.proxy_self_ms", "server.handler_self_ms"} {
			r.res.samples[name] = len(tapped)
		}
		r.res.samples["core.query_ms"] = l.queries
	}
	if l.shadow != nil {
		_ = l.shadow.log.Close()
	}
}

// restartMetrics fills the recovery layers from the restart cycles.
func (l *layerProbe) restartMetrics(m map[string]float64) {
	var total, open, rec []float64
	for _, s := range l.restarts {
		total = append(total, float64(s.total)/1e6)
		open = append(open, float64(s.walOpen)/1e6)
		rec = append(rec, float64(s.recoverTime)/1e6)
		m["server.replay_records"] = float64(s.replayed)
	}
	m["server.restart_ms"] = median(total)
	m["wal.open_ms"] = median(open)
	m["server.recover_ms"] = median(rec)
}
