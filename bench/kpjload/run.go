package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"kpj"
	"kpj/internal/server"
)

// metricDef is one row of BENCHMARK.json; the test pins the two.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the numbers a user of the fleet sees. Every workload
// produces all of them: "op" is the workload's own operation mix.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// replayBehind is how many WAL records sit behind the newest checkpoint
// when the restart cycles begin, so every cycle of every run replays the
// same number: the update workloads' op lists end there (config.updates,
// config.steps), and the read workloads have written nothing.
var replayBehind = map[string]uint64{"update-reweight": 16, "live-churn": 8}

// result is what one run measured.
type result struct {
	workload  string
	seed      int64
	metrics   map[string]float64 // end-to-end when untraced, per-layer when traced
	extra     map[string]float64 // printed for the reader, not part of the contract
	samples   map[string]int     // sample count behind a metric
	attempted int
	failed    int
	problems  []string
	spans     string // file the span list was written to
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// runner holds one run's state.
type runner struct {
	cfg  config
	w    string
	dir  string
	tr   *tracer
	c    *client
	plan *plan
	res  *result

	fleet  *coldStart
	g0     *kpj.Graph // harness copy of epoch 0
	ix0    *kpj.Index
	shadow *kpj.Graph // harness copy of the epoch being served
	epoch  uint64

	execs     int          // operations sent so far; the tracer's op id
	execOp    map[int]int  // exec id -> index into plan.ops, traced runs only
	timedOps  int          // operations inside the timed main phase
	tapLat    [2][]float64 // traced runs: timed latencies with taps off, on
	layers    *layerProbe  // traced runs only
	timedCost cost         // process CPU time and heap bytes allocated inside timed operations
	gcStart   uint32
}

func runWorkload(w string, seed int64, cfg config, dir string, traced bool) (*result, error) {
	if _, ok := workloadByName(w); !ok {
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	dir, err := os.MkdirTemp(dir, "kpjload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{cfg: cfg, w: w, dir: dir, c: newClient(),
		res: &result{workload: w, seed: seed, metrics: map[string]float64{},
			extra: map[string]float64{}, samples: map[string]int{}}}
	defer r.c.close()
	if traced {
		r.tr = newTracer()
		r.execOp = map[int]int{}
		r.cfg = tracedConfig(cfg)
	}
	grPath, poisPath := filepath.Join(dir, "net.gr"), filepath.Join(dir, "net.pois")
	if err := r.generate(seed, grPath, poisPath); err != nil {
		return nil, err
	}

	if err := r.setup(grPath, poisPath); err != nil {
		return nil, err
	}
	defer func() {
		if r.fleet != nil {
			r.fleet.close()
		}
	}()
	r.gcStart = gcCycles()
	switch w {
	case "query-far", "query-near":
		err = r.queryPhase()
	case "update-reweight":
		err = r.updatePhase()
	case "live-churn":
		err = r.churnPhase()
	}
	if err != nil {
		return nil, err
	}
	if traced {
		r.layerMetrics()
	}
	r.res.metrics["heap_live_mb"] = heapLiveMiB()
	if err := r.checkFinalState(); err != nil {
		return nil, err
	}
	if err := r.restarts(); err != nil {
		return nil, err
	}
	if traced {
		r.res.spans = filepath.Join(filepath.Dir(dir), "kpjload-spans-"+w+".json")
		if err := r.tr.writeFile(r.res.spans); err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			delete(r.res.metrics, m.name)
		}
	}
	return r.res, nil
}

// generate makes everything the run sends before any clock starts: the
// plan, the DIMACS files the cold starts import and, on a traced run,
// the layer probes. The generator's graph goes out of scope with it, so
// it does not count as live heap.
func (r *runner) generate(seed int64, grPath, poisPath string) error {
	ds, err := newDataset(r.cfg.side)
	if err != nil {
		return err
	}
	if r.plan, err = newPlan(r.w, seed, r.cfg, ds); err != nil {
		return err
	}
	if r.tr != nil {
		if r.layers, err = probeLayers(ds, queryCategory(r.w), r.dir); err != nil {
			return err
		}
	}
	if err := os.WriteFile(grPath, ds.gr, 0o644); err != nil {
		return err
	}
	return os.WriteFile(poisPath, ds.pois, 0o644)
}

func queryCategory(w string) string {
	switch w {
	case "query-far":
		return "T1"
	case "live-churn":
		return "T2"
	}
	return "T4"
}

func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// cost is what the process spent: CPU time, and bytes allocated on the
// heap (cumulative, not live) — the fleet's and, between the marks, a
// little of the client's.
type cost struct {
	cpu   time.Duration
	alloc uint64
}

// spent reads the process totals; the difference of two reads is the
// cost of what ran between them. It is cheap enough to take per
// operation: no stop-the-world.
func spent() cost {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return cost{cpu: cpuTime(), alloc: sample[0].Value.Uint64()}
}

func (c *cost) add(d cost) {
	c.cpu += d.cpu
	c.alloc += d.alloc
}

func (c *cost) addSince(start cost) {
	now := spent()
	c.cpu += now.cpu - start.cpu
	c.alloc += now.alloc - start.alloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) fail(format string, args ...any) {
	r.res.failed++
	if len(r.res.problems) < 10 {
		r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) problem(format string, args ...any) {
	r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
}

// setup measures setup_s: the median of the cold starts plus the
// standard warm-up through the router. The last cold start's fleet
// serves the rest of the run.
func (r *runner) setup(grPath, poisPath string) error {
	var totals []float64
	for i := 0; i < r.cfg.setupCycles; i++ {
		if r.fleet != nil {
			r.fleet.close()
			r.fleet = nil
		}
		cycleDir := filepath.Join(r.dir, fmt.Sprintf("cycle%d", i))
		if err := os.Mkdir(cycleDir, 0o755); err != nil {
			return err
		}
		runtime.GC()
		r.tr.setOp(-1 - i)
		id := r.tr.begin("setup")
		cs, err := runColdStart(cycleDir, grPath, poisPath, r.tr, r.c)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("cold start %d: %w", i, err)
		}
		r.fleet = cs
		totals = append(totals, cs.total.Seconds())
	}
	r.g0, r.ix0, r.shadow = r.fleet.g, r.fleet.ix, r.fleet.g
	runtime.GC()
	var warm float64
	for i := range r.plan.warmup {
		warm += r.sendQuery(&r.plan.warmup[i], -1)
	}
	r.res.metrics["setup_s"] = median(totals) + warm/1e3
	r.res.samples["setup_s"] = len(totals)
	return nil
}

// send issues one operation, counts it, and returns its latency in ms
// and its body; ok is false (and the op counted failed) on a transport
// error or a status other than 200. planIdx >= 0 ties the execution to
// plan.ops for the tracer.
func (r *runner) send(base string, o *op, planIdx int) (latMs float64, body []byte, ok bool) {
	r.execs++
	r.res.attempted++
	var id int
	if r.tr != nil {
		r.tr.setOp(r.execs)
		if planIdx >= 0 {
			r.execOp[r.execs] = planIdx
		}
		id = r.tr.begin("request")
	}
	status, body, lat, err := r.c.do(base, o)
	r.tr.end(id)
	if err != nil {
		r.fail("%s: %v", o.target, err)
		return 0, nil, false
	}
	if status != http.StatusOK {
		r.fail("%s: status %d: %s", o.target, status, bytes.TrimSpace(body))
		return float64(lat) / 1e6, body, false
	}
	return float64(lat) / 1e6, body, true
}

// sendQuery routes one query whose answer was or will be validated in
// full elsewhere: it checks only status and truncation.
func (r *runner) sendQuery(o *op, planIdx int) (latMs float64) {
	lat, body, ok := r.send(r.fleet.front.url, o, planIdx)
	if ok && bytes.Contains(body, []byte(`"truncated":true`)) {
		r.fail("%s: truncated", o.target)
	}
	return lat
}

// answer decodes a /query body and checks it against the harness's copy
// of the epoch it claims: right epoch, not truncated, and every path
// valid, simple, source-to-category and in non-decreasing length order.
func (r *runner) answer(o *op, body []byte) (*server.QueryResponse, bool) {
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		r.fail("%s: bad JSON: %v", o.target, err)
		return nil, false
	}
	if qr.Truncated {
		r.fail("%s: truncated", o.target)
		return nil, false
	}
	if qr.Epoch != r.epoch {
		r.fail("%s: answered at epoch %d, fleet is at %d", o.target, qr.Epoch, r.epoch)
		return nil, false
	}
	targets, err := r.shadow.Category(o.category)
	if err != nil {
		r.fail("%s: %v", o.target, err)
		return nil, false
	}
	paths := make([]kpj.Path, len(qr.Paths))
	for i, p := range qr.Paths {
		paths[i] = kpj.Path{Nodes: p.Nodes, Length: p.Length}
	}
	if err := kpj.ValidatePaths(r.shadow, []kpj.NodeID{o.source}, targets, paths); err != nil {
		r.fail("%s: %v", o.target, err)
		return nil, false
	}
	return &qr, true
}

func lengths(qr *server.QueryResponse) []kpj.Weight {
	out := make([]kpj.Weight, len(qr.Paths))
	for i, p := range qr.Paths {
		out[i] = p.Length
	}
	return out
}

// oracle recomputes sampled answers with the deviation baseline and no
// index — code that shares nothing with the default engine — on the
// harness's graph and compares path lengths.
func (r *runner) oracle(g *kpj.Graph, ops []op, got [][]kpj.Weight) {
	for i := range ops {
		r.res.attempted++
		want, err := g.TopKJoin(ops[i].source, ops[i].category, ops[i].k, &kpj.Options{Algorithm: kpj.DA})
		if err != nil {
			r.fail("oracle %s: %v", ops[i].target, err)
			continue
		}
		same := len(want) == len(got[i])
		for j := 0; same && j < len(want); j++ {
			same = want[j].Length == got[i][j]
		}
		if !same {
			r.fail("oracle %s: lengths differ from DA without an index", ops[i].target)
		}
	}
}

// record counts one timed operation; a traced run also files its
// latency under the current tap state, for the overhead ratio.
func (r *runner) record(lat float64) {
	r.timedOps++
	if r.tr == nil {
		return
	}
	i := 0
	if r.tr.enabled() {
		i = 1
	}
	r.tapLat[i] = append(r.tapLat[i], lat)
}

// queryPhase is the main phase of the two read workloads: one untimed
// pass that validates every answer, then the timed passes over the same
// list. A query's latency is the median of its executions, one per pass.
func (r *runner) queryPhase() error {
	ops := r.plan.ops
	base := r.fleet.front.url
	nOracle := r.cfg.oracle[r.w]
	timedPasses := r.cfg.farPasses
	if r.w == "query-near" {
		timedPasses = r.cfg.nearPasses
	}
	var got [][]kpj.Weight
	for i := range ops {
		_, body, ok := r.send(base, &ops[i], -1)
		if !ok {
			continue
		}
		qr, ok := r.answer(&ops[i], body)
		if !ok {
			continue
		}
		if len(got) < nOracle && len(got) == i {
			got = append(got, lengths(qr))
		}
		if r.layers != nil {
			r.layers.responseBytes = append(r.layers.responseBytes, float64(len(body)))
		}
	}
	r.oracle(r.g0, ops[:len(got)], got)

	runtime.GC()
	var passes [][]float64
	var rates []float64
	for p := 0; p < timedPasses; p++ {
		// A traced run times its first pass with the taps off, for the
		// overhead ratio, and the rest with them on.
		r.tr.enable(p > 0)
		lat := make([]float64, len(ops))
		var sum float64
		start := spent()
		for i := range ops {
			l := r.sendQuery(&ops[i], i)
			lat[i] = l
			sum += l
			r.record(l)
		}
		r.timedCost.addSince(start)
		passes = append(passes, lat)
		rates = append(rates, float64(len(ops))/(sum/1e3))
	}
	r.tr.enable(false)
	r.opMetrics(rates, medianOfPasses(passes))
	if r.layers != nil {
		r.layers.replayQueries(r.tr, r.g0, r.ix0, ops, 0)
	}
	return nil
}

// opMetrics reports the main phase: throughput as the median over its
// passes or segments, latency percentiles over lats.
func (r *runner) opMetrics(rates, lats []float64) {
	r.res.metrics["ops_per_s"] = median(rates)
	r.res.metrics["op_p50_ms"] = percentile(lats, 0.5)
	r.res.metrics["op_p90_ms"] = percentile(lats, 0.9)
	r.res.samples["ops_per_s"] = len(rates)
	r.res.samples["op_p50_ms"] = len(lats)
	r.res.samples["op_p90_ms"] = len(lats)
}

// update sends one delta through the router and checks the ack.
func (r *runner) update(o *op, planIdx int) float64 {
	lat, body, ok := r.send(r.fleet.front.url, o, planIdx)
	if !ok {
		return lat
	}
	var ack struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Epoch != r.epoch+1 {
		r.fail("%s: ack %s, want epoch %d", o.target, bytes.TrimSpace(body), r.epoch+1)
		return lat
	}
	r.epoch++
	return lat
}

// updatePhase is the main phase of update-reweight: one untimed segment,
// then timed segments of segmentSize acknowledged updates.
func (r *runner) updatePhase() error {
	ops := r.plan.ops
	var lats, rates []float64
	for seg := 0; (seg+1)*segmentSize <= len(ops); seg++ {
		if seg == 1 {
			runtime.GC()
		}
		// Traced runs leave the taps off on the first timed segment.
		r.tr.enable(seg > 1)
		var sum float64
		for i := seg * segmentSize; i < (seg+1)*segmentSize; i++ {
			var c cost
			start := spent()
			l := r.update(&ops[i], i)
			c.addSince(start)
			if r.layers != nil {
				r.layers.shadowUpdate(r, &ops[i], l, seg > 0)
			}
			if seg == 0 {
				continue
			}
			lats = append(lats, l)
			sum += l
			r.record(l)
			r.timedCost.add(c)
		}
		if seg == 0 {
			continue
		}
		rates = append(rates, segmentSize/(sum/1e3))
	}
	r.tr.enable(false)
	r.opMetrics(rates, lats)
	return nil
}

// churnStepsPerSegment groups live-churn steps into throughput samples
// long enough (~0.6 s) that one scheduler hiccup does not decide them.
const churnStepsPerSegment = 2

// churnPhase is the main phase of live-churn: config.steps steps of one
// churn delta followed by reads on the epoch it published, the first
// step untimed. The timed steps pair up into throughput segments; the
// odd one left over at the end counts toward the latencies only.
// Every read is validated against the harness's copy of that epoch.
func (r *runner) churnPhase() error {
	ops := r.plan.ops
	per := 1 + r.cfg.reads
	base := r.fleet.front.url
	nOracle := r.cfg.oracle[r.w]
	var lats, rates, firstReads []float64
	var segSum float64
	var got [][]kpj.Weight
	var gotOps []op
	for step := 0; (step+1)*per <= len(ops); step++ {
		if step == 1 {
			runtime.GC()
		}
		// Traced runs alternate the taps by step, on for odd steps: step 31
		// publishes epoch 32, the checkpoint, and should be seen.
		tapped := step%2 == 1
		r.tr.enable(tapped)
		u := step * per
		var c cost
		start := spent()
		l := r.update(&ops[u], u)
		c.addSince(start)
		next, err := r.shadow.WithDelta(ops[u].delta)
		if err != nil {
			return fmt.Errorf("shadow step %d: %w", step, err)
		}
		r.shadow = next
		if r.layers != nil {
			r.layers.shadowUpdate(r, &ops[u], l, step > 0)
		}
		stepLats := []float64{l}
		got, gotOps = got[:0], gotOps[:0]
		for i := u + 1; i < u+per; i++ {
			start := spent()
			rl, body, ok := r.send(base, &ops[i], i)
			c.addSince(start)
			stepLats = append(stepLats, rl)
			if !ok {
				continue
			}
			if r.layers != nil {
				r.layers.responseBytes = append(r.layers.responseBytes, float64(len(body)))
			}
			if qr, ok := r.answer(&ops[i], body); ok && len(got) < nOracle {
				got = append(got, lengths(qr))
				gotOps = append(gotOps, ops[i])
			}
		}
		if r.layers != nil && tapped {
			r.layers.replayQueries(r.tr, r.layers.shadow.g, r.layers.shadow.ix, ops[u+1:u+per], u+1)
		}
		if step == 0 {
			continue
		}
		firstReads = append(firstReads, stepLats[1])
		r.timedCost.add(c)
		for _, v := range stepLats {
			lats = append(lats, v)
			segSum += v
			r.record(v)
		}
		if step%churnStepsPerSegment == 0 {
			rates = append(rates, float64(churnStepsPerSegment*per)/(segSum/1e3))
			segSum = 0
		}
	}
	r.tr.enable(false)
	// The reads of the last step ran on the final epoch; r.shadow is it.
	r.oracle(r.shadow, gotOps, got)
	r.opMetrics(rates, lats)
	if r.layers != nil {
		r.layers.firstReadMs = median(firstReads)
	}
	return nil
}

type health struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

func (r *runner) health(base string) (health, error) {
	var h health
	r.res.attempted++
	status, body, err := r.c.get(base + "/healthz")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &h)
	}
	if err != nil {
		r.res.failed++
		return h, fmt.Errorf("%s/healthz: %w", base, err)
	}
	return h, nil
}

// checkFinalState compares the replica's generation with an index built
// from scratch on the generator's final graph and the original landmarks.
// For the reweight stream that graph is epoch 0 plus one merged delta, so
// a chain of single applies is checked against a single apply.
func (r *runner) checkFinalState() error {
	h, err := r.health(r.fleet.rep.url)
	if err != nil {
		return err
	}
	if r.w == "update-reweight" {
		if r.shadow, err = r.g0.WithDelta(r.plan.mergedReweights()); err != nil {
			return fmt.Errorf("merged reweights: %w", err)
		}
	}
	want := r.ix0
	if r.epoch > 0 {
		if want, err = kpj.BuildIndexWithLandmarks(r.shadow, r.ix0.Landmarks()); err != nil {
			return fmt.Errorf("rebuild index on final graph: %w", err)
		}
	}
	if fp := fmt.Sprintf("%016x", want.Fingerprint()); h.Epoch != r.epoch || h.Fingerprint != fp {
		r.fail("replica at epoch %d fingerprint %s, generator's final graph gives epoch %d fingerprint %s",
			h.Epoch, h.Fingerprint, r.epoch, fp)
	}
	return nil
}

// probeAnswers sends the probe queries straight to the replica and
// returns the bodies' path lists, validated, as comparable strings.
func (r *runner) probeAnswers(base string) ([]string, [][]kpj.Weight) {
	out := make([]string, len(r.plan.probes))
	lens := make([][]kpj.Weight, len(r.plan.probes))
	for i := range r.plan.probes {
		_, body, ok := r.send(base, &r.plan.probes[i], -1)
		if !ok {
			continue
		}
		if qr, ok := r.answer(&r.plan.probes[i], body); ok {
			paths, _ := json.Marshal(qr.Paths)
			out[i], lens[i] = string(paths), lengths(qr)
		}
	}
	return out, lens
}

// restarts checks recovery: the router goes away, then the replica is
// crashed and reopened from its WAL directory restartCycles times. After
// each reopen epoch, fingerprint and the probe answers must equal the
// ones seen before the first crash. A traced run keeps the times.
func (r *runner) restarts() error {
	rep := r.fleet.rep
	before, err := r.health(rep.url)
	if err != nil {
		return err
	}
	answers, lens := r.probeAnswers(rep.url)
	if r.w == "update-reweight" {
		// This workload's main phase has no reads; its probes get the
		// oracle instead, on the final graph.
		n := r.cfg.oracle[r.w]
		r.oracle(r.shadow, r.plan.probes[:n], lens[:n])
	}
	r.fleet.front.close()
	flat, walDir := r.fleet.flat, r.fleet.walDir
	r.fleet = nil

	for i := 0; i < r.cfg.restartCycles; i++ {
		rep.crash()
		rep = nil
		runtime.GC()
		r.tr.setOp(-100 - i)
		id := r.tr.begin("restart")
		rep, err = openReplica(flat, walDir, r.tr.wrap("server"), r.c)
		r.tr.end(id)
		r.res.attempted++
		if err != nil {
			r.res.failed++
			return fmt.Errorf("restart %d: %w", i, err)
		}
		if r.layers != nil {
			r.layers.restarts = append(r.layers.restarts, rep.stats)
		}
		after, err := r.health(rep.url)
		if err != nil {
			rep.crash()
			return err
		}
		if after != before {
			r.fail("restart %d: came back at %+v, crashed at %+v", i, after, before)
		}
		if want := replayBehind[r.w]; uint64(rep.stats.replayed) != want {
			r.fail("restart %d: replayed %d records, want %d", i, rep.stats.replayed, want)
		}
		again, _ := r.probeAnswers(rep.url)
		for j := range again {
			if again[j] != answers[j] {
				r.fail("restart %d: probe %s answers differently than before the crash", i, r.plan.probes[j].target)
			}
		}
	}
	rep.crash()
	if r.layers != nil {
		r.layers.restartMetrics(r.res.metrics)
	}
	return nil
}
