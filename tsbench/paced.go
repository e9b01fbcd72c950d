package main

import (
	"fmt"
	"sync"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/metrics"
	"tstorm/internal/redisq"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
	"tstorm/internal/workloads"
)

// pacedSpec is one open-loop workload on the in-process live engine.
type pacedSpec struct {
	name string
	// rate is the offered load of the paced phase in lines/s: a constant,
	// never recalibrated per run, so a capacity change shows as latency. It
	// is about a quarter of this workload's saturated line rate on a quiet
	// 2-CPU host, so the load stays near half when a shared host runs at
	// half speed, as it does for minutes at a time.
	rate     float64
	spout    string // the reader component the bench spout replaces
	newApp   func(q *redisq.Server, sink *docstore.Store) (*engine.App, error)
	lines    func(seed uint64) func() string
	counters []string // docstore counter collections checked against the reference
	docs     []string // docstore document collections checked by count
}

var wcSpec = pacedSpec{
	name:  "wc-paced",
	rate:  wcRate,
	spout: "reader",
	newApp: func(q *redisq.Server, sink *docstore.Store) (*engine.App, error) {
		cfg := workloads.DefaultWordCountConfig()
		cfg.Queue, cfg.Sink, cfg.Workers = q, sink, pacedSlots
		return workloads.NewWordCount(cfg)
	},
	lines:    wcLines,
	counters: []string{"words"},
}

var logSpec = pacedSpec{
	name:  "log-paced",
	rate:  logRate,
	spout: "logspout",
	newApp: func(q *redisq.Server, sink *docstore.Store) (*engine.App, error) {
		cfg := workloads.DefaultLogStreamConfig()
		cfg.Queue, cfg.Sink, cfg.Workers = q, sink, pacedSlots
		return workloads.NewLogStream(cfg)
	},
	lines:    logLines,
	counters: []string{"sources"},
	docs:     []string{"index"},
}

// Paced-run constants. The cluster is the live bench's emulated 4 nodes ×
// 4 slots; inter-node hops pay the engine's emulated wire cost.
const (
	wcRate          = 3000.0
	logRate         = 8000.0
	pacedNodes      = 4
	pacedSlotsEach  = 4
	pacedSlots      = pacedNodes * pacedSlotsEach
	pacedMaxPending = 1024 // per spout; bounds queueing in the saturated phase
	pacedSetups     = 15   // extra engine set-ups timed before the measured one
	monitorPeriod   = 250 * time.Millisecond
	// warmup and loadAlpha give the load database about 20 monitor windows
	// of memory before the forced reschedule: with the live bench's 0.5
	// the placement Algorithm 1 picks, and the latency after it, vary from
	// run to run with the last second's noise.
	warmup     = 5 * time.Second
	loadAlpha  = 0.1
	pacedShare = 0.65 // of --seconds; the saturated phase gets the rest
	settle     = 1500 * time.Millisecond
	satRamp    = 300 * time.Millisecond
	traceRate  = 64
)

// pacedRig is one running engine with its input side.
type pacedRig struct {
	app  *engine.App
	eng  *live.Engine
	src  *source
	sink *docstore.Store
	next func() string
}

// build constructs, submits and starts the engine on the round-robin
// placement, feeds it one line and returns once that line is acked. The
// returned duration is the set-up time.
func (sp pacedSpec) build(seed uint64, trace int) (*pacedRig, time.Duration, error) {
	t0 := time.Now()
	q := redisq.NewServer()
	sink := docstore.NewStore()
	app, err := sp.newApp(q, sink)
	if err != nil {
		return nil, 0, err
	}
	src := newSource(q, sp.name)
	app.Spouts[sp.spout] = func() engine.Spout { return &benchSpout{src: src} }
	cl, err := cluster.Uniform(pacedNodes, 4, 2000, pacedSlotsEach)
	if err != nil {
		return nil, 0, err
	}
	initial, err := scheduler.RoundRobin{}.Schedule(
		scheduler.NewInput([]*topology.Topology{app.Topology}, cl, nil, 0))
	if err != nil {
		return nil, 0, err
	}
	lcfg := live.DefaultConfig()
	lcfg.Seed = seed
	lcfg.MaxPending = pacedMaxPending
	eng, err := live.NewEngine(lcfg, cl)
	if err != nil {
		return nil, 0, err
	}
	if err := eng.SetTraceSampling(trace); err != nil {
		return nil, 0, err
	}
	if err := eng.Submit(app, initial); err != nil {
		return nil, 0, err
	}
	next := sp.lines(seed)
	src.push(next(), time.Now().UnixNano())
	if err := eng.Start(); err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for src.acked.Load() == 0 {
		if time.Now().After(deadline) {
			eng.Stop()
			return nil, 0, fmt.Errorf("%s: first line not acked within 10s", sp.name)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return &pacedRig{app: app, eng: eng, src: src, sink: sink, next: next}, time.Since(t0), nil
}

// pollSample is one backlog observation.
type pollSample struct {
	at          int64
	outstanding int
	listLen     int
}

// poller observes the run from outside every 10 ms: the source backlog
// and, on traced runs, per-executor queue depths and finished trace trees.
type poller struct {
	rig    *pacedRig
	traced bool

	mu       sync.Mutex
	obs      []pollSample
	queueMax map[string]int // component → deepest queue seen (traced)
	trees    []tracing.Tree

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func startPoller(rig *pacedRig, traced bool) *poller {
	p := &poller{rig: rig, traced: traced, queueMax: map[string]int{},
		stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *poller) loop() {
	defer close(p.done)
	tk := time.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	for i := 0; ; i++ {
		select {
		case <-p.stop:
			return
		case <-tk.C:
		}
		s := pollSample{at: time.Now().UnixNano(), outstanding: p.rig.src.outstanding(),
			listLen: p.rig.src.q.LLen(p.rig.src.key)}
		p.mu.Lock()
		p.obs = append(p.obs, s)
		p.mu.Unlock()
		if !p.traced || i%5 != 0 {
			continue
		}
		stats := p.rig.eng.ExecutorStats()
		trees := p.rig.eng.TraceCollector().Drain()
		p.mu.Lock()
		for _, st := range stats {
			if st.QueueLen > p.queueMax[st.ID.Component] {
				p.queueMax[st.ID.Component] = st.QueueLen
			}
		}
		p.trees = append(p.trees, trees...)
		p.mu.Unlock()
	}
}

func (p *poller) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// between returns the observations in [from, to).
func (p *poller) between(from, to int64) []pollSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []pollSample
	for _, s := range p.obs {
		if s.at >= from && s.at < to {
			out = append(out, s)
		}
	}
	return out
}

// waitAcked waits until every line with index below n is acked.
func (s *source) waitAcked(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	cursor := 0
	for {
		s.mu.Lock()
		for cursor < n && s.ack[cursor] != 0 {
			cursor++
		}
		s.mu.Unlock()
		if cursor >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func runPaced(sp pacedSpec, seed uint64, seconds float64, traced bool) (*result, error) {
	r := newResult()
	r.prov["rate_lps"] = sp.rate
	r.prov["cluster"] = fmt.Sprintf("%d nodes x %d slots (emulated)", pacedNodes, pacedSlotsEach)
	r.prov["max_pending"] = pacedMaxPending
	r.prov["arrivals"] = "poisson, open loop"
	var spans *spanLog
	trace := 0
	if traced {
		spans, trace = &spanLog{}, traceRate
		r.prov["trace_sampling"] = traceRate
	}

	// Set-up time: the median of several full set-ups, each to its first
	// acked root, so that one slow start does not decide the figure.
	var setups []float64
	for i := 0; i < pacedSetups; i++ {
		rig, d, err := sp.build(seed, trace)
		if err != nil {
			return nil, err
		}
		rig.eng.Stop()
		setups = append(setups, d.Seconds())
	}
	heap := startHeapSampler()
	rig, d, err := sp.build(seed, trace)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer rig.eng.Stop()
	setups = append(setups, d.Seconds())
	r.e2e["setup_s"] = median(setups)
	r.counts["setup_s"] = len(setups)

	pacedDur := time.Duration(seconds * pacedShare * float64(time.Second))
	satDur := time.Duration(seconds*float64(time.Second)) - pacedDur
	db := loaddb.New(loadAlpha)
	mon := live.StartMonitor(rig.eng, db, monitorPeriod)
	defer mon.Stop()
	ctx := &roundCtx{spans: spans, parent: -1}
	algo := newTimedAlgo(ctx)
	target := &timedEngine{Engine: rig.eng, ctx: ctx}
	gen, err := startGenerator(target, db, algo)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer gen.Stop()

	// The schedule covers warm-up, recovery, the paced window and its
	// drain with room to spare; the feeder stops following it when the
	// saturated phase begins.
	horizon := warmup + 5*time.Second + pacedDur + 5*time.Second
	sched := poissonSchedule(seed, sp.rate, int(sp.rate*horizon.Seconds()))
	feedStart := time.Now()
	feed := startFeeder(rig.src, rig.next, sched, feedStart)
	defer feed.stop()
	poll := startPoller(rig, traced)
	defer poll.Stop()
	monSamples := &samples{}

	// Warm up on round-robin until the monitor has a few windows.
	for time.Since(feedStart) < warmup || mon.Samples() < 4 {
		time.Sleep(monitorPeriod)
		monSamples.add(ms(mon.LastRoundDuration()))
	}

	// One forced T-Storm reschedule, timed from outside. Recovery is the
	// time until the source list is back to its pre-reschedule length (the
	// 90th percentile of the last half second: Poisson arrivals between
	// spout polls keep a few lines queued even at steady state).
	var preLens samples
	for _, s := range poll.between(time.Now().Add(-500*time.Millisecond).UnixNano(), time.Now().UnixNano()) {
		preLens.add(float64(s.listLen))
	}
	preLevel := int(preLens.quantile(0.9))
	before, _ := rig.eng.CurrentAssignment(rig.app.Topology.Name())
	before = before.Clone()
	migBefore := rig.eng.Totals().Migrations
	if traced {
		t0 := time.Now()
		snap := db.Snapshot()
		t1 := time.Now()
		scheduler.NewInput([]*topology.Topology{rig.app.Topology}, rig.eng.Cluster(), snap, capacityFraction)
		r.layer["loaddb.snapshot_ms"] = ms(t1.Sub(t0))
		r.layer["scheduler.new_input_ms"] = ms(time.Since(t1))
		spans.add("loaddb.DB.Snapshot", 0, -1, t0.UnixNano(), t1.UnixNano())
		spans.add("scheduler.NewInput", 0, -1, t1.UnixNano(), time.Now().UnixNano())
	}
	ctx.parent = spans.begin("live.Generator.Reschedule", 0, -1)
	tr0 := time.Now()
	if err := reschedule(gen, algo); err != nil {
		r.fail("forced reschedule: %v", err)
	}
	tr1 := time.Now()
	spans.end(ctx.parent)
	// The list first grows while the spouts are halted for the migration,
	// then drains back to its pre-reschedule length.
	grew, recovered := false, false
	for time.Since(tr0) < 5*time.Second {
		n := rig.src.q.LLen(rig.src.key)
		grew = grew || n > preLevel
		if grew && n <= preLevel {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	recovery := time.Since(tr0)
	after, _ := rig.eng.CurrentAssignment(rig.app.Topology.Name())
	r.e2e["nodes_used"] = float64(after.NumUsedNodes())
	r.prov["placement_hash"] = fmt.Sprintf("%016x", hashAssignment(0, after))
	r.layer["live.nodes_used"] = float64(after.NumUsedNodes())
	r.layer["scheduler.nodes_used"] = float64(after.NumUsedNodes())
	r.layer["generator.round_ms"] = ms(tr1.Sub(tr0))
	r.layer["live.resched_recovery_ms"] = ms(recovery)
	if !recovered {
		r.note("source list did not return to its pre-reschedule length (%d) within 5s", preLevel)
	}
	r.layer["live.apply_ms"] = target.apply.sum()
	r.layer["live.migrations"] = float64(rig.eng.Totals().Migrations - migBefore)
	r.layer["scheduler.schedule_ms.p50"] = algo.times.quantile(0.5)
	r.layer["scheduler.schedule_ms.p99"] = algo.times.quantile(0.99)
	r.layer["scheduler.relaxations"] = float64(algo.relax)
	r.layer["scheduler.moved"] = float64(movedExecutors(before, after))
	r.layer["scheduler.inter_node_frac"] = predictedInterNodeFrac(after, db.Snapshot())

	// Let the post-reschedule placement reach steady state: the recovery
	// criterion compares against the round-robin backlog, which is higher.
	time.Sleep(settle)

	// Measured paced phase.
	tp0 := time.Now()
	tot0 := rig.eng.Totals()
	rt0 := readRuntime()
	edges0 := rig.eng.EdgeStats()
	exec0 := rig.eng.ExecutorStats()
	rig.eng.DrainCompletionLatency()
	for time.Since(tp0) < pacedDur {
		time.Sleep(monitorPeriod)
		monSamples.add(ms(mon.LastRoundDuration()))
	}
	tp1 := time.Now()
	tot1 := rig.eng.Totals()
	rt1 := readRuntime()
	edges1 := rig.eng.EdgeStats()
	exec1 := rig.eng.ExecutorStats()
	complete := rig.eng.DrainCompletionLatency()
	nPaced := rig.src.pushed()
	if !rig.src.waitAcked(nPaced, 10*time.Second) {
		r.note("paced lines still unacked 10s after the paced window")
	}

	// Saturated phase: the list is never empty.
	feed.set(feedSaturated)
	ts0 := time.Now()
	time.Sleep(satDur)
	ts1 := time.Now()
	totSat := rig.eng.Totals()
	feed.stop()
	pushed := rig.src.pushed()
	drained := rig.src.waitAcked(pushed, 30*time.Second)
	tot2 := rig.eng.Totals()
	poll.Stop()
	r.e2e["heap_peak_mb"] = heap.Stop()
	gen.Stop()
	mon.Stop()
	rig.eng.Stop()

	due, emit, ack := rig.src.lineTimes()
	window := func(i int) bool { return due[i] >= tp0.UnixNano() && due[i] < tp1.UnixNano() }
	lat := &samples{}
	popWait := &samples{}
	for i := range due {
		if !window(i) || ack[i] == 0 {
			continue
		}
		lat.add(float64(ack[i]-due[i]) / 1e6)
		popWait.add(float64(emit[i]-due[i]) / 1e6)
		if spans != nil && i%traceRate == 0 {
			root := spans.add("line", uint64(i), -1, due[i], ack[i])
			spans.add("source.wait", uint64(i), root, due[i], emit[i])
			spans.add("live.root", uint64(i), root, emit[i], ack[i])
		}
	}
	reportLatency(r, lat)
	satFrom := ts0.Add(satRamp)
	satAcked := 0
	for i := range ack {
		if ack[i] >= satFrom.UnixNano() && ack[i] < ts1.UnixNano() {
			satAcked++
		}
	}
	r.e2e["capacity_lps"] = float64(satAcked) / ts1.Sub(satFrom).Seconds()
	w := tot1.Sub(tot0)
	r.e2e["inter_node_frac"] = w.InterNodeFraction()
	r.layer["live.inter_node_frac"] = w.InterNodeFraction()

	// Sustainability: the backlog must not grow across the paced window.
	obs := poll.between(tp0.UnixNano(), tp1.UnixNano())
	if q := len(obs) / 4; q > 0 {
		first, last := make([]float64, 0, q), make([]float64, 0, q)
		for _, s := range obs[:q] {
			first = append(first, float64(s.outstanding))
		}
		for _, s := range obs[len(obs)-q:] {
			last = append(last, float64(s.outstanding))
		}
		growth := median(last) - median(first)
		r.note("paced backlog: median %.0f lines in the first quarter, %.0f in the last", median(first), median(last))
		if growth > sp.rate*0.1 {
			r.fail("paced phase not sustainable at %.0f lines/s: backlog grew by %.0f lines; latency withheld", sp.rate, growth)
			withholdLatency(r)
		}
	}

	// Failures: lines never acked, plus lines that had to be replayed.
	unacked := 0
	for i := range ack {
		if ack[i] == 0 {
			unacked++
		}
	}
	replayed := rig.src.replayed.Load()
	r.attempted = int64(len(due))
	r.failed = int64(unacked) + replayed
	if !drained || unacked > 0 {
		r.fail("%d of %d lines never acked", unacked, len(due))
	}
	if tot2.FailedRoots > 0 {
		r.note("%d roots failed by the ack timeout and were replayed", tot2.FailedRoots)
	}

	// Correctness: the sink must equal the single-goroutine reference.
	refSink := docstore.NewStore()
	refApp, err := sp.newApp(redisq.NewServer(), refSink)
	if err != nil {
		return nil, err
	}
	lines := make([]string, len(due))
	regen := sp.lines(seed)
	for i := range lines {
		lines[i] = regen()
	}
	reference(refApp, sp.spout, lines, nil)
	if err := compareStores(rig.sink, refSink, sp.counters, sp.docs, replayed > 0); err != nil {
		r.fail("sink differs from the reference: %v", err)
	}
	if replayed > 0 {
		r.note("%d replays; sink checked as at least the reference", replayed)
	}

	if traced {
		r.layer["monitor.sample_ms"] = monSamples.quantile(0.5)
		r.layer["source.pop_wait_ms.p50"] = popWait.quantile(0.5)
		r.layer["source.pop_wait_ms.p99"] = popWait.quantile(0.99)
		backlogMax := 0
		for _, s := range obs {
			backlogMax = max(backlogMax, s.listLen)
		}
		r.layer["source.backlog_max"] = float64(backlogMax)
		lag := &samples{}
		for _, l := range feed.lags() {
			lag.add(float64(l) / 1e6)
		}
		r.layer["source.gen_lag_ms.p99"] = lag.quantile(0.99)
		execLayer(r, exec0, exec1, tp1.Sub(tp0))
		for name, depth := range poll.queueMax {
			if _, ok := rig.app.Bolts[name]; ok {
				r.layer["live.queue_len_max."+name] = float64(depth)
			}
		}
		r.layer["live.transfers_per_root"] = ratio(float64(w.TuplesSent), float64(w.RootsEmitted))
		edgeSkew(r, rig.app.Topology, edges0, edges1)
		all := totSat.Sub(tot0)
		r.layer["live.pool_hit_frac"] = ratio(float64(all.PoolHits), float64(all.PoolHits+all.PoolMisses))
		r.layer["runtime.alloc_b_per_root"] = ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(w.RootsEmitted))
		r.layer["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
		r.layer["acker.complete_ms.p50"] = complete.Quantile(0.5)
		r.layer["acker.complete_ms.p99"] = complete.Quantile(0.99)
		r.layer["acker.combined_per_root"] = ratio(float64(w.CtlCombined), float64(w.Acked))
		codecLayer(r, sp, seed)
		traceLayer(r, poll.trees, tp0, tp1, rig.eng.TraceCollector().Stats().Evicted)
		r.miss("the dist backend is not used", "dist.inter_process_frac", "dist.totals_rpc_ms", "dist.spawn_s", "dist.restarts")
		r.miss("live.Monitor applies its windows inside Sample; see monitor.sample_ms", "loaddb.apply_window_ms")
		for _, b := range bolts {
			if _, ok := rig.app.Bolts[b]; !ok {
				r.miss("not a component of this topology", "live.exec_ms."+b+".p50", "live.busy_frac."+b, "live.queue_len_max."+b)
			}
		}
		for _, b := range fieldsBolts {
			if _, ok := rig.app.Bolts[b]; !ok {
				r.miss("not a component of this topology", "live.edge_skew."+b)
			}
		}
		r.miss("no in-process hop crosses a worker process", "trace.wait_ms.inter_process")
		finishSpans(r, spans, sp.name, seed)
	}
	return r, nil
}

// movedExecutors counts executors whose slot differs between a and b.
func movedExecutors(a, b *cluster.Assignment) int {
	n := 0
	for e, s := range b.Executors {
		if old, ok := a.Executors[e]; !ok || old != s {
			n++
		}
	}
	return n
}

// predictedInterNodeFrac is the share of the snapshot's traffic that the
// assignment places across node boundaries — Algorithm 1's objective as a
// fraction.
func predictedInterNodeFrac(a *cluster.Assignment, snap *loaddb.Snapshot) float64 {
	var total float64
	for _, f := range snap.Flows {
		total += f.Rate
	}
	return ratio(core.InterNodeTraffic(a, snap), total)
}

// execLayer reports per-bolt execute time, busy share and queue depth
// from the engine's executor snapshots at both ends of the window.
func execLayer(r *result, before, after []live.ExecutorStat, window time.Duration) {
	prev := make(map[topology.ExecutorID]*metrics.Histogram, len(before))
	for _, st := range before {
		prev[st.ID] = st.ProcLatency
	}
	type agg struct {
		p50s   []float64
		busyMs float64
		execs  int
	}
	by := map[string]*agg{}
	for _, st := range after {
		if st.Kind != "bolt" || st.ProcLatency == nil {
			continue
		}
		h := st.ProcLatency
		if p := prev[st.ID]; p != nil {
			h = h.Sub(p)
		}
		a := by[st.ID.Component]
		if a == nil {
			a = &agg{}
			by[st.ID.Component] = a
		}
		a.execs++
		a.busyMs += h.Sum()
		if h.Count() > 0 {
			a.p50s = append(a.p50s, h.Quantile(0.5))
		}
	}
	for name, a := range by {
		r.layer["live.exec_ms."+name+".p50"] = median(a.p50s)
		r.layer["live.busy_frac."+name] = a.busyMs / (ms(window) * float64(a.execs))
	}
}

// edgeSkew reports, for each fields-grouped bolt, the busiest task's
// inbound transfers over the mean task's during the window.
func edgeSkew(r *result, top *topology.Topology, before, after []live.EdgeStat) {
	in := map[topology.ExecutorID]int64{}
	for _, e := range after {
		in[e.To] += e.Tuples
	}
	for _, e := range before {
		in[e.To] -= e.Tuples
	}
	for _, name := range fieldsBolts {
		c, ok := top.Component(name)
		if !ok {
			continue
		}
		var sum, peak int64
		n := 0
		for e, v := range in {
			if e.Component == c.Name {
				sum += v
				peak = max(peak, v)
				n++
			}
		}
		if n > 0 && sum > 0 {
			r.layer["live.edge_skew."+name] = float64(peak) / (float64(sum) / float64(n))
		}
	}
}

// codecLayer times live.EncodeValues/DecodeValues on this workload's own
// tuples: the values every edge of the topology carries for a few lines.
func codecLayer(r *result, sp pacedSpec, seed uint64) {
	app, err := sp.newApp(redisq.NewServer(), docstore.NewStore())
	if err != nil {
		r.note("codec: %v", err)
		return
	}
	next := sp.lines(seed)
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = next()
	}
	var vals []tuple.Values
	reference(app, sp.spout, lines, func(v tuple.Values) { vals = append(vals, v) })
	codecTiming(r, vals)
}

// codecTiming encodes and decodes vals round-robin for at least 20000
// operations each and reports the mean cost and encoded size.
func codecTiming(r *result, vals []tuple.Values) {
	if len(vals) == 0 {
		return
	}
	const ops = 20000
	bufs := make([][]byte, len(vals))
	extras := make([][]any, len(vals))
	var bytes int
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		j := i % len(vals)
		bufs[j], extras[j] = live.EncodeValues(vals[j])
		bytes += len(bufs[j])
	}
	enc := time.Since(t0)
	t1 := time.Now()
	for i := 0; i < ops; i++ {
		j := i % len(vals)
		if _, err := live.DecodeValues(bufs[j], extras[j]); err != nil {
			r.fail("codec round trip failed: %v", err)
			return
		}
	}
	dec := time.Since(t1)
	r.layer["codec.encode_ns"] = float64(enc.Nanoseconds()) / ops
	r.layer["codec.decode_ns"] = float64(dec.Nanoseconds()) / ops
	r.layer["codec.bytes_per_tuple"] = float64(bytes) / ops
}

// traceLayer reports the mean critical-path decomposition of the sampled
// tuple trees whose root was emitted inside the window.
func traceLayer(r *result, trees []tracing.Tree, from, to time.Time, evicted int64) {
	sums := map[string]float64{}
	n := 0
	for _, t := range trees {
		if t.EmitAt < from.UnixNano() || t.EmitAt >= to.UnixNano() {
			continue
		}
		n++
		for k, v := range t.Shares {
			sums[k] += v
		}
	}
	r.layer["trace.trees"] = float64(n)
	r.layer["trace.evicted"] = float64(evicted)
	if n == 0 {
		r.note("no sampled tuple tree finished inside the window")
		return
	}
	keys := map[string]string{
		tracing.BoundaryLocal:        "trace.wait_ms.local",
		tracing.BoundaryInterSlot:    "trace.wait_ms.inter_slot",
		tracing.BoundaryInterProcess: "trace.wait_ms.inter_process",
		tracing.BoundaryInterNode:    "trace.wait_ms.inter_node",
		tracing.ShareExecute:         "trace.exec_ms",
		tracing.ShareAck:             "trace.ack_ms",
	}
	for share, name := range keys {
		r.layer[name] = sums[share] / float64(n)
	}
}
