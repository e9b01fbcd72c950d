package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tstorm/internal/dist"
	"tstorm/internal/docstore"
	"tstorm/internal/logx"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
	"tstorm/internal/tracing"
	"tstorm/internal/tuple"
	"tstorm/internal/workloads"
)

// wc-dist constants: two worker processes (one per core of a 2-CPU host)
// on a fixed round-robin placement and a closed loop of distMaxPending
// lines per spout. Each spout reads a finite corpus sized from
// distLineRate, about this workload's capacity on a 2-CPU host, to
// outlast the measured window; the run then drains and audits every line.
const (
	distWorkers    = 2
	distMaxPending = 256
	distLineRate   = 30000
	distSetups     = 20 // extra fleet set-ups timed before the measured one
	distWarmup     = time.Second
	// distTraceRate samples tuple trees on every wc-dist run: sampled trees
	// are the only place the dist backend exposes per-root emit→ack times.
	distTraceRate = 64
)

func distParams(seconds float64) workloads.SelfFedParams {
	const spouts = 2
	return workloads.SelfFedParams{
		Spouts: spouts, Splitters: 4, Counters: 4, Mongos: 2, Workers: distWorkers,
		Reliable: true, Ackers: 2, MaxPending: distMaxPending,
		Limit: int(distLineRate * (seconds + distWarmup.Seconds()) * 1.3 / spouts),
	}
}

// distTopology builds the self-fed topology locally, only to compute the
// round-robin placement the fleet is submitted with.
func distTopology(p workloads.SelfFedParams) (*topology.Topology, error) {
	cfg := workloads.DefaultSelfFedWordCountConfig()
	cfg.Spouts, cfg.Splitters, cfg.Counters, cfg.Mongos, cfg.Workers = p.Spouts, p.Splitters, p.Counters, p.Mongos, p.Workers
	cfg.Ackers, cfg.MaxPending, cfg.Limit = p.Ackers, p.MaxPending, p.Limit
	cfg.Sink = docstore.NewStore()
	app, _, err := workloads.NewReliableSelfFedWordCount(cfg)
	if err != nil {
		return nil, err
	}
	return app.Topology, nil
}

// distBuild spawns the fleet, submits the topology and returns once the
// first root is acked, with the set-up time and the spawn (Start) time.
func distBuild(seed uint64, p workloads.SelfFedParams, top *topology.Topology) (*dist.Engine, time.Duration, time.Duration, error) {
	t0 := time.Now()
	eng, err := dist.NewEngine(dist.Config{
		Nodes:         distWorkers,
		Seed:          seed,
		MaxPending:    distMaxPending,
		TraceSampling: distTraceRate,
		Log:           logx.Nop(),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	initial, err := scheduler.RoundRobin{}.Schedule(
		scheduler.NewInput([]*topology.Topology{top}, eng.Cluster(), nil, 0))
	if err != nil {
		return nil, 0, 0, err
	}
	if err := eng.Submit(workloads.SelfFedWorkload, p, initial); err != nil {
		return nil, 0, 0, err
	}
	ts := time.Now()
	if err := eng.Start(); err != nil {
		eng.Stop()
		return nil, 0, 0, err
	}
	spawn := time.Since(ts)
	deadline := time.Now().Add(30 * time.Second)
	for eng.Totals().Acked == 0 {
		if time.Now().After(deadline) {
			eng.Stop()
			return nil, 0, 0, fmt.Errorf("wc-dist: first root not acked within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return eng, time.Since(t0), spawn, nil
}

// treeDrain collects the driver's finished tuple trees every 100 ms: the
// collector keeps only its newest few hundred.
type treeDrain struct {
	col   *tracing.Collector
	mu    sync.Mutex
	trees []tracing.Tree
	stop  chan struct{}
	done  chan struct{}
}

func startTreeDrain(col *tracing.Collector) *treeDrain {
	d := &treeDrain{col: col, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tk.C:
			}
			t := col.Drain()
			d.mu.Lock()
			d.trees = append(d.trees, t...)
			d.mu.Unlock()
		}
	}()
	return d
}

func (d *treeDrain) Stop() []tracing.Tree {
	close(d.stop)
	<-d.done
	d.trees = append(d.trees, d.col.Drain()...)
	return d.trees
}

func runDist(seed uint64, seconds float64, traced bool) (*result, error) {
	// One worker process per core: worker processes are this binary
	// re-executed and inherit the environment. The driver's own runtime
	// has already read GOMAXPROCS.
	if err := os.Setenv("GOMAXPROCS", "1"); err != nil {
		return nil, err
	}
	r := newResult()
	p := distParams(seconds)
	r.prov["workers"] = distWorkers
	r.prov["worker_gomaxprocs"] = 1
	r.prov["max_pending"] = distMaxPending
	r.prov["lines_per_spout"] = p.Limit
	r.prov["placement"] = "round-robin, no reschedule"
	r.prov["trace_sampling"] = distTraceRate
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	top, err := distTopology(p)
	if err != nil {
		return nil, err
	}

	var setups, spawns []float64
	for i := 0; i < distSetups; i++ {
		sp := spans.begin("dist.setup", uint64(i), -1)
		eng, d, spawn, err := distBuild(seed, p, top)
		spans.end(sp)
		if err != nil {
			return nil, err
		}
		eng.Stop()
		setups = append(setups, d.Seconds())
		spawns = append(spawns, spawn.Seconds())
	}
	heap := startHeapSampler()
	sp := spans.begin("dist.setup", distSetups, -1)
	eng, d, spawn, err := distBuild(seed, p, top)
	spans.end(sp)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer eng.Stop()
	setups = append(setups, d.Seconds())
	spawns = append(spawns, spawn.Seconds())
	r.e2e["setup_s"] = median(setups)
	r.counts["setup_s"] = len(setups)
	drain := startTreeDrain(eng.TraceCollector())

	rpc := &samples{}
	totals := func() (t0 time.Time, acked, sent, inter int64) {
		sp := spans.begin("dist.Engine.Totals", 0, -1)
		t0 = time.Now()
		tot := eng.Totals()
		rpc.add(ms(time.Since(t0)))
		spans.end(sp)
		return t0, tot.Acked, tot.TuplesSent, tot.InterNodeSent
	}
	time.Sleep(distWarmup)
	// Capacity over the window, polled each 250 ms so the window can close
	// early should the finite corpus run low (a faster future version).
	start, acked0, sent0, inter0 := totals()
	end, acked1, sent1, inter1 := start, acked0, sent0, inter0
	for time.Since(start) < time.Duration(seconds*float64(time.Second)) {
		time.Sleep(250 * time.Millisecond)
		end, acked1, sent1, inter1 = totals()
		if acked1 >= int64(0.9*float64(p.Spouts*p.Limit)) {
			r.note("corpus ran low: window closed after %.1fs", end.Sub(start).Seconds())
			break
		}
	}
	r.e2e["capacity_lps"] = float64(acked1-acked0) / end.Sub(start).Seconds()
	r.e2e["inter_node_frac"] = ratio(float64(inter1-inter0), float64(sent1-sent0))
	if a, ok := eng.CurrentAssignment(top.Name()); ok {
		r.e2e["nodes_used"] = float64(a.NumUsedNodes())
	}

	// Drain: every distinct line must be acked, none outstanding.
	lines := p.Spouts * p.Limit
	deadline := time.Now().Add(60 * time.Second)
	var ackedLines, outstanding, restarts int
	for {
		ackedLines, outstanding, restarts = eng.Audit(top.Name())
		if (ackedLines == lines && outstanding == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	final := eng.Totals()
	trees := drain.Stop()
	r.e2e["heap_peak_mb"] = heap.Stop()
	procRestarts := eng.Restarts()
	eng.Stop()

	r.attempted = int64(lines)
	r.failed = int64(lines-ackedLines) + final.FailedRoots
	if ackedLines != lines || outstanding != 0 {
		r.fail("audit: %d of %d distinct lines acked, %d outstanding after the drain", ackedLines, lines, outstanding)
	}
	if procRestarts != 0 || restarts != 0 {
		r.fail("%d worker-process respawns and %d reader restarts in a fault-free run", procRestarts, restarts)
	}

	lat := &samples{}
	for _, t := range trees {
		if t.EmitAt >= start.UnixNano() && t.EmitAt < end.UnixNano() {
			lat.add(t.CompletionMs)
		}
	}
	reportLatency(r, lat)
	r.note("latency is spout emit to ack of 1-in-%d sampled roots", distTraceRate)

	if traced {
		r.layer["dist.inter_process_frac"] = r.e2e["inter_node_frac"]
		r.layer["dist.totals_rpc_ms"] = rpc.quantile(0.5)
		r.layer["dist.spawn_s"] = median(spawns)
		r.layer["dist.restarts"] = float64(procRestarts)
		r.layer["live.inter_node_frac"] = r.e2e["inter_node_frac"]
		r.layer["live.nodes_used"] = r.e2e["nodes_used"]
		codecLayerSelfFed(r)
		traceLayer(r, trees, start, end, eng.TraceCollector().Stats().Evicted)
		r.miss("executors run in worker processes; the driver sees only fleet totals",
			"live.transfers_per_root", "live.pool_hit_frac", "acker.complete_ms.p50", "acker.complete_ms.p99",
			"acker.combined_per_root", "runtime.alloc_b_per_root", "runtime.gc_cpu_frac")
		for _, b := range bolts {
			r.miss("executors run in worker processes", "live.exec_ms."+b+".p50", "live.busy_frac."+b, "live.queue_len_max."+b)
		}
		for _, b := range fieldsBolts {
			r.miss("executors run in worker processes", "live.edge_skew."+b)
		}
		r.miss("open-loop source not used: the self-fed spout is closed loop",
			"source.pop_wait_ms.p50", "source.pop_wait_ms.p99", "source.backlog_max", "source.gen_lag_ms.p99")
		r.miss("no reschedule on the fixed round-robin placement",
			"monitor.sample_ms", "loaddb.apply_window_ms", "loaddb.snapshot_ms", "scheduler.new_input_ms",
			"scheduler.schedule_ms.p50", "scheduler.schedule_ms.p99", "scheduler.relaxations", "scheduler.moved",
			"scheduler.inter_node_frac", "scheduler.nodes_used", "generator.round_ms", "live.apply_ms",
			"live.migrations", "live.resched_recovery_ms")
		r.miss("no in-process slot boundary in a one-slot-per-process fleet", "trace.wait_ms.inter_slot")
		r.miss("each worker process is its own node, so its cross-process hops are classed inter-node", "trace.wait_ms.inter_process")
		finishSpans(r, spans, "wc-dist", seed)
	}
	return r, nil
}

// codecLayerSelfFed times the codec on the self-fed Word Count's tuples.
func codecLayerSelfFed(r *result) {
	cfg := workloads.DefaultSelfFedWordCountConfig()
	cfg.Sink = docstore.NewStore()
	app, _, err := workloads.NewReliableSelfFedWordCount(cfg)
	if err != nil {
		r.note("codec: %v", err)
		return
	}
	lines := make([]string, 64)
	next := wcLines(1)
	for i := range lines {
		lines[i] = next()
	}
	var vals []tuple.Values
	reference(app, "reader", lines, func(v tuple.Values) { vals = append(vals, v) })
	codecTiming(r, vals)
}
