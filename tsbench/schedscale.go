package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// sched-scale constants: a synthetic cluster at the scale R-Storm and
// Nasiri et al. evaluate at — 100 nodes × 4 slots, 10 topologies of 100
// executors (a 10-spout source, then 30-wide shuffle, fields and shuffle
// stages).
const (
	schedNodes      = 100
	schedSlotsEach  = 4
	schedTopologies = 10
	schedSetups     = 9 // extra set-ups timed before the measured one
	schedHashRounds = 8 // rounds whose assignments the determinism check replays
)

func schedTopos() ([]*topology.Topology, error) {
	var out []*topology.Topology
	for i := 0; i < schedTopologies; i++ {
		b := topology.NewBuilder(fmt.Sprintf("topo-%02d", i), 20)
		b.Spout("src", 10).Output("default", "k")
		b.Bolt("a", 30).Shuffle("src").Output("default", "k")
		b.Bolt("b", 30).Fields("a", "k").Output("default", "k")
		b.Bolt("c", 30).Shuffle("b")
		top, err := b.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, top)
	}
	return out, nil
}

// Traffic model of the synthetic windows: spout emit rate per executor
// (scaled by 1, 1.5, 2 or 2.5 across topologies), the log-normal spread of
// fields-grouping key shares, and an executor's CPU load as a base plus a
// cost per tuple it receives (emits, for a spout).
const (
	schedSpoutRate   = 1500.0 // tuples/s
	schedKeySkew     = 0.5
	schedBaseMHz     = 50.0
	schedMHzPerTuple = 0.25
)

// schedWindow draws one monitoring window from (seed, round): per-pair
// tuple rates along every edge and per-executor CPU load in MHz. The
// flows follow each edge's grouping, as the live monitor would observe
// them: every sender reaches every receiver, evenly on a shuffle edge and
// by per-receiver key share on a fields edge, and a bolt emits what it
// receives. Each round re-draws every value, so each round schedules anew.
func schedWindow(seed uint64, round int, tops []*topology.Topology) (map[topology.ExecutorID]float64, map[loaddb.FlowKey]float64) {
	rng := rand.New(rand.NewPCG(seed, uint64(round)+1))
	noise := func(sigma float64) float64 { return math.Exp(rng.NormFloat64() * sigma) }
	loads := map[topology.ExecutorID]float64{}
	flows := map[loaddb.FlowKey]float64{}
	for ti, top := range tops {
		emits := map[string][]float64{} // component → per-executor emit rate
		for _, name := range top.ComponentNames() {
			c, _ := top.Component(name)
			rates := make([]float64, c.Parallelism)
			if c.Kind == topology.SpoutKind {
				for i := range rates {
					rates[i] = schedSpoutRate * (1 + 0.5*float64(ti%4)) * noise(0.2)
				}
			}
			for _, g := range c.Inputs {
				share, total := make([]float64, c.Parallelism), 0.0
				for j := range share {
					share[j] = 1
					if g.Type == topology.FieldsGrouping {
						share[j] = noise(schedKeySkew)
					}
					total += share[j]
				}
				for i, rate := range emits[g.SourceComponent] {
					from := topology.ExecutorID{Topology: top.Name(), Component: g.SourceComponent, Index: i}
					for j := range share {
						v := rate * share[j] / total * noise(0.05)
						flows[loaddb.FlowKey{From: from, To: topology.ExecutorID{Topology: top.Name(), Component: name, Index: j}}] += v
						rates[j] += v
					}
				}
			}
			emits[name] = rates
			for i, rate := range rates {
				loads[topology.ExecutorID{Topology: top.Name(), Component: name, Index: i}] = schedBaseMHz + schedMHzPerTuple*rate*noise(0.2)
			}
		}
	}
	return loads, flows
}

// schedTarget is the bench-owned SchedulerTarget of the control-path
// workload: Apply records the assignment and returns.
type schedTarget struct {
	names []string
	apps  map[string]*engine.App
	cl    *cluster.Cluster
	cur   map[string]*cluster.Assignment
	ctx   *roundCtx
	moved int
	done  chan struct{}
}

var _ live.SchedulerTarget = (*schedTarget)(nil)

func (t *schedTarget) Topologies() []string                { return t.names }
func (t *schedTarget) App(name string) (*engine.App, bool) { a, ok := t.apps[name]; return a, ok }
func (t *schedTarget) Cluster() *cluster.Cluster           { return t.cl }
func (t *schedTarget) DownNodes() []cluster.NodeID         { return nil }
func (t *schedTarget) Totals() live.Totals                 { return live.Totals{} }
func (t *schedTarget) Done() <-chan struct{}               { return t.done }
func (t *schedTarget) CurrentAssignment(name string) (*cluster.Assignment, bool) {
	a, ok := t.cur[name]
	return a, ok
}

func (t *schedTarget) Apply(name string, next *cluster.Assignment) (int, error) {
	sp := t.ctx.spans.begin("SchedulerTarget.Apply", t.ctx.id, t.ctx.parent)
	moved := movedExecutors(t.cur[name], next)
	t.cur[name] = next.Clone()
	t.ctx.spans.end(sp)
	t.moved += moved
	return moved, nil
}

// combined is the union of every topology's current assignment.
func (t *schedTarget) combined() *cluster.Assignment {
	all := cluster.NewAssignment(0)
	for _, name := range t.names {
		for e, s := range t.cur[name].Executors {
			all.Assign(e, s)
		}
	}
	return all
}

// schedRig is the control path assembled over the synthetic cluster.
type schedRig struct {
	tops   []*topology.Topology
	db     *loaddb.DB
	target *schedTarget
	algo   *timedAlgo
	gen    *live.Generator
	ctx    *roundCtx
}

func newSchedRig(spans *spanLog) (*schedRig, error) {
	tops, err := schedTopos()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Uniform(schedNodes, 4, 2000, schedSlotsEach)
	if err != nil {
		return nil, err
	}
	initial, err := scheduler.RoundRobin{}.Schedule(scheduler.NewInput(tops, cl, nil, 0))
	if err != nil {
		return nil, err
	}
	ctx := &roundCtx{spans: spans, parent: -1}
	t := &schedTarget{apps: map[string]*engine.App{}, cl: cl, cur: map[string]*cluster.Assignment{},
		ctx: ctx, done: make(chan struct{})}
	for _, top := range tops {
		t.names = append(t.names, top.Name())
		t.apps[top.Name()] = &engine.App{Topology: top}
		part := cluster.NewAssignment(0)
		for _, e := range top.Executors() {
			s, _ := initial.Slot(e)
			part.Assign(e, s)
		}
		t.cur[top.Name()] = part
	}
	sort.Strings(t.names)
	db := loaddb.New(0.5)
	algo := newTimedAlgo(ctx)
	gen, err := startGenerator(t, db, algo)
	if err != nil {
		return nil, err
	}
	return &schedRig{tops: tops, db: db, target: t, algo: algo, gen: gen, ctx: ctx}, nil
}

// round folds one window into the load database and runs one forced
// generator round; it returns the window and reschedule durations, and an
// error when the round decided or applied nothing.
func (g *schedRig) round(seed uint64, n int) (applyWin, resched time.Duration, err error) {
	loads, flows := schedWindow(seed, n, g.tops)
	g.ctx.id = uint64(n)
	root := g.ctx.spans.begin("round", uint64(n), -1)
	t0 := time.Now()
	sp := g.ctx.spans.begin("loaddb.DB.ApplyWindow", uint64(n), root)
	g.db.ApplyWindow(loads, flows)
	g.ctx.spans.end(sp)
	t1 := time.Now()
	g.ctx.parent = g.ctx.spans.begin("live.Generator.Reschedule", uint64(n), root)
	err = reschedule(g.gen, g.algo)
	g.ctx.spans.end(g.ctx.parent)
	t2 := time.Now()
	g.ctx.spans.end(root)
	return t1.Sub(t0), t2.Sub(t1), err
}

// check validates the current assignment: every executor placed, at most
// one slot per topology per node, and — unless Algorithm 1 reported a
// relaxation this round — node capacity and the γ·Ne/K count cap.
func (g *schedRig) check(relaxed bool) error {
	all := g.target.combined()
	snap := g.db.Snapshot()
	ne := 0
	for _, top := range g.tops {
		ne += top.NumExecutors()
		slotOf := map[cluster.NodeID]cluster.SlotID{}
		for _, e := range top.Executors() {
			s, ok := all.Slot(e)
			if !ok {
				return fmt.Errorf("executor %v unplaced", e)
			}
			if prev, ok := slotOf[s.Node]; ok && prev != s {
				return fmt.Errorf("%s uses two slots on node %s", top.Name(), s.Node)
			}
			slotOf[s.Node] = s
		}
	}
	if relaxed {
		return nil
	}
	countCap := gamma * float64(ne) / float64(schedNodes)
	load := map[cluster.NodeID]float64{}
	count := map[cluster.NodeID]int{}
	for e, s := range all.Executors {
		load[s.Node] += snap.ExecLoad[e]
		count[s.Node]++
	}
	for node, l := range load {
		n, _ := g.target.cl.Node(node)
		if l > capacityFraction*n.CapacityMHz()+1e-6 {
			return fmt.Errorf("node %s load %.0f MHz over %.0f", node, l, capacityFraction*n.CapacityMHz())
		}
		if float64(count[node]) > math.Max(countCap, 1) {
			return fmt.Errorf("node %s hosts %d executors, cap %.1f", node, count[node], countCap)
		}
	}
	return nil
}

// hashAssignment folds the sorted (executor, slot) pairs into h.
func hashAssignment(h uint64, a *cluster.Assignment) uint64 {
	keys := make([]string, 0, len(a.Executors))
	for e, s := range a.Executors {
		keys = append(keys, e.String()+"@"+s.String())
	}
	sort.Strings(keys)
	f := fnv.New64a()
	fmt.Fprintf(f, "%016x", h)
	for _, k := range keys {
		f.Write([]byte(k))
	}
	return f.Sum64()
}

// replayHash runs the first schedHashRounds rounds on a fresh rig and
// returns the chained hash of the assignments after each.
func replayHash(seed uint64) (uint64, error) {
	g, err := newSchedRig(nil)
	if err != nil {
		return 0, err
	}
	defer g.gen.Stop()
	var h uint64
	for n := 0; n < schedHashRounds; n++ {
		if _, _, err := g.round(seed, n); err != nil {
			return 0, fmt.Errorf("replay round %d: %w", n, err)
		}
		h = hashAssignment(h, g.target.combined())
	}
	return h, nil
}

func runSchedScale(seed uint64, seconds float64, traced bool) (*result, error) {
	r := newResult()
	r.prov["cluster"] = fmt.Sprintf("%d nodes x %d slots (synthetic)", schedNodes, schedSlotsEach)
	r.prov["topologies"] = schedTopologies
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}

	// Set-up: rig construction to the first decided round.
	var setups []float64
	for i := 0; i <= schedSetups; i++ {
		t0 := time.Now()
		g, err := newSchedRig(nil)
		if err != nil {
			return nil, err
		}
		if _, _, err := g.round(seed, 0); err != nil {
			g.gen.Stop()
			return nil, fmt.Errorf("set-up round: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		g.gen.Stop()
	}
	r.e2e["setup_s"] = median(setups)
	r.counts["setup_s"] = len(setups)

	heap := startHeapSampler()
	g, err := newSchedRig(spans)
	if err != nil {
		heap.Stop()
		return nil, err
	}
	defer g.gen.Stop()
	r.prov["executors"] = len(g.target.combined().Executors)
	decide := &samples{}
	applyWin, resched, roundHeap := &samples{}, &samples{}, &samples{}
	snapT, inputT := &samples{}, &samples{}
	interFrac, nodes, moved, relax := &samples{}, &samples{}, &samples{}, &samples{}
	rt0 := readRuntime()
	var hash uint64
	start := time.Now()
	rounds := 0
	for n := 0; time.Since(start) < time.Duration(seconds*float64(time.Second)) || n < schedHashRounds; n++ {
		relax0, moved0 := g.algo.relax, g.target.moved
		// Production rounds are a period (300 s in the paper) apart, so
		// each starts with the previous round's garbage collected. Back to
		// back they would not; collect between rounds, outside the timing.
		runtime.GC()
		heap.reset()
		aw, rs, err := g.round(seed, n)
		rounds++
		roundHeap.add(heap.peakMB())
		decide.add(ms(aw + rs))
		applyWin.add(ms(aw))
		resched.add(ms(rs))
		relax.add(float64(g.algo.relax - relax0))
		moved.add(float64(g.target.moved - moved0))
		all := g.target.combined()
		if n < schedHashRounds {
			hash = hashAssignment(hash, all)
		}
		if err == nil {
			err = g.check(g.algo.relax > relax0)
		}
		if err != nil {
			r.failed++
			if len(r.errs) < 3 {
				r.fail("round %d: %v", n, err)
			}
		}
		snap := g.db.Snapshot()
		interFrac.add(predictedInterNodeFrac(all, snap))
		nodes.add(float64(all.NumUsedNodes()))
		if traced {
			sp := spans.begin("loaddb.DB.Snapshot", uint64(n), -1)
			t0 := time.Now()
			s := g.db.Snapshot()
			t1 := time.Now()
			spans.end(sp)
			sp = spans.begin("scheduler.NewInput", uint64(n), -1)
			scheduler.NewInput(g.tops, g.target.cl, s, capacityFraction)
			spans.end(sp)
			snapT.add(ms(t1.Sub(t0)))
			inputT.add(ms(time.Since(t1)))
		}
	}
	rt1 := readRuntime()
	heap.Stop()
	r.e2e["heap_peak_mb"] = roundHeap.quantile(0.5)
	r.note("heap_peak_mb is the median over rounds of each round's peak")
	r.attempted = int64(rounds)

	reportLatency(r, decide)
	r.note("a round is ApplyWindow plus a forced Generator.Reschedule")
	r.e2e["capacity_lps"] = float64(rounds) / (decide.sum() / 1e3)
	r.note("capacity_lps counts scheduling rounds per second of decide time")
	r.e2e["inter_node_frac"] = interFrac.quantile(0.5)
	r.e2e["nodes_used"] = nodes.quantile(0.5)

	want, err := replayHash(seed)
	if err != nil {
		return nil, err
	}
	r.prov["assignment_hash"] = fmt.Sprintf("%016x", hash)
	if want != hash {
		r.fail("assignments of the first %d rounds differ on replay: %016x vs %016x", schedHashRounds, hash, want)
	}

	if traced {
		r.layer["loaddb.apply_window_ms"] = applyWin.quantile(0.5)
		r.layer["loaddb.snapshot_ms"] = snapT.quantile(0.5)
		r.layer["scheduler.new_input_ms"] = inputT.quantile(0.5)
		r.layer["scheduler.schedule_ms.p50"] = g.algo.times.quantile(0.5)
		r.layer["scheduler.schedule_ms.p99"] = g.algo.times.quantile(0.99)
		r.layer["scheduler.relaxations"] = relax.mean()
		r.layer["scheduler.moved"] = moved.mean()
		r.layer["scheduler.inter_node_frac"] = r.e2e["inter_node_frac"]
		r.layer["scheduler.nodes_used"] = r.e2e["nodes_used"]
		r.layer["generator.round_ms"] = resched.quantile(0.5)
		r.layer["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
		r.miss("synthetic windows go straight to loaddb.ApplyWindow; no live.Monitor", "monitor.sample_ms")
		r.miss("the SchedulerTarget is synthetic: no engine applies or migrates",
			"live.apply_ms", "live.migrations", "live.resched_recovery_ms")
		r.miss("control path only: no tuples flow", absentOnControlPath()...)
		finishSpans(r, spans, "sched-scale", seed)
	}
	return r, nil
}

// absentOnControlPath lists the data-path metrics sched-scale cannot have.
func absentOnControlPath() []string {
	var out []string
	for _, d := range perLayer {
		switch {
		case hasPrefix(d.name, "source."), hasPrefix(d.name, "acker."), hasPrefix(d.name, "codec."),
			hasPrefix(d.name, "dist."), hasPrefix(d.name, "live.exec_ms."), hasPrefix(d.name, "live.busy_frac."),
			hasPrefix(d.name, "live.queue_len_max."), hasPrefix(d.name, "live.edge_skew."),
			hasPrefix(d.name, "trace.wait_ms."):
			out = append(out, d.name)
		}
	}
	return append(out, "live.transfers_per_root", "live.inter_node_frac", "live.nodes_used", "live.pool_hit_frac",
		"runtime.alloc_b_per_root", "trace.exec_ms", "trace.ack_ms", "trace.trees", "trace.evicted")
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
