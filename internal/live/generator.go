package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/decision"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// SchedulerTarget is the engine surface the generator schedules against.
// The in-process *Engine implements it directly; the distributed engine
// (internal/dist) implements it over its worker fleet, so the identical
// generator — and the identical Algorithm 1 — drives both backends.
type SchedulerTarget interface {
	Topologies() []string
	App(name string) (*engine.App, bool)
	Cluster() *cluster.Cluster
	CurrentAssignment(name string) (*cluster.Assignment, bool)
	DownNodes() []cluster.NodeID
	Apply(name string, next *cluster.Assignment) (int, error)
	Totals() Totals
	Done() <-chan struct{}
}

var _ SchedulerTarget = (*Engine)(nil)

// GeneratorConfig holds the live schedule generator's knobs.
type GeneratorConfig struct {
	// Period is the regular scheduling interval (paper: 300 s).
	Period time.Duration
	// CapacityFraction sets C_k as a fraction of nominal node capacity.
	CapacityFraction float64
	// ImprovementThreshold is the minimum relative inter-node traffic gain
	// a new schedule must offer (when it does not reduce node count) to be
	// worth the migration (default 0.10, as in the simulated generator).
	ImprovementThreshold float64
	// History, when non-nil, receives a decision report and a
	// traffic-matrix snapshot for every generation, and — after each
	// apply — the prediction baseline the telemetry layer reconciles
	// against the engine's observed inter-node counters.
	History *decision.History
}

// DefaultGeneratorConfig matches the paper's settings.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		Period:               300 * time.Second,
		CapacityFraction:     0.9,
		ImprovementThreshold: 0.10,
	}
}

// Generator is the live runtime's schedule generator: the same role as the
// simulated internal/core daemon, re-timed to wall clock. It reads load
// snapshots, runs the active algorithm over the shared scheduler.NewInput
// path, and applies improving schedules through Engine.Apply. Algorithms
// hot-swap exactly as in the simulated stack.
type Generator struct {
	eng SchedulerTarget
	db  *loaddb.DB
	cfg GeneratorConfig

	registry *scheduler.Registry
	algoMu   sync.Mutex
	algo     scheduler.Algorithm

	generations atomic.Int64
	applied     atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// StartGenerator launches the periodic generation goroutine. algo is the
// initial algorithm; the registry is pre-populated with every built-in
// scheduler so any of them can be hot-swapped in by name, and algo is
// registered last so the running instance wins a name clash.
func StartGenerator(eng SchedulerTarget, db *loaddb.DB, cfg GeneratorConfig, algo scheduler.Algorithm) (*Generator, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("live: non-positive generator period")
	}
	if cfg.CapacityFraction <= 0 || cfg.CapacityFraction > 1 {
		return nil, fmt.Errorf("live: capacity fraction %v out of (0,1]", cfg.CapacityFraction)
	}
	if cfg.ImprovementThreshold < 0 || cfg.ImprovementThreshold >= 1 {
		return nil, fmt.Errorf("live: improvement threshold %v out of [0,1)", cfg.ImprovementThreshold)
	}
	g := &Generator{
		eng:      eng,
		db:       db,
		cfg:      cfg,
		registry: scheduler.NewRegistry(),
		algo:     algo,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	scheduler.RegisterBuiltins(g.registry)
	g.registry.Register(algo)
	go g.loop()
	return g, nil
}

func (g *Generator) loop() {
	defer close(g.done)
	tk := time.NewTicker(g.cfg.Period)
	defer tk.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.eng.Done():
			return
		case <-tk.C:
			g.Generate()
		}
	}
}

// Stop halts periodic generation and waits for the goroutine to exit.
func (g *Generator) Stop() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}

// Registry exposes the generator's algorithm registry.
func (g *Generator) Registry() *scheduler.Registry { return g.registry }

// Algorithm returns the active algorithm.
func (g *Generator) Algorithm() scheduler.Algorithm {
	g.algoMu.Lock()
	defer g.algoMu.Unlock()
	return g.algo
}

// SetAlgorithm hot-swaps the scheduling algorithm; the next generation
// uses it. Nothing in the engine is stopped or reconfigured.
func (g *Generator) SetAlgorithm(a scheduler.Algorithm) {
	g.registry.Register(a)
	g.algoMu.Lock()
	g.algo = a
	g.algoMu.Unlock()
}

// SwapTo hot-swaps to a previously registered algorithm by name.
func (g *Generator) SwapTo(name string) error {
	a, ok := g.registry.Get(name)
	if !ok {
		return fmt.Errorf("live: algorithm %q not registered", name)
	}
	g.algoMu.Lock()
	g.algo = a
	g.algoMu.Unlock()
	return nil
}

// Generations reports how many scheduling runs completed.
func (g *Generator) Generations() int { return int(g.generations.Load()) }

// Applied reports how many re-assignments were applied.
func (g *Generator) Applied() int { return int(g.applied.Load()) }

// Generate runs the active algorithm over the current load snapshot and
// applies any schedule that meaningfully improves on the live assignment
// (fewer nodes, or enough less inter-node traffic). It is a no-op until
// the monitor has stored load data.
func (g *Generator) Generate() bool { return g.generate(false) }

// Reschedule forces a generation that applies any differing schedule,
// bypassing the improvement threshold — the overload path, and what
// benchmarks use for a deterministic re-assignment instant.
func (g *Generator) Reschedule() bool { return g.generate(true) }

func (g *Generator) generate(force bool) bool {
	if !g.db.HasData() {
		return false
	}
	names := g.eng.Topologies()
	if len(names) == 0 {
		return false
	}
	var tops []*topology.Topology
	for _, name := range names {
		app, _ := g.eng.App(name)
		tops = append(tops, app.Topology)
	}
	snap := g.db.Snapshot()
	in := scheduler.NewInput(tops, g.eng.Cluster(), snap, g.cfg.CapacityFraction)
	// Fence failed nodes off the candidate set so Algorithm 1 reschedules
	// the dead executors around them.
	for _, down := range g.eng.DownNodes() {
		in.OccupyNode(down)
	}
	// The incumbent assignment across all topologies feeds only the
	// decision report's predicted-before objective and move count.
	var incumbent *cluster.Assignment
	if g.cfg.History != nil {
		in.Probe = decision.NewBuilder()
		incumbent = cluster.NewAssignment(0)
		for _, name := range names {
			if a, ok := g.eng.CurrentAssignment(name); ok {
				for e, s := range a.Executors {
					incumbent.Assign(e, s)
				}
			}
		}
	}
	global, err := g.Algorithm().Schedule(in)
	if err != nil {
		return false
	}
	g.generations.Add(1)
	changed := false
	for i, name := range names {
		part := cluster.NewAssignment(0)
		for _, e := range tops[i].Executors() {
			if s, ok := global.Slot(e); ok {
				part.Assign(e, s)
			}
		}
		cur, ok := g.eng.CurrentAssignment(name)
		if !ok || cur.Equal(part) {
			continue
		}
		if !force && !g.worthApplying(part, cur, snap) {
			continue
		}
		if _, err := g.eng.Apply(name, part); err == nil {
			g.applied.Add(1)
			changed = true
		}
	}
	if h := g.cfg.History; h != nil && in.Probe != nil {
		rep := in.Probe.Report()
		if len(incumbent.Executors) > 0 {
			rep.PredictedBefore = decision.InterNodeRate(incumbent, snap)
		}
		rep.Moved = decision.MovedExecutors(global, incumbent)
		rep.Applied = changed
		h.Add(rep)
		h.RecordTraffic(time.Now(), snap)
		// Anchor the reconciliation on whatever schedule is now live: the
		// generated one after an apply, the unchanged incumbent otherwise.
		predicted := rep.PredictedAfter
		if !changed && rep.Moved != 0 && rep.PredictedBefore >= 0 {
			predicted = rep.PredictedBefore
		}
		h.SetBaseline(predicted, g.eng.Totals().InterNodeSent, time.Now())
	}
	return changed
}

// worthApplying mirrors the simulated generator's disruption gate: the new
// schedule must use fewer worker nodes, or cut inter-node traffic by at
// least the improvement threshold.
func (g *Generator) worthApplying(next, cur *cluster.Assignment, load *loaddb.Snapshot) bool {
	if next.NumUsedNodes() < cur.NumUsedNodes() {
		return true
	}
	curT := core.InterNodeTraffic(cur, load)
	nextT := core.InterNodeTraffic(next, load)
	return nextT < curT*(1-g.cfg.ImprovementThreshold)
}
