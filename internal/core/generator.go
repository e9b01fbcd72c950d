package core

import (
	"encoding/json"
	"fmt"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/sim"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// SchedulePath is the coordination-store path the schedule generator
// publishes a topology's schedule under; the custom scheduler fetches it
// from there.
func SchedulePath(topo string) string { return "/schedules/" + topo }

// GeneratorConfig holds the schedule generator's timing and thresholds.
type GeneratorConfig struct {
	// GenerationPeriod is the regular scheduling interval (paper: 300 s).
	GenerationPeriod time.Duration
	// OverloadCheckPeriod is how often node loads are checked for
	// overload (paper: every monitoring period, 20 s).
	OverloadCheckPeriod time.Duration
	// OverloadThreshold is the node-load fraction of capacity above which
	// an immediate re-scheduling is triggered. Monitors measure useful
	// cycles only, while busy-spinning threads burn the rest of a
	// saturated node, so the practical saturation point sits well below
	// nominal capacity.
	OverloadThreshold float64
	// OverloadCooldown suppresses repeated overload-triggered generations
	// while a new schedule is still being applied and measured.
	OverloadCooldown time.Duration
	// CapacityFraction sets C_k as a fraction of physical node capacity
	// (the paper's overload-prevention headroom).
	CapacityFraction float64
	// History, when non-nil, receives a decision report and a
	// traffic-matrix snapshot for every generation — the scheduler
	// decision trail behind /debug/scheduler.
	History *decision.History
}

// DefaultGeneratorConfig matches the paper's Table II settings.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		GenerationPeriod:    300 * time.Second,
		OverloadCheckPeriod: 20 * time.Second,
		OverloadThreshold:   0.5,
		OverloadCooldown:    90 * time.Second,
		CapacityFraction:    0.9,
	}
}

// Validate checks the configuration.
func (c GeneratorConfig) Validate() error {
	if c.GenerationPeriod <= 0 || c.OverloadCheckPeriod <= 0 {
		return fmt.Errorf("core: non-positive generator period")
	}
	if c.OverloadThreshold <= 0 || c.OverloadThreshold > 1 {
		return fmt.Errorf("core: overload threshold %v out of (0,1]", c.OverloadThreshold)
	}
	if c.CapacityFraction <= 0 || c.CapacityFraction > 1 {
		return fmt.Errorf("core: capacity fraction %v out of (0,1]", c.CapacityFraction)
	}
	return nil
}

// Generator is the schedule generator daemon (§IV-A step 2): it
// periodically reads the load database, runs the current scheduling
// algorithm, and publishes new schedules to the coordination store. It is
// an independent component — swapping its algorithm or adjusting γ at
// runtime never touches the engine.
type Generator struct {
	rt  *engine.Runtime
	db  *loaddb.DB
	cfg GeneratorConfig

	registry *scheduler.Registry
	algo     scheduler.Algorithm

	lastOverloadGen sim.Time
	hasOverloadGen  bool

	generations      int
	overloadTriggers int
	published        int

	tickGen      *sim.Ticker
	tickOverload *sim.Ticker
}

// StartGenerator schedules the generator's periodic work on the runtime's
// simulation engine and returns it. algo is the initial algorithm; the
// registry is pre-populated with every built-in scheduler so any of them
// can be hot-swapped in by name, and algo is registered last so the
// running instance wins a name clash.
func StartGenerator(rt *engine.Runtime, db *loaddb.DB, cfg GeneratorConfig, algo scheduler.Algorithm) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		rt: rt, db: db, cfg: cfg,
		registry: scheduler.NewRegistry(),
		algo:     algo,
	}
	scheduler.RegisterBuiltins(g.registry)
	g.registry.Register(algo)
	g.tickGen = rt.Sim().Every(cfg.GenerationPeriod, cfg.GenerationPeriod, func() { g.Generate() })
	g.tickOverload = rt.Sim().Every(cfg.OverloadCheckPeriod, cfg.OverloadCheckPeriod, g.checkOverload)
	return g, nil
}

// Stop halts the generator's periodic work.
func (g *Generator) Stop() {
	g.tickGen.Stop()
	g.tickOverload.Stop()
}

// Registry exposes the generator's algorithm registry so additional
// algorithms can be made available for hot-swapping.
func (g *Generator) Registry() *scheduler.Registry { return g.registry }

// Algorithm returns the active algorithm.
func (g *Generator) Algorithm() scheduler.Algorithm { return g.algo }

// SetAlgorithm hot-swaps the scheduling algorithm: the next generation
// (periodic or overload-triggered) uses it. Nothing in Storm is stopped
// or reconfigured.
func (g *Generator) SetAlgorithm(a scheduler.Algorithm) {
	g.registry.Register(a)
	g.algo = a
	g.emit(trace.AlgorithmSwapped, "", a.Name())
}

// emit records a trace event on the runtime's recorder, if any.
func (g *Generator) emit(kind trace.Kind, topo, detail string) {
	if rec := g.rt.Config().Trace; rec != nil {
		rec.Emit(trace.Event{At: g.rt.Sim().Now(), Kind: kind, Topology: topo, Detail: detail})
	}
}

// SwapTo hot-swaps to a previously registered algorithm by name.
func (g *Generator) SwapTo(name string) error {
	a, ok := g.registry.Get(name)
	if !ok {
		return fmt.Errorf("core: algorithm %q not registered", name)
	}
	g.algo = a
	g.emit(trace.AlgorithmSwapped, "", name)
	return nil
}

// SetGamma adjusts the consolidation factor on the fly. It returns an
// error if the active algorithm has no γ parameter.
func (g *Generator) SetGamma(gamma float64) error {
	ta, ok := g.algo.(*TrafficAware)
	if !ok {
		return fmt.Errorf("core: active algorithm %q has no consolidation factor", g.algo.Name())
	}
	if gamma < 1 {
		return fmt.Errorf("core: γ=%v must be ≥ 1", gamma)
	}
	ta.Gamma = gamma
	return nil
}

// Generations reports how many scheduling runs completed.
func (g *Generator) Generations() int { return g.generations }

// OverloadTriggers reports how many generations were overload-triggered.
func (g *Generator) OverloadTriggers() int { return g.overloadTriggers }

// Published reports how many schedules were actually written (i.e.
// differed from the live assignment).
func (g *Generator) Published() int { return g.published }

// improvementThreshold is the minimum relative inter-node traffic gain a
// new schedule must offer (when it does not reduce node count) to be worth
// the re-assignment disruption. Overload-triggered generations bypass it.
const improvementThreshold = 0.10

// Generate runs the active algorithm over the current load snapshot and
// publishes any schedule that meaningfully improves on the live
// assignment — fewer nodes, or ≥10% less inter-node traffic. It is a
// no-op until monitors have stored load data.
func (g *Generator) Generate() bool { return g.generate(false) }

func (g *Generator) generate(force bool) bool {
	if !g.db.HasData() {
		return false
	}
	topos := g.rt.Topologies()
	if len(topos) == 0 {
		return false
	}
	var tops []*topology.Topology
	for _, name := range topos {
		app, _ := g.rt.App(name)
		tops = append(tops, app.Topology)
	}
	snap := g.db.Snapshot()
	in := scheduler.NewInput(tops, g.rt.Cluster(), snap, g.cfg.CapacityFraction)
	// Failed nodes are off limits until they recover.
	for _, down := range g.rt.DownNodes() {
		in.OccupyNode(down)
	}
	// The incumbent assignment across all topologies feeds only the
	// decision report's predicted-before objective and move count.
	var incumbent *cluster.Assignment
	if g.cfg.History != nil {
		in.Probe = decision.NewBuilder()
		incumbent = cluster.NewAssignment(0)
		for _, name := range topos {
			if a, ok := g.rt.CurrentAssignment(name); ok {
				for e, s := range a.Executors {
					incumbent.Assign(e, s)
				}
			}
		}
	}
	global, err := g.algo.Schedule(in)
	if err != nil {
		return false
	}
	g.generations++
	changed := false
	for _, name := range topos {
		app, _ := g.rt.App(name)
		part := cluster.NewAssignment(0)
		for _, e := range app.Topology.Executors() {
			if s, ok := global.Slot(e); ok {
				part.Assign(e, s)
			}
		}
		cur, ok := g.rt.CurrentAssignment(name)
		if ok && cur.Equal(part) {
			continue
		}
		if ok && !force && !worthApplying(part, cur, in.Load) {
			continue
		}
		data, err := json.Marshal(part)
		if err != nil {
			continue
		}
		if _, err := g.rt.Coord().SetOrCreate(SchedulePath(name), data); err == nil {
			g.published++
			changed = true
			g.emit(trace.ScheduleGenerated, name,
				fmt.Sprintf("algo=%s nodes=%d", g.algo.Name(), part.NumUsedNodes()))
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
	}
	return changed
}

// worthApplying reports whether the re-assignment disruption is justified:
// the new schedule uses fewer worker nodes, or cuts inter-node traffic by
// at least improvementThreshold.
func worthApplying(next, cur *cluster.Assignment, load *loaddb.Snapshot) bool {
	if next.NumUsedNodes() < cur.NumUsedNodes() {
		return true
	}
	curT := InterNodeTraffic(cur, load)
	nextT := InterNodeTraffic(next, load)
	return nextT < curT*(1-improvementThreshold)
}

// checkOverload inspects per-node workload estimates and triggers an
// immediate generation when any node exceeds the overload threshold —
// the paper's timely overload handling (Figs. 9 and 10).
func (g *Generator) checkOverload() {
	if !g.db.HasData() {
		return
	}
	now := g.rt.Sim().Now()
	if g.hasOverloadGen && now.Sub(g.lastOverloadGen) < g.cfg.OverloadCooldown {
		return
	}
	snap := g.db.Snapshot()
	combined := cluster.NewAssignment(0)
	for _, name := range g.rt.Topologies() {
		if a, ok := g.rt.CurrentAssignment(name); ok {
			for e, s := range a.Executors {
				combined.Assign(e, s)
			}
		}
	}
	node, load := MaxNodeLoad(combined, snap)
	if node == "" {
		return
	}
	capacity := g.rt.NodeCapacityMHz(node)
	if capacity <= 0 || load < g.cfg.OverloadThreshold*capacity {
		return
	}
	g.overloadTriggers++
	g.hasOverloadGen = true
	g.lastOverloadGen = now
	g.emit(trace.OverloadDetected, "", fmt.Sprintf("node %s at %.0f MHz", node, load))
	g.generate(true)
}

// CustomScheduler is the thin Nimbus-side scheduler (§IV-A step 3): every
// fetch period (10 s) it reads the published schedule from the
// coordination store and, if it differs from the live assignment, applies
// it. It never computes schedules itself — that is the generator's job,
// which is what makes hot-swapping possible.
type CustomScheduler struct {
	rt      *engine.Runtime
	period  time.Duration
	applied int
	ticker  *sim.Ticker
}

// DefaultFetchPeriod is the paper's schedule fetching period.
const DefaultFetchPeriod = 10 * time.Second

// StartCustomScheduler schedules periodic fetching on the runtime's
// simulation engine.
func StartCustomScheduler(rt *engine.Runtime, period time.Duration) *CustomScheduler {
	if period <= 0 {
		period = DefaultFetchPeriod
	}
	cs := &CustomScheduler{rt: rt, period: period}
	cs.ticker = rt.Sim().Every(period, period, cs.Fetch)
	return cs
}

// Stop halts fetching.
func (cs *CustomScheduler) Stop() {
	cs.ticker.Stop()
}

// Applied reports how many schedules were applied.
func (cs *CustomScheduler) Applied() int { return cs.applied }

// Fetch reads each topology's published schedule and applies it when it
// differs from the live assignment.
func (cs *CustomScheduler) Fetch() {
	for _, name := range cs.rt.Topologies() {
		data, _, err := cs.rt.Coord().Get(SchedulePath(name))
		if err != nil {
			continue
		}
		var a cluster.Assignment
		if err := json.Unmarshal(data, &a); err != nil {
			continue
		}
		cur, ok := cs.rt.CurrentAssignment(name)
		if ok && cur.Equal(&a) {
			continue
		}
		if err := cs.rt.PublishAssignment(name, &a); err == nil {
			cs.applied++
		}
	}
}
