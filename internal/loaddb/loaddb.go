// Package loaddb is the load-information database of the paper's
// architecture (§IV-B): load monitors write EWMA-smoothed executor
// workloads (CPU MHz) and inter-executor traffic rates (tuples/s) into it
// every sampling period, and the schedule generator reads consistent
// snapshots out of it as the input to the scheduling algorithm.
package loaddb

import (
	"sort"
	"sync"

	"tstorm/internal/predictor"
	"tstorm/internal/topology"
)

// FlowKey identifies a directed executor pair.
type FlowKey struct {
	From, To topology.ExecutorID
}

// Flow is one smoothed traffic entry.
type Flow struct {
	From, To topology.ExecutorID
	// Rate is tuples per second, EWMA-smoothed.
	Rate float64
}

// Snapshot is a consistent read of the database.
type Snapshot struct {
	// ExecLoad maps executor to its smoothed CPU usage in MHz.
	ExecLoad map[topology.ExecutorID]float64
	// ExecMem maps executor to its smoothed memory footprint in MB. Nil
	// or missing entries mean no monitor has reported memory for the
	// executor; demand derivation falls back to a model baseline.
	ExecMem map[topology.ExecutorID]float64
	// Flows lists smoothed traffic rates, sorted deterministically
	// (by From, then To).
	Flows []Flow
}

// TotalTraffic returns each executor's total (incoming + outgoing) rate —
// the sort key of Algorithm 1.
func (s *Snapshot) TotalTraffic() map[topology.ExecutorID]float64 {
	out := make(map[topology.ExecutorID]float64, len(s.ExecLoad))
	for _, f := range s.Flows {
		out[f.From] += f.Rate
		out[f.To] += f.Rate
	}
	return out
}

// DB is the load database. It is safe for concurrent use.
type DB struct {
	mu      sync.Mutex
	alpha   float64
	factory predictor.Factory
	load    map[topology.ExecutorID]predictor.Estimator
	mem     map[topology.ExecutorID]predictor.Estimator
	flows   map[FlowKey]predictor.Estimator
	// order caches the flow keys with their estimators in snapshot order
	// (by From, then To). It is nil whenever a key was added or removed
	// since the last Snapshot, which then re-sorts; otherwise Snapshot
	// only reads the estimates out in the cached order.
	order []flowEntry
}

type flowEntry struct {
	key FlowKey
	est predictor.Estimator
}

// New returns an empty database using the paper's EWMA estimator with
// coefficient alpha (the paper uses α = 0.5).
func New(alpha float64) *DB {
	db := NewWithEstimator(predictor.EWMAFactory(alpha))
	db.alpha = alpha
	return db
}

// NewWithEstimator returns an empty database whose per-signal estimates
// come from the given estimator factory — the paper's "other estimation/
// prediction methods can be easily integrated" extension point (§IV-B).
func NewWithEstimator(factory predictor.Factory) *DB {
	return &DB{
		factory: factory,
		load:    make(map[topology.ExecutorID]predictor.Estimator),
		mem:     make(map[topology.ExecutorID]predictor.Estimator),
		flows:   make(map[FlowKey]predictor.Estimator),
	}
}

// Alpha returns the EWMA coefficient (0 when a custom estimator is used).
func (db *DB) Alpha() float64 { return db.alpha }

// UpdateExecutorLoad folds one instantaneous workload sample (MHz) into
// the executor's estimate.
func (db *DB) UpdateExecutorLoad(e topology.ExecutorID, mhz float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	est := db.load[e]
	if est == nil {
		est = db.factory()
		db.load[e] = est
	}
	est.Update(mhz)
}

// UpdateExecutorMemory folds one instantaneous memory footprint sample
// (MB) into the executor's estimate. Memory is a separate signal from the
// CPU workload: not every monitor reports it, and the scheduler falls
// back to a model baseline for executors it has never seen.
func (db *DB) UpdateExecutorMemory(e topology.ExecutorID, mb float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	est := db.mem[e]
	if est == nil {
		est = db.factory()
		db.mem[e] = est
	}
	est.Update(mb)
}

// UpdateTraffic folds one instantaneous rate sample (tuples/s) into the
// pair's estimate.
func (db *DB) UpdateTraffic(from, to topology.ExecutorID, rate float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	k := FlowKey{From: from, To: to}
	est := db.flows[k]
	if est == nil {
		est = db.factory()
		db.flows[k] = est
		db.order = nil
	}
	est.Update(rate)
}

// ApplyWindow folds one whole monitoring window into the database under a
// single lock acquisition: every executor's instantaneous workload (MHz)
// and every pair's instantaneous rate (tuples/s). The live runtime's
// monitor uses it so a window of dozens of samples costs one lock
// round-trip instead of one per signal; the result is identical to calling
// UpdateExecutorLoad / UpdateTraffic per entry.
func (db *DB) ApplyWindow(loads map[topology.ExecutorID]float64, flows map[FlowKey]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mhz := range loads {
		est := db.load[e]
		if est == nil {
			est = db.factory()
			db.load[e] = est
		}
		est.Update(mhz)
	}
	for k, rate := range flows {
		est := db.flows[k]
		if est == nil {
			est = db.factory()
			db.flows[k] = est
			db.order = nil
		}
		est.Update(rate)
	}
}

// ApplyMemory folds one monitoring window of per-executor memory samples
// (MB) under a single lock acquisition. It is deliberately a separate
// method from ApplyWindow: ApplyWindow's signature is part of the
// LoadSink interface the distributed control plane ships over the wire,
// and memory is an optional signal discovered by type assertion.
func (db *DB) ApplyMemory(mem map[topology.ExecutorID]float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e, mb := range mem {
		est := db.mem[e]
		if est == nil {
			est = db.factory()
			db.mem[e] = est
		}
		est.Update(mb)
	}
}

// ExecutorLoad reads one executor's current estimate (0 if unknown).
func (db *DB) ExecutorLoad(e topology.ExecutorID) float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if est := db.load[e]; est != nil {
		return est.Value()
	}
	return 0
}

// ExecutorMemory reads one executor's current memory estimate in MB
// (0 if no monitor has reported memory for it).
func (db *DB) ExecutorMemory(e topology.ExecutorID) float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if est := db.mem[e]; est != nil {
		return est.Value()
	}
	return 0
}

// Traffic reads one pair's current estimate (0 if unknown).
func (db *DB) Traffic(from, to topology.ExecutorID) float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if est := db.flows[FlowKey{From: from, To: to}]; est != nil {
		return est.Value()
	}
	return 0
}

// HasData reports whether any sample has ever been written — the schedule
// generator refuses to run the traffic-aware algorithm before monitors
// have reported.
func (db *DB) HasData() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.load) > 0
}

// Forget removes all records of the given topology's executors, e.g. when
// a topology is killed.
func (db *DB) Forget(topo string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for e := range db.load {
		if e.Topology == topo {
			delete(db.load, e)
		}
	}
	for e := range db.mem {
		if e.Topology == topo {
			delete(db.mem, e)
		}
	}
	for k := range db.flows {
		if k.From.Topology == topo || k.To.Topology == topo {
			delete(db.flows, k)
			db.order = nil
		}
	}
}

// Snapshot returns a consistent copy of all estimates.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Snapshot{ExecLoad: make(map[topology.ExecutorID]float64, len(db.load))}
	for e, est := range db.load {
		s.ExecLoad[e] = est.Value()
	}
	if len(db.mem) > 0 {
		s.ExecMem = make(map[topology.ExecutorID]float64, len(db.mem))
		for e, est := range db.mem {
			s.ExecMem[e] = est.Value()
		}
	}
	if db.order == nil {
		db.order = make([]flowEntry, 0, len(db.flows))
		for k, est := range db.flows {
			db.order = append(db.order, flowEntry{key: k, est: est})
		}
		sort.Slice(db.order, func(i, j int) bool {
			a, b := db.order[i].key, db.order[j].key
			if a.From != b.From {
				return a.From.Less(b.From)
			}
			return a.To.Less(b.To)
		})
	}
	s.Flows = make([]Flow, len(db.order))
	for i, f := range db.order {
		s.Flows[i] = Flow{From: f.key.From, To: f.key.To, Rate: f.est.Value()}
	}
	return s
}
