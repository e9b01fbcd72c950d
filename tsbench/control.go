package main

import (
	"fmt"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/core"
	"tstorm/internal/live"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
)

// Control-path settings shared by every workload that reschedules: the
// paper's Algorithm 1 with the consolidation factor and usable-capacity
// fraction the repository's live bench uses.
const (
	gamma            = 1.5
	capacityFraction = 0.9
)

// roundCtx carries the span identity of the reschedule round in progress,
// so the timed wrappers below can parent their spans under it.
type roundCtx struct {
	spans  *spanLog
	id     uint64
	parent int
}

// timedAlgo is Algorithm 1 with each Schedule call timed from outside.
type timedAlgo struct {
	inner *core.TrafficAware
	ctx   *roundCtx
	times samples // ms per Schedule call
	relax int     // relaxations summed over calls
	err   error   // the last call's error
}

var _ scheduler.Algorithm = (*timedAlgo)(nil)

func newTimedAlgo(ctx *roundCtx) *timedAlgo {
	return &timedAlgo{inner: core.NewTrafficAware(gamma), ctx: ctx}
}

func (a *timedAlgo) Name() string { return a.inner.Name() }

func (a *timedAlgo) Schedule(in *scheduler.Input) (*cluster.Assignment, error) {
	sp := a.ctx.spans.begin("scheduler.Schedule", a.ctx.id, a.ctx.parent)
	t0 := time.Now()
	out, err := a.inner.Schedule(in)
	a.times.add(ms(time.Since(t0)))
	a.ctx.spans.end(sp)
	a.relax += a.inner.LastStats.Relaxations
	a.err = err
	return out, err
}

// timedEngine is the bench-owned SchedulerTarget over the in-process
// engine: Apply is timed, everything else is the engine's own.
type timedEngine struct {
	*live.Engine
	ctx   *roundCtx
	apply samples // ms per Apply call
}

var _ live.SchedulerTarget = (*timedEngine)(nil)

func (t *timedEngine) Apply(name string, next *cluster.Assignment) (int, error) {
	sp := t.ctx.spans.begin("live.Engine.Apply", t.ctx.id, t.ctx.parent)
	t0 := time.Now()
	n, err := t.Engine.Apply(name, next)
	t.apply.add(ms(time.Since(t0)))
	t.ctx.spans.end(sp)
	return n, err
}

// reschedule runs one forced generator round and reports a round that
// decided or applied nothing: Generator.Reschedule drops Algorithm 1's
// error and leaves the previous assignment in place.
func reschedule(gen *live.Generator, algo *timedAlgo) error {
	algo.err = nil
	applied := gen.Reschedule()
	if algo.err != nil {
		return fmt.Errorf("Algorithm 1: %w", algo.err)
	}
	if !applied {
		return fmt.Errorf("the forced reschedule applied no assignment")
	}
	return nil
}

func startGenerator(target live.SchedulerTarget, db *loaddb.DB, algo *timedAlgo) (*live.Generator, error) {
	return live.StartGenerator(target, db, live.GeneratorConfig{
		Period:               time.Hour, // rounds are driven by the bench
		CapacityFraction:     capacityFraction,
		ImprovementThreshold: 0.10,
	}, algo)
}
