package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"tstorm/internal/docstore"
	"tstorm/internal/engine"
	"tstorm/internal/topology"
	"tstorm/internal/tuple"
)

// reference runs lines through the app's own bolt factories on one
// goroutine, one instance per bolt component, depth first along the
// topology's edges. Every bolt of the paced workloads is keyed by its
// grouping field, so one instance sees exactly what the engine's tasks see
// between them, and the sink it writes to is the expected result.
// capture, when non-nil, sees every emitted value list.
func reference(app *engine.App, spout string, lines []string, capture func(tuple.Values)) {
	top := app.Topology
	bolts := make(map[string]engine.Bolt, len(app.Bolts))
	for _, name := range top.ComponentNames() {
		mk, ok := app.Bolts[name]
		if !ok {
			continue
		}
		b := mk()
		b.Prepare(&engine.Context{
			Topology: top.Name(), Component: name, Parallelism: 1,
			Rand: rand.New(rand.NewPCG(1, 2)),
		})
		bolts[name] = b
	}
	for _, line := range lines {
		refEmitter{top: top, bolts: bolts, from: spout, capture: capture}.Emit("", tuple.Values{line})
	}
}

// refEmitter delivers an emission synchronously to every subscriber.
type refEmitter struct {
	top     *topology.Topology
	bolts   map[string]engine.Bolt
	from    string
	capture func(tuple.Values)
}

func (r refEmitter) Emit(stream string, vals tuple.Values) {
	if stream == "" {
		stream = "default"
	}
	if r.capture != nil {
		r.capture(vals)
	}
	for _, c := range r.top.Consumers(r.from, stream) {
		r.deliver(c.Consumer, stream, vals)
	}
}

func (r refEmitter) EmitDirect(consumer string, _ int, stream string, vals tuple.Values) {
	if stream == "" {
		stream = "default"
	}
	if r.capture != nil {
		r.capture(vals)
	}
	r.deliver(consumer, stream, vals)
}

func (r refEmitter) deliver(consumer, stream string, vals tuple.Values) {
	in := tuple.Tuple{Stream: stream, SrcComponent: r.from, Values: vals}
	next := r
	next.from = consumer
	r.bolts[consumer].Execute(in, next)
}

// compareStores checks the engine's sink against the reference: every
// counter and every document count must match exactly, or, when some
// root was replayed (at-least-once may then count a line twice), be no
// lower than the reference.
func compareStores(got, want *docstore.Store, counterColls, docColls []string, replayed bool) error {
	for _, coll := range counterColls {
		g, w := got.Counters(coll), want.Counters(coll)
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := compareCount(fmt.Sprintf("%s[%q]", coll, k), g[k], w[k], replayed); err != nil {
				return err
			}
		}
	}
	for _, coll := range docColls {
		if err := compareCount(coll+" documents", int64(got.Count(coll)), int64(want.Count(coll)), replayed); err != nil {
			return err
		}
	}
	return nil
}

func compareCount(what string, got, want int64, replayed bool) error {
	if got == want || (replayed && got > want) {
		return nil
	}
	return fmt.Errorf("%s = %d, reference %d", what, got, want)
}
