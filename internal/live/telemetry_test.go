package live

import (
	"strings"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/engine"
	"tstorm/internal/loaddb"
	"tstorm/internal/topology"
	"tstorm/internal/trace"
)

// buildTracedEngine assembles a tiny spout→bolt topology on two nodes with
// a trace recorder attached, everything initially on node01.
func buildTracedEngine(t *testing.T) (*Engine, *trace.Recorder, *cluster.Assignment, *idSpout) {
	t.Helper()
	b := topology.NewBuilder("traced", 2)
	b.Spout("s", 1).Output("", "id")
	b.Bolt("work", 2).Shuffle("s")
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spout := &idSpout{}
	app := &engine.App{
		Topology:      top,
		Spouts:        map[string]func() engine.Spout{"s": func() engine.Spout { return spout }},
		Bolts:         map[string]func() engine.Bolt{"work": func() engine.Bolt { return devnullBolt{} }},
		SpoutInterval: map[string]time.Duration{"s": time.Millisecond},
	}
	cl, err := cluster.Uniform(2, 4, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	initial := cluster.NewAssignment(0)
	for _, e := range top.Executors() {
		initial.Assign(e, cluster.SlotID{Node: "node01", Port: cluster.BasePort})
	}
	cfg := testConfig()
	cfg.Trace = trace.NewRecorder(128)
	eng, err := NewEngine(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(app, initial); err != nil {
		t.Fatal(err)
	}
	return eng, cfg.Trace, initial, spout
}

// TestApplyEmitsTraceTimeline checks that a live re-assignment records the
// §IV-D story in order: apply begins, spouts halt, queues drain, each
// executor migrates, the re-assignment completes, and spouts resume.
func TestApplyEmitsTraceTimeline(t *testing.T) {
	eng, rec, initial, _ := buildTracedEngine(t)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	next := initial.Clone()
	next.ID = 1
	n2 := cluster.SlotID{Node: "node02", Port: cluster.BasePort}
	for i := 0; i < 2; i++ {
		next.Assign(topology.ExecutorID{Topology: "traced", Component: "work", Index: i}, n2)
	}
	moved, err := eng.Apply("traced", next)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("moved %d executors, want 2", moved)
	}
	waitFor(t, 2*time.Second, "spouts-resumed event", func() bool {
		return len(rec.Filter(trace.SpoutsResumed)) > 0
	})

	var kinds []trace.Kind
	for _, ev := range rec.Events() {
		if ev.Wall.IsZero() {
			t.Fatalf("live event %v has no wall-clock stamp", ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{
		trace.AssignmentPublished,
		trace.SpoutsHalted,
		trace.QueuesDrained,
		trace.ExecutorMigrated,
		trace.ExecutorMigrated,
		trace.ReassignApplied,
		trace.SpoutsResumed,
	}
	// The timeline must contain `want` as a subsequence (the spout may be
	// mid-cycle, so unrelated events can interleave in principle).
	wi := 0
	for _, k := range kinds {
		if wi < len(want) && k == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("timeline %v missing %v (matched %d/%d)", kinds, want[wi], wi, len(want))
	}

	migs := rec.Filter(trace.ExecutorMigrated)
	for _, ev := range migs {
		if ev.Where != n2.String() || !strings.Contains(ev.Detail, "moved from node01:6700") {
			t.Errorf("migration event %v lacks slot detail", ev)
		}
	}
}

// TestExecutorAndEdgeStats runs traffic through the engine and checks the
// telemetry snapshots: per-executor processed counts and process-latency
// histograms, per-edge counters conserving against the engine totals, and
// the placement snapshot tracking Apply.
func TestExecutorAndEdgeStats(t *testing.T) {
	eng, _, initial, spout := buildTracedEngine(t)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	waitFor(t, 5*time.Second, "traffic processed", func() bool {
		return eng.Totals().Processed > 500
	})
	eng.HaltSpouts()
	if !eng.Quiesce(5 * time.Second) {
		t.Fatal("no quiesce")
	}
	eng.Stop()

	stats := eng.ExecutorStats()
	if len(stats) != 3 {
		t.Fatalf("got %d executor stats, want 3", len(stats))
	}
	var processed, emittedBySpout int64
	for _, st := range stats {
		switch st.Kind {
		case "bolt":
			processed += st.Processed
			if st.QueueCap == 0 {
				t.Errorf("bolt %v reports no queue capacity", st.ID)
			}
			if st.ProcLatency == nil {
				t.Fatalf("bolt %v has no process-latency histogram", st.ID)
			}
			if st.ProcLatency.Count() != st.Processed {
				t.Errorf("bolt %v latency samples %d != processed %d",
					st.ID, st.ProcLatency.Count(), st.Processed)
			}
		case "spout":
			emittedBySpout = st.Emitted
			if st.ProcLatency != nil {
				t.Errorf("spout has a process-latency histogram")
			}
		}
	}
	tot := eng.Totals()
	if processed != tot.Processed {
		t.Errorf("executor stats sum to %d processed, engine counted %d", processed, tot.Processed)
	}
	if emittedBySpout != spout.seq {
		t.Errorf("spout stat emitted %d, spout produced %d", emittedBySpout, spout.seq)
	}

	var edgeSum int64
	for _, es := range eng.EdgeStats() {
		if es.Boundary != "local" {
			t.Errorf("single-slot placement produced %q edge %v→%v", es.Boundary, es.From, es.To)
		}
		edgeSum += es.Tuples
	}
	if edgeSum != tot.TuplesSent {
		t.Errorf("edge counters sum to %d, engine sent %d", edgeSum, tot.TuplesSent)
	}

	place := eng.Placement()
	if len(place) != 3 {
		t.Fatalf("placement has %d entries", len(place))
	}
	for _, p := range place {
		if want := initial.Executors[p.Executor]; p.Slot != want {
			t.Errorf("placement %v on %v, want %v", p.Executor, p.Slot, want)
		}
	}
}

// TestMonitorGaugesAndSampleEvents checks the stalled-monitor gauges and
// the per-round trace event.
func TestMonitorGaugesAndSampleEvents(t *testing.T) {
	eng, rec, _, _ := buildTracedEngine(t)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	db := loaddb.New(0.5)
	mon := StartMonitor(eng, db, 20*time.Millisecond)
	defer mon.Stop()

	// Samples counts a round when it starts and the round emits its event
	// when it ends, so wait for the third event, not the third count.
	waitFor(t, 5*time.Second, "three sampling rounds", func() bool {
		return mon.Samples() >= 3 && len(rec.Filter(trace.MonitorSampled)) >= 3
	})
	if age := mon.LastSampleAge(); age < 0 || age > 2*time.Second {
		t.Errorf("last-sample age %v implausible for a live monitor", age)
	}
	if d := mon.LastRoundDuration(); d < 0 || d > time.Second {
		t.Errorf("round duration %v implausible", d)
	}
	evs := rec.Filter(trace.MonitorSampled)
	if len(evs) < 3 {
		t.Fatalf("got %d monitor-sampled events, want >= 3", len(evs))
	}
	if !strings.Contains(evs[0].Detail, "executors") {
		t.Errorf("sample event detail %q", evs[0].Detail)
	}
	mon.Stop()
	// A stopped monitor is a stalled monitor: its age only grows.
	a1 := mon.LastSampleAge()
	time.Sleep(30 * time.Millisecond)
	if a2 := mon.LastSampleAge(); a2 <= a1 {
		t.Errorf("age did not grow after stop: %v then %v", a1, a2)
	}
}
