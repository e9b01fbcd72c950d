package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"tstorm/internal/docstore"
	"tstorm/internal/redisq"
)

func TestSameSeedSameScheduleAndInputs(t *testing.T) {
	a, b := poissonSchedule(7, 4500, 2000), poissonSchedule(7, 4500, 2000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different due-time schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 4500, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// The mean gap of a Poisson process at rate r is 1/r.
	if mean := a[len(a)-1].Seconds() / float64(len(a)); mean < 0.8/4500 || mean > 1.2/4500 {
		t.Fatalf("mean gap %v s, want about %v s", mean, 1.0/4500)
	}
	for name, gen := range map[string]func(uint64) func() string{"wc": wcLines, "log": logLines} {
		x, y, z := gen(7), gen(7), gen(8)
		same, differs := true, false
		for i := 0; i < 500; i++ {
			lx, ly, lz := x(), y(), z()
			same = same && lx == ly
			differs = differs || lx != lz
		}
		if !same || !differs {
			t.Fatalf("%s inputs: same seed identical %v, other seed differs %v", name, same, differs)
		}
	}
}

// A spout that stalls for a known time must add that stall to the latency
// of every line queued behind it: latency runs from each line's due time,
// not from when the spout got round to emitting it.
func TestStallAddsToQueuedLatency(t *testing.T) {
	const (
		lines   = 10
		gap     = time.Millisecond
		stall   = 50 * time.Millisecond
		service = time.Millisecond
	)
	run := func(stalled bool) (fromDue, fromEmit []time.Duration) {
		src := newSource(redisq.NewServer(), "k")
		t0 := time.Unix(1000, 0)
		for i := 0; i < lines; i++ {
			src.push("line", t0.Add(time.Duration(i)*gap).UnixNano())
		}
		for i := 0; i < lines; i++ {
			due := t0.Add(time.Duration(i) * gap)
			emitAt := due
			if stalled {
				// The spout wakes at t0+stall and drains the list back to back.
				emitAt = t0.Add(stall)
			}
			idx, _, ok := src.pop(emitAt.UnixNano())
			if !ok || idx != i {
				t.Fatalf("pop %d: got index %d ok=%v", i, idx, ok)
			}
			src.ackAt(idx, emitAt.Add(service).UnixNano())
		}
		due, emit, ack := src.lineTimes()
		for i := range due {
			fromDue = append(fromDue, time.Duration(ack[i]-due[i]))
			fromEmit = append(fromEmit, time.Duration(ack[i]-emit[i]))
		}
		return fromDue, fromEmit
	}
	base, _ := run(false)
	withStall, emitBased := run(true)
	for i := 0; i < lines; i++ {
		queued := time.Duration(i) * gap // line i fell due this far into the stall
		if got, want := withStall[i]-base[i], stall-queued; got != want {
			t.Errorf("line %d: stall added %v, want %v", i, got, want)
		}
		if emitBased[i] != service {
			t.Errorf("line %d: emit-to-ack %v; it hides the stall, as it should, so it must not be the metric", i, emitBased[i])
		}
	}
	if withStall[0]-base[0] != stall {
		t.Errorf("first line: stall added %v, want the whole %v", withStall[0]-base[0], stall)
	}
}

func TestReferenceCatchesDroppedAndDoubledWords(t *testing.T) {
	lines := make([]string, 40)
	next := wcLines(3)
	for i := range lines {
		lines[i] = next()
	}
	sinkFor := func() *docstore.Store {
		sink := docstore.NewStore()
		app, err := wcSpec.newApp(redisq.NewServer(), sink)
		if err != nil {
			t.Fatal(err)
		}
		reference(app, wcSpec.spout, lines, nil)
		return sink
	}
	want := sinkFor()
	if err := compareStores(sinkFor(), want, wcSpec.counters, wcSpec.docs, false); err != nil {
		t.Fatalf("identical runs differ: %v", err)
	}
	var word string
	for w := range want.Counters("words") {
		word = w
		break
	}
	dropped := sinkFor()
	dropped.IncCounter("words", word, -1)
	doubled := sinkFor()
	doubled.IncCounter("words", word, 1)
	if compareStores(dropped, want, wcSpec.counters, wcSpec.docs, false) == nil {
		t.Error("a dropped word passed the check")
	}
	if compareStores(dropped, want, wcSpec.counters, wcSpec.docs, true) == nil {
		t.Error("a dropped word passed the check after replays")
	}
	if compareStores(doubled, want, wcSpec.counters, wcSpec.docs, false) == nil {
		t.Error("a double-counted word passed the check")
	}
	if err := compareStores(doubled, want, wcSpec.counters, wcSpec.docs, true); err != nil {
		t.Errorf("a replay may count a word twice: %v", err)
	}
	extra := sinkFor()
	extra.IncCounter("words", "no-such-word", 1)
	if compareStores(extra, want, wcSpec.counters, wcSpec.docs, false) == nil {
		t.Error("a word absent from the reference passed the check")
	}
}

func TestLogReferenceCountsDocuments(t *testing.T) {
	lines := make([]string, 30)
	next := logLines(5)
	for i := range lines {
		lines[i] = next()
	}
	sink := docstore.NewStore()
	app, err := logSpec.newApp(redisq.NewServer(), sink)
	if err != nil {
		t.Fatal(err)
	}
	reference(app, logSpec.spout, lines, nil)
	if got := sink.Count("index"); got != len(lines) {
		t.Fatalf("index documents %d, want one per line (%d)", got, len(lines))
	}
	var total int64
	for _, v := range sink.Counters("sources") {
		total += v
	}
	if total != int64(len(lines)) {
		t.Fatalf("source counters sum to %d, want %d", total, len(lines))
	}
}

func TestPercentileReporterCounts(t *testing.T) {
	s := &samples{}
	for i := 1000; i >= 1; i-- {
		s.add(float64(i))
	}
	if s.n() != 1000 {
		t.Fatalf("n = %d", s.n())
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		if got := s.quantile(c.q); got != c.value {
			t.Errorf("q%v = %v, want %v", c.q, got, c.value)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("beyond q%v = %d, want %d", c.q, got, c.beyond)
		}
	}
	ties := &samples{}
	for _, v := range []float64{1, 2, 2, 2, 3} {
		ties.add(v)
	}
	if got := ties.beyond(0.5); got != 1 {
		t.Errorf("beyond the median of 1,2,2,2,3 = %d, want 1", got)
	}
	if got := (&samples{}).beyond(0.99); got != 0 {
		t.Errorf("empty reporter: beyond = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}

	// lat_* pool every sample of the phase and carry its count.
	r := newResult()
	reportLatency(r, s)
	if r.e2e["lat_mean_ms"] != 500.5 || r.e2e["lat_p50_ms"] != 500 || r.e2e["lat_p99_ms"] != 990 {
		t.Errorf("pooled lat_* = %v", r.e2e)
	}
	if r.counts["lat_p99_ms"] != 1000 {
		t.Errorf("lat_p99_ms count = %d", r.counts["lat_p99_ms"])
	}
}

// A run whose paced phase was not sustainable reports no latency number.
func TestUnsustainablePhaseWithholdsLatency(t *testing.T) {
	r := newResult()
	for _, d := range endToEnd {
		r.e2e[d.name] = 1
	}
	withholdLatency(r)
	m := jsonMetrics(r, false)
	for _, name := range []string{"lat_mean_ms", "lat_p50_ms", "lat_p99_ms"} {
		if _, ok := m[name]; ok {
			t.Errorf("%s reported after the sustainability gate failed", name)
		}
	}
	if len(m) != len(endToEnd)-3 {
		t.Errorf("%d metrics reported, want the %d others", len(m), len(endToEnd)-3)
	}
}

func TestSchedScaleAssignmentsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Algorithm 1 at 1000 executors")
	}
	a, err := replayHash(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayHash(11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different assignments: %016x vs %016x", a, b)
	}
	g, err := newSchedRig(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.gen.Stop()
	if _, _, err := g.round(11, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.check(g.algo.relax > 0); err != nil {
		t.Fatal(err)
	}
	if n := len(g.target.combined().Executors); n != schedTopologies*100 {
		t.Fatalf("%d executors placed", n)
	}
	// A round in which Algorithm 1 fails leaves the previous assignment in
	// place; the round must still be reported as failed.
	g.algo.inner.Gamma = 0.5
	if _, _, err := g.round(11, 1); err == nil {
		t.Fatal("a round whose Algorithm 1 call failed was not reported")
	}
}

// Every edge of the synthetic topologies is shuffle or fields grouped, so
// every sender of an edge reaches every receiver, and a bolt receives what
// its upstream emits.
func TestSchedWindowFollowsGroupings(t *testing.T) {
	tops, err := schedTopos()
	if err != nil {
		t.Fatal(err)
	}
	loads, flows := schedWindow(3, 0, tops)
	if want := schedTopologies * (10*30 + 30*30 + 30*30); len(flows) != want {
		t.Fatalf("%d flows, want %d (all pairs on every edge)", len(flows), want)
	}
	if len(loads) != schedTopologies*100 {
		t.Fatalf("%d executor loads", len(loads))
	}
	in, out := map[string]float64{}, map[string]float64{}
	for k, v := range flows {
		if k.From.Topology == "topo-00" {
			out[k.From.Component] += v
			in[k.To.Component] += v
		}
	}
	for _, c := range []string{"a", "b"} {
		if math.Abs(in[c]-out[c]) > 0.2*in[c] {
			t.Errorf("component %s receives %.0f tuples/s but emits %.0f", c, in[c], out[c])
		}
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same
// units, as the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
