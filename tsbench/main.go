// Command tsbench is the repository benchmark. It runs one named workload
// against the wall-clock backends (internal/live, internal/dist) or the
// control path (loaddb, scheduler, the live Generator), checks the run's
// output against a reference, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs once untraced and once traced, and the metrics are the
// per-layer ones. Run it from the repository root:
//
//	bash tsbench/run.sh --workload wc-paced --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"tstorm/internal/dist"
	_ "tstorm/internal/workloads" // registers the self-fed dist workload in worker processes
)

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	absent    map[string]string // per-layer metric → why the layer does no work here
	counts    map[string]int    // sample count behind a metric, where it has one
	notes     []string
	errs      []string
	prov      map[string]any
}

func newResult() *result {
	return &result{
		correct: true,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		absent:  map[string]string{},
		counts:  map[string]int{},
		prov:    map[string]any{},
	}
}

// fail records a correctness violation; the run then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// miss marks per-layer metrics absent on this workload.
func (r *result) miss(reason string, names ...string) {
	for _, n := range names {
		r.absent[n] = reason
	}
}

type workload struct {
	name string
	run  func(seed uint64, seconds float64, traced bool) (*result, error)
}

var workloadList = []workload{
	{"wc-paced", func(seed uint64, s float64, tr bool) (*result, error) { return runPaced(wcSpec, seed, s, tr) }},
	{"log-paced", func(seed uint64, s float64, tr bool) (*result, error) { return runPaced(logSpec, seed, s, tr) }},
	{"wc-dist", runDist},
	{"sched-scale", runSchedScale},
}

func main() {
	// Worker processes of the dist backend are this binary re-executed.
	dist.RunWorkerIfChild()

	name := flag.String("workload", "", "workload name: wc-paced, log-paced, wc-dist or sched-scale")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 16, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an extra traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == name {
			wl = &workloadList[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("non-positive --seconds %v", seconds)
	}
	if seed == 0 {
		seed = 1
	}
	probe := hostProbe()
	base, err := wl.run(seed, seconds, false)
	if err != nil {
		return err
	}
	stampProvenance(base, name, seed, seconds, false)
	base.prov["host_probe_ms"] = probe
	printResult(base, endToEnd, "end-to-end")
	out := base
	if traced {
		tr, err := wl.run(seed, seconds, true)
		if err != nil {
			return err
		}
		overhead(base, tr)
		stampProvenance(tr, name, seed, seconds, true)
		printResult(tr, endToEnd, "end-to-end, traced run")
		printResult(tr, perLayer, "per-layer, traced run")
		out = &result{
			correct:   base.correct && tr.correct,
			attempted: base.attempted + tr.attempted,
			failed:    base.failed + tr.failed,
			layer:     tr.layer,
		}
	}
	if err := printJSON(out, traced); err != nil {
		return err
	}
	if !out.correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

// reportLatency sets lat_* from every sample of the measured phase
// pooled: their mean, median and 99th percentile, with the sample count.
func reportLatency(r *result, lat *samples) {
	r.e2e["lat_mean_ms"] = lat.mean()
	r.e2e["lat_p50_ms"] = lat.quantile(0.5)
	r.e2e["lat_p99_ms"] = lat.quantile(0.99)
	for _, m := range []string{"lat_mean_ms", "lat_p50_ms", "lat_p99_ms"} {
		r.counts[m] = lat.n()
	}
	r.note("latency: %d samples pooled over the measured phase; %d lie above the p99", lat.n(), lat.beyond(0.99))
}

// withholdLatency drops lat_* from a run whose paced phase was not
// sustainable: its latency measures queue growth, not processing.
func withholdLatency(r *result) {
	for _, m := range []string{"lat_mean_ms", "lat_p50_ms", "lat_p99_ms"} {
		delete(r.e2e, m)
		delete(r.counts, m)
	}
}

// overhead reports what tracing cost: the traced run's mean latency and
// capacity against the untraced run's.
func overhead(base, tr *result) {
	tr.layer["trace.overhead_frac.lat"] = ratio(tr.e2e["lat_mean_ms"]-base.e2e["lat_mean_ms"], base.e2e["lat_mean_ms"])
	tr.layer["trace.overhead_frac.capacity"] = ratio(base.e2e["capacity_lps"]-tr.e2e["capacity_lps"], base.e2e["capacity_lps"])
}

// hostProbe times a fixed single-threaded job (sorting a seeded slice),
// so that a run on a slow or contended host can be told apart from a
// slow program when comparing results.
func hostProbe() float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	v := make([]float64, 1<<19)
	for i := range v {
		v[i] = rng.Float64()
	}
	t0 := time.Now()
	sort.Float64s(v)
	return ms(time.Since(t0))
}

func stampProvenance(r *result, name string, seed uint64, seconds float64, traced bool) {
	r.prov["workload"] = name
	r.prov["seed"] = seed
	r.prov["seconds"] = seconds
	r.prov["traced"] = traced
	r.prov["nproc"] = runtime.NumCPU()
	r.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.prov["go"] = runtime.Version()
	r.prov["commit"] = commit()
}

// commit names the source revision: BENCH_COMMIT when the caller sets it,
// else git's HEAD when the tree is a git checkout, else "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printResult(r *result, defs []metricDef, title string) {
	prov, _ := json.Marshal(r.prov)
	fmt.Printf("# provenance %s\n", prov)
	fmt.Printf("# %s metrics (correct=%v attempted=%d failed=%d failed_frac=%.6f)\n",
		title, r.correct, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	vals := r.e2e
	if defs[0].layer {
		vals = r.layer
	}
	for _, d := range defs {
		if why, ok := r.absent[d.name]; ok && d.layer {
			fmt.Printf("  %-34s %14s %-6s absent: %s\n", d.name, "-", d.unit, why)
			continue
		}
		v, ok := vals[d.name]
		if !ok && !d.layer {
			fmt.Printf("  %-34s %14s %-6s withheld\n", d.name, "-", d.unit)
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", d.name, v, d.unit)
		if n, ok := r.counts[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if alias := aliasFor(r, d.name); alias != "" {
			line += " (" + alias + ")"
		}
		fmt.Println(line)
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for _, e := range r.errs {
		fmt.Println("  CORRECTNESS:", e)
	}
}

// aliasFor names the decide-time metric a generic end-to-end slot carries
// on the control-path workload.
func aliasFor(r *result, name string) string {
	if r.prov["workload"] != "sched-scale" {
		return ""
	}
	switch name {
	case "lat_p50_ms":
		return "decide_p50_ms"
	case "lat_p99_ms":
		return "decide_p99_ms"
	case "lat_mean_ms":
		return "decide_mean_ms"
	}
	return ""
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonMetrics maps each metric of the run's kind to its value and unit.
// A withheld end-to-end metric is left out; an absent per-layer one reads 0.
func jsonMetrics(r *result, traced bool) map[string]jsonMetric {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	m := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !d.layer {
			continue
		}
		m[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return m
}

func printJSON(r *result, traced bool) error {
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, jsonMetrics(r, traced)})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
