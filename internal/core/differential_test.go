package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// diffCoverage counts the input features and algorithm paths the
// differential test exercised, so a generator change that silently stops
// producing one of them fails the test instead of weakening it.
type diffCoverage struct {
	multiTopo, sharedName, dupFlow, reverseFlow, outsideFlow, selfFlow int
	unsortedFlows, occupied, downNode, hetero, noOrder, noLoad         int
	relaxCount, relaxCapacity, failed                                  int
}

// diffInput draws one random scheduling input, hand-assembling the load
// snapshot so it may hold what a loaddb.DB never produces: repeated and
// reverse-direction flows, self-flows, flows naming executors outside the
// input, and flows out of (From, To) order.
func diffInput(t *testing.T, rng *rand.Rand, cov *diffCoverage) (*scheduler.Input, *TrafficAware) {
	t.Helper()
	var tops []*topology.Topology
	names := map[string]bool{}
	nt := 1 + rng.Intn(4)
	for i := 0; i < nt; i++ {
		name := fmt.Sprintf("t%d", i)
		if i > 0 && rng.Intn(12) == 0 {
			name = fmt.Sprintf("t%d", rng.Intn(i)) // two topologies, one name
			cov.sharedName++
		}
		names[name] = true
		b := topology.NewBuilder(name, 1+rng.Intn(4))
		b.SetAckers(rng.Intn(3))
		b.Spout("s", 1+rng.Intn(4)).Output("default", "k")
		b.Bolt("m", 1+rng.Intn(6)).Shuffle("s").Output("default", "k")
		if rng.Intn(2) == 0 {
			b.Bolt("f", 1+rng.Intn(5)).Fields("m", "k")
		}
		top, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	if len(names) > 1 {
		cov.multiTopo++
	}

	// Heterogeneous nodes: cores, clock and slot count all vary.
	var nodes []cluster.Node
	hetero := false
	for i, k := 0, 2+rng.Intn(10); i < k; i++ {
		n := cluster.Node{
			ID:       cluster.NodeID(fmt.Sprintf("n%02d", i)),
			Cores:    1 + rng.Intn(8),
			CoreMHz:  []float64{100, 500, 2000}[rng.Intn(3)],
			NumSlots: 1 + rng.Intn(4),
		}
		if i > 0 && (n.Cores != nodes[0].Cores || n.CoreMHz != nodes[0].CoreMHz) {
			hetero = true
		}
		nodes = append(nodes, n)
	}
	if hetero {
		cov.hetero++
	}
	cl, err := cluster.New(nodes)
	if err != nil {
		t.Fatal(err)
	}

	var execs []topology.ExecutorID
	for _, top := range tops {
		execs = append(execs, top.Executors()...)
	}
	ghost := func() topology.ExecutorID {
		return topology.ExecutorID{Topology: "ghost", Component: "x", Index: rng.Intn(3)}
	}
	pick := func() topology.ExecutorID {
		if rng.Intn(10) == 0 {
			cov.outsideFlow++
			return ghost()
		}
		return execs[rng.Intn(len(execs))]
	}
	// Rates from a small set make equal totals and equal gains common, so
	// both tie-breaks run; the decimal fractions make summation order
	// visible in the low bits.
	rate := func() float64 {
		return []float64{1, 2, 3, 5, 100, 0.1, 0.2, 0.3, 0.7}[rng.Intn(9)]
	}
	var flows []loaddb.Flow
	for i, n := 0, rng.Intn(4*len(execs)+1); i < n; i++ {
		f := loaddb.Flow{From: pick(), To: pick(), Rate: rate()}
		switch rng.Intn(20) {
		case 0:
			f.To = f.From
			cov.selfFlow++
		case 1, 2:
			flows = append(flows, loaddb.Flow{From: f.From, To: f.To, Rate: rate()})
			cov.dupFlow++
		case 3, 4:
			flows = append(flows, loaddb.Flow{From: f.To, To: f.From, Rate: rate()})
			cov.reverseFlow++
		}
		flows = append(flows, f)
	}
	if rng.Intn(2) == 0 {
		sort.SliceStable(flows, func(i, j int) bool {
			if flows[i].From != flows[j].From {
				return flows[i].From.Less(flows[j].From)
			}
			return flows[i].To.Less(flows[j].To)
		})
	} else {
		cov.unsortedFlows++
	}
	load := &loaddb.Snapshot{ExecLoad: map[topology.ExecutorID]float64{}, Flows: flows}
	for _, e := range execs {
		if rng.Intn(10) == 0 {
			cov.noLoad++
			continue
		}
		load.ExecLoad[e] = []float64{0, 10, 50, 200, 800, 1500, 3000}[rng.Intn(7)]
	}
	load.ExecLoad[ghost()] = 100

	in := &scheduler.Input{
		Topologies:  tops,
		Cluster:     cl,
		Load:        load,
		Constraints: scheduler.Constraints{CPUFraction: []float64{0, 0.5, 0.9}[rng.Intn(3)]},
		Occupied:    map[cluster.SlotID]bool{},
	}
	for _, s := range cl.Slots() {
		if rng.Intn(10) == 0 {
			in.Occupied[s] = true
			cov.occupied++
		}
	}
	if rng.Intn(3) == 0 {
		in.OccupyNode(nodes[rng.Intn(len(nodes))].ID)
		cov.downNode++
	}
	ta := NewTrafficAware(1)
	if rng.Intn(4) != 0 {
		ta.Gamma = 1 + 3*rng.Float64()
	}
	if rng.Intn(5) == 0 {
		ta.DisableTrafficOrder = true
		cov.noOrder++
	}
	return in, ta
}

// probedRun runs schedule with a fresh probe attached and returns the
// report with its wall-clock fields cleared.
func probedRun(in *scheduler.Input, schedule func(*scheduler.Input) (*cluster.Assignment, error)) (*cluster.Assignment, decision.Report) {
	probed := *in
	probed.Probe = decision.NewBuilder()
	a, _ := schedule(&probed)
	rep := *probed.Probe.Report()
	rep.Start, rep.Duration = time.Time{}, 0
	return a, rep
}

func sameStats(a, b Stats) bool {
	return a.Relaxations == b.Relaxations && a.NodesUsed == b.NodesUsed &&
		math.Float64bits(a.InterNodeTraffic) == math.Float64bits(b.InterNodeTraffic)
}

// TestDenseScheduleMatchesReference is the differential test of Algorithm
// 1: on seeded random inputs the dense TrafficAware.Schedule must return
// the assignment, LastStats and probe report of the map-based reference,
// bit for bit, and the probe must not change its result.
func TestDenseScheduleMatchesReference(t *testing.T) {
	const inputs = 300
	var cov diffCoverage
	for seed := int64(1); seed <= inputs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in, params := diffInput(t, rng, &cov)
		dense, ref := *params, *params

		got, gotErr := dense.Schedule(in)
		want, wantErr := referenceSchedule(&ref, in)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if !sameStats(dense.LastStats, ref.LastStats) {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, dense.LastStats, ref.LastStats)
		}
		if wantErr == nil && !got.Equal(want) {
			t.Fatalf("seed %d: assignment differs from the reference", seed)
		}

		denseP, refP := *params, *params
		gotP, gotRep := probedRun(in, denseP.Schedule)
		_, wantRep := probedRun(in, func(in *scheduler.Input) (*cluster.Assignment, error) {
			return referenceSchedule(&refP, in)
		})
		if (gotP == nil) != (got == nil) || (got != nil && !gotP.Equal(got)) || !sameStats(denseP.LastStats, dense.LastStats) {
			t.Fatalf("seed %d: attaching a probe changed the result", seed)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("seed %d: probe report differs from the reference", seed)
		}
		for i, p := range wantRep.Placements {
			if math.Float64bits(p.Gain) != math.Float64bits(gotRep.Placements[i].Gain) ||
				math.Float64bits(p.Traffic) != math.Float64bits(gotRep.Placements[i].Traffic) {
				t.Fatalf("seed %d: placement %d gain/traffic bits differ", seed, i)
			}
			if p.RelaxedCapacity {
				cov.relaxCapacity++
			} else if p.RelaxedCount {
				cov.relaxCount++
			}
		}
		if wantErr != nil {
			cov.failed++
		}
	}
	t.Logf("coverage over %d inputs: %+v", inputs, cov)
	for name, n := range map[string]int{
		"several topologies": cov.multiTopo, "two topologies sharing a name": cov.sharedName,
		"duplicate flows": cov.dupFlow, "reverse flows": cov.reverseFlow,
		"flows naming outside executors": cov.outsideFlow, "self-flows": cov.selfFlow,
		"unsorted flows": cov.unsortedFlows, "occupied slots": cov.occupied,
		"down nodes": cov.downNode, "heterogeneous capacities": cov.hetero,
		"DisableTrafficOrder": cov.noOrder, "executors without load": cov.noLoad,
		"count relaxation": cov.relaxCount, "capacity relaxation": cov.relaxCapacity,
		"no feasible slot": cov.failed,
	} {
		if n == 0 {
			t.Errorf("no input exercised %s", name)
		}
	}
}
