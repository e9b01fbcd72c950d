// Package core implements the paper's contribution: the traffic-aware
// online scheduling algorithm (Algorithm 1) with its consolidation factor
// γ and capacity constraints, the schedule generator daemon that runs it
// periodically (and immediately on overload) with hot-swapping of
// algorithms and on-the-fly parameter changes, and the thin custom
// scheduler that fetches generated schedules and applies them to the
// cluster.
package core

import (
	"fmt"
	"math"
	"sort"

	"tstorm/internal/cluster"
	"tstorm/internal/decision"
	"tstorm/internal/loaddb"
	"tstorm/internal/scheduler"
	"tstorm/internal/topology"
)

// TrafficAware is Algorithm 1 of the paper. Executors are sorted in
// descending order of their total (incoming + outgoing) traffic, and each
// is assigned to the feasible slot that minimizes the incremental
// inter-node traffic, subject to three per-node constraints:
//
//  1. executors of one topology occupy at most one slot per node;
//  2. total assigned workload stays within C_k (Constraints.CPUFraction
//     × the node's physical capacity);
//  3. the executor count stays within γ·N_e/K (the consolidation factor).
//
// If no slot satisfies every constraint, the constraints are relaxed
// progressively (first the count cap, then capacity), so the algorithm is
// total; relaxations are reported in the Stats.
type TrafficAware struct {
	// Gamma is the consolidation factor γ (≥ 1). 1 spreads executors
	// almost evenly over all nodes; larger values consolidate onto fewer
	// nodes.
	Gamma float64
	// DisableTrafficOrder skips line 2 of Algorithm 1 (the descending
	// total-traffic sort) and places executors in declaration order
	// instead — an ablation isolating the sort's contribution.
	DisableTrafficOrder bool

	// LastStats records diagnostics of the most recent Schedule call.
	LastStats Stats
}

// Stats reports diagnostics of one scheduling run.
type Stats struct {
	// Relaxations counts executors that needed constraint relaxation.
	Relaxations int
	// InterNodeTraffic is the objective value of the produced assignment
	// (sum of traffic rates crossing node boundaries).
	InterNodeTraffic float64
	// NodesUsed is the number of distinct nodes in the assignment.
	NodesUsed int
}

var _ scheduler.Algorithm = (*TrafficAware)(nil)

// NewTrafficAware returns the algorithm with the given consolidation
// factor.
func NewTrafficAware(gamma float64) *TrafficAware {
	return &TrafficAware{Gamma: gamma}
}

// Name returns "tstorm".
func (t *TrafficAware) Name() string { return "tstorm" }

// Schedule runs Algorithm 1.
//
// The run works on dense indices: executors are numbered in order of first
// appearance across the input topologies, nodes by their position in the
// cluster, free slots by their position in FreeSlots() and topologies by
// their order of first appearance. Pair traffic lives in per-executor
// neighbour lists and the constraint state in flat slices, so the
// placement loop hashes no string-keyed struct. Every floating-point sum
// adds the same non-zero terms in the same order as the map-based
// reference the differential test compares against (DESIGN.md §12), so
// placements, gains and tie-breaks match it bit for bit.
func (t *TrafficAware) Schedule(in *scheduler.Input) (*cluster.Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if t.Gamma < 1 {
		return nil, fmt.Errorf("core: consolidation factor γ=%v must be ≥ 1", t.Gamma)
	}
	load := in.Load
	if load == nil {
		load = &loaddb.Snapshot{}
	}
	// The usable-capacity fraction lives in the input's Constraints block
	// (0 selects full capacity); only the CPU dimension matters here —
	// Algorithm 1 is deliberately blind to memory and bandwidth, which is
	// exactly what the rstorm/hetero contenders exist to contrast.
	capFrac := in.Constraints.CPUFraction
	if capFrac == 0 {
		capFrac = 1
	}

	// Collect executors of all topologies (the paper's E over M
	// topologies) with their pairwise traffic r_ii'.
	g := newTrafficGraph(in.Topologies, load.Flows)
	ne := len(g.order)
	k := in.Cluster.NumNodes()
	// The paper's per-node executor cap γ·Ne/K, floored at one: a node
	// that may host no executor at all would make every small topology
	// (Ne < K) infeasible and hand control to the relaxation path, which
	// packs — the opposite of the γ=1 "almost even distribution" intent.
	countCap := t.Gamma * float64(ne) / float64(k)
	if countCap < 1 {
		countCap = 1
	}

	// Line 2: sort executors by descending total traffic; ties broken by
	// executor identity for determinism.
	if !t.DisableTrafficOrder {
		sort.SliceStable(g.order, func(i, j int) bool {
			ti, tj := g.total[g.order[i]], g.total[g.order[j]]
			if ti != tj {
				return ti > tj
			}
			return g.ids[g.order[i]].Less(g.ids[g.order[j]])
		})
	}

	// Mutable assignment state, indexed by node, slot and topology.
	nodes := in.Cluster.Nodes()
	nodeIdx := make(map[cluster.NodeID]int32, k)
	capacity := make([]float64, k)
	for i, n := range nodes {
		nodeIdx[n.ID] = int32(i)
		capacity[i] = n.CapacityMHz() * capFrac
	}
	slots := in.FreeSlots()
	slotNode := make([]int32, len(slots))
	slotTopo := make([]int32, len(slots)) // slot → owning topology, -1 if none
	for i, s := range slots {
		slotNode[i] = nodeIdx[s.Node]
		slotTopo[i] = -1
	}
	nodeLoad := make([]float64, k)
	nodeCount := make([]int, k)
	// topoSlot[node·T+topology] = slot chosen for that topology on that
	// node, -1 if none.
	topoSlot := make([]int32, k*g.topos)
	for i := range topoSlot {
		topoSlot[i] = -1
	}
	// gain[node] is the current executor's co-located traffic per node,
	// summed from its placed neighbours and cleared after its placement.
	gain := make([]float64, k)
	placed := g.placedLists()
	nodeOf := make([]int32, len(g.ids))

	a := cluster.NewAssignment(0)
	t.LastStats = Stats{}

	probe := in.Probe
	if probe != nil {
		probe.Begin(t.Name(), ne, k)
		probe.Policy(t.Gamma, capFrac, countCap)
	}

	// The executor being placed: its load, topology and strict-pass
	// candidate record.
	var (
		li   float64
		topo int32
		opts []decision.SlotOption
	)
	// classify reproduces eval's checks in order and names the first
	// failing constraint — the probe's per-candidate verdict.
	classify := func(si int, relaxCount, relaxCapacity bool) decision.Constraint {
		if owner := slotTopo[si]; owner >= 0 && owner != topo {
			return decision.RejectedSlot // slot belongs to another topology
		}
		n := slotNode[si]
		if ts := topoSlot[int(n)*g.topos+int(topo)]; ts >= 0 && int(ts) != si {
			return decision.RejectedSlot // constraint 1: one slot per topology per node
		}
		if !relaxCapacity && nodeLoad[n]+li > capacity[n] {
			return decision.RejectedCapacity // constraint 2
		}
		if !relaxCount && float64(nodeCount[n]+1) > countCap {
			return decision.RejectedCount // constraint 3
		}
		return ""
	}
	eval := func(relaxCount, relaxCapacity, record bool) (int, bool) {
		best, bestGain, found := 0, 0.0, false
		for si := range slots {
			rejected := classify(si, relaxCount, relaxCapacity)
			gn := gain[slotNode[si]]
			if record {
				opts = append(opts, decision.SlotOption{Slot: slots[si], Gain: gn, Rejected: rejected})
			}
			if rejected != "" {
				continue
			}
			if !found || gn > bestGain {
				best, bestGain, found = si, gn, true
			}
		}
		return best, found
	}

	for rank, u := range g.order {
		e := g.ids[u]
		li, topo, opts = load.ExecLoad[e], g.topo[u], nil
		// Co-located traffic depends only on the node, not the slot.
		mine := placed.of(u)
		for _, p := range mine {
			gain[p.at] += p.rate
		}

		si, ok := eval(false, false, probe != nil)
		relaxedCount, relaxedCapacity := false, false
		if !ok {
			t.LastStats.Relaxations++
			relaxedCount = true
			si, ok = eval(true, false, false)
		}
		if !ok {
			relaxedCapacity = true
			si, ok = eval(true, true, false)
		}
		if !ok {
			return nil, fmt.Errorf("core: no slot available for executor %v", e)
		}
		n := slotNode[si]
		if probe != nil {
			opts[si].Chosen = true
			probe.Place(decision.Placement{
				Executor:        e,
				Rank:            rank,
				Traffic:         g.total[u],
				Load:            li,
				Slot:            slots[si],
				Gain:            gain[n],
				RelaxedCount:    relaxedCount,
				RelaxedCapacity: relaxedCapacity,
				Options:         opts,
			})
		}
		for _, p := range mine {
			gain[p.at] = 0
		}
		a.Assign(e, slots[si])
		nodeLoad[n] += li
		nodeCount[n]++
		topoSlot[int(n)*g.topos+int(topo)] = int32(si)
		slotTopo[si] = topo
		nodeOf[u] = n
		for _, v := range g.neighbours(u) {
			placed.add(v.at, weighted{at: n, rate: v.rate})
		}
	}

	used := make([]bool, k)
	for _, n := range nodeOf {
		if !used[n] {
			used[n] = true
			t.LastStats.NodesUsed++
		}
	}
	t.LastStats.InterNodeTraffic = g.interNode(nodeOf, load.Flows)
	if probe != nil {
		probe.Finish(a, load)
	}
	return a, nil
}

// weighted is one entry of a dense adjacency list: a partner executor
// (neighbour lists) or a node (placed lists) with a traffic rate.
type weighted struct {
	at   int32
	rate float64
}

// trafficGraph restates the input topologies and a load snapshot's flows
// over dense executor indices.
type trafficGraph struct {
	ids   []topology.ExecutorID // dense index → executor
	topo  []int32               // dense index → topology index
	topos int                   // distinct topology names
	// order holds one dense index per executor of the input, in
	// declaration order until line 2 sorts it; an executor listed by two
	// same-named topologies appears twice, as it does in the paper's E.
	order []int32
	// total is each executor's incoming + outgoing rate, line 2's sort
	// key, summed in flow order as Snapshot.TotalTraffic does.
	total []float64
	// ends[2f] and ends[2f+1] are flow f's endpoints, -1 for an executor
	// outside the input.
	ends []int32
	// nbr[off[i]:end[i]] lists executor i's partners once each with the
	// symmetrized rate r(i,i')+r(i',i), summed in flow order.
	nbr      []weighted
	off, end []int32
}

func newTrafficGraph(topos []*topology.Topology, flows []loaddb.Flow) *trafficGraph {
	g := &trafficGraph{}
	index := make(map[topology.ExecutorID]int32)
	topoIdx := make(map[string]int32)
	for _, top := range topos {
		ti, ok := topoIdx[top.Name()]
		if !ok {
			ti = int32(len(topoIdx))
			topoIdx[top.Name()] = ti
		}
		for _, e := range top.Executors() {
			i, ok := index[e]
			if !ok {
				i = int32(len(g.ids))
				index[e] = i
				g.ids = append(g.ids, e)
				g.topo = append(g.topo, ti)
			}
			g.order = append(g.order, i)
		}
	}
	g.topos = len(topoIdx)
	lookup := func(e topology.ExecutorID) int32 {
		if i, ok := index[e]; ok {
			return i
		}
		return -1
	}

	// One pass over the flows: endpoints, totals and degrees. Snapshots
	// sort flows by From, so the From lookup is memoised.
	n := len(g.ids)
	g.total = make([]float64, n)
	g.ends = make([]int32, 2*len(flows))
	g.off = make([]int32, n+1)
	var lastFrom topology.ExecutorID
	from := int32(-1)
	for fi, f := range flows {
		if fi == 0 || f.From != lastFrom {
			lastFrom, from = f.From, lookup(f.From)
		}
		to := lookup(f.To)
		g.ends[2*fi], g.ends[2*fi+1] = from, to
		if from >= 0 {
			g.total[from] += f.Rate
		}
		if to >= 0 {
			g.total[to] += f.Rate
		}
		if from >= 0 && to >= 0 {
			g.off[from+1]++
			g.off[to+1]++
		}
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}

	// Second pass: every flow between two input executors lands in both
	// endpoints' lists (twice in one list for a self-flow), in flow order.
	g.nbr = make([]weighted, g.off[n])
	g.end = append([]int32(nil), g.off[:n]...)
	for fi, f := range flows {
		from, to := g.ends[2*fi], g.ends[2*fi+1]
		if from < 0 || to < 0 {
			continue
		}
		g.nbr[g.end[from]] = weighted{at: to, rate: f.Rate}
		g.end[from]++
		g.nbr[g.end[to]] = weighted{at: from, rate: f.Rate}
		g.end[to]++
	}

	// Merge repeated partners in place, keeping each partner's first slot
	// and adding later rates into it, so each pair sums in flow order.
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for u := 0; u < n; u++ {
		w := g.off[u]
		for r := g.off[u]; r < g.end[u]; r++ {
			v := g.nbr[r]
			if p := pos[v.at]; p >= 0 {
				g.nbr[p].rate += v.rate
				continue
			}
			pos[v.at] = w
			g.nbr[w] = v
			w++
		}
		g.end[u] = w
		for _, v := range g.nbr[g.off[u]:w] {
			pos[v.at] = -1
		}
	}
	return g
}

// neighbours returns executor i's partners with their symmetrized rates.
func (g *trafficGraph) neighbours(i int32) []weighted { return g.nbr[g.off[i]:g.end[i]] }

// placedLists are, per executor, the (node, rate) of every placed
// occurrence of its neighbours, appended in placement order.
type placedLists struct {
	buf      []weighted
	off, end []int32
}

// placedLists sizes each executor's list for every occurrence of every
// neighbour.
func (g *trafficGraph) placedLists() placedLists {
	n := len(g.ids)
	mult := make([]int32, n)
	for _, i := range g.order {
		mult[i]++
	}
	p := placedLists{off: make([]int32, n), end: make([]int32, n)}
	size := int32(0)
	for u := 0; u < n; u++ {
		p.off[u], p.end[u] = size, size
		for _, v := range g.neighbours(int32(u)) {
			size += mult[v.at]
		}
	}
	p.buf = make([]weighted, size)
	return p
}

func (p *placedLists) of(i int32) []weighted { return p.buf[p.off[i]:p.end[i]] }

func (p *placedLists) add(i int32, w weighted) {
	p.buf[p.end[i]] = w
	p.end[i]++
}

// interNode is InterNodeTraffic over dense placements: the rates of flows
// whose endpoints are both placed and on different nodes, in flow order.
func (g *trafficGraph) interNode(nodeOf []int32, flows []loaddb.Flow) float64 {
	total := 0.0
	for fi, f := range flows {
		from, to := g.ends[2*fi], g.ends[2*fi+1]
		if from >= 0 && to >= 0 && nodeOf[from] != nodeOf[to] {
			total += f.Rate
		}
	}
	return total
}

// InterNodeTraffic computes the objective of the paper's scheduling
// problem: the total traffic rate crossing node boundaries under the
// given assignment.
func InterNodeTraffic(a *cluster.Assignment, load *loaddb.Snapshot) float64 {
	return decision.InterNodeRate(a, load)
}

// InterProcessTraffic computes the traffic between distinct slots on the
// same node (what constraint 1 drives to zero).
func InterProcessTraffic(a *cluster.Assignment, load *loaddb.Snapshot) float64 {
	total := 0.0
	for _, f := range load.Flows {
		sa, okA := a.Slot(f.From)
		sb, okB := a.Slot(f.To)
		if okA && okB && sa.Node == sb.Node && sa != sb {
			total += f.Rate
		}
	}
	return total
}

// MaxNodeLoad returns the highest per-node workload sum (MHz) under the
// assignment, and that node's ID.
func MaxNodeLoad(a *cluster.Assignment, load *loaddb.Snapshot) (cluster.NodeID, float64) {
	perNode := make(map[cluster.NodeID]float64)
	for e, mhz := range load.ExecLoad {
		if s, ok := a.Slot(e); ok {
			perNode[s.Node] += mhz
		}
	}
	var worst cluster.NodeID
	worstLoad := math.Inf(-1)
	nodes := make([]cluster.NodeID, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if perNode[n] > worstLoad {
			worst, worstLoad = n, perNode[n]
		}
	}
	if math.IsInf(worstLoad, -1) {
		return "", 0
	}
	return worst, worstLoad
}
