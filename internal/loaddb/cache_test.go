package loaddb

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// rebuiltFlows is the snapshot flow list built the uncached way: every key
// read out of the map and sorted afresh.
func rebuiltFlows(db *DB) []Flow {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Flow, 0, len(db.flows))
	for k, est := range db.flows {
		out = append(out, Flow{From: k.From, To: k.To, Rate: est.Value()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.Less(out[j].From)
		}
		return out[i].To.Less(out[j].To)
	})
	return out
}

func checkFlows(t *testing.T, db *DB, when string) {
	t.Helper()
	got, want := db.Snapshot().Flows, rebuiltFlows(db)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot().Flows = %v, want %v", when, got, want)
	}
}

// window returns one monitoring window over n executors per topology,
// with a flow from every executor to the next.
func window(topos []string, n int, rate float64) map[FlowKey]float64 {
	flows := map[FlowKey]float64{}
	for _, topo := range topos {
		for i := 0; i < n; i++ {
			flows[FlowKey{From: exec(topo, "a", i), To: exec(topo, "b", (i+1)%n)}] = rate + float64(i)
		}
	}
	return flows
}

// TestSnapshotOrderCache checks the cached snapshot order against a fresh
// sort after every kind of change: a key arriving through UpdateTraffic
// or ApplyWindow, a topology forgotten, and windows with no new key —
// which must reuse the cached order rather than re-sort.
func TestSnapshotOrderCache(t *testing.T) {
	db := New(0.5)
	checkFlows(t, db, "empty")
	db.UpdateTraffic(exec("t", "b", 2), exec("t", "a", 0), 4)
	db.UpdateTraffic(exec("t", "a", 1), exec("t", "b", 0), 3)
	checkFlows(t, db, "after UpdateTraffic added keys")

	flows := window([]string{"t", "u"}, 5, 10)
	db.ApplyWindow(nil, flows)
	checkFlows(t, db, "after ApplyWindow added keys")
	cached := &db.order[0]
	for round := 0; round < 3; round++ {
		flows := window([]string{"t", "u"}, 5, float64(20*round))
		db.ApplyWindow(nil, flows)
		db.UpdateTraffic(exec("t", "a", 1), exec("t", "b", 0), float64(round))
		checkFlows(t, db, fmt.Sprintf("after window %d with no new key", round))
		if &db.order[0] != cached {
			t.Fatalf("window %d with no new key re-sorted the flow order", round)
		}
	}

	db.ApplyWindow(nil, map[FlowKey]float64{{From: exec("a", "x", 0), To: exec("t", "a", 3)}: 7})
	checkFlows(t, db, "after ApplyWindow added one key")
	db.Forget("u")
	checkFlows(t, db, "after Forget")
	if got := len(db.Snapshot().Flows); got != 8 {
		t.Fatalf("after Forget(u): %d flows, want 8", got)
	}
	db.Forget("a")
	checkFlows(t, db, "after a second Forget")
	db.UpdateTraffic(exec("u", "a", 0), exec("u", "b", 1), 1)
	checkFlows(t, db, "after a forgotten key came back")
}

// TestSnapshotFlowsIsolatedFromCache mutates a returned Flows slice every
// way a caller could; the next snapshot must not see any of it.
func TestSnapshotFlowsIsolatedFromCache(t *testing.T) {
	db := New(1)
	flows := window([]string{"t"}, 6, 1)
	db.ApplyWindow(nil, flows)
	want := db.Snapshot().Flows

	s := db.Snapshot()
	s.Flows[0].Rate = -1
	s.Flows[1].From = exec("zz", "zz", 9)
	sort.Slice(s.Flows, func(i, j int) bool { return s.Flows[j].From.Less(s.Flows[i].From) })
	s.Flows = append(s.Flows[:2], s.Flows[3:]...)

	if got := db.Snapshot().Flows; !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot after mutating an earlier one = %v, want %v", got, want)
	}
	checkFlows(t, db, "after mutating a returned slice")
}

// TestSnapshotCacheUnderConcurrentWrites races ApplyWindow (some windows
// adding keys), Forget and Snapshot. Every snapshot must list its flows in
// strict (From, To) order, and the final one must equal a fresh sort. ci.sh
// runs it under the race detector.
func TestSnapshotCacheUnderConcurrentWrites(t *testing.T) {
	db := New(0.5)
	topos := []string{"p", "q", "r"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: steady windows, a growing key set now and then
		defer wg.Done()
		for i := 0; i < 400; i++ {
			n := 4 + i/50
			flows := window(topos, n, float64(i))
			db.ApplyWindow(nil, flows)
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // forgetter
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Forget(topos[i%len(topos)])
			time.Sleep(200 * time.Microsecond) // let windows reuse the order between forgets
		}
	}()
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fl := db.Snapshot().Flows
				for i := 1; i < len(fl); i++ {
					a, b := fl[i-1], fl[i]
					if !(a.From.Less(b.From) || (a.From == b.From && a.To.Less(b.To))) {
						errs <- fmt.Errorf("flows %d and %d out of order: %v then %v", i-1, i, a, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkFlows(t, db, "after the race")
}
