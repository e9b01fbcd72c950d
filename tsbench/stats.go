package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// samples is the benchmark's percentile reporter: it keeps every raw
// sample, so quantiles are exact and the count behind each one is known.
type samples struct {
	v      []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// quantile is the nearest-rank q-quantile (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[rankIndex(q, len(s.v))]
}

// beyond counts the samples strictly above the nearest-rank q-quantile:
// how many observations back a reported tail percentile.
func (s *samples) beyond(q float64) int {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	i := rankIndex(q, len(s.v))
	return len(s.v) - sort.Search(len(s.v), func(j int) bool { return s.v[j] > s.v[i] })
}

func (s *samples) sum() float64 {
	var sum float64
	for _, x := range s.v {
		sum += x
	}
	return sum
}

func (s *samples) mean() float64 { return ratio(s.sum(), float64(len(s.v))) }

func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	s := samples{v: append([]float64(nil), xs...)}
	return s.quantile(0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap reads the Go runtime counters the per-layer metrics need via
// runtime/metrics, which never stops the world.
type runtimeSnap struct {
	liveBytes  uint64 // heap marked live by the last GC cycle
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		liveBytes:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapSampler records the peak live heap seen every 5 ms: the bytes the
// last GC cycle marked live, so garbage not yet collected does not count.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	b := readRuntime().liveBytes
	h.mu.Lock()
	if b > h.peak {
		h.peak = b
	}
	h.mu.Unlock()
}

// reset restarts the peak from the current live heap.
func (h *heapSampler) reset() {
	b := readRuntime().liveBytes
	h.mu.Lock()
	h.peak = b
	h.mu.Unlock()
}

// peakMB is the peak since the start or the last reset, in MB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.peakMB()
}
