package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"tstorm/internal/engine"
	"tstorm/internal/redisq"
	"tstorm/internal/textdata"
	"tstorm/internal/tuple"
	"tstorm/internal/weblog"
)

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// arrivals per second. The same seed always yields the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5c4ed01e))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// wcLines returns the seeded Word Count input: corpus lines drawn in a
// seeded order.
func wcLines(seed uint64) func() string {
	rng := rand.New(rand.NewPCG(seed, 0x11e5))
	return func() string { return textdata.Line(rng.IntN(textdata.NumLines())) }
}

// logLines returns the seeded Log Stream input: LogStash envelopes of
// synthetic IIS log lines.
func logLines(seed uint64) func() string {
	g := weblog.NewGenerator(seed)
	return g.EnvelopeJSON
}

// source is the open-loop input side of a paced run: one feeder pushes
// lines into the topology's redisq list, each with the instant it was
// due, and the bench spouts pop them. Because the list is FIFO and pops
// are serialised with the index counter, the k-th line popped is the k-th
// line pushed, so every root's due, emit and ack instants are known.
type source struct {
	q   *redisq.Server
	key string

	mu     sync.Mutex
	due    []int64 // UnixNano the line was due (its scheduled send time)
	emit   []int64 // UnixNano of the first spout emit, 0 before
	ack    []int64 // UnixNano of the first ack, 0 before
	popped int

	acked    atomic.Int64 // distinct lines acked
	replayed atomic.Int64
}

func newSource(q *redisq.Server, key string) *source {
	return &source{q: q, key: key}
}

// push appends a line due at the given instant to the list.
func (s *source) push(line string, due int64) {
	s.mu.Lock()
	s.due = append(s.due, due)
	s.emit = append(s.emit, 0)
	s.ack = append(s.ack, 0)
	s.mu.Unlock()
	s.q.RPush(s.key, line)
}

// pop takes the next line and stamps its emit instant.
func (s *source) pop(now int64) (idx int, line string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	line, ok = s.q.LPop(s.key)
	if !ok {
		return 0, "", false
	}
	idx = s.popped
	s.popped++
	s.emit[idx] = now
	return idx, line, true
}

// acked records the first ack of line idx.
func (s *source) ackAt(idx int, now int64) {
	s.mu.Lock()
	first := s.ack[idx] == 0
	if first {
		s.ack[idx] = now
	}
	s.mu.Unlock()
	if first {
		s.acked.Add(1)
	}
}

// pushed is the number of lines generated so far.
func (s *source) pushed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.due)
}

// outstanding is the backlog: lines generated but not yet acked, whether
// still in the list or inside the topology.
func (s *source) outstanding() int { return s.pushed() - int(s.acked.Load()) }

// lineTimes copies the per-line instants for analysis after the run.
func (s *source) lineTimes() (due, emit, ack []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.due...), append([]int64(nil), s.emit...), append([]int64(nil), s.ack...)
}

// benchSpout is the spout the bench substitutes for the workload's reader:
// it pops the source list, emits each line anchored to its index, and
// replays failed lines, as the reader it replaces does.
type benchSpout struct {
	src      *source
	inflight map[int]string
	replays  []int
}

var _ engine.Spout = (*benchSpout)(nil)

func (b *benchSpout) Open(*engine.Context) { b.inflight = make(map[int]string) }

func (b *benchSpout) NextTuple(em engine.SpoutEmitter) {
	if len(b.replays) > 0 {
		id := b.replays[0]
		b.replays = b.replays[1:]
		if line, ok := b.inflight[id]; ok {
			em.EmitWithID("", tuple.Values{line}, id)
		}
		return
	}
	idx, line, ok := b.src.pop(time.Now().UnixNano())
	if !ok {
		return
	}
	b.inflight[idx] = line
	em.EmitWithID("", tuple.Values{line}, idx)
}

func (b *benchSpout) Ack(msgID any) {
	if id, ok := msgID.(int); ok {
		delete(b.inflight, id)
		b.src.ackAt(id, time.Now().UnixNano())
	}
}

func (b *benchSpout) Fail(msgID any) {
	if id, ok := msgID.(int); ok {
		if _, live := b.inflight[id]; live {
			b.replays = append(b.replays, id)
			b.src.replayed.Add(1)
		}
	}
}

// feeder is the single load-generator goroutine. In paced mode it pushes
// line i at start+schedule[i], never slowed by the system under test; in
// saturated mode it keeps the list at least satFloor lines long.
type feeder struct {
	src   *source
	next  func() string
	sched []time.Duration
	start time.Time

	mode atomic.Int32 // feedPaced, feedSaturated, feedStop
	done chan struct{}

	lagMu sync.Mutex
	lag   []int64 // per paced line: push instant minus due instant (ns)
}

const (
	feedPaced int32 = iota
	feedSaturated
	feedStop
)

// satFloor is the saturated-phase list length the feeder tops up to.
const satFloor = 4096

func startFeeder(src *source, next func() string, sched []time.Duration, start time.Time) *feeder {
	f := &feeder{src: src, next: next, sched: sched, start: start, done: make(chan struct{})}
	go f.run()
	return f
}

func (f *feeder) set(mode int32) { f.mode.Store(mode) }

// stop ends feeding and waits for the goroutine to exit.
func (f *feeder) stop() {
	f.mode.Store(feedStop)
	<-f.done
}

func (f *feeder) run() {
	defer close(f.done)
	i := 0
	for {
		switch f.mode.Load() {
		case feedStop:
			return
		case feedSaturated:
			if f.src.q.LLen(f.src.key) < satFloor {
				now := time.Now().UnixNano()
				for j := 0; j < satFloor; j++ {
					f.src.push(f.next(), now)
				}
			}
			time.Sleep(time.Millisecond)
		default:
			if i >= len(f.sched) {
				time.Sleep(time.Millisecond)
				continue
			}
			due := f.start.Add(f.sched[i])
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				continue
			}
			now := time.Now()
			f.src.push(f.next(), due.UnixNano())
			f.lagMu.Lock()
			f.lag = append(f.lag, now.Sub(due).Nanoseconds())
			f.lagMu.Unlock()
			i++
		}
	}
}

func (f *feeder) lags() []int64 {
	f.lagMu.Lock()
	defer f.lagMu.Unlock()
	return append([]int64(nil), f.lag...)
}
