package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one bench-side record around a call into a layer's public API.
// Spans of one root (paced lines, sampled) or one reschedule round share
// an ID; Parent is the index of the enclosing span, -1 for none.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs skip it.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, id uint64, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Now().UnixNano()})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// add records an already finished span.
func (l *spanLog) add(name string, id uint64, parent int, start, end int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if l == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// spanDir is where traced runs write their spans: inside the build
// directory the wrapper script uses, which is ignored by git.
const spanDir = ".bench_build/spans"

// finishSpans writes the log and reports its size.
func finishSpans(r *result, l *spanLog, workload string, seed uint64) {
	if l == nil {
		return
	}
	r.layer["trace.spans"] = float64(l.len())
	path, err := l.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err != nil {
		r.note("spans not written: %v", err)
		return
	}
	r.note("%d bench spans written to %s", l.len(), path)
}
