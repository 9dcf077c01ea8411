package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// operation share op; parent is the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op returning span id 0.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return uint64(len(t.spans))
}

// end closes span id (0 is ignored).
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of every span that has ended.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write emits the closed spans as NDJSON.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals, each clipped to [lo, hi).
func covered(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// spanStats summarises closed spans by name: the median duration and
// median self time in ms, and the spans themselves.
type spanStats struct {
	durMs, selfMs map[string][]float64
}

func summarise(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{durMs: map[string][]float64{}, selfMs: map[string][]float64{}}
	for _, s := range spans {
		st.durMs[s.Name] = append(st.durMs[s.Name], float64(s.dur())/1e6)
		st.selfMs[s.Name] = append(st.selfMs[s.Name], float64(self[s.ID])/1e6)
	}
	return st
}

// medianOr returns the median of xs, or 0 when there are none (a span
// this workload never crosses).
func medianOr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
