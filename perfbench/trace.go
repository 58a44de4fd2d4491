package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request (a frame, a posted body, a gather round) share req; parent is
// the index of the enclosing span in the same tracer, or -1 for a root.
type span struct {
	name   string
	start  int64 // ns since the tracer's origin
	end    int64
	parent int32
	req    int64
}

// tracer records spans in memory for one goroutine; begin/end nest like
// calls, so the span open at begin becomes the new span's parent. A nil
// *tracer is the untraced mode: every method is a no-op, which keeps the
// measured code identical between traced and untraced runs.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<14)}
}

func (t *tracer) begin(name string, req int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, req: req})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// record adds a span that was timed elsewhere — one that overlaps its
// siblings, like a frame in a pipelined window — as a child of the span
// open now.
func (t *tracer) record(name string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin)), parent: parent, req: req})
}

// absorb appends another goroutine's spans (same origin), remapping
// their parent indices.
func (t *tracer) absorb(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children are clipped to
// the parent's interval and their overlaps counted once, so concurrent
// or nested children never drive a self time negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			a, b := spans[k].start, spans[k].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curA, curB, open = v[0], v[1], true
			case v[0] <= curB:
				if v[1] > curB {
					curB = v[1]
				}
			default:
				covered += curB - curA
				curA, curB = v[0], v[1]
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}

// ledger counts spans and sums their self times by span name.
type ledger struct {
	count map[string]int
	self  map[string]int64 // ns
}

func buildLedger(spans []span) ledger {
	l := ledger{count: map[string]int{}, self: map[string]int64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		l.count[s.name]++
		l.self[s.name] += self[i]
	}
	return l
}

// perCall is the mean self time of one span name in the given unit
// (ns per unit), 0 when the name never occurred.
func (l ledger) perCall(name string, unit float64) float64 {
	if l.count[name] == 0 {
		return 0
	}
	return float64(l.self[name]) / float64(l.count[name]) / unit
}

// perUnit spreads a span name's summed self time over n units of work
// (arrivals, bytes), in ns per unit.
func (l ledger) perUnit(name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(l.self[name]) / float64(n)
}

// writeSpans writes one JSON object per span (JSON Lines) to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Req    int64  `json:"req"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		}{i, s.parent, s.req, s.name, s.start, s.end, self[i]}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
