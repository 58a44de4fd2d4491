// Package stream defines the shared data-stream model: items, tracker
// entries, the Tracker interface implemented by every algorithm in this
// repository, and period-divided streams.
//
// Following the paper, a stream is divided into T equal-sized periods. An
// item's frequency is its total number of appearances; its persistency is
// the number of periods in which it appears at least once; its significance
// is α·frequency + β·persistency.
package stream

import (
	"fmt"
	"slices"
)

// Item is a 64-bit stream item identifier (e.g. a source IP, a user ID, a
// flow key hash).
type Item = uint64

// Entry is a tracker's estimate for one item.
type Entry struct {
	Item         Item
	Frequency    uint64  // estimated number of appearances
	Persistency  uint64  // estimated number of periods with ≥1 appearance
	Significance float64 // α·Frequency + β·Persistency under the tracker's weights
}

// Tracker is the interface implemented by every algorithm: LTC, the
// counter-based and sketch-based baselines, and PIE.
//
// The caller feeds arrivals with Insert and marks period boundaries with
// EndPeriod. After the stream (or at any point mid-stream), Query and TopK
// report estimates. EndPeriod must be called after the final period for the
// last period's appearances to count toward persistency.
type Tracker interface {
	// Insert records one arrival of item.
	Insert(item Item)
	// EndPeriod marks the boundary between two periods.
	EndPeriod()
	// Query returns the tracker's estimate for item, and whether the
	// tracker has any record of it.
	Query(item Item) (Entry, bool)
	// TopK returns up to k entries with the largest estimated
	// significance, in non-increasing order.
	TopK(k int) []Entry
	// MemoryBytes reports the memory footprint the structure was sized to.
	MemoryBytes() int
	// Name identifies the algorithm (for experiment output).
	Name() string
}

// BatchInserter is the optional bulk-ingestion extension of Tracker:
// trackers with a native batch path (LTC, the window tracker) implement it
// to amortize per-arrival overhead. InsertBatch(items) must be semantically
// identical to calling Insert for each item in order; only the constant
// cost per arrival may differ. Feed arbitrary trackers through the
// InsertBatch helper, which falls back to per-item Insert.
type BatchInserter interface {
	// InsertBatch records one arrival for each item, in order.
	InsertBatch(items []Item)
}

// InsertBatch feeds a batch of arrivals into t, using the native batch path
// when t implements BatchInserter and item-at-a-time Insert otherwise. It
// is the generic adapter that lets batch-oriented callers (the HTTP server,
// the benchmark harness) drive any Tracker.
func InsertBatch(t Tracker, items []Item) {
	if b, ok := t.(BatchInserter); ok {
		b.InsertBatch(items)
		return
	}
	for _, it := range items {
		t.Insert(it)
	}
}

// Weights are the user-defined significance coefficients.
type Weights struct {
	Alpha float64 // frequency coefficient
	Beta  float64 // persistency coefficient
}

// Significance computes α·f + β·p.
func (w Weights) Significance(f, p uint64) float64 {
	return w.Alpha*float64(f) + w.Beta*float64(p)
}

// String renders the weights as the paper's "α:β" notation.
func (w Weights) String() string {
	return fmt.Sprintf("%g:%g", w.Alpha, w.Beta)
}

// Frequent, Persistent and Balanced are the three weightings the paper's
// evaluation uses most often.
var (
	Frequent   = Weights{Alpha: 1, Beta: 0}
	Persistent = Weights{Alpha: 0, Beta: 1}
	Balanced   = Weights{Alpha: 1, Beta: 1}
)

// Stream is a finite, replayable stream divided into Periods equal-sized
// (count-based) periods.
type Stream struct {
	Items   []Item
	Periods int
	// Label names the workload for experiment output (e.g. "CAIDA-like").
	Label string
}

// Len returns the total number of arrivals.
func (s *Stream) Len() int { return len(s.Items) }

// ItemsPerPeriod returns the number of arrivals in each period (the last
// period may be up to Periods−1 items shorter).
func (s *Stream) ItemsPerPeriod() int {
	if s.Periods <= 0 {
		return len(s.Items)
	}
	n := (len(s.Items) + s.Periods - 1) / s.Periods
	if n == 0 {
		n = 1
	}
	return n
}

// Distinct returns the number of distinct items.
func (s *Stream) Distinct() int {
	seen := make(map[Item]struct{}, len(s.Items)/4+1)
	for _, it := range s.Items {
		seen[it] = struct{}{}
	}
	return len(seen)
}

// Replay feeds the stream into t: Insert for every arrival, EndPeriod at
// each period boundary including after the final period.
func (s *Stream) Replay(t Tracker) {
	per := s.ItemsPerPeriod()
	for i, it := range s.Items {
		t.Insert(it)
		if (i+1)%per == 0 {
			t.EndPeriod()
		}
	}
	if len(s.Items)%per != 0 {
		t.EndPeriod()
	}
}

// ReplayBatch feeds the stream into t in batches of up to batch items
// (batch ≤ 0 selects 256), using the tracker's native batch path when it
// has one. Batches never span a period boundary, so the result matches
// Replay exactly for any conforming BatchInserter.
func (s *Stream) ReplayBatch(t Tracker, batch int) {
	s.ReplayBatchFunc(batch, func(items []Item) { InsertBatch(t, items) }, t.EndPeriod)
}

// ReplayBatchFunc is ReplayBatch over a function pair: it passes the
// stream to apply in batches of up to batch items (batch ≤ 0 selects 256)
// that never span a period boundary, and calls endPeriod at each boundary,
// including after the final period.
func (s *Stream) ReplayBatchFunc(batch int, apply func([]Item), endPeriod func()) {
	if batch <= 0 {
		batch = 256
	}
	per := s.ItemsPerPeriod()
	fed := 0 // items fed in the current period
	for off := 0; off < len(s.Items); {
		n := batch
		if rem := per - fed; n > rem {
			n = rem
		}
		if rem := len(s.Items) - off; n > rem {
			n = rem
		}
		apply(s.Items[off : off+n])
		off += n
		fed += n
		if fed == per {
			endPeriod()
			fed = 0
		}
	}
	if fed != 0 {
		endPeriod()
	}
}

// ReplayAll feeds the stream into every tracker in ts in one pass.
func (s *Stream) ReplayAll(ts ...Tracker) {
	for _, t := range ts {
		s.Replay(t)
	}
}

// SortEntries orders entries by significance descending, breaking ties by
// item ID ascending so results are deterministic. Every ranked read in the
// module reports in this order.
func SortEntries(es []Entry) {
	if len(es) > smallSort {
		slices.SortFunc(es, compareEntries)
		return
	}
	// Insertion sort with the comparison inlined: the per-bucket merge
	// ranks at most 2·d entries, where a generic sort's indirect
	// comparison calls cost more than the moves.
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && ranksBefore(e.Significance, e.Item, &es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// smallSort is the longest input SortEntries insertion-sorts.
const smallSort = 16

// compareEntries is SortEntries' order as a three-way comparison.
func compareEntries(a, b Entry) int {
	switch {
	case ranksBefore(a.Significance, a.Item, &b):
		return -1
	case ranksBefore(b.Significance, b.Item, &a):
		return 1
	}
	return 0
}

// ranksBefore reports whether an entry with significance sig and item
// ranks strictly ahead of e in SortEntries order.
func ranksBefore(sig float64, item Item, e *Entry) bool {
	if sig != e.Significance {
		return sig > e.Significance
	}
	return item < e.Item
}

// Selection is a bounded top-k selection in SortEntries order. It keeps
// the k highest-ranked entries offered so far in a heap whose root is the
// lowest-ranked of them, so an entry that does not place costs one
// comparison and one that does costs O(log k). Selecting k of m offered
// entries therefore costs m comparisons plus O(log k) per entry that
// displaces a survivor — O(k log(m/k)) of them in expectation when the
// offers arrive in no particular order — and Ranked's O(k log k) sort,
// instead of sorting all m.
type Selection struct {
	k    int
	heap []Entry // heap[0] ranks last among the survivors
}

// NewSelection returns an empty selection of the k highest-ranked entries
// with room for min(k, hint) of them, hint being the number of entries
// the caller will offer: a large k over a small input allocates only what
// the input can fill, and Offer never grows the buffer while the offers
// stay within hint. k ≤ 0 selects nothing.
func NewSelection(k, hint int) Selection {
	if k < 0 {
		k = 0
	}
	return Selection{k: k, heap: make([]Entry, 0, max(min(k, hint), 0))}
}

// Admits reports whether an entry with significance sig and item would
// enter the selection, so a caller can skip building an Entry that
// cannot place.
func (s *Selection) Admits(sig float64, item Item) bool {
	if len(s.heap) < s.k {
		return true
	}
	return len(s.heap) > 0 && ranksBefore(sig, item, &s.heap[0])
}

// Offer considers e for the selection: it enters if fewer than k entries
// are held or it ranks ahead of the lowest-ranked survivor, which it then
// displaces.
//
//sig:noalloc
func (s *Selection) Offer(e Entry) {
	if !s.Admits(e.Significance, e.Item) {
		return
	}
	h := s.heap
	if len(h) < s.k {
		h = append(h, e)
		s.heap = h
		// Sift up: move each parent that ranks ahead of e down into the
		// hole, so no parent ranks ahead of its children.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !ranksBefore(h[p].Significance, h[p].Item, &e) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = e
		return
	}
	// e displaces the root. Sift down: move the lower-ranked child up
	// into the hole while it ranks below e.
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && ranksBefore(h[c].Significance, h[c].Item, &h[r]) {
			c = r
		}
		if !ranksBefore(e.Significance, e.Item, &h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Ranked returns the selected entries in SortEntries order. It sorts the
// selection's own buffer, so the selection must not be offered to again.
func (s *Selection) Ranked() []Entry {
	SortEntries(s.heap)
	return s.heap
}

// TopKFromEntries returns the k largest-significance entries from es
// (sorted, deterministic). k ≤ 0 yields an empty result. It is a helper
// for trackers that materialize all candidates and then rank them. It
// selects in place: the result is a prefix of es, whose order beyond it is
// unspecified afterwards, and nothing is allocated.
func TopKFromEntries(es []Entry, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if k >= len(es) {
		SortEntries(es)
		return es
	}
	// The heap fills es from the front. Each offer writes at most up to
	// the index being read, so no unread entry is overwritten.
	s := Selection{k: k, heap: es[:0]}
	for _, e := range es {
		s.Offer(e)
	}
	return s.Ranked()
}
