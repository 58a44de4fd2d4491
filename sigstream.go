package sigstream

import (
	"sigstream/internal/stream"
)

// Item is a 64-bit stream item identifier (a source IP, user ID, flow key
// hash, …). Use HashKey to derive Items from strings.
type Item = uint64

// Entry is a tracker's estimate for one item.
type Entry struct {
	// Item is the identifier.
	Item Item
	// Frequency is the estimated number of appearances.
	Frequency uint64
	// Persistency is the estimated number of periods with at least one
	// appearance.
	Persistency uint64
	// Significance is α·Frequency + β·Persistency under the tracker's
	// weights.
	Significance float64
}

// Weights are the significance coefficients: Significance = Alpha·frequency
// + Beta·persistency.
type Weights struct {
	Alpha float64
	Beta  float64
}

// Common weightings.
var (
	// Frequent scores by frequency only (classic top-k frequent items).
	Frequent = Weights{Alpha: 1}
	// Persistent scores by persistency only (top-k persistent items).
	Persistent = Weights{Beta: 1}
	// Balanced weighs both equally.
	Balanced = Weights{Alpha: 1, Beta: 1}
)

// Significance computes Alpha·f + Beta·p.
func (w Weights) Significance(f, p uint64) float64 {
	return w.Alpha*float64(f) + w.Beta*float64(p)
}

// Tracker is the interface implemented by every algorithm in this package:
// LTC (New) and all baselines (NewBaseline).
//
// Feed arrivals with Insert; mark each period boundary with EndPeriod,
// including after the final period. Query and TopK may be called at any
// time. Trackers are not safe for concurrent use.
type Tracker interface {
	// Insert records one arrival of item.
	Insert(item Item)
	// EndPeriod marks the boundary between two periods.
	EndPeriod()
	// Query returns the estimate for item and whether it is tracked.
	Query(item Item) (Entry, bool)
	// TopK returns up to k entries with the largest estimated
	// significance, in non-increasing order.
	TopK(k int) []Entry
	// MemoryBytes reports the memory footprint the structure was sized to.
	MemoryBytes() int
	// Name identifies the algorithm.
	Name() string
}

// BatchInserter is the optional bulk-ingestion extension of Tracker.
// Trackers with a native batch path (LTC, Sharded, the window tracker)
// implement it to amortize per-arrival overhead — interface dispatch,
// CLOCK-advance bookkeeping and, for Sharded, one lock round-trip per item.
// InsertBatch(items) is semantically identical to calling Insert for each
// item in order. Every tracker returned by this package implements
// BatchInserter: algorithms without a native path fall back to per-item
// insertion. For an arbitrary Tracker use the InsertBatch helper.
type BatchInserter interface {
	// InsertBatch records one arrival for each item, in order.
	InsertBatch(items []Item)
}

// InsertBatch feeds a batch of arrivals into any Tracker: the native batch
// path when t implements BatchInserter, item-at-a-time Insert otherwise.
func InsertBatch(t Tracker, items []Item) {
	if b, ok := t.(BatchInserter); ok {
		b.InsertBatch(items)
		return
	}
	for _, it := range items {
		t.Insert(it)
	}
}

// wrap adapts an internal tracker to the public interface.
type wrap struct {
	t stream.Tracker
}

func (w wrap) Insert(item Item) { w.t.Insert(item) }
func (w wrap) EndPeriod()       { w.t.EndPeriod() }

// InsertBatch routes a batch to the internal tracker's native batch path,
// or falls back to per-item insertion (the generic adapter for baselines).
func (w wrap) InsertBatch(items []Item) { stream.InsertBatch(w.t, items) }
func (w wrap) Query(item Item) (Entry, bool) {
	e, ok := w.t.Query(item)
	return publicEntry(e), ok
}
func (w wrap) TopK(k int) []Entry {
	es := w.t.TopK(k)
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = publicEntry(e)
	}
	return out
}
func (w wrap) MemoryBytes() int { return w.t.MemoryBytes() }
func (w wrap) Name() string     { return w.t.Name() }

func publicEntry(e stream.Entry) Entry {
	return Entry{Item: e.Item, Frequency: e.Frequency,
		Persistency: e.Persistency, Significance: e.Significance}
}

func internalWeights(w Weights) stream.Weights {
	return stream.Weights{Alpha: w.Alpha, Beta: w.Beta}
}

var _ BatchInserter = wrap{}
