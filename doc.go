// Package sigstream finds top-k significant items in data streams.
//
// It is a Go implementation of "Finding Significant Items in Data Streams"
// (ICDE 2019): a stream divided into equal periods is summarized so that,
// at any point, the k items with the largest significance
//
//	s(e) = α·frequency(e) + β·persistency(e)
//
// can be reported — where frequency is an item's total number of
// appearances and persistency is the number of periods in which it appeared
// at least once. α=1, β=0 recovers classic top-k frequent items; α=0, β=1
// recovers top-k persistent items; mixed weights find items that are both
// frequent and persistent (DDoS sources, evergreen content, stable heavy
// flows).
//
// The primary structure is LTC (Long-Tail CLOCK), created with New. It
// combines a lossy table with Significance Decrementing, a modified CLOCK
// sweep that counts persistency at most once per period, a Deviation
// Eliminator that removes all overestimation, and Long-tail Replacement,
// which initializes newly admitted items from the bucket's second-smallest
// value.
//
// Basic usage:
//
//	tr := sigstream.New(sigstream.Config{
//		MemoryBytes: 64 << 10,
//		Weights:     sigstream.Weights{Alpha: 1, Beta: 1},
//	})
//	for _, ev := range arrivals {
//		tr.Insert(ev)
//	}
//	tr.EndPeriod() // at each period boundary
//	for _, e := range tr.TopK(100) {
//		fmt.Println(e.Item, e.Significance)
//	}
//
// For high-rate ingestion, feed arrivals in batches: every tracker in this
// package implements the optional BatchInserter interface, and
// tr.InsertBatch(items) is semantically identical to inserting each item
// in order while amortizing the per-arrival overhead (for the concurrent
// Sharded tracker, one lock round-trip per shard per batch instead of one
// per item). The package-level InsertBatch helper feeds any Tracker,
// falling back to per-item insertion.
//
// The package also ships the baselines the paper compares against —
// Space-Saving, Lossy Counting, Count/CM/CU sketches with top-k heaps,
// sketch+Bloom-filter persistency adapters, and PIE — behind the same
// Tracker interface, so head-to-head evaluations are one loop. All eight
// are built by one constructor, NewBaseline(kind, cfg), from the same
// Config that drives New. Constructors apply documented defaults to zero
// Config fields and panic on invalid configurations; validate untrusted
// input first with Config.Validate.
package sigstream
