// Package ltc implements LTC (Long-Tail CLOCK), the paper's algorithm for
// finding top-k significant items in a data stream.
//
// LTC keeps a lossy table of w buckets × d cells. Each cell stores an item
// ID, an estimated frequency, and a persistency field made of a counter and
// flag bits. An item's significance is α·frequency + β·persistency.
//
// The two key techniques are:
//
//   - A modified CLOCK algorithm: a pointer sweeps the table exactly once
//     per period; a swept cell whose flag is set gets its persistency
//     counter incremented and the flag cleared, so persistency grows by at
//     most 1 per period no matter how many times the item appeared. The
//     Deviation Eliminator optimization uses two parity flags (even/odd
//     periods) so the swept flag always belongs to the previous period,
//     eliminating the up-to-one-period deviation of a single-flag CLOCK.
//
//   - Long-tail Replacement: when an arriving item finally expels the
//     smallest cell of a full bucket (by decrementing its significance to
//     zero), the new item's initial frequency and persistency are set to the
//     bucket's second-smallest values minus one, recovering the frequency
//     the new item likely spent on the eviction under a long-tail
//     distribution.
//
// The table is laid out as a structure of arrays: a dense []uint64 ID lane
// plus parallel frequency, counter and flag lanes. A Case-1 hit — the hot
// path on any skewed stream — resolves by scanning only the ID lane, which
// for the default d = 8 is exactly one 64-byte cache line per probe; the
// other lanes are touched only on the matched cell. The interleaved
// array-of-structs layout this replaced straddled three cache lines per
// bucket scan. The serialized checkpoint format is unaffected: the codec
// converts between the lanes and the stable interleaved wire cells on
// encode/decode.
package ltc

import (
	"fmt"

	"sigstream/internal/hashing"
	"sigstream/internal/stream"
)

// CellBytes is the memory accounting per cell: 8-byte item ID, 4-byte
// frequency, 4-byte persistency field (counter plus flag bits), matching the
// paper's cost model.
const CellBytes = 16

// DefaultBucketWidth is d, the number of cells per bucket. The paper
// selects d = 8 from its appendix experiments.
const DefaultBucketWidth = 8

const (
	flagEven uint8 = 1 << iota // appearance flag for even-numbered periods
	flagOdd                    // appearance flag for odd-numbered periods
	flagOccupied
)

// ReplacementPolicy selects how a full bucket admits a new item — the
// design choice the paper's Long-tail Replacement section is about. All
// policies except ReplaceEager first decrement the smallest cell's
// significance and replace only when it reaches zero; they differ in the
// admitted item's initial value.
type ReplacementPolicy int

const (
	// ReplaceLongTail is the paper's optimization: initial value =
	// second-smallest in the bucket minus one (default).
	ReplaceLongTail ReplacementPolicy = iota
	// ReplaceBasic initializes to 1 (the basic version; what
	// DisableLongTailReplacement selects).
	ReplaceBasic
	// ReplaceSecondSmallest initializes to the second-smallest value
	// without the minus-one adjustment (ablation: is the −1 needed to keep
	// the newcomer smallest?).
	ReplaceSecondSmallest
	// ReplaceEager is the Space-Saving rule the paper argues against:
	// replace the smallest cell immediately and initialize to its value
	// plus one. It reintroduces overestimation error.
	ReplaceEager
)

// String names the policy for experiment output.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceBasic:
		return "basic"
	case ReplaceSecondSmallest:
		return "second-smallest"
	case ReplaceEager:
		return "eager"
	default:
		return "long-tail"
	}
}

// Options configures an LTC instance. The zero value of the feature toggles
// selects the full algorithm (both optimizations on).
type Options struct {
	// MemoryBytes is the total memory budget; the bucket count is derived
	// as w = MemoryBytes / (CellBytes · BucketWidth).
	MemoryBytes int
	// BucketWidth is d, the cells per bucket (default DefaultBucketWidth).
	BucketWidth int
	// Weights are the significance coefficients α and β.
	Weights stream.Weights
	// ItemsPerPeriod is the expected number of arrivals per period (the
	// paper's n), used to derive the CLOCK step m/n. If zero, the step
	// adapts using the previous period's observed arrival count.
	ItemsPerPeriod int
	// DisableDeviationEliminator reverts to the basic single-flag CLOCK
	// (Section III-B), which can over- or under-count persistency by one
	// period. Used by the Fig 11 ablation.
	DisableDeviationEliminator bool
	// Replacement selects the bucket-admission policy (default
	// ReplaceLongTail, the paper's optimization).
	Replacement ReplacementPolicy
	// DisableLongTailReplacement is a convenience alias for
	// Replacement = ReplaceBasic (Section III-B's initial value 1). Used by
	// the Fig 8 ablation; ignored when Replacement is set explicitly.
	DisableLongTailReplacement bool
	// PeriodDuration enables time-defined periods for InsertAt: the length
	// of one period in the same unit as InsertAt timestamps. Ignored by
	// Insert/EndPeriod-driven streams.
	PeriodDuration float64
	// DecayFactor λ ∈ (0,1) exponentially ages counts at each period
	// boundary (see decay.go). 0 or 1 disables decay (the paper's exact
	// semantics). Extension beyond the paper.
	DecayFactor float64
	// Seed keys the bucket hash function.
	Seed uint32
}

// LTC is the Long-Tail CLOCK structure. It is not safe for concurrent use;
// wrap it or shard the stream for multi-goroutine ingestion.
type LTC struct {
	opts Options
	w, d int
	m    int // total cells, w·d

	// Cell state, structure-of-arrays. ids is the Case-1 scan lane (one
	// cache line per d=8 bucket); the other lanes are indexed by the same
	// cell index and touched only on match, admission, eviction or sweep.
	ids      []uint64
	freqs    []uint32
	counters []uint32
	flags    []uint8
	occupied int // occupied-cell count, maintained on fill/clear (O(1) Occupancy)

	hash hashing.Bob
	modM uint64 // Lemire reduction constant ⌈2⁶⁴ / w⌉ (see reduce.go)

	// Fixed-point significance comparator (see sig.go).
	fixOK      bool
	aFix, bFix uint64

	// CLOCK state.
	ptr          int     // next cell index the sweep pointer visits
	acc          float64 // fractional cells owed to the sweep
	step         float64 // cells to sweep per arriving item (m/n)
	swept        int     // cells swept so far this period
	parity       uint8   // flagEven or flagOdd: the *current* period's flag
	itemsInPer   int     // arrivals seen this period (for adaptive stepping)
	adaptiveStep bool

	// Time-defined period state (InsertAt).
	timeAnchored bool
	periodStart  float64
	lastArrival  float64
	timeDebt     float64 // cells owed to the sweep by elapsed time

	stats stream.Counters
}

// New builds an LTC from opts.
func New(opts Options) *LTC {
	if opts.BucketWidth <= 0 {
		opts.BucketWidth = DefaultBucketWidth
	}
	if opts.MemoryBytes <= 0 {
		opts.MemoryBytes = 64 * 1024
	}
	d := opts.BucketWidth
	w := opts.MemoryBytes / (CellBytes * d)
	if w < 1 {
		w = 1
	}
	if opts.Replacement == ReplaceLongTail && opts.DisableLongTailReplacement {
		opts.Replacement = ReplaceBasic
	}
	opts.DisableLongTailReplacement = opts.Replacement == ReplaceBasic
	m := w * d
	l := &LTC{
		opts:     opts,
		w:        w,
		d:        d,
		m:        m,
		ids:      make([]uint64, m),
		freqs:    make([]uint32, m),
		counters: make([]uint32, m),
		flags:    make([]uint8, m),
		hash:     hashing.NewBob(opts.Seed ^ 0x17c5),
		modM:     fastmodM(w),
		parity:   flagEven,
	}
	l.aFix, l.bFix, l.fixOK = fixedWeights(opts.Weights)
	if opts.ItemsPerPeriod > 0 {
		l.step = float64(l.m) / float64(opts.ItemsPerPeriod)
	} else {
		l.adaptiveStep = true
		l.step = 0 // first period relies on the EndPeriod completion sweep
	}
	return l
}

// fixedWeights derives the Q44.20 comparator weights, enabled only when
// both α and β are exactly representable (sig.go documents why that makes
// the comparison order identical to float64).
func fixedWeights(w stream.Weights) (aFix, bFix uint64, ok bool) {
	var aok, bok bool
	aFix, aok = fixedWeight(w.Alpha)
	bFix, bok = fixedWeight(w.Beta)
	return aFix, bFix, aok && bok
}

// Buckets returns w, the number of buckets.
func (l *LTC) Buckets() int { return l.w }

// BucketWidth returns d, the number of cells per bucket.
func (l *LTC) BucketWidth() int { return l.d }

// Name identifies the configuration for experiment output.
func (l *LTC) Name() string {
	switch {
	case l.opts.DisableDeviationEliminator && l.opts.Replacement == ReplaceBasic:
		return "LTC-basic"
	case l.opts.Replacement == ReplaceBasic:
		return "LTC-noLTR"
	case l.opts.Replacement == ReplaceSecondSmallest:
		return "LTC-ss"
	case l.opts.Replacement == ReplaceEager:
		return "LTC-eager"
	case l.opts.DisableDeviationEliminator:
		return "LTC-noDE"
	}
	return "LTC"
}

// MemoryBytes reports the structure's accounted memory.
func (l *LTC) MemoryBytes() int { return l.m * CellBytes }

// Cells reports m, the table's cell count (w·d).
func (l *LTC) Cells() int { return l.m }

// previousFlag returns the parity bit the sweep consumes.
func (l *LTC) previousFlag() uint8 {
	if l.opts.DisableDeviationEliminator {
		return flagEven // basic mode uses a single flag
	}
	if l.parity == flagEven {
		return flagOdd
	}
	return flagEven
}

// currentFlag returns the parity bit set on appearance.
func (l *LTC) currentFlag() uint8 {
	if l.opts.DisableDeviationEliminator {
		return flagEven
	}
	return l.parity
}

// Insert records one arrival of item (Section III-B, cases 1–3), then
// advances the CLOCK pointer by its per-item step.
//
//sig:noalloc
func (l *LTC) Insert(item stream.Item) {
	l.itemsInPer++
	l.stats.Arrivals++
	l.place(item)
	l.advanceClock()
}

// InsertBatch records one arrival for each item, in order
// (stream.BatchInserter). It is semantically identical to calling Insert
// per item — equivalence tests assert bit-identical Query/TopK output — but
// amortizes the per-arrival overhead: the arrival counters are bumped once
// per batch, the bucket probes run in one fused loop, and the CLOCK
// accumulator is flushed into sweeps only when at least one whole cell is
// owed, instead of paying the advance bookkeeping on every call.
//
//sig:noalloc
func (l *LTC) InsertBatch(items []stream.Item) {
	if len(items) == 0 {
		return
	}
	l.itemsInPer += len(items)
	l.stats.Arrivals += uint64(len(items))
	l.stats.Batches++
	l.stats.BatchItems += uint64(len(items))
	if l.step <= 0 {
		// Adaptive pacing before the first EndPeriod: no sweep is owed, so
		// the batch is pure bucket probes.
		for _, it := range items {
			l.place(it)
		}
		return
	}
	for _, it := range items {
		l.place(it)
		// Inline advanceClock: identical state transitions, one call frame
		// saved per arrival.
		l.acc += l.step
		if l.acc >= 1 {
			n := int(l.acc)
			l.acc -= float64(n)
			if !l.opts.DisableDeviationEliminator {
				if remaining := l.m - l.swept; n > remaining {
					n = remaining
				}
			}
			if n > 0 {
				l.sweep(n)
			}
		}
	}
}

// place runs the three-case bucket update for one arrival.
//
// Case 1 scans only the ID lane — for d = 8 a single 64-byte cache line —
// and touches the flag/frequency lanes on the matched cell alone. The miss
// path re-scans the flags lane for an empty cell and only then pays the
// significance minimum. (A single merged scan was measured slower — it adds
// eviction bookkeeping to the hit path, which dominates on skewed streams.)
//
//sig:noalloc
func (l *LTC) place(item stream.Item) {
	base := l.bucket(item) * l.d
	end := base + l.d
	ids := l.ids[base:end]
	// Case 1: item already tracked. An unoccupied cell's stale ID can
	// collide with the probe, so a candidate match confirms against the
	// occupancy flag before counting.
	for j := range ids {
		if ids[j] == item {
			i := base + j
			if l.flags[i]&flagOccupied == 0 {
				continue
			}
			l.flags[i] |= l.currentFlag()
			l.freqs[i]++
			l.stats.Hits++
			return
		}
	}
	l.placeMiss(item, base, end)
}

// placeMiss handles cases 2 and 3 once the ID-lane scan found no match.
//
//sig:noalloc
func (l *LTC) placeMiss(item stream.Item, base, end int) {
	// Case 2: an empty cell exists.
	for i := base; i < end; i++ {
		if l.flags[i]&flagOccupied == 0 {
			l.fill(i, item, 1, 0)
			l.stats.Admissions++
			return
		}
	}

	// Case 3: full bucket.
	min := l.leastIdx(base, end)
	if l.opts.Replacement == ReplaceEager {
		// Space-Saving rule: replace immediately, inherit min's counts plus
		// one arrival. Reintroduces overestimation (the contrast the
		// paper's Long-tail Replacement section draws).
		l.fill(min, item, l.freqs[min]+1, l.counters[min])
		l.stats.Expulsions++
		l.stats.Admissions++
		return
	}
	// Significance Decrementing on the smallest cell.
	l.stats.Decrements++
	if l.counters[min] > 0 {
		l.counters[min]--
	}
	if l.freqs[min] > 0 {
		l.freqs[min]--
	}
	if l.sigZero(min) {
		// Expel and insert the newcomer.
		var initF, initC uint32 = 1, 0
		switch l.opts.Replacement {
		case ReplaceLongTail:
			f2, c2 := l.secondSmallest(base, end, min)
			if f2 > 1 {
				initF = f2 - 1
			}
			if c2 > 0 {
				initC = c2 - 1
			}
		case ReplaceSecondSmallest:
			initF, initC = l.secondSmallest(base, end, min)
			if initF < 1 {
				initF = 1
			}
		case ReplaceBasic, ReplaceEager:
			// ReplaceBasic keeps the basic initial value (1, 0);
			// ReplaceEager replaced the cell before decrementing, above.
		}
		l.fill(min, item, initF, initC)
		l.stats.Expulsions++
		l.stats.Admissions++
	}
}

// fill installs item into cell i with the given initial values and marks
// its appearance in the current period, overwriting whatever the cell held
// and keeping the occupancy count current.
func (l *LTC) fill(i int, item stream.Item, f, counter uint32) {
	if l.flags[i]&flagOccupied == 0 {
		l.occupied++
	}
	l.ids[i] = item
	l.freqs[i] = f
	l.counters[i] = counter
	l.flags[i] = flagOccupied | l.currentFlag()
}

// clearCell frees cell i, keeping the occupancy count current.
func (l *LTC) clearCell(i int) {
	if l.flags[i]&flagOccupied != 0 {
		l.occupied--
	}
	l.ids[i] = 0
	l.freqs[i] = 0
	l.counters[i] = 0
	l.flags[i] = 0
}

// advanceClock moves the sweep pointer by the per-item step, scanning the
// cells it passes (Persistency Incrementing).
func (l *LTC) advanceClock() {
	if l.step <= 0 {
		return
	}
	l.acc += l.step
	n := int(l.acc)
	if n <= 0 {
		return
	}
	l.acc -= float64(n)
	if !l.opts.DisableDeviationEliminator {
		// With the Deviation Eliminator the per-period sweep is bounded by
		// one full pass; EndPeriod completes whatever remains. (In basic
		// mode the pointer runs free — lapping or undershooting is exactly
		// the deviation the optimization removes.)
		if remaining := l.m - l.swept; n > remaining {
			n = remaining
		}
	}
	l.sweep(n)
}

// sweep scans n cells from the pointer, consuming previous-period flags.
// The scan runs over the dense flags lane, so a full-table completion sweep
// touches m bytes instead of m interleaved cells.
func (l *LTC) sweep(n int) {
	prev := l.previousFlag()
	ptr := l.ptr
	for i := 0; i < n; i++ {
		if l.flags[ptr]&prev != 0 {
			l.counters[ptr]++
			l.flags[ptr] &^= prev
			l.stats.FlagConsumed++
		}
		ptr++
		if ptr == l.m {
			ptr = 0
		}
	}
	l.ptr = ptr
	l.swept += n
	l.stats.CellsSwept += uint64(n)
}

// EndPeriod closes the current period. With the Deviation Eliminator it
// completes the sweep (consuming all remaining previous-period flags) and
// flips the parity, which performs the flag refreshment implicitly
// (Section III-C, "Refreshment elimination").
func (l *LTC) EndPeriod() {
	if !l.opts.DisableDeviationEliminator {
		if remaining := l.m - l.swept; remaining > 0 {
			l.sweep(remaining)
		}
		if l.parity == flagEven {
			l.parity = flagOdd
		} else {
			l.parity = flagEven
		}
		l.stats.ParityFlips++
	}
	l.stats.Periods++
	l.applyDecay()
	if l.adaptiveStep && l.itemsInPer > 0 {
		l.step = float64(l.m) / float64(l.itemsInPer)
	}
	l.swept = 0
	l.acc = 0
	l.timeDebt = 0
	l.itemsInPer = 0
}

// entry converts cell i to a reported Entry.
func (l *LTC) entry(i int) stream.Entry {
	p := l.persistency(i)
	return stream.Entry{
		Item:         l.ids[i],
		Frequency:    uint64(l.freqs[i]),
		Persistency:  p,
		Significance: l.opts.Weights.Significance(uint64(l.freqs[i]), p),
	}
}

// persistency reports cell i's persistency. Flags that have been set but
// not yet consumed by the sweep each represent one real period of
// appearance, so they are included. They are added as bits (flagEven is
// bit 0, flagOdd bit 1) rather than branched on, since ranked reads and
// merges visit every cell.
func (l *LTC) persistency(i int) uint64 {
	f := l.flags[i]
	return uint64(l.counters[i]) + uint64(f&flagEven) + uint64((f&flagOdd)>>1)
}

// Query reports the estimate for item, if tracked.
func (l *LTC) Query(item stream.Item) (stream.Entry, bool) {
	base := l.bucket(item) * l.d
	ids := l.ids[base : base+l.d]
	for j := range ids {
		if ids[j] == item && l.flags[base+j]&flagOccupied != 0 {
			return l.entry(base + j), true
		}
	}
	return stream.Entry{}, false
}

// TopK reports the k tracked items with the largest significance. k ≤ 0
// yields an empty result. It selects rather than sorts: one buffer of
// min(k, occupancy) entries, cells offered straight from the lanes.
func (l *LTC) TopK(k int) []stream.Entry {
	if k <= 0 {
		return nil
	}
	sel := stream.NewSelection(k, l.occupied)
	l.OfferTo(&sel)
	return sel.Ranked()
}

// OfferTo offers every occupied cell to sel, building an Entry only for
// the cells sel admits; Sharded offers all its shards to one selection.
//
//sig:noalloc
func (l *LTC) OfferTo(sel *stream.Selection) {
	for i, f := range l.flags {
		if f&flagOccupied == 0 {
			continue
		}
		p := l.persistency(i)
		sig := l.opts.Weights.Significance(uint64(l.freqs[i]), p)
		if sel.Admits(sig, l.ids[i]) {
			sel.Offer(stream.Entry{Item: l.ids[i], Frequency: uint64(l.freqs[i]), Persistency: p, Significance: sig})
		}
	}
}

// AppendItems appends the item of every occupied cell to dst, in cell
// order, and returns the extended slice: OfferTo's walk without
// significances, entries or selection. KeyMap.Bound prunes key names
// with the items it yields.
func (l *LTC) AppendItems(dst []stream.Item) []stream.Item {
	for i, f := range l.flags {
		if f&flagOccupied != 0 {
			dst = append(dst, l.ids[i])
		}
	}
	return dst
}

// Stats returns the tracker's observability snapshot: geometry, occupancy
// and the cumulative operation counters (stream.StatsReporter). Every gauge
// including occupancy is O(1), so Stats is safe to call on every metrics
// scrape.
func (l *LTC) Stats() stream.Stats {
	return stream.Stats{
		Tracker:     l.Name(),
		MemoryBytes: l.MemoryBytes(),
		Shards:      1,
		Buckets:     l.w,
		BucketWidth: l.d,
		Cells:       l.m,
		Occupied:    l.Occupancy(),
		Alpha:       l.opts.Weights.Alpha,
		Beta:        l.opts.Weights.Beta,
		Counters:    l.stats,
	}
}

// Occupancy reports the number of occupied cells in O(1); the count is
// maintained on every fill and clear.
func (l *LTC) Occupancy() int { return l.occupied }

// countOccupied rescans the flags lane; restore, which rebuilds the table
// wholesale, uses it to re-derive the O(1) counter.
func (l *LTC) countOccupied() int {
	n := 0
	for _, f := range l.flags {
		if f&flagOccupied != 0 {
			n++
		}
	}
	return n
}

// String summarizes the configuration.
func (l *LTC) String() string {
	return fmt.Sprintf("%s{w=%d d=%d mem=%dB α:β=%s}", l.Name(), l.w, l.d,
		l.MemoryBytes(), l.opts.Weights)
}

var (
	_ stream.Tracker       = (*LTC)(nil)
	_ stream.BatchInserter = (*LTC)(nil)
	_ stream.StatsReporter = (*LTC)(nil)
)
