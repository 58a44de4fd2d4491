package sigstream

import (
	"fmt"

	"sigstream/internal/adapters"
	"sigstream/internal/cmsketch"
	"sigstream/internal/countsketch"
	"sigstream/internal/lossycounting"
	"sigstream/internal/ltc"
	"sigstream/internal/misragries"
	"sigstream/internal/pie"
	"sigstream/internal/sampling"
	"sigstream/internal/spacesaving"
	"sigstream/internal/window"
)

// Config configures every tracker in this package: the LTC tracker created
// by New/NewSharded/NewWindow and the baselines created by NewBaseline.
// The zero value selects documented defaults (64 KiB budget, Balanced
// weights, bucket width 8, top-k heap size 100). Constructors panic on an
// invalid configuration; pre-check untrusted input with Validate.
type Config struct {
	// MemoryBytes is the total memory budget (default 64 KiB).
	MemoryBytes int
	// Weights are the significance coefficients (default Balanced).
	Weights Weights
	// ItemsPerPeriod hints the expected arrivals per period, used to pace
	// the CLOCK sweep. Zero selects adaptive pacing from the previous
	// period's count.
	ItemsPerPeriod int
	// BucketWidth is the cells per bucket, d (default 8, the paper's
	// choice).
	BucketWidth int
	// DisableDeviationEliminator reverts to the basic single-flag CLOCK.
	DisableDeviationEliminator bool
	// DisableLongTailReplacement reverts admissions to initial value 1.
	DisableLongTailReplacement bool
	// PeriodDuration enables time-defined periods for InsertAt: the length
	// of one period, in the same unit as InsertAt timestamps. Streams
	// driven by Insert/EndPeriod ignore it.
	PeriodDuration float64
	// DecayFactor λ ∈ (0,1) exponentially ages all counts at each period
	// boundary, turning significance into "significant lately"
	// (half-life = ln 2 / ln(1/λ) periods). 0 or 1 keeps the paper's exact
	// all-history semantics. Extension beyond the paper.
	DecayFactor float64
	// Seed keys the hash function.
	Seed uint32
	// TopK is the heap size k of the sketch-based baselines created by
	// NewBaseline (default DefaultTopK). LTC itself needs no k at build
	// time and ignores it.
	TopK int
	// Sketch selects the sketch family of the sketch-based baselines
	// created by NewBaseline (default CM). Other trackers ignore it.
	Sketch SketchKind
	// ExpectedDistinct calibrates the Sampling baseline's rate to the
	// memory budget (0 assumes one million distinct items). Other trackers
	// ignore it.
	ExpectedDistinct int
}

// LTC is the paper's Long-Tail CLOCK tracker. It implements Tracker and
// additionally exposes structure diagnostics.
type LTC struct {
	wrap
	l     *ltc.LTC
	items []Item // VisitItems scratch
}

// New creates an LTC tracker, the package's primary structure. Zero cfg
// fields take their documented defaults; New panics if cfg is invalid
// (pre-check untrusted input with Config.Validate).
func New(cfg Config) *LTC {
	cfg = cfg.withDefaults()
	mustValidate(cfg)
	l := ltc.New(ltc.Options{
		MemoryBytes:                cfg.MemoryBytes,
		BucketWidth:                cfg.BucketWidth,
		Weights:                    internalWeights(cfg.Weights),
		ItemsPerPeriod:             cfg.ItemsPerPeriod,
		DisableDeviationEliminator: cfg.DisableDeviationEliminator,
		DisableLongTailReplacement: cfg.DisableLongTailReplacement,
		PeriodDuration:             cfg.PeriodDuration,
		DecayFactor:                cfg.DecayFactor,
		Seed:                       cfg.Seed,
	})
	return &LTC{wrap: wrap{l}, l: l}
}

// InsertBatch records one arrival for each item, in order (BatchInserter).
// It is semantically identical to calling Insert per item but amortizes
// the per-arrival overhead on the hot path.
func (l *LTC) InsertBatch(items []Item) { l.l.InsertBatch(items) }

// InsertAt records one arrival at a timestamp, for time-defined periods
// (Config.PeriodDuration must be set). Period boundaries are crossed
// automatically; do not call EndPeriod on a timestamp-driven stream.
// Timestamps must be non-decreasing.
func (l *LTC) InsertAt(item Item, at float64) { l.l.InsertAt(item, at) }

// Reset clears all tracked state, keeping the configuration.
func (l *LTC) Reset() { l.l.Reset() }

// MarshalBinary encodes the full tracker state as a compact checkpoint
// image (encoding.BinaryMarshaler).
func (l *LTC) MarshalBinary() ([]byte, error) { return l.l.MarshalBinary() }

// UnmarshalBinary restores the tracker from a MarshalBinary image,
// replacing its current state and configuration
// (encoding.BinaryUnmarshaler).
func (l *LTC) UnmarshalBinary(data []byte) error { return l.l.UnmarshalBinary(data) }

// Merge folds another tracker's state into this one. Both trackers must
// share memory size, bucket width, weights and seed (as produced by the
// same Config); use it to aggregate per-shard or per-site summaries into a
// global view. The other tracker is left unmodified.
func (l *LTC) Merge(other *LTC) error { return l.l.Merge(other.l) }

// Buckets reports w, the number of buckets in the lossy table.
func (l *LTC) Buckets() int { return l.l.Buckets() }

// BucketWidth reports d, the cells per bucket.
func (l *LTC) BucketWidth() int { return l.l.BucketWidth() }

// Occupancy reports the number of occupied cells.
func (l *LTC) Occupancy() int { return l.l.Occupancy() }

// Cells reports the number of cells in the lossy table, w·d.
func (l *LTC) Cells() int { return l.l.Cells() }

// VisitItems calls visit with the item of every occupied cell; pass it to
// KeyMap.Bound to keep only the names of the items the tracker holds. The
// items are collected first, so visit may insert into or query the
// tracker.
func (l *LTC) VisitItems(visit func(Item)) {
	l.items = l.l.AppendItems(l.items[:0])
	for _, it := range l.items {
		visit(it)
	}
}

// BaselineKind selects one of the paper's baseline algorithms for
// NewBaseline.
type BaselineKind int

const (
	// SpaceSaving is the counter-based Space-Saving baseline (top-k
	// frequent items; frequency only, scaled by Weights.Alpha).
	SpaceSaving BaselineKind = iota
	// LossyCounting is the counter-based Lossy Counting baseline (top-k
	// frequent items; frequency only).
	LossyCounting
	// MisraGries is the Misra-Gries "Frequent" baseline (top-k frequent
	// items; never overestimates).
	MisraGries
	// FrequentSketch is a Config.Sketch sketch plus a min-heap of
	// Config.TopK frequent items (the paper's sketch baselines at α=1,
	// β=0).
	FrequentSketch
	// PersistentSketch is a sketch+Bloom-filter+heap tracker for top-k
	// persistent items: half the memory deduplicates appearances within
	// the current period, the rest counts periods.
	PersistentSketch
	// SignificantSketch is the two-sketch tracker for top-k significant
	// items: a frequency sketch and a persistency structure share the
	// memory evenly, with one heap ranking by α·f̂ + β·p̂.
	SignificantSketch
	// PIE is the Space-Time Bloom Filter baseline for top-k persistent
	// items. Config.MemoryBytes is its per-period budget; total memory is
	// MemoryBytes × periods, matching the paper's T× allowance.
	PIE
	// Sampling is the coordinated hash-sampling baseline: a hash-defined
	// subset of the item space (calibrated by Config.ExpectedDistinct) is
	// tracked exactly; everything else is ignored.
	Sampling
)

// String names the baseline for experiment output.
func (k BaselineKind) String() string {
	switch k {
	case SpaceSaving:
		return "SpaceSaving"
	case LossyCounting:
		return "LossyCounting"
	case MisraGries:
		return "MisraGries"
	case FrequentSketch:
		return "FrequentSketch"
	case PersistentSketch:
		return "PersistentSketch"
	case SignificantSketch:
		return "SignificantSketch"
	case PIE:
		return "PIE"
	case Sampling:
		return "Sampling"
	}
	return fmt.Sprintf("BaselineKind(%d)", int(k))
}

// NewBaseline creates one of the paper's baseline trackers from the same
// Config that drives New: MemoryBytes sizes the structure (per period for
// PIE), Weights supplies α and β, and TopK, Sketch and ExpectedDistinct
// tune the kinds that use them. Zero fields take their documented
// defaults; NewBaseline panics if cfg is invalid or kind is unknown
// (pre-check untrusted input with Config.Validate).
func NewBaseline(kind BaselineKind, cfg Config) Tracker {
	cfg = cfg.withDefaults()
	mustValidate(cfg)
	switch kind {
	case SpaceSaving:
		return wrap{spacesaving.New(cfg.MemoryBytes, cfg.Weights.Alpha)}
	case LossyCounting:
		return wrap{lossycounting.New(cfg.MemoryBytes, cfg.Weights.Alpha)}
	case MisraGries:
		return wrap{misragries.New(cfg.MemoryBytes, cfg.Weights.Alpha)}
	case FrequentSketch:
		switch cfg.Sketch {
		case CU:
			return wrap{cmsketch.NewTracker(cmsketch.CU, cfg.MemoryBytes, cfg.TopK, cfg.Weights.Alpha)}
		case Count:
			return wrap{countsketch.NewTracker(cfg.MemoryBytes, cfg.TopK, cfg.Weights.Alpha)}
		default:
			return wrap{cmsketch.NewTracker(cmsketch.CM, cfg.MemoryBytes, cfg.TopK, cfg.Weights.Alpha)}
		}
	case PersistentSketch:
		return wrap{adapters.NewPersistent(cfg.Sketch.factory(), cfg.MemoryBytes, cfg.TopK, cfg.Weights.Beta)}
	case SignificantSketch:
		return wrap{adapters.NewSignificant(cfg.Sketch.factory(), cfg.MemoryBytes, cfg.TopK, internalWeights(cfg.Weights))}
	case PIE:
		return wrap{pie.New(pie.Options{PerPeriodBytes: cfg.MemoryBytes, Beta: cfg.Weights.Beta, Seed: cfg.Seed})}
	case Sampling:
		return wrap{sampling.New(cfg.MemoryBytes, cfg.ExpectedDistinct, internalWeights(cfg.Weights))}
	}
	panic(fmt.Errorf("%w: unknown BaselineKind %d", ErrInvalidConfig, int(kind)))
}

// Baselines lists every BaselineKind, in declaration order, for callers
// that sweep the whole line-up (evaluations, equivalence tests).
func Baselines() []BaselineKind {
	return []BaselineKind{SpaceSaving, LossyCounting, MisraGries,
		FrequentSketch, PersistentSketch, SignificantSketch, PIE, Sampling}
}

// SketchKind selects a sketch family for the sketch-based baselines.
type SketchKind int

const (
	// CM is the Count-Min sketch.
	CM SketchKind = iota
	// CU is the CU sketch (Count-Min with conservative update).
	CU
	// Count is the Count sketch (signed counters, median estimate).
	Count
)

func (k SketchKind) factory() adapters.Factory {
	switch k {
	case CU:
		return adapters.CUFactory()
	case Count:
		return adapters.CountFactory()
	default:
		return adapters.CMFactory()
	}
}

// NewWindow creates a jumping-window LTC: top-k significant items over the
// most recent windowPeriods periods, covered by `blocks` rotating
// sub-summaries (blocks ≤ 0 selects 4). Old history expires with a
// granularity of windowPeriods/blocks periods. Extension beyond the paper.
// Zero cfg fields take their documented defaults; NewWindow panics if cfg
// is invalid.
func NewWindow(cfg Config, windowPeriods, blocks int) Tracker {
	cfg = cfg.withDefaults()
	mustValidate(cfg)
	return wrap{window.New(window.Options{
		MemoryBytes:    cfg.MemoryBytes,
		WindowPeriods:  windowPeriods,
		Blocks:         blocks,
		Weights:        internalWeights(cfg.Weights),
		ItemsPerPeriod: cfg.ItemsPerPeriod,
		Seed:           cfg.Seed,
	})}
}
