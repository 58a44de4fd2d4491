package ltc

// Checkpointing: LTC state serializes to a compact binary image so a
// long-running tracker can survive restarts, be shipped to an aggregator,
// or be archived per epoch. The format is versioned and self-describing
// enough to reject mismatched geometry.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sigstream/internal/stream"
)

// codecMagic identifies an LTC checkpoint ("LTC1" little-endian).
const codecMagic = 0x3143544c

// codecVersion is bumped on any layout change. Version 3 appended the
// cumulative operation counters (stream.Counters), so observability state
// survives checkpoint/restore.
const codecVersion = 3

var (
	// ErrBadCheckpoint reports a corrupt or truncated checkpoint image.
	ErrBadCheckpoint = errors.New("ltc: bad checkpoint")
	// ErrCheckpointVersion reports an unsupported checkpoint version.
	ErrCheckpointVersion = errors.New("ltc: unsupported checkpoint version")
)

// imageHeader is the length of a MarshalBinary image before its cells.
const imageHeader = 4 + 4 + // magic, version
	8 + 4 + 4 + // memory, w, d
	8 + 8 + // alpha, beta
	8 + // items per period
	1 + // feature flags (DE disabled, adaptive)
	1 + // replacement policy
	4 + // seed
	8 + 8 + // period duration, decay factor
	8 + 8 + 8 + 1 + // ptr, acc, step, parity
	8 + 8 + // swept, itemsInPer
	11*8 // operation counters

// ImageBytes reports the length of the tracker's MarshalBinary image: a
// fixed header plus 17 bytes per cell. It depends on the geometry only.
func (l *LTC) ImageBytes() int { return imageHeader + l.m*17 }

// MarshalBinary encodes the full tracker state (options, CLOCK position,
// every cell) into a buffer of exactly ImageBytes.
func (l *LTC) MarshalBinary() ([]byte, error) {
	return l.AppendBinary(make([]byte, 0, l.ImageBytes())), nil
}

// AppendBinary appends the MarshalBinary image to buf and returns the
// extended slice, so a caller encoding several trackers can size one
// buffer for all of them.
func (l *LTC) AppendBinary(buf []byte) []byte {
	le := binary.LittleEndian

	app32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	app64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	appF := func(v float64) { buf = le.AppendUint64(buf, math.Float64bits(v)) }

	app32(codecMagic)
	app32(codecVersion)
	app64(uint64(l.opts.MemoryBytes))
	app32(uint32(l.w))
	app32(uint32(l.d))
	appF(l.opts.Weights.Alpha)
	appF(l.opts.Weights.Beta)
	app64(uint64(l.opts.ItemsPerPeriod))
	var flags byte
	if l.opts.DisableDeviationEliminator {
		flags |= 1
	}
	if l.adaptiveStep {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = append(buf, byte(l.opts.Replacement))
	app32(l.opts.Seed)
	appF(l.opts.PeriodDuration)
	appF(l.opts.DecayFactor)
	app64(uint64(l.ptr))
	appF(l.acc)
	appF(l.step)
	buf = append(buf, l.parity)
	app64(uint64(l.swept))
	app64(uint64(l.itemsInPer))
	app64(l.stats.Arrivals)
	app64(l.stats.Batches)
	app64(l.stats.BatchItems)
	app64(l.stats.Hits)
	app64(l.stats.Admissions)
	app64(l.stats.Decrements)
	app64(l.stats.Expulsions)
	app64(l.stats.FlagConsumed)
	app64(l.stats.CellsSwept)
	app64(l.stats.Periods)
	app64(l.stats.ParityFlips)

	// Wire cells stay in the version-3 interleaved 17-byte layout; the
	// in-memory lanes are converted on encode, so the SoA refactor is
	// invisible to existing checkpoint images.
	for i := 0; i < l.m; i++ {
		app64(l.ids[i])
		app32(l.freqs[i])
		app32(l.counters[i])
		buf = append(buf, l.flags[i])
	}
	return buf
}

// UnmarshalBinary restores a tracker from a MarshalBinary image. The
// receiver's prior state is discarded; its geometry is rebuilt from the
// image.
func (l *LTC) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	r := reader{data: data}
	if r.u32() != codecMagic {
		return fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if v := r.u32(); v != codecVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrCheckpointVersion, v, codecVersion)
	}
	var opts Options
	opts.MemoryBytes = int(r.u64())
	w := int(r.u32())
	d := int(r.u32())
	opts.BucketWidth = d
	opts.Weights.Alpha = r.f64()
	opts.Weights.Beta = r.f64()
	opts.ItemsPerPeriod = int(r.u64())
	flags := r.u8()
	opts.DisableDeviationEliminator = flags&1 != 0
	adaptive := flags&4 != 0
	policy := r.u8()
	if policy > byte(ReplaceEager) {
		return fmt.Errorf("%w: unknown replacement policy %d", ErrBadCheckpoint, policy)
	}
	opts.Replacement = ReplacementPolicy(policy)
	opts.Seed = r.u32()
	opts.PeriodDuration = r.f64()
	opts.DecayFactor = r.f64()

	if w <= 0 || d <= 0 || w > 1<<30 || d > 1<<16 {
		return fmt.Errorf("%w: implausible geometry %dx%d", ErrBadCheckpoint, w, d)
	}
	// New derives its lane sizes from MemoryBytes, so an inconsistent or
	// absurd budget must be rejected before any allocation: a forged image
	// can otherwise drive w·d past integer range (fuzz-found crash) or
	// demand gigabytes for a header-only payload.
	const maxCheckpointCells = 1 << 27
	if w*d > maxCheckpointCells {
		return fmt.Errorf("%w: implausible geometry %dx%d", ErrBadCheckpoint, w, d)
	}
	if opts.MemoryBytes <= 0 || opts.MemoryBytes/(CellBytes*d) != w {
		return fmt.Errorf("%w: memory budget %d inconsistent with geometry %dx%d",
			ErrBadCheckpoint, opts.MemoryBytes, w, d)
	}
	fresh := New(opts)
	if fresh.w != w || fresh.d != d {
		return fmt.Errorf("%w: geometry %dx%d does not match options-derived %dx%d",
			ErrBadCheckpoint, w, d, fresh.w, fresh.d)
	}
	fresh.adaptiveStep = adaptive
	fresh.ptr = int(r.u64())
	fresh.acc = r.f64()
	fresh.step = r.f64()
	fresh.parity = r.u8()
	fresh.swept = int(r.u64())
	fresh.itemsInPer = int(r.u64())
	fresh.stats.Arrivals = r.u64()
	fresh.stats.Batches = r.u64()
	fresh.stats.BatchItems = r.u64()
	fresh.stats.Hits = r.u64()
	fresh.stats.Admissions = r.u64()
	fresh.stats.Decrements = r.u64()
	fresh.stats.Expulsions = r.u64()
	fresh.stats.FlagConsumed = r.u64()
	fresh.stats.CellsSwept = r.u64()
	fresh.stats.Periods = r.u64()
	fresh.stats.ParityFlips = r.u64()
	if fresh.ptr < 0 || fresh.ptr >= fresh.m || fresh.swept < 0 || fresh.swept > fresh.m {
		return fmt.Errorf("%w: CLOCK state out of range", ErrBadCheckpoint)
	}
	if fresh.parity != flagEven && fresh.parity != flagOdd {
		return fmt.Errorf("%w: bad parity", ErrBadCheckpoint)
	}
	if r.err != nil {
		return r.err
	}

	need := fresh.m * 17
	if len(r.data)-r.off != need {
		return fmt.Errorf("%w: %d cell bytes, want %d", ErrBadCheckpoint,
			len(r.data)-r.off, need)
	}
	for i := 0; i < fresh.m; i++ {
		fresh.ids[i] = le.Uint64(r.data[r.off:])
		fresh.freqs[i] = le.Uint32(r.data[r.off+8:])
		fresh.counters[i] = le.Uint32(r.data[r.off+12:])
		fresh.flags[i] = r.data[r.off+16]
		r.off += 17
	}
	fresh.occupied = fresh.countOccupied()
	if r.err != nil {
		return r.err
	}
	*l = *fresh
	return nil
}

// Reset clears all cells and CLOCK state, keeping the configuration.
func (l *LTC) Reset() {
	clear(l.ids)
	clear(l.freqs)
	clear(l.counters)
	clear(l.flags)
	l.occupied = 0
	l.ptr = 0
	l.acc = 0
	l.swept = 0
	l.parity = flagEven
	l.itemsInPer = 0
	l.timeAnchored = false
	l.periodStart = 0
	l.lastArrival = 0
	l.timeDebt = 0
	l.stats = stream.Counters{}
	if l.adaptiveStep {
		l.step = 0
	}
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.data) {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrBadCheckpoint, r.off)
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
