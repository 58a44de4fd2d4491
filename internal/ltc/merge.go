package ltc

// Merging: two LTCs built over disjoint sub-streams of the same stream
// (e.g. per-switch shards in the paper's data-center use case) combine into
// one summary of the union. Both trackers must share geometry, weights and
// hash seed, so any item maps to the same bucket in both.
//
// Merging is lossy in exactly the way LTC itself is lossy: each bucket of
// the result keeps the d cells with the largest significance among the two
// buckets' entries (summing frequency/persistency for items present in
// both). Persistency is summed, which is correct when the shards partition
// the arrivals of each period between them only if an item's per-period
// appearances land in a single shard; for hash-sharded streams
// (sigstream.Sharded) that holds by construction.

import (
	"cmp"
	"errors"
	"slices"

	"sigstream/internal/stream"
)

// ErrIncompatible reports a merge between trackers of different shape.
var ErrIncompatible = errors.New("ltc: incompatible trackers")

// Compatible reports whether two trackers can be merged.
func (l *LTC) Compatible(other *LTC) bool {
	return l.w == other.w && l.d == other.d &&
		//siglint:ignore exact config-identity check: merge requires bit-identical weights, and Validate rejects NaN so == is total here
		l.opts.Weights == other.opts.Weights &&
		l.opts.Seed == other.opts.Seed &&
		l.opts.DisableDeviationEliminator == other.opts.DisableDeviationEliminator
}

// Merge folds other into l. Both must be compatible; other is not
// modified. Pending flag bits of both trackers are folded into the merged
// persistency counters (so Merge is intended for end-of-stream or
// end-of-period aggregation, after both sides saw EndPeriod). It
// allocates one scratch of 2·d entries, reused by every bucket.
func (l *LTC) Merge(other *LTC) error {
	if !l.Compatible(other) {
		return ErrIncompatible
	}
	scratch := make([]stream.Entry, 2*l.d)
	occupied := 0
	for base := 0; base < l.m; base += l.d {
		occupied += l.mergeBucket(other, base, scratch)
	}
	l.occupied = occupied
	return nil
}

// mergeBucket folds other's bucket starting at cell base into l's: both
// buckets' occupied cells are copied into scratch (2·d entries) and summed
// by item, the sums ranked in SortEntries order — float reporting
// significance descending, item ascending — and the top d written back
// with their pending flags folded in. It returns the number of cells kept.
//
//sig:noalloc
func (l *LTC) mergeBucket(other *LTC, base int, scratch []stream.Entry) int {
	n := l.copyBucket(base, scratch, 0)
	n = other.copyBucket(base, scratch, n)
	kept := foldItems(scratch[:n])
	for i := range kept {
		c := &kept[i]
		c.Significance = l.opts.Weights.Significance(c.Frequency, c.Persistency)
	}
	stream.SortEntries(kept)
	kept = kept[:min(len(kept), l.d)]
	for j := 0; j < l.d; j++ {
		i := base + j
		if j < len(kept) {
			l.ids[i] = kept[j].Item
			l.freqs[i] = saturate32(kept[j].Frequency)
			l.counters[i] = saturate32(kept[j].Persistency)
			l.flags[i] = flagOccupied
		} else {
			l.ids[i] = 0
			l.freqs[i] = 0
			l.counters[i] = 0
			l.flags[i] = 0
		}
	}
	return len(kept)
}

// copyBucket copies the occupied cells of the bucket starting at cell base
// into cells[n:], with pending flags folded into persistency, and returns
// the new count. Significance is left for the caller to fill in once the
// sums are final.
func (l *LTC) copyBucket(base int, cells []stream.Entry, n int) int {
	for i := base; i < base+l.d; i++ {
		if l.flags[i]&flagOccupied == 0 {
			continue
		}
		cells[n] = stream.Entry{Item: l.ids[i], Frequency: uint64(l.freqs[i]), Persistency: l.persistency(i)}
		n++
	}
	return n
}

// foldScanCells is the most cells foldItems sums by scanning. A scan costs
// O(n²) tight comparisons, a sort by item O(n log n) indirect ones; they
// break even near 2·d = 512 cells, so every bucket width a Config allows
// but the widest is scanned, and only wider restored images are sorted.
const foldScanCells = 256

// foldItems sums the frequency and persistency of each item's entries into
// one entry and returns the sums, a prefix of es. Up to foldScanCells
// entries, each is looked up among the sums so far. Beyond that, es is
// sorted by item first so that each item's entries sit together, which
// keeps a restored image of 2^16-cell buckets O(n log n). The sums do not
// depend on the order they were added in.
//
//sig:noalloc
func foldItems(es []stream.Entry) []stream.Entry {
	n := 0
	if len(es) <= foldScanCells {
		for _, e := range es {
			j := 0
			for j < n && es[j].Item != e.Item {
				j++
			}
			if j == n {
				es[n] = stream.Entry{Item: e.Item}
				n++
			}
			es[j].Frequency += e.Frequency
			es[j].Persistency += e.Persistency
		}
		return es[:n]
	}
	slices.SortFunc(es, compareItems)
	for _, e := range es {
		if n > 0 && es[n-1].Item == e.Item {
			es[n-1].Frequency += e.Frequency
			es[n-1].Persistency += e.Persistency
			continue
		}
		es[n] = e
		n++
	}
	return es[:n]
}

// compareItems orders entries by item ascending.
func compareItems(a, b stream.Entry) int { return cmp.Compare(a.Item, b.Item) }

func saturate32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}
