package ltc

// referenceMerge is the map-and-sort Merge that preceded the
// allocation-free bucket kernel, kept verbatim as the reference the kernel
// must match byte for byte: per bucket it sums both trackers' occupied
// cells by item in a map, ranks the sums with sort.Slice by the float
// reporting significance (ties by item ascending) and keeps the top d.
// The merged_sha256 golden fixtures were generated with it.

import (
	"bytes"
	"sort"
	"testing"

	"sigstream/internal/stream"
)

func referenceMerge(l, other *LTC) error {
	if !l.Compatible(other) {
		return ErrIncompatible
	}
	type merged struct {
		id      uint64
		freq    uint64
		counter uint64
	}
	for b := 0; b < l.w; b++ {
		base, end := b*l.d, (b+1)*l.d

		sum := make(map[uint64]*merged, 2*l.d)
		absorb := func(host *LTC) {
			for i := base; i < end; i++ {
				if host.flags[i]&flagOccupied == 0 {
					continue
				}
				e := host.entry(i) // folds pending flags into persistency
				m := sum[e.Item]
				if m == nil {
					m = &merged{id: e.Item}
					sum[e.Item] = m
				}
				m.freq += e.Frequency
				m.counter += e.Persistency
			}
		}
		absorb(l)
		absorb(other)

		all := make([]*merged, 0, len(sum))
		for _, m := range sum {
			all = append(all, m)
		}
		sort.Slice(all, func(i, j int) bool {
			si := l.opts.Weights.Significance(all[i].freq, all[i].counter)
			sj := l.opts.Weights.Significance(all[j].freq, all[j].counter)
			if si != sj {
				return si > sj
			}
			return all[i].id < all[j].id
		})
		if len(all) > l.d {
			all = all[:l.d]
		}
		for j := 0; j < l.d; j++ {
			i := base + j
			if j < len(all) {
				l.ids[i] = all[j].id
				l.freqs[i] = saturate32(all[j].freq)
				l.counters[i] = saturate32(all[j].counter)
				l.flags[i] = flagOccupied
			} else {
				l.ids[i] = 0
				l.freqs[i] = 0
				l.counters[i] = 0
				l.flags[i] = 0
			}
		}
	}
	l.occupied = l.countOccupied()
	return nil
}

// TestMergeMatchesReference merges every golden configuration's tracker
// with a peer built over an overlapping stream, once with Merge and once
// with referenceMerge, and requires byte-identical checkpoint images —
// including mid-period merges, whose pending flags fold into persistency.
func TestMergeMatchesReference(t *testing.T) {
	for _, gc := range goldenConfigs() {
		gc := gc
		t.Run(gc.Name, func(t *testing.T) {
			for _, cut := range []int{gc.N, gc.N/2 + 7} {
				got, peer := goldenPair(&gc, cut)
				want, _ := goldenPair(&gc, cut)
				requireReferenceMerge(t, got, want, peer)
			}
		})
	}
}

// TestMergeMatchesReferenceOnDuplicates covers states no insert sequence
// produces but a restored image can hold: the same item in two cells of
// one bucket, and significance ties between different items. The
// reference sums duplicates by item, so the kernel must too.
func TestMergeMatchesReferenceOnDuplicates(t *testing.T) {
	opts := Options{MemoryBytes: 2 * CellBytes * 4, BucketWidth: 4, Weights: stream.Balanced, Seed: 1}
	build := func() (*LTC, *LTC) {
		a, b := New(opts), New(opts)
		for i, id := range []uint64{7, 7, 9, 11} {
			a.fill(i, id, uint32(3+i), 1)
		}
		for i, id := range []uint64{11, 5, 9, 3} {
			b.fill(i, id, 5, uint32(i%2))
		}
		b.fill(4, 42, 1, 0)
		return a, b
	}
	got, peer := build()
	want, _ := build()
	requireReferenceMerge(t, got, want, peer)
}

// TestMergeMatchesReferenceWide compares against the reference at the
// widest bucket a Config allows (d = 256) and at a restored image of one
// d = 65536 bucket, the widest UnmarshalBinary accepts. The wide image
// holds duplicate items and ties, and the kernel must stay O(d log d)
// there: a quadratic kernel makes this test run for seconds.
func TestMergeMatchesReferenceWide(t *testing.T) {
	t.Run("d256", func(t *testing.T) {
		gc := goldenCase{Mem: 64 << 10, Width: 256, Alpha: 1, Beta: 1, Seed: 14, N: 60_000, Periods: 10}
		for _, cut := range []int{gc.N, gc.N/2 + 7} {
			got, peer := goldenPair(&gc, cut)
			want, _ := goldenPair(&gc, cut)
			requireReferenceMerge(t, got, want, peer)
		}
	})
	t.Run("restored-d65536", func(t *testing.T) {
		got, peer := wideRestoredPair(t)
		want, _ := wideRestoredPair(t)
		requireReferenceMerge(t, got, want, peer)
	})
}

// wideRestoredPair returns two overlapping single-bucket trackers of
// d = 65536 cells, each restored from its checkpoint image. Every 97th
// cell repeats its neighbour's item, and frequencies repeat with period
// 61, so the bucket holds both duplicate items and significance ties.
func wideRestoredPair(t testing.TB) (l, peer *LTC) {
	const d = 1 << 16
	opts := Options{MemoryBytes: CellBytes * d, BucketWidth: d, Weights: stream.Balanced, Seed: 1}
	restore := func(first, stride uint64) *LTC {
		src := New(opts)
		id := first
		for i := 0; i < d; i++ {
			if i%97 != 96 {
				id += stride
			}
			src.fill(i, id, uint32(1+i%61), uint32(i%7))
		}
		img, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dst := new(LTC)
		if err := dst.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	return restore(0, 2), restore(d/2, 3)
}

// requireReferenceMerge merges peer into got with Merge and into want, a
// copy of got, with referenceMerge, and requires byte-identical images.
func requireReferenceMerge(t *testing.T, got, want, peer *LTC) {
	t.Helper()
	if err := got.Merge(peer); err != nil {
		t.Fatal(err)
	}
	if err := referenceMerge(want, peer); err != nil {
		t.Fatal(err)
	}
	gotImg, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatalf("merged image differs from the reference merge:\n got %v\nwant %v", got.TopK(16), want.TopK(16))
	}
	if got.Occupancy() != want.Occupancy() {
		t.Fatalf("occupancy %d, reference %d", got.Occupancy(), want.Occupancy())
	}
}

// BenchmarkMerge measures Merge at the default bucket width, at the
// widest a Config allows, and on the widest restored image. Each
// iteration merges the same peer into the result of the last, which
// keeps every bucket's work the same: 2·d cells in, d out.
func BenchmarkMerge(b *testing.B) {
	pair := func(gc goldenCase) func(testing.TB) (*LTC, *LTC) {
		return func(testing.TB) (*LTC, *LTC) { return goldenPair(&gc, gc.N) }
	}
	for _, c := range []struct {
		name string
		pair func(testing.TB) (*LTC, *LTC)
	}{
		{"64KiB-d8", pair(goldenCase{Mem: 64 << 10, Width: 8, Alpha: 1, Beta: 1, Seed: 14, N: 60_000, Periods: 10})},
		{"64KiB-d256", pair(goldenCase{Mem: 64 << 10, Width: 256, Alpha: 1, Beta: 1, Seed: 14, N: 60_000, Periods: 10})},
		{"restored-d65536", wideRestoredPair},
	} {
		b.Run(c.name, func(b *testing.B) {
			l, peer := c.pair(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Merge(peer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
