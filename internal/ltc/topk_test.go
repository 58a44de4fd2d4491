package ltc

import (
	"fmt"
	"sort"
	"testing"

	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

// fullRanking is every occupied cell's entry, ranked by the full sort
// TopK used before the bounded selection (sort.Slice, significance
// descending, item ascending).
func fullRanking(l *LTC) []stream.Entry {
	var es []stream.Entry
	for i, f := range l.flags {
		if f&flagOccupied != 0 {
			es = append(es, l.entry(i))
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Significance != es[j].Significance {
			return es[i].Significance > es[j].Significance
		}
		return es[i].Item < es[j].Item
	})
	return es
}

// checkTopKMatchesFullSort requires TopK(k) to equal the full ranking cut
// to k at the output-size edges, at the largest k the HTTP top route
// accepts, and at k well below occupancy. It returns the number of
// significance ties in the ranking.
func checkTopKMatchesFullSort(t *testing.T, l *LTC) (ties int) {
	t.Helper()
	want := fullRanking(l)
	occ := len(want)
	for i := 1; i < occ; i++ {
		if want[i].Significance == want[i-1].Significance {
			ties++
		}
	}
	for _, k := range []int{0, 1, 10, occ / 3, occ - 1, occ, occ + 1, 1 << 20} {
		got := l.TopK(k)
		n := min(max(k, 0), occ)
		if len(got) != n {
			t.Fatalf("TopK(%d) returned %d entries, want %d", k, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TopK(%d) entry %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	return ties
}

// TestTopKMatchesFullSort checks the selecting TopK against the full sort
// on every golden configuration, on a mid-period table whose pending flags
// count toward persistency, and on a nearly full 256 KiB Network-like
// table.
func TestTopKMatchesFullSort(t *testing.T) {
	ties := 0
	for _, gc := range goldenConfigs() {
		gc := gc
		for _, cut := range []int{gc.N, gc.N/2 + 7} {
			t.Run(fmt.Sprintf("%s/cut=%d", gc.Name, cut), func(t *testing.T) {
				l, _ := goldenPair(&gc, cut)
				ties += checkTopKMatchesFullSort(t, l)
			})
		}
	}
	t.Run("network-like-256KiB", func(t *testing.T) {
		s := gen.NetworkLike(1<<18, 1)
		l := New(Options{MemoryBytes: 256 << 10, Weights: stream.Balanced})
		s.ReplayBatch(l, 1024)
		if l.Occupancy() < l.m*99/100 {
			t.Fatalf("table holds %d of %d cells; want it nearly full", l.Occupancy(), l.m)
		}
		ties += checkTopKMatchesFullSort(t, l)
	})
	if ties == 0 {
		t.Fatal("no significance ties: the item tie-break went untested")
	}
}

// TestReadPathAllocs pins the read path's allocation budget: TopK makes
// one buffer of min(k, occupancy) entries, and Merge one scratch of 2·d
// entries shared by every bucket.
func TestReadPathAllocs(t *testing.T) {
	gc := goldenConfigs()[0]
	l, peer := goldenPair(&gc, gc.N)
	if n := testing.AllocsPerRun(10, func() { l.TopK(100) }); n != 1 {
		t.Fatalf("TopK allocated %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := l.Merge(peer); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Merge allocated %.0f times, want 1", n)
	}
}
