package stream

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceRanking is the full sort every ranked read used before the
// bounded selection: sort.Slice over all entries, significance descending,
// item ascending.
func referenceRanking(es []Entry) []Entry {
	out := append([]Entry(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Significance != out[j].Significance {
			return out[i].Significance > out[j].Significance
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// truncated is the reference answer for top-k: the full ranking cut to k
// (empty for k ≤ 0).
func truncated(ranked []Entry, k int) []Entry {
	if k <= 0 {
		return nil
	}
	return ranked[:min(k, len(ranked))]
}

// rankingKs lists the k values the selection equivalence tests sweep
// for a candidate set of n entries: the edges of the output size, the
// largest k the HTTP top route accepts, and k well below n, where most
// offers displace a survivor or are refused.
func rankingKs(n int) []int {
	return []int{0, 1, 10, n / 3, n - 1, n, n + 1, 1 << 20}
}

// tiedEntries draws n distinct items whose significances come from a few
// values, so most comparisons go to the item tie-break.
func tiedEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i, item := range rng.Perm(4 * n)[:n] {
		f := uint64(rng.Intn(6))
		es[i] = Entry{Item: Item(item), Frequency: f, Persistency: f % 3, Significance: float64(f) + 0.5*float64(f%3)}
	}
	return es
}

func equalEntries(t *testing.T, label string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestTopKFromEntriesMatchesFullSort checks the in-place selection against
// the full reference sort truncated to k, over tie-heavy inputs.
func TestTopKFromEntriesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 5, 64, 1000} {
		es := tiedEntries(rng, n)
		want := referenceRanking(es)
		for _, k := range rankingKs(n) {
			got := TopKFromEntries(append([]Entry(nil), es...), k)
			equalEntries(t, "TopKFromEntries", got, truncated(want, k))
		}
	}
}

// TestSelectionMatchesFullSort offers the same entries to selections whose
// buffers start at every size from empty to exact, so the growth path
// ranks like the pre-sized one.
func TestSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	es := tiedEntries(rng, 500)
	want := referenceRanking(es)
	for _, k := range rankingKs(len(es)) {
		for _, hint := range []int{0, 1, len(es)} {
			sel := NewSelection(k, hint)
			for _, e := range es {
				sel.Offer(e)
			}
			equalEntries(t, "Selection", sel.Ranked(), truncated(want, k))
		}
	}
}

// TestSelectionAdmits checks that Admits agrees with Offer's decision.
func TestSelectionAdmits(t *testing.T) {
	sel := NewSelection(2, 2)
	for _, e := range []Entry{{Item: 5, Significance: 3}, {Item: 9, Significance: 3}} {
		if !sel.Admits(e.Significance, e.Item) {
			t.Fatalf("%+v refused by a selection with room", e)
		}
		sel.Offer(e)
	}
	if sel.Admits(3, 10) {
		t.Fatal("a tie with a higher item than the last survivor was admitted")
	}
	if !sel.Admits(3, 6) {
		t.Fatal("a tie with a lower item than the last survivor was refused")
	}
	if none := NewSelection(0, 10); none.Admits(1e9, 0) {
		t.Fatal("a k = 0 selection admitted an entry")
	}
}

// TestSelectionAllocs pins the allocation budget: TopKFromEntries selects
// inside its input, and a selection allocates its buffer once.
func TestSelectionAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := tiedEntries(rng, 2000)
	work := make([]Entry, len(es))
	if n := testing.AllocsPerRun(20, func() {
		copy(work, es)
		TopKFromEntries(work, 100)
	}); n != 0 {
		t.Fatalf("TopKFromEntries allocated %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		sel := NewSelection(100, len(es))
		for _, e := range es {
			sel.Offer(e)
		}
		sel.Ranked()
	}); n != 1 {
		t.Fatalf("a selection allocated %.0f times, want 1", n)
	}
}
