package sigstream

import (
	"fmt"
	"testing"
)

func TestNewDefaultsToBalanced(t *testing.T) {
	tr := New(Config{MemoryBytes: 1 << 16})
	for p := 0; p < 3; p++ {
		tr.Insert(7)
		tr.EndPeriod()
	}
	e, ok := tr.Query(7)
	if !ok {
		t.Fatal("item lost")
	}
	if e.Frequency != 3 || e.Persistency != 3 {
		t.Fatalf("f=%d p=%d, want 3/3", e.Frequency, e.Persistency)
	}
	if e.Significance != 6 {
		t.Fatalf("balanced significance = %v, want 6", e.Significance)
	}
	if tr.Name() != "LTC" {
		t.Fatalf("name = %q", tr.Name())
	}
}

func TestLTCDiagnostics(t *testing.T) {
	tr := New(Config{MemoryBytes: 1 << 14, BucketWidth: 4})
	if tr.BucketWidth() != 4 {
		t.Fatalf("d = %d, want 4", tr.BucketWidth())
	}
	if tr.Buckets() <= 0 {
		t.Fatal("no buckets")
	}
	tr.Insert(1)
	if tr.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", tr.Occupancy())
	}
}

func TestAllConstructorsSatisfyTracker(t *testing.T) {
	k := 10
	trackers := []Tracker{
		New(Config{MemoryBytes: 4096, Weights: Balanced}),
		NewBaseline(SpaceSaving, Config{MemoryBytes: 4096, Weights: Weights{Alpha: 1}}),
		NewBaseline(LossyCounting, Config{MemoryBytes: 4096, Weights: Weights{Alpha: 1}}),
		NewBaseline(FrequentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: CM, Weights: Weights{Alpha: 1}}),
		NewBaseline(FrequentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: CU, Weights: Weights{Alpha: 1}}),
		NewBaseline(FrequentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: Count, Weights: Weights{Alpha: 1}}),
		NewBaseline(PersistentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: CM, Weights: Weights{Beta: 1}}),
		NewBaseline(PersistentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: CU, Weights: Weights{Beta: 1}}),
		NewBaseline(PersistentSketch, Config{MemoryBytes: 4096, TopK: k, Sketch: Count, Weights: Weights{Beta: 1}}),
		NewBaseline(SignificantSketch, Config{MemoryBytes: 8192, TopK: k, Sketch: CM, Weights: Balanced}),
		NewBaseline(SignificantSketch, Config{MemoryBytes: 8192, TopK: k, Sketch: CU, Weights: Balanced}),
		NewBaseline(PIE, Config{MemoryBytes: 4096, Weights: Weights{Beta: 1}}),
		NewBaseline(MisraGries, Config{MemoryBytes: 4096, Weights: Weights{Alpha: 1}}),
		NewBaseline(Sampling, Config{MemoryBytes: 8192, ExpectedDistinct: 20, Weights: Balanced}),
		NewWindow(Config{MemoryBytes: 16 << 10}, 8, 2),
	}
	seen := map[string]bool{}
	for _, tr := range trackers {
		// Six periods: PIE's fountain decode needs at least four clean
		// periods per item before an ID can be reconstructed.
		for p := 0; p < 6; p++ {
			for i := Item(1); i <= 20; i++ {
				tr.Insert(i)
			}
			tr.EndPeriod()
		}
		if tr.Name() == "" {
			t.Fatal("empty tracker name")
		}
		if seen[tr.Name()] {
			t.Fatalf("duplicate tracker name %q", tr.Name())
		}
		seen[tr.Name()] = true
		if tr.MemoryBytes() <= 0 {
			t.Fatalf("%s: non-positive memory", tr.Name())
		}
		top := tr.TopK(5)
		if len(top) == 0 {
			t.Fatalf("%s: empty TopK after 120 arrivals", tr.Name())
		}
		for i := 1; i < len(top); i++ {
			if top[i].Significance > top[i-1].Significance {
				t.Fatalf("%s: TopK not sorted", tr.Name())
			}
		}
	}
}

func TestWeightsSignificance(t *testing.T) {
	w := Weights{Alpha: 3, Beta: 2}
	if got := w.Significance(4, 5); got != 22 {
		t.Fatalf("Significance = %v, want 22", got)
	}
	if Frequent.Significance(4, 5) != 4 || Persistent.Significance(4, 5) != 5 {
		t.Fatal("preset weights wrong")
	}
}

func TestHashKeyStableAndDistinct(t *testing.T) {
	a := HashKey("alice")
	if a != HashKey("alice") {
		t.Fatal("HashKey not deterministic")
	}
	if a == HashKey("bob") {
		t.Fatal("distinct keys collided")
	}
	if HashKey("") == HashKey("x") {
		t.Fatal("empty key collided")
	}
}

func TestKeyMap(t *testing.T) {
	m := NewKeyMap()
	it := m.Intern("alice")
	if it != HashKey("alice") {
		t.Fatal("Intern must agree with HashKey")
	}
	if got, ok := m.Lookup(it); !ok || got != "alice" {
		t.Fatalf("Lookup = %q/%v", got, ok)
	}
	if m.Name(it) != "alice" {
		t.Fatal("Name must resolve interned keys")
	}
	if got := m.Name(0xabc); got != "0x0000000000000abc" {
		t.Fatalf("Name(0xabc) = %q, want the 16-digit hex rendering", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestKeyMapBound checks that Bound keeps at most twice the tracker's
// cells, keeps the name of every item the tracker holds, and keeps the
// names of extra items the walk yields.
func TestKeyMapBound(t *testing.T) {
	tr := New(Config{MemoryBytes: 1 << 10}) // 64 cells
	m := NewKeyMap()
	extra := m.Intern("alert")
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("k%d", i)
		it := HashKey(key)
		tr.Insert(it)
		m.Note(it, []byte(key))
		m.Bound(tr.Cells(), func(visit func(Item)) {
			tr.VisitItems(visit)
			visit(extra)
		})
		if m.Len() > 2*tr.Cells() {
			t.Fatalf("after %d keys: %d names for %d cells", i+1, m.Len(), tr.Cells())
		}
	}
	if got, ok := m.Lookup(extra); !ok || got != "alert" {
		t.Fatalf("walked item's name = %q/%v, want alert", got, ok)
	}
	held := 0
	tr.VisitItems(func(it Item) {
		held++
		if _, ok := m.Lookup(it); !ok {
			t.Fatalf("held item %#x lost its name", it)
		}
	})
	if held != tr.Occupancy() {
		t.Fatalf("VisitItems yielded %d items, occupancy %d", held, tr.Occupancy())
	}
	n := 0
	m.Range(func(Item, string) bool { n++; return true })
	if n != m.Len() {
		t.Fatalf("Range yielded %d names, Len %d", n, m.Len())
	}
	// An empty walk leaves only what fits: nothing survives a full prune.
	m.Bound(0, func(func(Item)) {})
	if m.Len() != 0 {
		t.Fatalf("Len after an empty walk = %d, want 0", m.Len())
	}
}

// TestKeyMapZeroAllocs pins the steady state: noting a held key, and a
// cycle of inserts, notes and a pruning bound over an LTC or a Sharded,
// allocate nothing.
func TestKeyMapZeroAllocs(t *testing.T) {
	m := NewKeyMap()
	hot := []byte("hot-key")
	hotItem := HashKeyBytes(hot)
	m.Note(hotItem, hot)
	if a := testing.AllocsPerRun(1000, func() { m.Note(hotItem, hot) }); a != 0 {
		t.Fatalf("Note of a held key: %v allocs, want 0", a)
	}

	const batch = 64
	keys := make([][]byte, 4096)
	items := make([]Item, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
		items[i] = HashKeyBytes(keys[i])
	}
	type tracker interface {
		InsertBatch([]Item)
		Cells() int
		VisitItems(func(Item))
	}
	for _, tr := range []tracker{New(Config{MemoryBytes: 1 << 10}), NewSharded(Config{MemoryBytes: 1 << 10}, 2)} {
		if _, pooled := tr.(*Sharded); pooled && raceEnabled {
			t.Log("Sharded skipped: its pooled scratch is dropped at random under -race")
			continue
		}
		m := NewKeyMap()
		next := 0
		cycle := func() {
			b := items[next : next+batch]
			tr.InsertBatch(b)
			for i, it := range b {
				m.Note(it, keys[next+i])
			}
			m.Bound(tr.Cells(), tr.VisitItems)
			next = (next + batch) % len(keys)
		}
		for i := 0; i < 500; i++ { // grow every buffer to its steady size
			cycle()
		}
		if a := testing.AllocsPerRun(200, cycle); a != 0 {
			t.Fatalf("%T: Note+Bound cycle: %v allocs, want 0", tr, a)
		}
		if m.Len() > 2*tr.Cells() {
			t.Fatalf("%T: %d names for %d cells", tr, m.Len(), tr.Cells())
		}
	}
}

func TestEndToEndSignificantRanking(t *testing.T) {
	// A persistent moderate item must outrank a one-period burst under
	// persistency-weighted significance, using only the public API.
	tr := New(Config{MemoryBytes: 1 << 16, Weights: Weights{Alpha: 1, Beta: 100}})
	keys := NewKeyMap()
	burst, steady := keys.Intern("burst"), keys.Intern("steady")
	for p := 0; p < 10; p++ {
		if p == 0 {
			for i := 0; i < 500; i++ {
				tr.Insert(burst)
			}
		}
		for i := 0; i < 5; i++ {
			tr.Insert(steady)
		}
		tr.EndPeriod()
	}
	top := tr.TopK(2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	if keys.Name(top[0].Item) != "steady" {
		t.Fatalf("top item = %s, want steady", keys.Name(top[0].Item))
	}
}
