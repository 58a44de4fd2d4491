package sigstream

import (
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
