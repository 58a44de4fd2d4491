package sigstream

// Integration tests: drive every public tracker end-to-end on a realistic
// workload and score them against exact ground truth, checking both the
// interface contracts and the paper's headline accuracy ordering.

import (
	"testing"

	"sigstream/internal/gen"
	"sigstream/internal/metrics"
	"sigstream/internal/oracle"
	"sigstream/internal/stream"
)

func workload(t *testing.T) *stream.Stream {
	t.Helper()
	return gen.Generate(gen.Config{
		N: 120_000, M: 12_000, Periods: 40, Skew: 1.0,
		Head: 200, TailWindowFrac: 0.25, Seed: 99,
	})
}

func TestIntegrationFrequent(t *testing.T) {
	s := workload(t)
	o := oracle.FromStream(s, stream.Frequent)
	const mem = 16 << 10
	const k = 100
	trackers := map[string]Tracker{
		"LTC":         New(Config{MemoryBytes: mem, Weights: Frequent, ItemsPerPeriod: s.ItemsPerPeriod()}),
		"SpaceSaving": NewBaseline(SpaceSaving, Config{MemoryBytes: mem, Weights: Weights{Alpha: 1}}),
		"LossyCount":  NewBaseline(LossyCounting, Config{MemoryBytes: mem, Weights: Weights{Alpha: 1}}),
		"MisraGries":  NewBaseline(MisraGries, Config{MemoryBytes: mem, Weights: Weights{Alpha: 1}}),
		"CM":          NewBaseline(FrequentSketch, Config{MemoryBytes: mem, TopK: k, Sketch: CM, Weights: Weights{Alpha: 1}}),
		"CU":          NewBaseline(FrequentSketch, Config{MemoryBytes: mem, TopK: k, Sketch: CU, Weights: Weights{Alpha: 1}}),
		"Count":       NewBaseline(FrequentSketch, Config{MemoryBytes: mem, TopK: k, Sketch: Count, Weights: Weights{Alpha: 1}}),
	}
	scores := map[string]metrics.Report{}
	for name, tr := range trackers {
		per := s.ItemsPerPeriod()
		for i, it := range s.Items {
			tr.Insert(it)
			if (i+1)%per == 0 {
				tr.EndPeriod()
			}
		}
		tr.EndPeriod()
		truth := o.TopK(k)
		reported := tr.TopK(k)
		hits := 0
		truthSet := map[Item]bool{}
		for _, e := range truth {
			truthSet[e.Item] = true
		}
		var relSum float64
		for _, e := range reported {
			if truthSet[e.Item] {
				hits++
			}
			if real, ok := o.Query(e.Item); ok && real.Significance > 0 {
				d := real.Significance - e.Significance
				if d < 0 {
					d = -d
				}
				relSum += d / real.Significance
			}
		}
		scores[name] = metrics.Report{
			Precision: float64(hits) / k,
			ARE:       relSum / k,
		}
	}
	ltc := scores["LTC"]
	if ltc.Precision < 0.85 {
		t.Fatalf("LTC precision %.2f under pressure, want ≥0.85", ltc.Precision)
	}
	for name, r := range scores {
		if name == "LTC" {
			continue
		}
		if r.Precision > ltc.Precision+0.05 {
			t.Errorf("%s precision %.2f beats LTC %.2f", name, r.Precision, ltc.Precision)
		}
	}
}

func TestIntegrationSignificant(t *testing.T) {
	s := workload(t)
	w := Weights{Alpha: 1, Beta: 10}
	o := oracle.FromStream(s, stream.Weights{Alpha: 1, Beta: 10})
	const mem = 16 << 10
	const k = 100
	ltc := New(Config{MemoryBytes: mem, Weights: w, ItemsPerPeriod: s.ItemsPerPeriod()})
	cu := NewBaseline(SignificantSketch, Config{MemoryBytes: mem, TopK: k, Sketch: CU, Weights: w})
	for _, tr := range []Tracker{ltc, cu} {
		per := s.ItemsPerPeriod()
		for i, it := range s.Items {
			tr.Insert(it)
			if (i+1)%per == 0 {
				tr.EndPeriod()
			}
		}
		tr.EndPeriod()
	}
	score := func(tr Tracker) float64 {
		truth := map[Item]bool{}
		for _, e := range o.TopK(k) {
			truth[e.Item] = true
		}
		hits := 0
		for _, e := range tr.TopK(k) {
			if truth[e.Item] {
				hits++
			}
		}
		return float64(hits) / k
	}
	pLTC, pCU := score(ltc), score(cu)
	if pLTC+0.05 < pCU {
		t.Fatalf("LTC %.2f below CU-sig %.2f on significant items", pLTC, pCU)
	}
	if pLTC < 0.7 {
		t.Fatalf("LTC significant-items precision %.2f implausibly low", pLTC)
	}
}

func TestIntegrationShardedMatchesSingle(t *testing.T) {
	// A sharded tracker with the same total memory should land in the same
	// accuracy class as the single-tracker run.
	s := workload(t)
	o := oracle.FromStream(s, stream.Balanced)
	const k = 100
	sh := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: s.ItemsPerPeriod()}, 4)
	per := s.ItemsPerPeriod()
	for i, it := range s.Items {
		sh.Insert(it)
		if (i+1)%per == 0 {
			sh.EndPeriod()
		}
	}
	sh.EndPeriod()
	truth := map[Item]bool{}
	for _, e := range o.TopK(k) {
		truth[e.Item] = true
	}
	hits := 0
	for _, e := range sh.TopK(k) {
		if truth[e.Item] {
			hits++
		}
	}
	if p := float64(hits) / k; p < 0.75 {
		t.Fatalf("sharded precision %.2f, want ≥0.75", p)
	}
}

func TestIntegrationWindowTracksRecentRegime(t *testing.T) {
	// Two traffic regimes: items 1..50 dominate the first half, items
	// 101..150 the second. A window covering the second half must report
	// (almost) only regime-2 items; the unwindowed tracker mixes both.
	const periodsPerHalf = 8
	win := NewWindow(Config{MemoryBytes: 64 << 10, Weights: Frequent}, periodsPerHalf, 4)
	full := New(Config{MemoryBytes: 64 << 10, Weights: Frequent})
	feed := func(tr Tracker, base Item) {
		for p := 0; p < periodsPerHalf; p++ {
			for i := Item(0); i < 50; i++ {
				for j := 0; j < 5; j++ {
					tr.Insert(base + i)
				}
			}
			tr.EndPeriod()
		}
	}
	for _, tr := range []Tracker{win, full} {
		feed(tr, 1)   // first regime
		feed(tr, 101) // second regime
	}
	recent := 0
	for _, e := range win.TopK(50) {
		if e.Item >= 101 {
			recent++
		}
	}
	if recent < 45 {
		t.Fatalf("window top-50 holds only %d recent-regime items", recent)
	}
}
