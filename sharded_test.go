package sigstream

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

func TestShardedBasicCounting(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 64 << 10, Weights: Balanced}, 4)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", s.Shards())
	}
	for p := 0; p < 3; p++ {
		for i := 0; i < 10; i++ {
			s.Insert(7)
			s.Insert(9)
		}
		s.EndPeriod()
	}
	e, ok := s.Query(7)
	if !ok || e.Frequency != 30 || e.Persistency != 3 {
		t.Fatalf("item 7: %+v ok=%v, want f=30 p=3", e, ok)
	}
}

func TestShardedTopKIsGlobal(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 256 << 10, Weights: Frequent}, 8)
	// 100 items with distinct frequencies spread over all shards.
	for i := 1; i <= 100; i++ {
		for j := 0; j < i; j++ {
			s.Insert(Item(i))
		}
	}
	s.EndPeriod()
	top := s.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i, e := range top {
		if e.Item != Item(100-i) {
			t.Fatalf("rank %d: item %d, want %d", i, e.Item, 100-i)
		}
	}
}

// TestShardedTopKMatchesFullSort checks that offering every shard to one
// selection ranks exactly like sorting all shards' cells together and
// cutting to k. Each shard's cells come from its own TopK at k =
// occupancy, which the ltc package checks against a full sort.
func TestShardedTopKMatchesFullSort(t *testing.T) {
	items := gen.NetworkLike(1<<16, 2)
	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced}, n)
			feedBatched(s, items.Items, items.ItemsPerPeriod())
			var all []stream.Entry
			for i := range s.shards {
				l := s.shards[i].l
				all = append(all, l.TopK(l.Occupancy())...)
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].Significance != all[j].Significance {
					return all[i].Significance > all[j].Significance
				}
				return all[i].Item < all[j].Item
			})
			ties := 0
			for i := 1; i < len(all); i++ {
				if all[i].Significance == all[i-1].Significance {
					ties++
				}
			}
			if ties == 0 {
				t.Fatal("no significance ties: the item tie-break goes untested")
			}
			occ := len(all)
			for _, k := range []int{0, 1, 10, occ / 3, occ - 1, occ, occ + 1, 1 << 20} {
				got := s.TopK(k)
				want := all[:min(max(k, 0), occ)]
				if len(got) != len(want) {
					t.Fatalf("TopK(%d) returned %d entries, want %d", k, len(got), len(want))
				}
				for i := range got {
					if got[i] != publicEntry(want[i]) {
						t.Fatalf("TopK(%d) entry %d = %+v, want %+v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestTopKAcrossMatchesFullSort ranks three trackers of 1, 3 and 8
// shards, holding disjoint items, with one selection: the result must be
// every cell of every shard sorted in the module's order, cut at k.
func TestTopKAcrossMatchesFullSort(t *testing.T) {
	items := gen.NetworkLike(1<<16, 3)
	trackers := []*Sharded{
		NewSharded(Config{MemoryBytes: 16 << 10, Weights: Balanced}, 1),
		NewSharded(Config{MemoryBytes: 16 << 10, Weights: Balanced}, 3),
		NewSharded(Config{MemoryBytes: 16 << 10, Weights: Balanced}, 8),
	}
	split := make([][]Item, len(trackers))
	for i, it := range items.Items {
		p := it % uint64(len(trackers))
		split[p] = append(split[p], it)
		if (i+1)%items.ItemsPerPeriod() == 0 {
			for p, tr := range trackers {
				tr.InsertBatch(split[p])
				tr.EndPeriod()
				split[p] = split[p][:0]
			}
		}
	}
	var all []stream.Entry
	for _, tr := range trackers {
		for i := range tr.shards {
			l := tr.shards[i].l
			all = append(all, l.TopK(l.Occupancy())...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Significance != all[j].Significance {
			return all[i].Significance > all[j].Significance
		}
		return all[i].Item < all[j].Item
	})
	occ := len(all)
	for _, k := range []int{0, 1, 1000, occ - 1, occ, occ + 1} {
		got := TopKAcross(k, trackers...)
		want := all[:min(max(k, 0), occ)]
		if len(got) != len(want) {
			t.Fatalf("TopKAcross(%d) returned %d entries, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != publicEntry(want[i]) {
				t.Fatalf("TopKAcross(%d) entry %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	if got := TopKAcross(10); len(got) != 0 {
		t.Fatalf("TopKAcross over no trackers = %+v, want empty", got)
	}
}

func TestShardedConcurrentInserts(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 128 << 10, Weights: Balanced}, 4)
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 20000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Insert(Item(i%500 + 1))
			}
		}(g)
	}
	wg.Wait()
	s.EndPeriod()
	var total uint64
	for _, e := range s.TopK(1 << 20) {
		total += e.Frequency
	}
	if total != goroutines*perG {
		t.Fatalf("tracked frequency sum %d, want %d (lost updates)",
			total, goroutines*perG)
	}
}

// TestShardedBatchRaceStress mixes concurrent Insert, InsertBatch and
// Query with a coordinator calling EndPeriod; run under -race in CI. The
// item universe fits every shard, so the final frequency sum must be exact.
func TestShardedBatchRaceStress(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 256 << 10, Weights: Balanced}, 8)
	const (
		writers   = 4
		batchers  = 4
		perWriter = 8_000
		batchSize = 64
	)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.TopK(20)
				s.Query(17)
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Insert(Item(i%400 + 1))
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]Item, batchSize)
			for done := 0; done < perWriter; done += batchSize {
				for i := range batch {
					batch[i] = Item((done+i)%400 + 1)
				}
				s.InsertBatch(batch)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			s.EndPeriod()
		}
	}()
	<-done
	wg.Wait()
	close(stop)
	readers.Wait()

	var total uint64
	for _, e := range s.TopK(1 << 20) {
		total += e.Frequency
	}
	want := uint64(writers*perWriter + batchers*perWriter)
	if total != want {
		t.Fatalf("frequency sum %d, want %d (lost updates)", total, want)
	}
}

// TestShardedSmallBudgetNoDegenerateShards pins the integer-division
// fixes: a small budget over many shards must cap the shard count instead
// of creating zero-bucket shards, and the division remainder must be
// distributed so the sharded tracker reports the same usable budget a
// single LTC of the same configuration would.
func TestShardedSmallBudgetNoDegenerateShards(t *testing.T) {
	// 3 buckets' worth of memory (bucket = 8 cells × 16 B = 128 B) over 16
	// requested shards → at most 3 shards, each ≥ 1 bucket.
	s := NewSharded(Config{MemoryBytes: 3 * 128, Weights: Balanced}, 16)
	if s.Shards() > 3 || s.Shards() < 1 {
		t.Fatalf("Shards = %d, want in [1,3]", s.Shards())
	}
	if got := s.MemoryBytes(); got != 3*128 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 3*128)
	}
	s.Insert(1)
	if _, ok := s.Query(1); !ok {
		t.Fatal("degenerate shard lost the item")
	}
}

// TestShardedMemoryMatchesSingleLTC checks the remainder distribution on a
// budget that does not divide evenly by the shard count.
func TestShardedMemoryMatchesSingleLTC(t *testing.T) {
	cfg := Config{MemoryBytes: 100_000, Weights: Balanced} // 781 buckets, 781 % 7 != 0
	single := New(cfg)
	sharded := NewSharded(cfg, 7)
	if single.MemoryBytes() != sharded.MemoryBytes() {
		t.Fatalf("sharded budget %d under-reports single-LTC budget %d",
			sharded.MemoryBytes(), single.MemoryBytes())
	}
	// ItemsPerPeriod hint must never round to zero on any shard.
	s2 := NewSharded(Config{MemoryBytes: 64 << 10, ItemsPerPeriod: 5}, 8)
	s2.Insert(1) // would divide 5/8 = 0 before the fix; just exercise it
	if _, ok := s2.Query(1); !ok {
		t.Fatal("lost item with small ItemsPerPeriod")
	}
}

func TestShardedDefaults(t *testing.T) {
	s := NewSharded(Config{}, 0)
	if s.Shards() < 1 {
		t.Fatal("no shards")
	}
	if s.MemoryBytes() <= 0 {
		t.Fatal("no memory")
	}
	if s.Name() == "" {
		t.Fatal("no name")
	}
	s.Insert(1)
	if _, ok := s.Query(1); !ok {
		t.Fatal("lost item")
	}
}

func TestPublicCheckpointAndMerge(t *testing.T) {
	cfg := Config{MemoryBytes: 16 << 10, Weights: Balanced, Seed: 5}
	a, b := New(cfg), New(cfg)
	for p := 0; p < 4; p++ {
		for i := 0; i < 20; i++ {
			a.Insert(Item(i + 1))
			b.Insert(Item(i + 101))
		}
		a.EndPeriod()
		b.EndPeriod()
	}
	// Round-trip a through its checkpoint.
	img, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if err := restored.Merge(b); err != nil {
		t.Fatal(err)
	}
	if e, ok := restored.Query(1); !ok || e.Frequency != 4 {
		t.Fatalf("merged state wrong for item 1: %+v ok=%v", e, ok)
	}
	if e, ok := restored.Query(101); !ok || e.Frequency != 4 {
		t.Fatalf("merged state wrong for item 101: %+v ok=%v", e, ok)
	}
	// Reset leaves a clean tracker.
	restored.Reset()
	if restored.Occupancy() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestPublicMergeIncompatible(t *testing.T) {
	a := New(Config{MemoryBytes: 16 << 10, Seed: 1})
	b := New(Config{MemoryBytes: 32 << 10, Seed: 1})
	if err := a.Merge(b); err == nil {
		t.Fatal("incompatible merge accepted")
	}
}

func TestPublicInsertAt(t *testing.T) {
	l := New(Config{MemoryBytes: 16 << 10, Weights: Persistent, PeriodDuration: 10})
	l.InsertAt(5, 1)
	l.InsertAt(5, 12)
	l.InsertAt(6, 21)
	e, ok := l.Query(5)
	if !ok || e.Persistency != 2 {
		t.Fatalf("timed persistency = %d (ok=%v), want 2", e.Persistency, ok)
	}
}
