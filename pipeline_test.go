package sigstream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sigstream/internal/gen"
)

// feedPipelined replays the same stream through a Pipeline in ragged batch
// sizes, flushing before every period boundary so the boundary lands at
// the same arrival as the synchronous paths.
func feedPipelined(t *testing.T, tr *Sharded, p *Pipeline, items []Item, per int) {
	t.Helper()
	sizes := []int{1, 7, 256, 3, 64, 1000}
	si := 0
	fed := 0
	for off := 0; off < len(items); {
		n := sizes[si%len(sizes)]
		si++
		if rem := per - fed; n > rem {
			n = rem
		}
		if rem := len(items) - off; n > rem {
			n = rem
		}
		if err := p.Submit(items[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		fed += n
		if fed == per {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			tr.EndPeriod()
			fed = 0
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if fed != 0 {
		tr.EndPeriod()
	}
}

// TestPipelineEquivalence asserts the three ingestion paths — per-item
// Insert, partitioned InsertBatch, and the asynchronous Pipeline — leave a
// Sharded tracker in bit-identical state for a single producer: same
// top-k ranking, same per-item estimates, same operation counters.
func TestPipelineEquivalence(t *testing.T) {
	s := gen.NetworkLike(60_000, 11)
	per := s.ItemsPerPeriod()
	cfg := Config{MemoryBytes: 64 << 10, Weights: Balanced, ItemsPerPeriod: per}
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seq := NewSharded(cfg, shards)
			bat := NewSharded(cfg, shards)
			pip := NewSharded(cfg, shards)
			feedSequential(seq, s.Items, per)
			feedBatched(bat, s.Items, per)
			p := pip.Pipeline(PipelineOptions{RingSize: 4})
			feedPipelined(t, pip, p, s.Items, per)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, seq, bat)
			assertSameResults(t, seq, pip)
			// The operation counters must match too (how arrivals were
			// framed into batches is the only allowed difference).
			ss, ps := seq.Stats(), pip.Stats()
			ss.Batches, ss.BatchedItems = 0, 0
			ps.Batches, ps.BatchedItems = 0, 0
			if ss != ps {
				t.Fatalf("stats diverged:\nsequential %+v\npipelined  %+v", ss, ps)
			}
			st := p.Stats()
			if st.Items != uint64(len(s.Items)) {
				t.Fatalf("pipeline accepted %d items, want %d", st.Items, len(s.Items))
			}
		})
	}
}

// TestPipelineMixedWithDirectInserts checks a pipeline coexists with
// direct synchronous calls on the same tracker (both are documented as
// allowed — they serialize on the shard locks).
func TestPipelineMixedWithDirectInserts(t *testing.T) {
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 4)
	p := tr.Pipeline(PipelineOptions{})
	defer p.Close()
	for i := 0; i < 500; i++ {
		tr.Insert(Item(i))
	}
	if err := p.Submit(seqItems(500, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Arrivals; got != 1000 {
		t.Fatalf("arrivals = %d, want 1000", got)
	}
}

// TestPipelineRestart checks a Sharded tracker outlives its pipeline: a
// second pipeline over the same tracker keeps ingesting where the first
// stopped.
func TestPipelineRestart(t *testing.T) {
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 4)
	p1 := tr.Pipeline(PipelineOptions{})
	if err := p1.Submit(seqItems(0, 400)); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := tr.Pipeline(PipelineOptions{})
	defer p2.Close()
	if err := p2.Submit(seqItems(400, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Arrivals; got != 1000 {
		t.Fatalf("arrivals = %d, want 1000", got)
	}
}

// TestPipelineSubmitCopiesTheBatch checks Submit copies the caller's
// slice: the workers are held until the caller has overwritten it, and
// the tracker still sees the submitted values, through the single-shard
// path and through the partition.
func TestPipelineSubmitCopiesTheBatch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
				ItemsPerPeriod: 1000}, shards)
			p := tr.Pipeline(PipelineOptions{})
			t.Cleanup(func() { _ = p.Close() })
			release := gateShards(t, func(int) bool { return true })
			batch := []Item{1, 2, 3}
			if err := p.Submit(batch); err != nil {
				t.Fatal(err)
			}
			batch[0], batch[1], batch[2] = 9, 9, 9 // caller reuses its slice immediately
			release()
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, it := range []Item{1, 2, 3} {
				if e, ok := tr.Query(it); !ok || e.Frequency != 1 {
					t.Errorf("item %d: %+v (found %v), want frequency 1", it, e, ok)
				}
			}
			if _, ok := tr.Query(9); ok {
				t.Error("the tracker saw the caller's overwrite of a submitted batch")
			}
		})
	}
}

// TestPipelineCloseSemantics checks Close drains the rings and is
// idempotent, and that Submit — empty or not — and Flush report
// ErrPipelineClosed after it.
func TestPipelineCloseSemantics(t *testing.T) {
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 4)
	p := tr.Pipeline(PipelineOptions{})
	if err := p.Submit(seqItems(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Arrivals; got != 100 {
		t.Fatalf("Close did not drain: arrivals = %d, want 100", got)
	}
	if err := p.Submit([]Item{3}); !errors.Is(err, ErrPipelineClosed) {
		t.Errorf("Submit after Close = %v, want ErrPipelineClosed", err)
	}
	if err := p.Submit(nil); !errors.Is(err, ErrPipelineClosed) {
		t.Errorf("empty Submit after Close = %v, want ErrPipelineClosed", err)
	}
	if err := p.Flush(); !errors.Is(err, ErrPipelineClosed) {
		t.Errorf("Flush after Close = %v, want ErrPipelineClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestPipelinePreservesPerShardOrder checks each worker applies its
// shard's items in submission order across many small batches. Every item
// arrives once into a tracker too small to hold them, so which items it
// keeps depends on the order: the pipelined tracker must match one fed
// item by item, and one fed the same items in reverse must not (else the
// match would prove nothing).
func TestPipelinePreservesPerShardOrder(t *testing.T) {
	const shards, n = 3, 1000
	cfg := Config{MemoryBytes: 3 << 10, Weights: Balanced, ItemsPerPeriod: n}
	items := seqItems(0, n)
	tr := NewSharded(cfg, shards)
	p := tr.Pipeline(PipelineOptions{RingSize: 2})
	t.Cleanup(func() { _ = p.Close() })
	for off := 0; off < n; off += 10 {
		if err := p.Submit(items[off : off+10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	inOrder, reversed := NewSharded(cfg, shards), NewSharded(cfg, shards)
	for i := range items {
		inOrder.Insert(items[i])
		reversed.Insert(items[n-1-i])
	}
	orderSensitive := false
	for _, it := range items {
		e, ok := tr.Query(it)
		if we, wok := inOrder.Query(it); e != we || ok != wok {
			t.Fatalf("Query(%d) = %+v/%v, want %+v/%v as fed in order", it, e, ok, we, wok)
		}
		if re, rok := reversed.Query(it); e != re || ok != rok {
			orderSensitive = true
		}
	}
	if !orderSensitive {
		t.Fatal("reversing each shard's items changed no estimate: the check cannot see order")
	}
	if st := p.Stats(); st.Items != n || st.Flushes != 1 {
		t.Fatalf("Stats = %+v, want Items %d and Flushes 1", st, n)
	}
}

// TestPipelineBackpressureStallsAndRecovers holds the one shard's lock, as
// a long direct call on the tracker would, so its worker blocks: Submits
// fill the one-deep ring and then stall the producer (counted in Stalls)
// until the lock is released, after which every item is applied.
func TestPipelineBackpressureStallsAndRecovers(t *testing.T) {
	const batches = 16
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 1)
	p := tr.Pipeline(PipelineOptions{RingSize: 1})
	t.Cleanup(func() { _ = p.Close() })
	tr.shards[0].mu.Lock()
	unlock := sync.OnceFunc(tr.shards[0].mu.Unlock)
	t.Cleanup(unlock) // runs before Close, which waits for the worker

	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < batches && err == nil; i++ {
			err = p.Submit([]Item{Item(i)})
		}
		done <- err
	}()
	waitFor(t, "the producer to stall on the full ring", func() bool { return p.Stats().Stalls > 0 })
	select {
	case err := <-done:
		t.Fatalf("%d submits into a 1-deep ring behind a blocked worker returned early (err=%v)",
			batches, err)
	default:
	}
	unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Arrivals; got != batches {
		t.Fatalf("worker applied %d arrivals, want %d", got, batches)
	}
}

// TestPipelineConcurrentProducers submits from many producers in full and
// partial batches while Flush and Stats run alongside them; Close must
// leave every submitted item applied.
func TestPipelineConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 2000
	tr := NewSharded(Config{MemoryBytes: 64 << 10, Weights: Balanced,
		ItemsPerPeriod: 1 << 14}, 4)
	p := tr.Pipeline(PipelineOptions{RingSize: 4})
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]Item, 0, 64)
			for i := 0; i < perProducer; i++ {
				batch = append(batch, Item(g*perProducer+i))
				if len(batch) == cap(batch) {
					if err := p.Submit(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if err := p.Submit(batch); err != nil {
				t.Error(err)
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		if err := p.Flush(); err != nil {
			t.Error(err)
		}
		_ = p.Stats()
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Arrivals; got != producers*perProducer {
		t.Fatalf("arrivals = %d, want %d", got, producers*perProducer)
	}
	if got := p.Stats().Items; got != producers*perProducer {
		t.Fatalf("pipeline accepted %d items, want %d", got, producers*perProducer)
	}
}

func seqItems(lo, hi int) []Item {
	items := make([]Item, 0, hi-lo)
	for i := lo; i < hi; i++ {
		items = append(items, Item(i))
	}
	return items
}

// TestPipelineConcurrentStress hammers one pipelined tracker from many
// producers while readers run TopK/Query/Stats and a coordinator flushes
// and closes periods — the -race configuration this repository's CI runs
// must stay clean, and no arrival may be lost.
func TestPipelineConcurrentStress(t *testing.T) {
	producers := 8
	perProducer := 20_000
	if testing.Short() {
		producers, perProducer = 4, 4_000
	}
	s := gen.NetworkLike(producers*perProducer, 13)
	tr := NewSharded(Config{MemoryBytes: 256 << 10, Weights: Balanced,
		ItemsPerPeriod: 1 << 14}, 8)
	p := tr.Pipeline(PipelineOptions{RingSize: 8})

	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			items := s.Items[g*perProducer : (g+1)*perProducer]
			for off := 0; off < len(items); off += 512 {
				end := off + 512
				if end > len(items) {
					end = len(items)
				}
				if err := p.Submit(items[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tr.TopK(20)
			_, _ = tr.Query(s.Items[0])
			_ = tr.Stats()
			_ = p.Stats()
			_ = p.Flush()
			tr.EndPeriod()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Stats().Arrivals, uint64(producers*perProducer); got != want {
		t.Fatalf("arrivals = %d, want %d (lost items in the pipeline)", got, want)
	}
}
