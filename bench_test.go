package sigstream

// Raw operation benchmarks through the public API. The paper-figure
// benchmarks are in figures_bench_test.go.

import (
	"fmt"
	"sync"
	"testing"

	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

func benchInsert(b *testing.B, tr Tracker) {
	b.Helper()
	s := gen.NetworkLike(1<<17, 1)
	per := s.ItemsPerPeriod()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(s.Items[i&(1<<17-1)])
		if i%per == per-1 {
			tr.EndPeriod()
		}
	}
}

// BenchmarkInsertLTC measures LTC's per-arrival cost through the public API.
func BenchmarkInsertLTC(b *testing.B) {
	benchInsert(b, New(Config{MemoryBytes: 64 << 10, Weights: Balanced}))
}

// BenchmarkInsertSpaceSaving measures Space-Saving's per-arrival cost.
func BenchmarkInsertSpaceSaving(b *testing.B) {
	benchInsert(b, NewBaseline(SpaceSaving, Config{MemoryBytes: 64 << 10,
		Weights: Weights{Alpha: 1}}))
}

// BenchmarkInsertCUSketch measures the CU sketch+heap per-arrival cost.
func BenchmarkInsertCUSketch(b *testing.B) {
	benchInsert(b, NewBaseline(FrequentSketch, Config{MemoryBytes: 64 << 10,
		TopK: 100, Sketch: CU, Weights: Weights{Alpha: 1}}))
}

// BenchmarkInsertPersistentCU measures the CU+BF persistency adapter.
func BenchmarkInsertPersistentCU(b *testing.B) {
	benchInsert(b, NewBaseline(PersistentSketch, Config{MemoryBytes: 64 << 10,
		TopK: 100, Sketch: CU, Weights: Weights{Beta: 1}}))
}

// benchInsertBatch feeds b.N arrivals in fixed-size batches through the
// BatchInserter path (native or fallback), with the same period cadence as
// benchInsert. ns/op is directly comparable between the two.
func benchInsertBatch(b *testing.B, tr Tracker, batch int) {
	b.Helper()
	s := gen.NetworkLike(1<<17, 1)
	per := s.ItemsPerPeriod()
	mask := 1<<17 - 1
	b.ResetTimer()
	sincePeriod := 0
	for done := 0; done < b.N; {
		start := done & mask
		end := start + batch
		if end > len(s.Items) {
			end = len(s.Items)
		}
		if rem := b.N - done; end-start > rem {
			end = start + rem
		}
		InsertBatch(tr, s.Items[start:end])
		n := end - start
		done += n
		sincePeriod += n
		if sincePeriod >= per {
			tr.EndPeriod()
			sincePeriod = 0
		}
	}
}

// BenchmarkInsertBatchLTC measures LTC's per-arrival cost on the native
// 256-item batch path; compare with BenchmarkInsertLTC.
func BenchmarkInsertBatchLTC(b *testing.B) {
	benchInsertBatch(b, New(Config{MemoryBytes: 64 << 10, Weights: Balanced}), 256)
}

// BenchmarkInsertBatchSpaceSaving measures a baseline driven through the
// generic per-item fallback adapter; compare with
// BenchmarkInsertSpaceSaving to see the adapter overhead is negligible.
func BenchmarkInsertBatchSpaceSaving(b *testing.B) {
	benchInsertBatch(b, NewBaseline(SpaceSaving, Config{MemoryBytes: 64 << 10,
		Weights: Frequent}), 256)
}

// benchShardedParallel hammers one Sharded tracker from 8 goroutines,
// per-item when batch ≤ 0 and via InsertBatch otherwise. ns/op is per
// arrival in both modes, so the items/sec ratio is the inverse ns/op
// ratio.
func benchShardedParallel(b *testing.B, batch int) {
	b.Helper()
	tr := NewSharded(Config{MemoryBytes: 1 << 20, Weights: Balanced,
		ItemsPerPeriod: 1 << 17}, 8)
	s := gen.NetworkLike(1<<17, 1)
	mask := 1<<17 - 1
	const goroutines = 8
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		n := b.N / goroutines
		if g == 0 {
			n += b.N % goroutines
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			off := g * 1013 // decorrelate the goroutines' positions
			if batch <= 0 {
				for i := 0; i < n; i++ {
					tr.Insert(s.Items[(off+i)&mask])
				}
				return
			}
			for done := 0; done < n; {
				start := (off + done) & mask
				end := start + batch
				if rem := n - done; end-start > rem {
					end = start + rem
				}
				if end > len(s.Items) {
					end = len(s.Items)
				}
				tr.InsertBatch(s.Items[start:end])
				done += end - start
			}
		}(g, n)
	}
	wg.Wait()
}

// BenchmarkShardedInsert measures the per-item Sharded path under
// contention: 8 goroutines, one lock round-trip per arrival.
func BenchmarkShardedInsert(b *testing.B) { benchShardedParallel(b, 0) }

// BenchmarkShardedInsertBatch measures the batched Sharded path under
// contention: 8 goroutines, 256-item batches partitioned by shard, one
// lock round-trip per shard per batch.
func BenchmarkShardedInsertBatch(b *testing.B) { benchShardedParallel(b, 256) }

// benchPipelineIngest drives b.N arrivals through a Pipeline from a single
// producer in 256-item batches, flushing once at the end. ns/op is per
// arrival, directly comparable with benchSyncShardedIngest at the same
// shard count: the difference is what the asynchronous front-end buys (or
// costs) for one producer.
func benchPipelineIngest(b *testing.B, shards int) {
	b.Helper()
	tr := NewSharded(Config{MemoryBytes: 1 << 20, Weights: Balanced,
		ItemsPerPeriod: 1 << 17}, shards)
	p := tr.Pipeline(PipelineOptions{})
	defer p.Close()
	s := gen.NetworkLike(1<<17, 1)
	mask := 1<<17 - 1
	const batch = 256
	b.ResetTimer()
	for done := 0; done < b.N; {
		start := done & mask
		end := start + batch
		if end > len(s.Items) {
			end = len(s.Items)
		}
		if rem := b.N - done; end-start > rem {
			end = start + rem
		}
		if err := p.Submit(s.Items[start:end]); err != nil {
			b.Fatal(err)
		}
		done += end - start
	}
	if err := p.Flush(); err != nil {
		b.Fatal(err)
	}
}

// benchSyncShardedIngest is the synchronous single-producer counterpart:
// the same 256-item batches applied inline via InsertBatch.
func benchSyncShardedIngest(b *testing.B, shards int) {
	b.Helper()
	tr := NewSharded(Config{MemoryBytes: 1 << 20, Weights: Balanced,
		ItemsPerPeriod: 1 << 17}, shards)
	s := gen.NetworkLike(1<<17, 1)
	mask := 1<<17 - 1
	const batch = 256
	b.ResetTimer()
	for done := 0; done < b.N; {
		start := done & mask
		end := start + batch
		if end > len(s.Items) {
			end = len(s.Items)
		}
		if rem := b.N - done; end-start > rem {
			end = start + rem
		}
		tr.InsertBatch(s.Items[start:end])
		done += end - start
	}
}

// BenchmarkPipelineIngest measures single-producer pipelined ingestion at
// 1, 4 and 8 shards; compare against BenchmarkPipelineSyncIngest.
func BenchmarkPipelineIngest(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchPipelineIngest(b, shards)
		})
	}
}

// BenchmarkPipelineSyncIngest measures the synchronous baseline for the
// pipelined figure: same producer, same batches, no rings or workers.
func BenchmarkPipelineSyncIngest(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchSyncShardedIngest(b, shards)
		})
	}
}

// BenchmarkTopKLTC measures top-k query latency on a warm LTC.
func BenchmarkTopKLTC(b *testing.B) {
	s := gen.NetworkLike(1<<17, 1)
	tr := New(Config{MemoryBytes: 64 << 10, Weights: Balanced})
	replay(s, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TopK(100)
	}
}

// BenchmarkTopKLTC256KiB measures top-1000 of a nearly full 256 KiB
// table, the geometry of the repository benchmark's reads.
func BenchmarkTopKLTC256KiB(b *testing.B) {
	s := gen.NetworkLike(1<<18, 1)
	tr := New(Config{MemoryBytes: 256 << 10, Weights: Balanced})
	replay(s, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TopK(1000)
	}
}

// BenchmarkMergeShardedCheckpoints measures decoding and merging 8
// partition images of 64 KiB each — a Network-like stream split by item
// across 8 four-shard trackers — as a gather round does with the image it
// picks for each partition.
func BenchmarkMergeShardedCheckpoints(b *testing.B) {
	const parts = 8
	s := gen.NetworkLike(1<<19, 1)
	per := s.ItemsPerPeriod()
	trackers := make([]*Sharded, parts)
	for p := range trackers {
		trackers[p] = NewSharded(Config{MemoryBytes: 64 << 10, Weights: Balanced}, 4)
	}
	for i, it := range s.Items {
		trackers[it%parts].Insert(it)
		if (i+1)%per == 0 {
			for _, tr := range trackers {
				tr.EndPeriod()
			}
		}
	}
	images := make([][]byte, parts)
	for p, tr := range trackers {
		var err error
		if images[p], err = tr.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeShardedCheckpoints(images...); err != nil {
			b.Fatal(err)
		}
	}
}

func replay(s *stream.Stream, tr Tracker) {
	per := s.ItemsPerPeriod()
	for i, it := range s.Items {
		tr.Insert(it)
		if (i+1)%per == 0 {
			tr.EndPeriod()
		}
	}
}
