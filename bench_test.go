package sigstream

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its figure at quick scale via the internal/exp harness and
// reports the headline metrics (LTC precision/ARE and the strongest
// baseline) as custom benchmark outputs, so
//
//	go test -bench=Fig -benchmem
//
// prints the whole evaluation. For paper-scale numbers use
// cmd/sigbench -scale paper.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sigstream/internal/exp"
	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

// benchScale keeps each figure-benchmark iteration around a second.
var benchScale = exp.Scale{
	CAIDA: 150_000, Network: 150_000, Social: 150_000, Zipf: 150_000,
	Seed: 1, Quick: true,
}

// reportSeries attaches the mean of each series' metric to the benchmark.
func reportSeries(b *testing.B, r exp.Result, metric string) {
	b.Helper()
	type agg struct {
		sum float64
		n   int
	}
	byName := map[string]*agg{}
	for _, row := range r.Rows {
		if row.Metric != metric {
			continue
		}
		a := byName[row.Series]
		if a == nil {
			a = &agg{}
			byName[row.Series] = a
		}
		a.sum += row.Value
		a.n++
	}
	for name, a := range byName {
		// Benchmark metric units must not contain whitespace; series names
		// like "LTC 1:10" (Fig 14/15) get underscores.
		unit := strings.ReplaceAll(name, " ", "_") + "-" + metric
		b.ReportMetric(a.sum/float64(a.n), unit)
	}
}

func runFigure(b *testing.B, id, metric string) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var last exp.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(benchScale)
	}
	if metric != "" {
		reportSeries(b, last, metric)
	}
}

// BenchmarkFig06 regenerates Figure 6 (long-tail frequency distribution).
func BenchmarkFig06(b *testing.B) { runFigure(b, "6", "") }

// BenchmarkFig07a regenerates Figure 7(a) (correct-rate bound vs real).
func BenchmarkFig07a(b *testing.B) { runFigure(b, "7a", "correct-rate") }

// BenchmarkFig07b regenerates Figure 7(b) (error bound vs real).
func BenchmarkFig07b(b *testing.B) { runFigure(b, "7b", "error-rate") }

// BenchmarkFig08a regenerates Figure 8(a) (LTR ablation vs memory).
func BenchmarkFig08a(b *testing.B) { runFigure(b, "8a", "precision") }

// BenchmarkFig08b regenerates Figure 8(b) (LTR ablation vs α:β).
func BenchmarkFig08b(b *testing.B) { runFigure(b, "8b", "precision") }

// BenchmarkFig09 regenerates Figure 9(a–c) (frequent items, precision).
func BenchmarkFig09(b *testing.B) { runFigure(b, "9", "precision") }

// BenchmarkFig09d regenerates Figure 9(d) (frequent items, precision vs k).
func BenchmarkFig09d(b *testing.B) { runFigure(b, "9d", "precision") }

// BenchmarkFig10 regenerates Figure 10(a–c) (frequent items, ARE).
func BenchmarkFig10(b *testing.B) { runFigure(b, "10", "ARE") }

// BenchmarkFig10d regenerates Figure 10(d) (frequent items, ARE vs k).
func BenchmarkFig10d(b *testing.B) { runFigure(b, "10d", "ARE") }

// BenchmarkFig11 regenerates Figure 11 (Deviation Eliminator ablation).
func BenchmarkFig11(b *testing.B) { runFigure(b, "11", "precision") }

// BenchmarkFig12 regenerates Figure 12(a–c) (persistent items, precision).
func BenchmarkFig12(b *testing.B) { runFigure(b, "12", "precision") }

// BenchmarkFig12d regenerates Figure 12(d) (persistent items vs k).
func BenchmarkFig12d(b *testing.B) { runFigure(b, "12d", "precision") }

// BenchmarkFig13 regenerates Figure 13(a–c) (persistent items, ARE).
func BenchmarkFig13(b *testing.B) { runFigure(b, "13", "ARE") }

// BenchmarkFig13d regenerates Figure 13(d) (persistent items, ARE vs k).
func BenchmarkFig13d(b *testing.B) { runFigure(b, "13d", "ARE") }

// BenchmarkFig14 regenerates Figure 14 (significant items, precision).
func BenchmarkFig14(b *testing.B) { runFigure(b, "14", "precision") }

// BenchmarkFig15 regenerates Figure 15 (significant items, ARE).
func BenchmarkFig15(b *testing.B) { runFigure(b, "15", "ARE") }

// BenchmarkFigTput regenerates the throughput comparison.
func BenchmarkFigTput(b *testing.B) { runFigure(b, "tput", "Mops") }

// BenchmarkFigD regenerates the appendix bucket-width sweep.
func BenchmarkFigD(b *testing.B) { runFigure(b, "d", "precision") }

// BenchmarkFigPolicy regenerates the replacement-policy ablation.
func BenchmarkFigPolicy(b *testing.B) { runFigure(b, "policy", "ARE") }

// BenchmarkFigPeriods regenerates the appendix period-count sweep.
func BenchmarkFigPeriods(b *testing.B) { runFigure(b, "periods", "precision") }

// BenchmarkFigZipf regenerates the appendix Zipf-skew sweep.
func BenchmarkFigZipf(b *testing.B) { runFigure(b, "zipf", "precision") }

// BenchmarkFigExt regenerates the extensions regime-shift comparison.
func BenchmarkFigExt(b *testing.B) { runFigure(b, "ext", "recent-precision") }

// --- raw operation benchmarks (public API) ----------------------------------

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
	benchInsert(b, NewSpaceSaving(64<<10, 1))
}

// BenchmarkInsertCUSketch measures the CU sketch+heap per-arrival cost.
func BenchmarkInsertCUSketch(b *testing.B) {
	benchInsert(b, NewFrequentSketch(CU, 64<<10, 100, 1))
}

// BenchmarkInsertPersistentCU measures the CU+BF persistency adapter.
func BenchmarkInsertPersistentCU(b *testing.B) {
	benchInsert(b, NewPersistentSketch(CU, 64<<10, 100, 1))
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
