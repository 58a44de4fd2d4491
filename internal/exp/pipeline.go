package exp

import (
	"strconv"
	"time"

	"sigstream"
	"sigstream/internal/stream"
)

// PipelineSweep measures single-producer ingestion throughput (Mops) of
// the synchronous sharded batch path against the asynchronous pipelined
// front-end at 1–8 shards, on the Network workload in 256-item batches
// with the same period cadence on both sides (the pipeline flushes before
// each period boundary). On a multi-core host the pipelined series pulls
// ahead as shards grow — the producer only partitions and enqueues while
// shard workers apply in parallel; on a single core it instead prices the
// hand-off overhead.
func PipelineSweep(sc Scale) Result {
	start := time.Now()
	w := newWorkloads(sc)
	s := w.get("network")
	const mem = 50 << 10
	const batch = 256
	per := s.ItemsPerPeriod()
	var rows []Row

	for _, shards := range []int{1, 2, 4, 8} {
		x := strconv.Itoa(shards)
		cfg := sigstream.Config{MemoryBytes: mem, Weights: sigstream.Balanced,
			ItemsPerPeriod: per}

		sync := sigstream.NewSharded(cfg, shards)
		t0 := time.Now()
		s.ReplayBatchFunc(batch, sync.InsertBatch, sync.EndPeriod)
		el := time.Since(t0)
		rows = append(rows, Row{Figure: "pipe", Dataset: s.Label, Series: "sync",
			X: x, Metric: "Mops", Value: float64(s.Len()) / el.Seconds() / 1e6})

		piped := sigstream.NewSharded(cfg, shards)
		in := piped.Pipeline(sigstream.PipelineOptions{})
		t0 = time.Now()
		s.ReplayBatchFunc(batch, func(sub []stream.Item) {
			_ = in.Submit(sub)
		}, func() {
			_ = in.Flush()
			piped.EndPeriod()
		})
		_ = in.Flush()
		el = time.Since(t0)
		_ = in.Close()
		rows = append(rows, Row{Figure: "pipe", Dataset: s.Label, Series: "pipelined",
			X: x, Metric: "Mops", Value: float64(s.Len()) / el.Seconds() / 1e6})
	}
	return Result{Figure: "pipe", Title: "Pipelined vs synchronous sharded ingestion",
		PaperNote: "beyond the paper: asynchronous sharded front-end, single producer",
		Rows:      rows, Elapsed: time.Since(start)}
}
