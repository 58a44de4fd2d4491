package sigstream

import (
	"log/slog"
	"time"

	"sigstream/internal/pipeline"
	"sigstream/internal/stream"
)

// ErrPipelineClosed reports a Submit or Flush on a closed Pipeline.
var ErrPipelineClosed = pipeline.ErrClosed

// DefaultPipelineRingSize is the per-shard ring capacity, in batches, when
// PipelineOptions.RingSize is zero.
const DefaultPipelineRingSize = pipeline.DefaultRingSize

// PipelineOptions tunes the asynchronous ingestion front-end created by
// Sharded.Pipeline. The zero value selects the documented defaults.
type PipelineOptions struct {
	// RingSize is the per-shard ring capacity in batches (default 64).
	// Deeper rings absorb burstier producers before backpressure kicks in,
	// at the cost of a longer Flush and more queued memory.
	RingSize int
	// RestartBudget is the number of worker restarts tolerated per shard
	// within RestartWindow before the shard is quarantined and the
	// pipeline fails terminally (default 3). A panicking tracker below the
	// budget costs only its in-flight sub-batch: the worker respawns and
	// producers never see an error.
	RestartBudget int
	// RestartWindow is the sliding window over which RestartBudget is
	// counted (default one minute).
	RestartWindow time.Duration
	// Logger receives worker restart and quarantine events (default
	// slog.Default()).
	Logger *slog.Logger
}

// PipelineStats is a point-in-time snapshot of a Pipeline's rings and
// counters.
type PipelineStats struct {
	// Shards is the number of rings/workers.
	Shards int
	// RingCapacity is each ring's capacity in batches.
	RingCapacity int
	// RingDepth is the current per-shard queue depth in batches.
	RingDepth []int
	// Items counts items accepted by Submit.
	Items uint64
	// Batches counts sub-batches enqueued onto rings.
	Batches uint64
	// Stalls counts ring sends that blocked on a full ring (backpressure
	// events; a persistently rising rate means the workers are the
	// bottleneck).
	Stalls uint64
	// Flushes counts completed Flush drains.
	Flushes uint64
	// Dropped counts items discarded: the in-flight sub-batch of every
	// sink panic, plus everything drained after a quarantine.
	Dropped uint64
	// Restarts counts workers respawned after a recovered sink panic.
	Restarts uint64
	// QuarantinedShards counts shards retired after exhausting the
	// restart budget.
	QuarantinedShards uint64
}

// Pipeline is an asynchronous ingestion front-end over a Sharded tracker:
// Submit hash-partitions a batch on the producer goroutine and hands each
// shard's sub-batch to that shard's dedicated worker through a bounded
// ring, so a single producer keeps every shard busy at once and
// backpressure is the ring bound, not an unbounded queue.
//
// Semantics: submission is asynchronous — Flush is the visibility barrier
// that guarantees previously submitted items are applied (call it before
// EndPeriod, TopK or a checkpoint when exact read-your-writes is needed).
// From one producer the post-Flush state is bit-identical to synchronous
// ingestion of the same items; concurrent producers interleave exactly as
// concurrent synchronous inserts do. Close drains and releases the
// workers; the Sharded tracker remains fully usable (including starting a
// new Pipeline).
type Pipeline struct {
	in *pipeline.Ingestor
}

// Pipeline starts an asynchronous ingestion front-end over s: one worker
// goroutine and one bounded ring per shard. The caller must Close it to
// release the workers. Multiple pipelines over one Sharded are allowed
// (they serialize per shard on the shard locks), as is mixing Pipeline
// ingestion with direct Insert/InsertBatch calls.
func (s *Sharded) Pipeline(opts PipelineOptions) *Pipeline {
	sinks := make([]pipeline.Sink, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sinks[i] = pipeline.SinkFunc(func(items []stream.Item) {
			sh.mu.Lock()
			defer sh.mu.Unlock() // defer: a tracker panic must not leak the lock
			sh.l.InsertBatch(items)
		})
	}
	return &Pipeline{in: pipeline.New(sinks, pipeline.Options{
		RingSize:      opts.RingSize,
		RestartBudget: opts.RestartBudget,
		RestartWindow: opts.RestartWindow,
		Logger:        opts.Logger,
		// The default partition is hashing.Mix64 % shards, identical to
		// Sharded.owner, so both ingestion paths agree on item ownership.
	})}
}

// Submit hash-partitions items and enqueues them for the shard workers,
// blocking while rings are full. The slice is copied; the caller may reuse
// it immediately. It reports ErrClosed (from the pipeline package) after
// Close and the first worker failure once poisoned.
func (p *Pipeline) Submit(items []Item) error { return p.in.Submit(items) }

// Flush blocks until every item submitted before the call is applied to
// the tracker, then reports any worker failure. It is the barrier to call
// before EndPeriod, TopK, Query or a checkpoint when exact
// read-your-writes is required.
func (p *Pipeline) Flush() error { return p.in.Flush() }

// Close drains the rings, stops the workers and releases their
// goroutines. Subsequent Submit/Flush calls fail; Close is idempotent.
func (p *Pipeline) Close() error { return p.in.Close() }

// Err reports the pipeline's terminal failure, if any: a shard exhausted
// its restart budget and was quarantined. Recovered sink panics below the
// budget are not errors; they surface through Stats.Restarts.
func (p *Pipeline) Err() error { return p.in.Err() }

// Stats snapshots the pipeline's rings and counters.
func (p *Pipeline) Stats() PipelineStats {
	st := p.in.Stats()
	return PipelineStats{
		Shards:            st.Shards,
		RingCapacity:      st.RingCapacity,
		RingDepth:         st.RingDepth,
		Items:             st.Items,
		Batches:           st.Batches,
		Stalls:            st.Stalls,
		Flushes:           st.Flushes,
		Dropped:           st.Dropped,
		Restarts:          st.Restarts,
		QuarantinedShards: st.QuarantinedShards,
	}
}
