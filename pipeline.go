package sigstream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sigstream/internal/fault"
)

// ErrPipelineClosed reports a Submit or Flush on a closed Pipeline.
var ErrPipelineClosed = errors.New("pipeline: closed")

// DefaultPipelineRingSize is the per-shard ring capacity, in batches, when
// PipelineOptions.RingSize is zero.
const DefaultPipelineRingSize = 64

// PipelineOptions tunes the asynchronous ingestion front-end created by
// Sharded.Pipeline. The zero value selects the documented defaults.
type PipelineOptions struct {
	// RingSize is the per-shard ring capacity in batches (default 64).
	// Deeper rings absorb burstier producers before backpressure kicks in,
	// at the cost of a longer Flush and more queued memory.
	RingSize int
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
	// Dropped counts items discarded once a tracker panic poisoned the
	// pipeline: the panicking sub-batch, every batch drained after it, and
	// every later Submit.
	Dropped uint64
}

// Pipeline is an asynchronous ingestion front-end over a Sharded tracker:
// Submit partitions a batch by owning shard on the producer goroutine and
// hands each shard's run to that shard's dedicated worker through a
// bounded ring, so a single producer keeps every shard busy at once and
// backpressure is the ring bound, not an unbounded queue.
//
// Semantics: submission is asynchronous — Flush is the visibility barrier
// that guarantees previously submitted items are applied (call it before
// EndPeriod, TopK or a checkpoint when exact read-your-writes is needed).
// From one producer the post-Flush state is bit-identical to synchronous
// ingestion of the same items: each ring is FIFO with one consumer, so a
// shard sees the producer's items in order. Concurrent producers
// interleave exactly as concurrent synchronous inserts do. Close drains
// and releases the workers; the Sharded tracker remains fully usable
// (including starting a new Pipeline).
//
// Failure: a tracker panic in a worker poisons the pipeline at once. The
// first error, naming the shard and the panic value, is recorded and
// reported by Submit, Flush, Close and Err; the panicking sub-batch and
// every later one are dropped (Stats.Dropped), and the workers keep
// draining so Flush never deadlocks.
type Pipeline struct {
	s     *Sharded
	rings []chan envelope
	wg    sync.WaitGroup

	// mu serializes Close against in-flight Submit/Flush sends: producers
	// hold the read side while touching the rings, so Close cannot close a
	// channel mid-send.
	mu     sync.RWMutex
	closed bool

	failure atomic.Pointer[error]

	items, batches, stalls, flushes, dropped atomic.Uint64

	bufs sync.Pool // *[]Item ring buffers, recycled by the workers
}

// envelope is one ring element: a pooled sub-batch or a flush marker.
type envelope struct {
	items *[]Item
	flush chan<- struct{}
}

// Pipeline starts an asynchronous ingestion front-end over s: one worker
// goroutine and one bounded ring per shard. The caller must Close it to
// release the workers. Multiple pipelines over one Sharded are allowed
// (they serialize per shard on the shard locks), as is mixing Pipeline
// ingestion with direct Insert/InsertBatch calls.
func (s *Sharded) Pipeline(opts PipelineOptions) *Pipeline {
	ring := opts.RingSize
	if ring <= 0 {
		ring = DefaultPipelineRingSize
	}
	p := &Pipeline{s: s, rings: make([]chan envelope, len(s.shards))}
	for i := range p.rings {
		p.rings[i] = make(chan envelope, ring)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Submit partitions items by owning shard and enqueues each shard's run
// for its worker, blocking while rings are full (backpressure). The slice
// is copied; the caller may reuse it immediately. Submission is
// asynchronous: call Flush for a visibility barrier.
//
// Submit reports ErrPipelineClosed after Close, and the poisoning error
// once a tracker panicked (the items are then dropped, not queued).
// Steady-state submission is allocation-free: the partition scratch and
// the ring buffers are pooled, with growth confined to getScratch and send.
//
//sig:noalloc
func (p *Pipeline) Submit(items []Item) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPipelineClosed
	}
	if err := p.Err(); err != nil {
		p.dropped.Add(uint64(len(items)))
		return err
	}
	if len(items) == 0 {
		return nil
	}
	if len(p.rings) == 1 {
		p.send(0, items)
	} else {
		b := p.s.partition(items)
		for i, c := range b.counts {
			if c > 0 {
				p.send(i, b.run(i))
			}
		}
		p.s.scratch.Put(b)
	}
	p.items.Add(uint64(len(items)))
	return nil
}

// send copies run into a pooled buffer and enqueues it on shard i's ring,
// counting a stall when the ring is full. A buffer too small for run is
// replaced by one of exactly its size rather than grown by append: on two
// vCPUs the grown buffers made BenchmarkPipelineIngest slower at 4 shards
// in 9 of 12 alternating pairs.
func (p *Pipeline) send(i int, run []Item) {
	buf, _ := p.bufs.Get().(*[]Item)
	if buf == nil {
		buf = new([]Item)
	}
	if cap(*buf) < len(run) {
		*buf = make([]Item, 0, len(run))
	}
	*buf = append((*buf)[:0], run...)
	env := envelope{items: buf}
	select {
	case p.rings[i] <- env:
	default:
		p.stalls.Add(1)
		p.rings[i] <- env
	}
	p.batches.Add(1)
}

// Flush blocks until every batch submitted before the call has been
// applied (or dropped, if the pipeline is poisoned): it enqueues a marker
// on every ring and waits for all workers to reach it. Flush reports
// ErrPipelineClosed after Close and the poisoning error otherwise.
func (p *Pipeline) Flush() error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrPipelineClosed
	}
	done := make(chan struct{}, len(p.rings))
	for _, r := range p.rings {
		//siglint:ignore read lock only: Close needs the write side so it cannot close a ring mid-send, and workers drain rings without taking mu, so the send always completes
		r <- envelope{flush: done}
	}
	p.mu.RUnlock()
	for range p.rings {
		<-done
	}
	p.flushes.Add(1)
	return p.Err()
}

// Close drains the rings, stops the workers and releases their
// goroutines. Subsequent Submit/Flush calls report ErrPipelineClosed.
// Close reports the poisoning error, if any; it is idempotent.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, r := range p.rings {
			close(r)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	return p.Err()
}

// Err reports the error that poisoned the pipeline, if any: the first
// tracker panic, naming its shard and the panic value.
func (p *Pipeline) Err() error {
	if err := p.failure.Load(); err != nil {
		return *err
	}
	return nil
}

// Stats snapshots the pipeline's rings and counters.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Shards:       len(p.rings),
		RingCapacity: cap(p.rings[0]),
		RingDepth:    make([]int, len(p.rings)),
		Items:        p.items.Load(),
		Batches:      p.batches.Load(),
		Stalls:       p.stalls.Load(),
		Flushes:      p.flushes.Load(),
		Dropped:      p.dropped.Load(),
	}
	for i, r := range p.rings {
		st.RingDepth[i] = len(r)
	}
	return st
}

// worker drains shard i's ring until Close closes it, answering flush
// markers and applying sub-batches in ring order.
func (p *Pipeline) worker(i int) {
	defer p.wg.Done()
	for env := range p.rings[i] {
		if env.flush != nil {
			env.flush <- struct{}{}
			continue
		}
		p.apply(i, *env.items)
		p.bufs.Put(env.items)
	}
}

// apply inserts one sub-batch into shard i. A tracker panic poisons the
// pipeline with an error naming the shard and the panic value; nothing is
// requeued, since replaying a half-applied batch would double-count. Once
// poisoned, every batch is counted as dropped instead of applied.
func (p *Pipeline) apply(i int, items []Item) {
	defer func() {
		if r := recover(); r != nil {
			p.dropped.Add(uint64(len(items)))
			err := fmt.Errorf("pipeline: shard %d panicked: %v", i, r)
			p.failure.CompareAndSwap(nil, &err)
		}
	}()
	// Chaos-test injection points: a blocking hook models a slow shard, a
	// panicking hook a tracker panic. Inactive they cost one atomic load
	// per sub-batch; their error results are deliberately unused.
	fault.Inject(fault.PipelineSlow, i)
	if p.Err() != nil {
		p.dropped.Add(uint64(len(items)))
		return
	}
	fault.Inject(fault.PipelineSink, i)
	p.s.shards[i].insertBatch(items)
}
