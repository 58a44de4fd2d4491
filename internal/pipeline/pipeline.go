// Package pipeline implements an asynchronous, sharded ingestion
// front-end: producers hash-partition item batches on their own goroutine,
// the sub-batches travel through bounded per-shard rings, and one worker
// goroutine per shard drains its ring into that shard's tracker. The
// synchronous sharded path makes callers take every shard lock themselves —
// a single producer can never drive more than one shard at a time. The
// pipeline decouples the two sides, so one producer (or an HTTP handler
// pool) saturates all shards at once, while the bounded rings give natural
// backpressure instead of unbounded queueing.
//
// Ordering: within one producer goroutine, sub-batches for the same shard
// are enqueued in submission order and each ring is FIFO with a single
// consumer, so every shard sees that producer's items in order. Since
// shards partition the item space, a single-producer pipelined ingest is
// bit-identical to the synchronous path after Flush. With concurrent
// producers the interleaving is unspecified, exactly as it is for
// concurrent synchronous inserts.
//
// Failure: the pipeline self-heals. A panicking sink kills only its
// worker; the supervisor logs the panic, counts the in-flight batch as
// dropped (nothing is requeued — replaying a half-applied batch would
// double-count), and restarts the worker with a fresh stack. Restarts are
// budgeted per shard over a sliding window (default 3 per minute); a
// shard that exhausts the budget is quarantined, which poisons the
// pipeline exactly like the old permanent-failure path: the terminal
// error is recorded, every subsequent batch is drained and counted as
// dropped rather than deadlocking producers, and Submit/Flush/Close all
// report it. Below the budget, producers never see an error — a transient
// sink crash costs one batch and one log line.
package pipeline

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"sigstream/internal/fault"
	"sigstream/internal/hashing"
)

// ErrClosed reports a Submit or Flush after Close.
var ErrClosed = errors.New("pipeline: closed")

// DefaultRingSize is the per-shard ring capacity, in batches.
const DefaultRingSize = 64

// DefaultRestartBudget is the number of worker restarts tolerated per
// shard within DefaultRestartWindow before the shard is quarantined.
const DefaultRestartBudget = 3

// DefaultRestartWindow is the sliding window for the restart budget.
const DefaultRestartWindow = time.Minute

// Sink consumes one shard's sub-batches. Implementations must be safe for
// use from the shard's single worker goroutine; they typically take the
// shard lock and call the tracker's native InsertBatch.
type Sink interface {
	InsertBatch(items []uint64)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(items []uint64)

// InsertBatch implements Sink.
func (f SinkFunc) InsertBatch(items []uint64) { f(items) }

// Options tunes an Ingestor.
type Options struct {
	// RingSize is the per-shard ring capacity in batches (default
	// DefaultRingSize). Producers block when a ring is full.
	RingSize int
	// Partition maps an item to a shard in [0, shards). The default is
	// hashing.Mix64(item) % shards — the same partition sigstream.Sharded
	// uses, so the pipeline and the synchronous path agree on item
	// ownership.
	Partition func(item uint64, shards int) int
	// RestartBudget is the number of worker restarts tolerated per shard
	// within RestartWindow before the shard is quarantined (default
	// DefaultRestartBudget).
	RestartBudget int
	// RestartWindow is the sliding window over which RestartBudget is
	// counted (default DefaultRestartWindow).
	RestartWindow time.Duration
	// Logger receives restart and quarantine events (default
	// slog.Default()).
	Logger *slog.Logger
}

// Stats is a point-in-time observability snapshot of an Ingestor.
type Stats struct {
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
	// Stalls counts ring sends that had to block (backpressure events).
	Stalls uint64
	// Flushes counts completed Flush drains.
	Flushes uint64
	// Dropped counts items discarded: the in-flight batch of each sink
	// panic, plus everything drained after a quarantine poisons the
	// pipeline.
	Dropped uint64
	// Restarts counts workers respawned after a recovered sink panic.
	Restarts uint64
	// QuarantinedShards counts shards retired after exhausting the
	// restart budget.
	QuarantinedShards uint64
}

// envelope is one ring element: either a batch of items or a flush marker.
type envelope struct {
	items []uint64
	flush chan<- struct{}
}

// Ingestor is the pipelined front-end. All methods are safe for concurrent
// use by multiple producers.
type Ingestor struct {
	sinks  []Sink
	part   func(uint64, int) int
	rings  []chan envelope
	wg     sync.WaitGroup
	budget int
	window time.Duration
	logger *slog.Logger

	// mu serializes Close against in-flight Submit/Flush sends: producers
	// hold the read side while touching the rings, so Close cannot close a
	// channel mid-send.
	mu     sync.RWMutex
	closed bool

	failure atomic.Pointer[ingestError]

	items, batches, stalls, flushes, dropped atomic.Uint64
	restarts, quarantined                    atomic.Uint64

	pool   sync.Pool // *[]uint64 sub-batch buffers, recycled by workers
	tables sync.Pool // *scatterTable per-shard scatter tables, recycled by Submit
}

// scatterTable is a pooled per-shard scatter buffer. It is a pointer-held
// struct (not a bare [][]uint64) so returning it to the pool recycles the
// same heap object instead of boxing a fresh slice header on every Put.
type scatterTable struct{ slots [][]uint64 }

type ingestError struct{ err error }

// New starts one worker per sink. Close must be called to release the
// workers.
func New(sinks []Sink, opts Options) *Ingestor {
	if len(sinks) == 0 {
		panic("pipeline: no sinks")
	}
	ring := opts.RingSize
	if ring <= 0 {
		ring = DefaultRingSize
	}
	part := opts.Partition
	if part == nil {
		part = func(item uint64, shards int) int {
			return int(hashing.Mix64(item) % uint64(shards))
		}
	}
	budget := opts.RestartBudget
	if budget <= 0 {
		budget = DefaultRestartBudget
	}
	window := opts.RestartWindow
	if window <= 0 {
		window = DefaultRestartWindow
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	in := &Ingestor{
		sinks:  sinks,
		part:   part,
		rings:  make([]chan envelope, len(sinks)),
		budget: budget,
		window: window,
		logger: logger,
	}
	for i := range in.rings {
		in.rings[i] = make(chan envelope, ring)
		in.wg.Add(1)
		go in.worker(i)
	}
	return in
}

// Shards reports the number of rings/workers.
func (in *Ingestor) Shards() int { return len(in.sinks) }

// MaxRingDepth reports the deepest ring's current queue depth in batches,
// without allocating.
func (in *Ingestor) MaxRingDepth() int {
	depth := 0
	for _, r := range in.rings {
		if d := len(r); d > depth {
			depth = d
		}
	}
	return depth
}

// Err reports the pipeline's terminal failure, if any: a shard was
// quarantined after exhausting its restart budget. Recovered sink panics
// below the budget are not errors; they surface through Stats.Restarts.
func (in *Ingestor) Err() error {
	if f := in.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// Submit hash-partitions items and enqueues one sub-batch per owning
// shard, blocking while rings are full (backpressure). The items slice is
// copied; the caller may reuse it immediately. Submission is asynchronous:
// when Submit returns, the items are owned by the pipeline but not
// necessarily applied — call Flush for a visibility barrier.
//
// Submit reports ErrClosed after Close, and the terminal quarantine error
// once the pipeline is poisoned (poisoned submissions are dropped, not
// queued). Sink panics below the restart budget never fail a Submit.
// Steady-state submission is allocation-free: sub-batch buffers and the
// per-shard scatter table are pooled, with growth confined to the buf and
// table helpers.
//
//sig:noalloc
func (in *Ingestor) Submit(items []uint64) error {
	if len(items) == 0 {
		return in.Err()
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return ErrClosed
	}
	if err := in.Err(); err != nil {
		in.dropped.Add(uint64(len(items)))
		return err
	}
	n := len(in.sinks)
	if n == 1 {
		in.send(0, append(in.buf(len(items)), items...))
	} else {
		t := in.table(n)
		bufs := t.slots
		for _, it := range items {
			s := in.part(it, n)
			if bufs[s] == nil {
				bufs[s] = in.buf(len(items))
			}
			bufs[s] = append(bufs[s], it)
		}
		for s, b := range bufs {
			if b != nil {
				in.send(s, b)
				bufs[s] = nil
			}
		}
		in.tables.Put(t)
	}
	in.items.Add(uint64(len(items)))
	return nil
}

// send enqueues one sub-batch, counting a stall when the ring is full.
func (in *Ingestor) send(shard int, batch []uint64) {
	env := envelope{items: batch}
	select {
	case in.rings[shard] <- env:
	default:
		in.stalls.Add(1)
		in.rings[shard] <- env
	}
	in.batches.Add(1)
}

// Flush blocks until every batch submitted before the call has been
// applied (or dropped, if the pipeline failed): it enqueues a marker on
// every ring and waits for all workers to reach it. Flush reports ErrClosed
// after Close and the first sink failure otherwise.
func (in *Ingestor) Flush() error {
	in.mu.RLock()
	if in.closed {
		in.mu.RUnlock()
		return ErrClosed
	}
	done := make(chan struct{}, len(in.rings))
	for i := range in.rings {
		//siglint:ignore read lock only: Close needs the write side so it cannot close a ring mid-send, and workers drain rings without taking mu, so the send always completes
		in.rings[i] <- envelope{flush: done}
	}
	in.mu.RUnlock()
	for range in.rings {
		<-done
	}
	in.flushes.Add(1)
	return in.Err()
}

// Close drains every ring, stops the workers and releases their
// goroutines. Further Submit/Flush calls report ErrClosed. Close reports
// the first sink failure, if any; it is idempotent.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return in.Err()
	}
	in.closed = true
	for i := range in.rings {
		close(in.rings[i])
	}
	in.mu.Unlock()
	in.wg.Wait()
	return in.Err()
}

// Stats snapshots the pipeline's observability counters and ring depths.
func (in *Ingestor) Stats() Stats {
	st := Stats{
		Shards:            len(in.sinks),
		RingCapacity:      cap(in.rings[0]),
		RingDepth:         make([]int, len(in.rings)),
		Items:             in.items.Load(),
		Batches:           in.batches.Load(),
		Stalls:            in.stalls.Load(),
		Flushes:           in.flushes.Load(),
		Dropped:           in.dropped.Load(),
		Restarts:          in.restarts.Load(),
		QuarantinedShards: in.quarantined.Load(),
	}
	for i, r := range in.rings {
		st.RingDepth[i] = len(r)
	}
	return st
}

// worker supervises one shard. It runs the drain loop and, when a sink
// panic unwinds it, logs the panic, counts a restart against the shard's
// sliding-window budget, and re-enters the loop with a fresh stack —
// recover-and-respawn. A shard that panics more than budget times inside
// the window is quarantined: the terminal error poisons the pipeline (as
// the old permanent-failure path did) and the loop keeps running as a
// drain, so flush markers are still answered and producers never block on
// a dead shard.
func (in *Ingestor) worker(shard int) {
	defer in.wg.Done()
	var recent []time.Time // restart times inside the window; only this goroutine touches it
	for {
		normal, val := in.run(shard)
		if normal {
			return // ring closed
		}
		now := time.Now()
		keep := recent[:0]
		for _, ts := range recent {
			if now.Sub(ts) < in.window {
				keep = append(keep, ts)
			}
		}
		recent = append(keep, now)
		in.restarts.Add(1)
		if len(recent) > in.budget {
			in.failure.CompareAndSwap(nil, &ingestError{fmt.Errorf(
				"pipeline: shard %d quarantined after %d sink panics within %v (last: %v)",
				shard, len(recent), in.window, val)})
			in.quarantined.Add(1)
			in.logger.Error("pipeline: shard quarantined",
				"shard", shard, "panics_in_window", len(recent),
				"window", in.window, "panic", val)
			recent = recent[:0] // quarantined: consume stops reaching the sink, no more panics
			continue
		}
		in.logger.Warn("pipeline: worker restarted after sink panic",
			"shard", shard, "panic", val,
			"restarts_in_window", len(recent), "budget", in.budget)
	}
}

// run drains the ring until it closes (normal exit) or a sink panic
// unwinds it. The recover lives here rather than in consume so every
// restart re-enters through a fresh call frame, and so the panic value
// reaches the supervisor for budgeting and logging.
func (in *Ingestor) run(shard int) (normal bool, panicVal any) {
	defer func() {
		if r := recover(); r != nil {
			normal, panicVal = false, r
		}
	}()
	for env := range in.rings[shard] {
		if env.flush != nil {
			env.flush <- struct{}{}
			continue
		}
		in.consume(shard, env.items)
	}
	return true, nil
}

// consume applies one sub-batch. A panicking sink counts its in-flight
// batch as dropped and re-panics so the supervisor can restart the
// worker; once the pipeline is poisoned (a shard exhausted its restart
// budget) every batch is drained and dropped instead of applied.
func (in *Ingestor) consume(shard int, batch []uint64) {
	defer in.recycle(batch)
	if in.Err() != nil {
		in.dropped.Add(uint64(len(batch)))
		return
	}
	defer func() {
		if r := recover(); r != nil {
			in.dropped.Add(uint64(len(batch)))
			panic(r)
		}
	}()
	// Chaos-test injection points: a sleeping hook models a slow shard, a
	// panicking hook models a crashing sink. Inactive they cost one atomic
	// load per sub-batch; their error results are deliberately unused.
	fault.Inject(fault.PipelineSlow, shard)
	fault.Inject(fault.PipelineSink, shard)
	in.sinks[shard].InsertBatch(batch)
}

// buf returns an empty pooled buffer with capacity for up to n items.
func (in *Ingestor) buf(n int) []uint64 {
	if p, _ := in.pool.Get().(*[]uint64); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]uint64, 0, n)
}

// recycle returns a drained sub-batch buffer to the pool.
func (in *Ingestor) recycle(batch []uint64) {
	in.pool.Put(&batch)
}

// table returns a scatter table with n per-shard slots, all nil: fresh
// tables come zeroed from make, and Submit nils each used slot before
// returning the table to the pool.
func (in *Ingestor) table(n int) *scatterTable {
	t, _ := in.tables.Get().(*scatterTable)
	if t == nil {
		t = &scatterTable{}
	}
	if cap(t.slots) < n {
		t.slots = make([][]uint64, n)
	}
	t.slots = t.slots[:n]
	return t
}
