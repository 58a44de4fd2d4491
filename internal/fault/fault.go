// Package fault provides build-tag-free fault-injection points for chaos
// testing: production code calls Inject at well-known sites, and by
// default nothing happens — the whole call is one atomic pointer load and
// a nil check, with no build tags, environment variables, or interface
// indirection. Tests Activate a hook at a point to make that site
// misbehave: return an error (injected I/O failure), sleep (injected slow
// shard or slow disk), or panic (injected crash). The hooks are process
// global, so tests that activate them must not run in parallel with each
// other and must deactivate on cleanup.
//
// The errdrop analyzer in internal/analysis exempts this package: an
// injection point whose error is deliberately irrelevant at a call site
// (for example a sleep-only hook) may be called as a bare statement
// without a //siglint:ignore suppression.
package fault

import (
	"sync"
	"sync/atomic"
)

// Point names one injection site.
type Point string

// The injection points wired into the tree. Adding a point is free for
// production code: an inactive Inject is a single atomic load.
const (
	// PipelineSink fires in a Sharded.Pipeline worker immediately before
	// it applies a sub-batch to its shard; a panicking hook simulates a
	// tracker panic, which poisons the pipeline.
	PipelineSink Point = "pipeline/sink"
	// PipelineSlow fires in a Sharded.Pipeline worker before each
	// sub-batch, ahead of the poison check; a sleeping or blocking hook
	// simulates a slow shard backing traffic up its ring.
	PipelineSlow Point = "pipeline/slow"
	// SnapshotWrite fires before a snapshot frame is written; an erroring
	// hook makes the write tear (half the frame header reaches the temp
	// file, which is then removed) and the save fails.
	SnapshotWrite Point = "snapshot/write"
	// SnapshotSync fires before the snapshot temp file is fsynced.
	SnapshotSync Point = "snapshot/sync"
	// SnapshotRename fires before the temp file is renamed into place.
	SnapshotRename Point = "snapshot/rename"
	// WALAppend fires before a WAL record frame is appended; an erroring
	// hook tears the write (half the frame lands) and the append is
	// refused, exactly what a crash mid-append leaves on disk.
	WALAppend Point = "wal/append"
	// WALSync fires before the WAL segment is fsynced; an erroring hook
	// makes the group commit fail, so none of the waiting appends are
	// acknowledged.
	WALSync Point = "wal/sync"
	// WALRotate fires before the WAL seals the active segment and opens
	// the next one; an erroring hook makes rotation — and therefore the
	// snapshot cut that wanted it — fail while the log keeps appending.
	WALRotate Point = "wal/rotate"
	// IngestAccept fires in the binary ingest server after a batch frame
	// is fully read and decoded but before it is appended to the WAL; an
	// erroring hook drops the connection without an ack, exactly what a
	// kill -9 between receive and append looks like to the client.
	IngestAccept Point = "ingest/accept"
	// CheckpointShip fires in the HTTP checkpoint handler after the image
	// is built but before it is written to the response; an erroring hook
	// tears the shipment (half the image is sent under the full declared
	// length), exactly what a site crashing mid-transfer looks like to a
	// cluster coordinator.
	CheckpointShip Point = "server/checkpoint"
	// CoordCommit fires in the cluster gatherer after every partition has
	// been collected but before the merged view is committed; a panicking
	// hook simulates the coordinator dying between gather and commit, an
	// erroring hook aborts the commit while the process survives. Either
	// way the previous committed view must keep serving.
	CoordCommit Point = "cluster/commit"
)

// Hook is one activated fault. arg carries site context — the shard index
// for pipeline points, zero elsewhere. A hook may return an error to
// inject, sleep to inject latency, or panic to inject a crash.
type Hook func(arg int) error

type table map[Point]Hook

var (
	mu    sync.Mutex // serializes Activate/deactivate
	hooks atomic.Pointer[table]
)

// Inject fires the hook activated at p, if any. With no hooks active it
// is a nil-op: one atomic load, no allocation, no branch beyond the nil
// check — cheap enough to leave in per-batch (not per-item) hot paths.
func Inject(p Point, arg int) error {
	t := hooks.Load()
	if t == nil {
		return nil
	}
	h, ok := (*t)[p]
	if !ok {
		return nil
	}
	return h(arg)
}

// Active reports whether a hook is activated at p.
func Active(p Point) bool {
	t := hooks.Load()
	if t == nil {
		return false
	}
	_, ok := (*t)[p]
	return ok
}

// Activate installs h at p and returns the function that removes it.
// Callers (tests) must invoke the returned deactivate, typically via
// t.Cleanup. Activating a point twice replaces the hook; either
// deactivate then clears it.
func Activate(p Point, h Hook) (deactivate func()) {
	set(p, h)
	return func() { set(p, nil) }
}

// set installs (h != nil) or clears (h == nil) the hook at p by swapping
// in a fresh table, so Inject never sees a map mid-mutation.
func set(p Point, h Hook) {
	mu.Lock()
	defer mu.Unlock()
	next := make(table)
	if t := hooks.Load(); t != nil {
		for k, v := range *t {
			next[k] = v
		}
	}
	if h == nil {
		delete(next, p)
	} else {
		next[p] = h
	}
	if len(next) == 0 {
		hooks.Store(nil)
		return
	}
	hooks.Store(&next)
}
