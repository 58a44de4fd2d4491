package sigstream

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sigstream/internal/fault"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateShards holds the pipeline workers of every shard for which held
// reports true (through fault.PipelineSlow) until release is called. Its
// cleanup releases them, and runs before the cleanups registered earlier,
// such as a pipeline's Close.
func gateShards(t *testing.T, held func(shard int) bool) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	deactivate := fault.Activate(fault.PipelineSlow, func(shard int) error {
		if held(shard) {
			<-gate
		}
		return nil
	})
	t.Cleanup(func() {
		release()
		deactivate()
	})
	return release
}

// TestChaosPipelineSlowShardBackpressure stalls shard 0's worker and checks
// the ring bound holds: submissions back its ring up to RingSize and then
// block the producer (counted as stalls) instead of queueing without
// limit, and everything drains once the stall clears.
func TestChaosPipelineSlowShardBackpressure(t *testing.T) {
	const ringSize, batches = 2, 16
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 2)
	p := tr.Pipeline(PipelineOptions{RingSize: ringSize})
	t.Cleanup(func() { _ = p.Close() })
	release := gateShards(t, func(shard int) bool { return shard == 0 })

	item := Item(0)
	for shardOf(item, 2) != 0 {
		item++
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < batches && err == nil; i++ {
			err = p.Submit([]Item{item})
		}
		done <- err
	}()
	// One batch occupies the held worker, RingSize more fill the ring, and
	// the next send blocks the producer.
	waitFor(t, "the ring behind the slow shard to fill and stall the producer", func() bool {
		st := p.Stats()
		return st.RingDepth[0] == ringSize && st.Stalls > 0
	})
	select {
	case err := <-done:
		t.Fatalf("%d submits into a %d-deep ring behind a held worker returned early (err=%v)",
			batches, ringSize, err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if e, ok := tr.Query(item); !ok || e.Frequency != batches {
		t.Fatalf("slow shard drained %+v (found %v), want frequency %d", e, ok, batches)
	}
	if st := p.Stats(); st.RingDepth[0] != 0 || st.Items != batches {
		t.Fatalf("after the drain: %+v, want empty rings and %d items", st, batches)
	}
}

// TestChaosPipelineSinkPanicPoisons injects a tracker panic on shard 2 of
// four. The first panic poisons the pipeline at once: every entry point
// reports an error naming the shard and carrying the panic payload, Flush
// still returns (the workers keep draining), and Dropped counts the
// panicking sub-batch, the sub-batches that reached their workers after
// it, and every later Submit.
func TestChaosPipelineSinkPanicPoisons(t *testing.T) {
	const payload = "injected tracker panic"
	tr := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced,
		ItemsPerPeriod: 1000}, 4)
	p := tr.Pipeline(PipelineOptions{})
	t.Cleanup(func() { _ = p.Close() })
	deactivate := fault.Activate(fault.PipelineSink, func(shard int) error {
		if shard == 2 {
			panic(payload)
		}
		return nil
	})
	t.Cleanup(deactivate)
	// Hold the other shards until shard 2 has panicked, so their runs of
	// the same batch reach their workers after the poison.
	release := gateShards(t, func(shard int) bool { return shard != 2 })

	items := seqItems(0, 1000)
	if err := p.Submit(items); err != nil {
		t.Fatalf("Submit before the panic: %v", err)
	}
	waitFor(t, "shard 2's panic to poison the pipeline", func() bool { return p.Err() != nil })
	release()

	for _, c := range []struct {
		name string
		err  error
	}{
		{"Flush", p.Flush()},
		{"Submit", p.Submit(items)},
		{"Err", p.Err()},
		{"Close", p.Close()},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), "shard 2") ||
			!strings.Contains(c.err.Error(), payload) {
			t.Errorf("%s = %v, want an error naming shard 2 and the payload %q",
				c.name, c.err, payload)
		}
	}
	if got, want := p.Stats().Dropped, uint64(2*len(items)); got != want {
		t.Errorf("Dropped = %d, want %d: both batches, since every run of the first reached its worker at or after the panic",
			got, want)
	}
	if got := tr.Stats().Arrivals; got != 0 {
		t.Errorf("tracker applied %d arrivals after the poison, want 0", got)
	}
}
