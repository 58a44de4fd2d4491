package tenant

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sigstream"
)

// wireRecords builds a WireBatch from distinct-record keys and weights
// (nil weights: one arrival per key), expanding Items as decoders do.
func wireRecords(keys []string, weights []uint32) WireBatch {
	b := WireBatch{Keys: make([][]byte, len(keys)), Weights: weights}
	for i, k := range keys {
		b.Keys[i] = []byte(k)
		n := uint32(1)
		if weights != nil {
			n = weights[i]
		}
		for j := uint32(0); j < n; j++ {
			b.Items = append(b.Items, sigstream.HashKey(k))
		}
	}
	return b
}

// hexKeys lists the ranked keys that rendered as hex, i.e. lost their
// names.
func hexKeys(top []Entry) []string {
	var out []string
	for _, e := range top {
		if strings.HasPrefix(e.Key, "0x") {
			out = append(out, e.Key)
		}
	}
	return out
}

// TestKeyNamesBoundedByCells feeds 50k unique keys and 5 heavy keys into
// a 64-cell tenant: after every batch the tenant holds at most 128 names,
// and every ranked item, the heavy keys included, keeps its exact name.
func TestKeyNamesBoundedByCells(t *testing.T) {
	heavy := []string{"heavy-a", "heavy-b", "heavy-c", "heavy-d", "heavy-e"}
	for _, weighted := range []bool{false, true} {
		t.Run(fmt.Sprintf("weighted=%v", weighted), func(t *testing.T) {
			r := NewRegistry(Config{Tracker: sigstream.Config{MemoryBytes: 1 << 10}, Shards: 2, Logger: quietLogger()})
			defer r.Close()
			tn, err := r.GetOrCreate("bounded")
			if err != nil {
				t.Fatal(err)
			}
			st, err := tn.Stats()
			if err != nil {
				t.Fatal(err)
			}
			cells := st.Tracker.Cells
			if cells != 64 {
				t.Fatalf("cells = %d, want 64", cells)
			}
			unique := 0
			for p := 0; p < 100; p++ {
				for b := 0; b < 5; b++ {
					var keys []string
					var weights []uint32
					for i := 0; i < 100; i++ {
						keys = append(keys, fmt.Sprintf("u%d", unique))
						unique++
						weights = append(weights, 1)
					}
					for _, h := range heavy {
						if weighted {
							keys = append(keys, h)
							weights = append(weights, 4)
							continue
						}
						for j := 0; j < 4; j++ {
							keys = append(keys, h)
						}
					}
					if !weighted {
						weights = nil
					}
					if _, err := tn.IngestWire(wireRecords(keys, weights)); err != nil {
						t.Fatal(err)
					}
					if n := tn.KeyCount(); n > 2*cells {
						t.Fatalf("period %d batch %d: %d names for %d cells", p, b, n, cells)
					}
				}
				if _, err := tn.EndPeriod(); err != nil {
					t.Fatal(err)
				}
			}
			top, err := tn.TopK(cells)
			if err != nil {
				t.Fatal(err)
			}
			if hex := hexKeys(top); len(hex) > 0 {
				t.Fatalf("%d of %d ranked items lost their names: %v", len(hex), len(top), hex)
			}
			for _, h := range heavy {
				e, ok, err := tn.Query(h)
				if err != nil || !ok {
					t.Fatalf("heavy key %s not tracked: %v", h, err)
				}
				found := false
				for _, te := range top {
					if te.Item == e.Item {
						found = true
						if te.Key != h {
							t.Fatalf("heavy item %#x named %q, want %q", te.Item, te.Key, h)
						}
					}
				}
				if !found {
					t.Fatalf("heavy key %s missing from the ranking", h)
				}
			}
		})
	}
}

// TestWALReplayKeepsNames saves a pruning tenant mid-stream, abandons its
// registry, and restarts: snapshot recovery plus WAL replay must leave
// exactly the live tenant's names, and so must a spill and revive.
func TestWALReplayKeepsNames(t *testing.T) {
	cfg := walConfig(t) // 16 KiB, 1024 cells: 2048 names at most
	r := NewRegistry(cfg)
	tn, err := r.GetOrCreate("names")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	unique := 0
	for b := 0; b < 60; b++ {
		var keys []string
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				keys = append(keys, fmt.Sprintf("h%d", rng.Intn(1+rng.Intn(400))))
			} else {
				keys = append(keys, fmt.Sprintf("u%d", unique))
				unique++
			}
		}
		if _, err := tn.Ingest(keys); err != nil {
			t.Fatal(err)
		}
		if b%6 == 5 {
			if _, err := tn.EndPeriod(); err != nil {
				t.Fatal(err)
			}
		}
		if b == 29 {
			if _, err := tn.Save(); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := keyNamesByItem(tn)
	if len(live) > 2*1024 || unique <= len(live) {
		t.Fatalf("live tenant holds %d names after %d unique keys: no pruning", len(live), unique)
	}
	// Abandon r without Close: the in-process kill -9.
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("names")
	if err != nil {
		t.Fatal(err)
	}
	st, err := tn2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.LastRecovery, "wal records") {
		t.Fatalf("recovery %q replayed no WAL tail", st.LastRecovery)
	}
	if got := keyNamesByItem(tn2); !reflect.DeepEqual(got, live) {
		t.Fatalf("after replay: %d names, live tenant %d", len(got), len(live))
	}
	if ok, err := tn2.Spill(); err != nil || !ok {
		t.Fatalf("Spill = %v, %v", ok, err)
	}
	if _, err := tn2.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := keyNamesByItem(tn2); !reflect.DeepEqual(got, live) {
		t.Fatalf("after spill and revive: %d names, live tenant %d", len(got), len(live))
	}
}

// TestKeyNamesConcurrentIngest runs four writers with overlapping keys
// and a reader against one tenant: once the writers are done, no ranked
// item may have lost its name to a concurrent prune. The subtest keeps
// the name it had when a pipelined tenant ran beside it.
func TestKeyNamesConcurrentIngest(t *testing.T) {
	t.Run("pipeline=false", func(t *testing.T) {
		r := NewRegistry(Config{Tracker: smallTracker(), Shards: 2, Logger: quietLogger()})
		defer r.Close()
		tn, err := r.GetOrCreate("plain")
		if err != nil {
			t.Fatal(err)
		}
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(seed int64) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(seed))
				for b := 0; b < 150; b++ {
					keys := make([]string, 64)
					for i := range keys {
						keys[i] = fmt.Sprintf("k%d", rng.Intn(1+rng.Intn(6000)))
					}
					if _, err := tn.Ingest(keys); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(w))
		}
		done := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := tn.TopK(100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		writers.Wait()
		close(done)
		reader.Wait()
		top, err := tn.TopK(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) == 0 {
			t.Fatal("empty ranking")
		}
		if hex := hexKeys(top); len(hex) > 0 {
			t.Fatalf("%d of %d ranked items lost their names: %v", len(hex), len(top), hex)
		}
		st, err := tn.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Keys > 2*st.Tracker.Cells {
			t.Fatalf("%d names for %d cells", st.Keys, st.Tracker.Cells)
		}
	})
}
