package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sigstream"
	"sigstream/internal/fault"
	"sigstream/internal/snapshot"
	"sigstream/internal/wal"
)

// walConfig is a registry configuration with snapshots and a WAL, inline
// fsync so tests run deterministically fast.
func walConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Tracker: smallTracker(),
		Shards:  1,
		Dir:     filepath.Join(t.TempDir(), "snap"),
		WALDir:  filepath.Join(t.TempDir(), "wal"),
		Logger:  quietLogger(),
	}
}

// feed ingests batches sequentially and fails the test on any error.
func feed(t *testing.T, tn *Tenant, batches [][]string) {
	t.Helper()
	for i, b := range batches {
		if _, err := tn.Ingest(b); err != nil {
			t.Fatalf("Ingest batch %d: %v", i, err)
		}
	}
}

// topKeys flattens a ranking to its ordered keys for compact compares.
func topKeys(t *testing.T, tn *Tenant, k int) []string {
	t.Helper()
	top, err := tn.TopK(k)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	keys := make([]string, len(top))
	for i, e := range top {
		keys[i] = e.Key
	}
	return keys
}

// oracleTopK replays a workload into a fresh tracker of the registry's
// geometry and returns its exact TopK — the state a correct recovery must
// reproduce bit for bit.
func oracleTopK(cfg Config, k int, workload func(tr *sigstream.Sharded, km *sigstream.KeyMap)) []Entry {
	tr := sigstream.NewSharded(cfg.Tracker, cfg.Shards)
	km := sigstream.NewKeyMap()
	workload(tr, km)
	es := tr.TopK(k)
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{Key: km.Name(e.Item), Entry: e}
	}
	return out
}

// insert interns and inserts one batch, mirroring the tenant ingest path.
func insert(tr *sigstream.Sharded, km *sigstream.KeyMap, keys []string) {
	items := make([]sigstream.Item, len(keys))
	for i, k := range keys {
		items[i] = km.Intern(k)
	}
	tr.InsertBatch(items)
}

func TestWALReplayAfterAbandon(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"a", "b", "a"}, {"c", "a"}, {"b", "b", "d"}})
	if _, err := tn.EndPeriod(); err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"e", "a", "a"}})
	// Abandon the registry without Close — the in-process kill -9
	// analogue. Every ingest was acked, so every record is fsynced.
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopK(cfg, 10, func(tr *sigstream.Sharded, km *sigstream.KeyMap) {
		insert(tr, km, []string{"a", "b", "a"})
		insert(tr, km, []string{"c", "a"})
		insert(tr, km, []string{"b", "b", "d"})
		tr.EndPeriod()
		insert(tr, km, []string{"e", "a", "a"})
	})
	got, err := tn2.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed TopK:\n got %+v\nwant %+v", got, want)
	}
	if a := tn2.Arrivals(); a != 11 {
		t.Fatalf("Arrivals = %d, want 11", a)
	}
	if p := tn2.Periods(); p != 1 {
		t.Fatalf("Periods = %d, want 1", p)
	}
}

func TestWALSnapshotCutReplaysOnlyTail(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"pre", "pre"}, {"snap"}})
	if _, err := tn.Save(); err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"post", "pre"}})
	st, ok := tn.WALStats()
	if !ok {
		t.Fatal("no WAL stats on a WAL-enabled tenant")
	}
	if st.Rotations == 0 {
		t.Fatalf("save did not rotate the WAL: %+v", st)
	}
	// Abandon and recover in a second registry; the snapshot covers the
	// first two batches, replay must add exactly the third.
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopK(cfg, 10, func(tr *sigstream.Sharded, km *sigstream.KeyMap) {
		insert(tr, km, []string{"pre", "pre"})
		insert(tr, km, []string{"snap"})
		insert(tr, km, []string{"post", "pre"})
	})
	got, err := tn2.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cut replay TopK:\n got %+v\nwant %+v", got, want)
	}
	stats, err := tn2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastRecovery == "fresh" || stats.LastRecovery == "" {
		t.Fatalf("recovery = %q, want snapshot + wal tail", stats.LastRecovery)
	}
}

func TestWALSpillReviveReplaysOwnTail(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	defer r.Close()
	a, err := r.GetOrCreate("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.GetOrCreate("beta")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, [][]string{{"x", "x", "y"}})
	feed(t, b, [][]string{{"z"}, {"z", "w"}})
	wantA := topKeys(t, a, 10)
	// Spill alpha (save + close its log), mutate beta, revive alpha: the
	// revive must replay only alpha's tail and reproduce its rankings.
	spilled, err := a.Spill()
	if err != nil || !spilled {
		t.Fatalf("Spill = %v, %v", spilled, err)
	}
	if _, ok := a.WALStats(); ok {
		t.Fatal("spilled tenant still holds an open WAL")
	}
	feed(t, b, [][]string{{"w", "w", "w"}})
	gotA := topKeys(t, a, 10) // revives transparently
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("revived rankings %v, want %v", gotA, wantA)
	}
	if !a.Resident() {
		t.Fatal("tenant not resident after revive")
	}
	wantB := oracleTopK(cfg, 10, func(tr *sigstream.Sharded, km *sigstream.KeyMap) {
		insert(tr, km, []string{"z"})
		insert(tr, km, []string{"z", "w"})
		insert(tr, km, []string{"w", "w", "w"})
	})
	gotB, err := b.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("neighbour rankings disturbed:\n got %+v\nwant %+v", gotB, wantB)
	}
}

func TestWALAppendFaultNacksAndSkipsApply(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"kept"}})
	boom := errors.New("injected append fault")
	deactivate := fault.Activate(fault.WALAppend, func(int) error { return boom })
	_, err = tn.Ingest([]string{"lost"})
	deactivate()
	if !errors.Is(err, boom) {
		t.Fatalf("Ingest under append fault = %v, want injected error", err)
	}
	// The nacked batch must be neither applied now nor replayed later.
	if _, ok, err := tn.Query("lost"); err != nil || ok {
		t.Fatalf("nacked key visible: ok=%v err=%v", ok, err)
	}
	if a := tn.Arrivals(); a != 1 {
		t.Fatalf("Arrivals = %d, want 1", a)
	}
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tn2.Query("lost"); err != nil || ok {
		t.Fatalf("nacked key replayed: ok=%v err=%v", ok, err)
	}
	if _, ok, err := tn2.Query("kept"); err != nil || !ok {
		t.Fatalf("acked key missing after replay: ok=%v err=%v", ok, err)
	}
}

func TestWALRestoreReplays(t *testing.T) {
	cfg := walConfig(t)
	// Donor state to restore from, same geometry as the tenant's.
	donor := sigstream.NewSharded(cfg.Tracker, cfg.Shards)
	donor.Insert(sigstream.HashKey("donor-key"))
	img, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(cfg)
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"overwritten"}})
	if err := tn.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"after-restore"}})
	want := topKeys(t, tn, 10)
	// Recover from the log alone: replay must apply batch, restore, batch
	// in order — the restore record swaps trackers at its logged position.
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := topKeys(t, tn2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore replay rankings %v, want %v", got, want)
	}
	if _, ok, err := tn2.Query("overwritten"); err != nil || ok {
		t.Fatalf("pre-restore key survived replay: ok=%v err=%v", ok, err)
	}
}

func TestWALDiskBoundedAcrossSaves(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALSegmentBytes = 256
	r := NewRegistry(cfg)
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	var last wal.Stats
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 30; i++ {
			feed(t, tn, [][]string{{fmt.Sprintf("cycle-%d-key-%02d", cycle, i)}})
		}
		if _, err := tn.Save(); err != nil {
			t.Fatal(err)
		}
		st, ok := tn.WALStats()
		if !ok {
			t.Fatal("no WAL stats")
		}
		// Retention keeps snapshot.DefaultRetain cuts; segments below the
		// oldest retained cut are deleted, so the on-disk set stays bounded
		// by the retention window no matter how many cycles run.
		if st.Segments > 24 {
			t.Fatalf("cycle %d: %d segments on disk, disk unbounded: %+v",
				cycle, st.Segments, st)
		}
		last = st
	}
	if last.Truncations == 0 {
		t.Fatalf("no segment was ever truncated: %+v", last)
	}
	if last.Rotations < 6 {
		t.Fatalf("Rotations = %d, want at least one per save", last.Rotations)
	}
}

func TestWALWithoutSnapshotsReplaysWhole(t *testing.T) {
	cfg := walConfig(t)
	cfg.Dir = "" // WAL-only durability
	r := NewRegistry(cfg)
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"only", "wal"}, {"only"}})
	want := topKeys(t, tn, 10)
	r2 := NewRegistry(cfg)
	defer r2.Close()
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := topKeys(t, tn2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("wal-only replay rankings %v, want %v", got, want)
	}
}

func TestWALDeleteRemovesLog(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	feed(t, tn, [][]string{{"gone"}})
	if err := r.Delete("acme"); err != nil {
		t.Fatal(err)
	}
	// A fresh registry must not resurrect the deleted tenant's data.
	r2 := NewRegistry(cfg)
	defer r2.Close()
	if _, err := r2.Get("acme"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tenant re-registered: %v", err)
	}
	tn2, err := r2.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tn2.Query("gone"); err != nil || ok {
		t.Fatalf("deleted tenant's data replayed: ok=%v err=%v", ok, err)
	}
}

func TestWALPinnedDefaultReplay(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	def, err := r.Pin(DefaultNamespace, PinOptions{Tracker: cfg.Tracker, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, def, [][]string{{"pinned", "pinned", "other"}})
	want := topKeys(t, def, 10)
	// New process: the first touch loads the pinned tenant, replaying the
	// default namespace's log from zero (no snapshot was taken).
	r2 := NewRegistry(cfg)
	defer r2.Close()
	def2, err := r2.Pin(DefaultNamespace, PinOptions{Tracker: cfg.Tracker, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := topKeys(t, def2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned replay rankings %v, want %v", got, want)
	}
	// Layer snapshots on: AttachDir must rebuild the touched tenant from
	// snapshot + tail with the same result, not double-apply.
	if err := r2.AttachDir(cfg.Dir); err != nil {
		t.Fatal(err)
	}
	if got := topKeys(t, def2, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-AttachDir rankings %v, want %v", got, want)
	}
	if a := def2.Arrivals(); a != 3 {
		t.Fatalf("Arrivals = %d, want 3 (double replay?)", a)
	}
}

// TestWALPinnedRestartReplaysOnce restarts a pinned default tenant the
// way the server does (WAL configured up front, snapshots attached after
// Pin) from three retained snapshots and a 25-batch log tail. Pin must
// load nothing; AttachDir must load the newest snapshot and replay only
// the tail past its cut, landing on exactly the acknowledged stream.
func TestWALPinnedRestartReplaysOnce(t *testing.T) {
	cfg := Config{
		Tracker: smallTracker(),
		Shards:  1,
		WALDir:  filepath.Join(t.TempDir(), "wal"),
		Logger:  quietLogger(),
	}
	snapDir := filepath.Join(t.TempDir(), "snap")
	pin := PinOptions{Tracker: cfg.Tracker, Shards: 1}
	r := NewRegistry(cfg)
	r.SetRetain(3)
	def, err := r.Pin(DefaultNamespace, pin)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AttachDir(snapDir); err != nil {
		t.Fatal(err)
	}
	var stream [][]string
	ingest := func(batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			n := len(stream)
			b := []string{fmt.Sprintf("k%d", n%7), fmt.Sprintf("k%d", n%13)}
			stream = append(stream, b)
			feed(t, def, [][]string{b})
		}
	}
	var newest string
	for round := 0; round < 3; round++ {
		ingest(40)
		name, err := def.Save()
		if err != nil || name == "" {
			t.Fatalf("Save = %q, %v", name, err)
		}
		newest = name
	}
	ingest(25)
	// Abandon the registry without Close: every batch was acked, so the
	// three retained snapshots and the log tail are all on disk.

	r2 := NewRegistry(cfg)
	defer r2.Close()
	r2.SetRetain(3)
	def2, err := r2.Pin(DefaultNamespace, pin)
	if err != nil {
		t.Fatal(err)
	}
	if def2.Resident() || def2.Arrivals() != 0 || def2.KeyCount() != 0 {
		t.Fatalf("after Pin: resident=%v arrivals=%d keys=%d, want nothing loaded",
			def2.Resident(), def2.Arrivals(), def2.KeyCount())
	}
	if _, ok := def2.TrackerStats(); ok {
		t.Fatal("after Pin: tracker already built")
	}
	if err := r2.AttachDir(snapDir); err != nil {
		t.Fatal(err)
	}
	if !def2.Resident() {
		t.Fatal("after AttachDir: pinned tenant not loaded")
	}
	want := oracleTopK(cfg, 20, func(tr *sigstream.Sharded, km *sigstream.KeyMap) {
		for _, b := range stream {
			insert(tr, km, b)
		}
	})
	got, err := def2.TopK(20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered TopK:\n got %+v\nwant %+v", got, want)
	}
	if a, w := def2.Arrivals(), uint64(2*len(stream)); a != w {
		t.Fatalf("Arrivals = %d, want %d", a, w)
	}
	st, err := def2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if w := "recovered " + newest + " +25 wal records"; st.LastRecovery != w {
		t.Fatalf("LastRecovery = %q, want %q", st.LastRecovery, w)
	}
}

// TestLegacyRootSnapshotRevivesDefault: a snapshot written at the root of
// the snapshot directory, from before the tenant layout, revives into the
// pinned default tenant, whether AttachDir loads it or the first touch
// does from Config.Dir. Another pinned tenant does not pick it up.
func TestLegacyRootSnapshotRevivesDefault(t *testing.T) {
	cfg := smallTracker()
	donor := sigstream.NewSharded(cfg, 1)
	donor.Insert(sigstream.HashKey("legacy"))
	donor.EndPeriod()
	img, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pin := PinOptions{Tracker: cfg, Shards: 1}
	for _, attach := range []bool{true, false} {
		t.Run(fmt.Sprintf("attach=%v", attach), func(t *testing.T) {
			dir := t.TempDir()
			file, err := snapshot.WriteFileTo(dir, 0, func(w io.Writer) error {
				_, err := w.Write(img)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			rc := Config{Tracker: cfg, Shards: 1, Logger: quietLogger()}
			if !attach {
				rc.Dir = dir
			}
			r := NewRegistry(rc)
			defer r.Close()
			def, err := r.Pin(DefaultNamespace, pin)
			if err != nil {
				t.Fatal(err)
			}
			other, err := r.Pin("other", pin)
			if err != nil {
				t.Fatal(err)
			}
			if attach {
				if err := r.AttachDir(dir); err != nil {
					t.Fatal(err)
				}
			}
			e, ok, err := def.Query("legacy")
			if err != nil || !ok || e.Frequency != 1 || e.Persistency != 1 {
				t.Fatalf("default Query(legacy) = %+v, %v, %v", e, ok, err)
			}
			st, err := def.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if w := "recovered " + file; st.LastRecovery != w || st.Revives != 1 {
				t.Fatalf("LastRecovery = %q, Revives = %d; want %q, 1", st.LastRecovery, st.Revives, w)
			}
			if _, ok, err := other.Query("legacy"); err != nil || ok {
				t.Fatalf("other pinned tenant revived the root snapshot: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestWALStatsSurface(t *testing.T) {
	cfg := walConfig(t)
	r := NewRegistry(cfg)
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tn.WALStats(); ok {
		t.Fatal("non-resident tenant reports WAL stats")
	}
	feed(t, tn, [][]string{{"a"}, {"b"}})
	st, ok := tn.WALStats()
	if !ok {
		t.Fatal("resident WAL-enabled tenant reports no stats")
	}
	if st.Appends != 2 || st.Syncs == 0 || st.DiskBytes == 0 {
		t.Fatalf("unexpected WAL stats: %+v", st)
	}
}

// TestIngestWireMatchesIngest feeds one stream, with period closes,
// through Ingest on one WAL-enabled tenant and through IngestWire on
// another: once as unit-weight records (nil Weights) and once as weighted
// records whose weights equal Ingest's repeats. The two entry points must
// leave byte-identical checkpoint images, the same key names and
// byte-identical WAL segments, so tests and the ledger that drive Ingest
// speak for the binary path too. The unique stream carries more distinct
// keys than the 2048 names a 16 KiB tenant holds, so both tenants prune.
func TestIngestWireMatchesIngest(t *testing.T) {
	type record struct {
		key string
		w   uint32
	}
	// Four periods of three batches over 3000 keys: enough churn in a
	// 16 KiB tracker to exercise admission and replacement. The unique
	// stream adds 300 never-repeated keys to every batch.
	stream := func(uniquePerBatch int) [][][]record {
		rng := rand.New(rand.NewSource(7))
		var periods [][][]record
		unique := 0
		for p := 0; p < 4; p++ {
			var batches [][]record
			for b := 0; b < 3; b++ {
				var batch []record
				for i := 0; i < 200; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(1+rng.Intn(3000)))
					batch = append(batch, record{key, uint32(1 + rng.Intn(4))})
				}
				for i := 0; i < uniquePerBatch; i++ {
					batch = append(batch, record{fmt.Sprintf("u%d", unique), uint32(1 + rng.Intn(2))})
					unique++
				}
				batches = append(batches, batch)
			}
			periods = append(periods, batches)
		}
		return periods
	}

	for _, tc := range []struct {
		name     string
		unique   int
		weighted bool
	}{
		{"weighted=false", 0, false},
		{"weighted=true", 0, true},
		{"unique/weighted=false", 300, false},
		{"unique/weighted=true", 300, true},
	} {
		periods, weighted := stream(tc.unique), tc.weighted
		t.Run(tc.name, func(t *testing.T) {
			cfg := walConfig(t)
			r := NewRegistry(cfg)
			defer r.Close()
			text, err := r.GetOrCreate("text")
			if err != nil {
				t.Fatal(err)
			}
			wire, err := r.GetOrCreate("wire")
			if err != nil {
				t.Fatal(err)
			}
			for _, batches := range periods {
				for _, batch := range batches {
					var keys []string
					var b WireBatch
					for _, rec := range batch {
						item := sigstream.HashKey(rec.key)
						for j := uint32(0); j < rec.w; j++ {
							keys = append(keys, rec.key)
							b.Items = append(b.Items, item)
							if !weighted {
								b.Keys = append(b.Keys, []byte(rec.key))
							}
						}
						if weighted {
							b.Keys = append(b.Keys, []byte(rec.key))
							b.Weights = append(b.Weights, rec.w)
						}
					}
					if n, err := text.Ingest(keys); err != nil || n != len(keys) {
						t.Fatalf("Ingest = %d, %v", n, err)
					}
					if n, err := wire.IngestWire(b); err != nil || n != len(keys) {
						t.Fatalf("IngestWire = %d, %v", n, err)
					}
				}
				for _, tn := range []*Tenant{text, wire} {
					if _, err := tn.EndPeriod(); err != nil {
						t.Fatal(err)
					}
				}
			}

			imgText, err := text.CheckpointImage()
			if err != nil {
				t.Fatal(err)
			}
			imgWire, err := wire.CheckpointImage()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(imgText, imgWire) {
				t.Fatalf("checkpoint images diverge: %d vs %d bytes", len(imgText), len(imgWire))
			}
			nt, nw := keyNamesByItem(text), keyNamesByItem(wire)
			if !reflect.DeepEqual(nt, nw) {
				t.Fatalf("key names diverge: %d via Ingest, %d via IngestWire", len(nt), len(nw))
			}
			distinct := map[string]bool{}
			for _, batches := range periods {
				for _, batch := range batches {
					for _, rec := range batch {
						distinct[rec.key] = true
					}
				}
			}
			if tc.unique > 0 && (len(nt) >= len(distinct) || len(nt) > 2*1024) {
				t.Fatalf("%d names held of %d distinct keys: the unique stream did not prune", len(nt), len(distinct))
			}
			segText, segWire := walSegments(t, cfg, "text"), walSegments(t, cfg, "wire")
			if len(segText) == 0 {
				t.Fatal("no WAL segments written")
			}
			if !reflect.DeepEqual(segText, segWire) {
				t.Fatal("WAL segments diverge between Ingest and IngestWire")
			}
		})
	}
}

// keyNamesByItem copies a tenant's interned key names.
func keyNamesByItem(tn *Tenant) map[sigstream.Item]string {
	tn.keysMu.Lock()
	defer tn.keysMu.Unlock()
	names := make(map[sigstream.Item]string, tn.keys.Len())
	tn.keys.Range(func(item sigstream.Item, key string) bool {
		names[item] = key
		return true
	})
	return names
}

// walSegments reads every file in a tenant's WAL directory, by name.
func walSegments(t *testing.T, cfg Config, ns string) map[string][]byte {
	t.Helper()
	dir := filepath.Join(cfg.WALDir, ns)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if segs[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return segs
}
