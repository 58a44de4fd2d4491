package sigstream

import (
	"errors"
	"testing"
)

func TestMergeCheckpoints(t *testing.T) {
	cfg := Config{MemoryBytes: 16 << 10, Seed: 3}
	images := make([][]byte, 3)
	for site := 0; site < 3; site++ {
		tr := New(cfg)
		for p := 0; p < 2; p++ {
			for i := 0; i < 5; i++ {
				tr.Insert(Item(site*100 + i + 1))
			}
			tr.EndPeriod()
		}
		img, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		images[site] = img
	}
	global, err := MergeCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 3; site++ {
		e, ok := global.Query(Item(site*100 + 1))
		if !ok || e.Frequency != 2 || e.Persistency != 2 {
			t.Fatalf("site %d item missing or wrong: %+v ok=%v", site, e, ok)
		}
	}
}

func TestMergeShardedCheckpoints(t *testing.T) {
	cfg := Config{MemoryBytes: 64 << 10, Seed: 3}
	const shards = 4
	images := make([][]byte, 3)
	for site := 0; site < 3; site++ {
		tr := NewSharded(cfg, shards)
		for p := 0; p < 2; p++ {
			for i := 0; i < 5; i++ {
				tr.Insert(Item(site*100 + i + 1))
			}
			tr.EndPeriod()
		}
		img, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		images[site] = img
	}
	global, err := MergeShardedCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	if global.Shards() != shards {
		t.Fatalf("merged tracker has %d shards, want %d", global.Shards(), shards)
	}
	for site := 0; site < 3; site++ {
		for i := 0; i < 5; i++ {
			item := Item(site*100 + i + 1)
			e, ok := global.Query(item)
			if !ok || e.Frequency != 2 || e.Persistency != 2 {
				t.Fatalf("site %d item %d missing or wrong: %+v ok=%v", site, item, e, ok)
			}
		}
	}
	// The merged view's top-k sees every site's items.
	if got := len(global.TopK(32)); got != 15 {
		t.Fatalf("merged TopK holds %d items, want 15", got)
	}
}

func TestMergeShardedCheckpointsErrors(t *testing.T) {
	if _, err := MergeShardedCheckpoints(); !errors.Is(err, ErrNoCheckpoints) {
		t.Fatalf("want ErrNoCheckpoints, got %v", err)
	}
	if _, err := MergeShardedCheckpoints([]byte("garbage")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	cfg := Config{MemoryBytes: 64 << 10, Seed: 3}
	a := NewSharded(cfg, 4)
	a.Insert(1)
	imgA, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardedCheckpoints(imgA, []byte("garbage")); err == nil {
		t.Fatal("garbage second checkpoint accepted")
	}
	// Mismatched shard counts must be rejected, not silently cross-merged.
	b := NewSharded(cfg, 2)
	b.Insert(2)
	imgB, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardedCheckpoints(imgA, imgB); err == nil {
		t.Fatal("mismatched shard counts accepted")
	}
	// Same shard count, different geometry: the per-shard merge must fail.
	c := NewSharded(Config{MemoryBytes: 128 << 10, Seed: 3}, 4)
	c.Insert(3)
	imgC, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardedCheckpoints(imgA, imgC); err == nil {
		t.Fatal("incompatible shard geometry accepted")
	}
}

func TestMergeCheckpointsErrors(t *testing.T) {
	if _, err := MergeCheckpoints(); !errors.Is(err, ErrNoCheckpoints) {
		t.Fatalf("want ErrNoCheckpoints, got %v", err)
	}
	if _, err := MergeCheckpoints([]byte("garbage")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	// Valid first + garbage second.
	tr := New(Config{MemoryBytes: 4096})
	tr.Insert(1)
	img, _ := tr.MarshalBinary()
	if _, err := MergeCheckpoints(img, []byte("garbage")); err == nil {
		t.Fatal("garbage second checkpoint accepted")
	}
	// Incompatible configurations.
	other := New(Config{MemoryBytes: 8192})
	other.Insert(2)
	img2, _ := other.MarshalBinary()
	if _, err := MergeCheckpoints(img, img2); err == nil {
		t.Fatal("incompatible checkpoints accepted")
	}
}

// TestCheckpointTag: a Sharded image decodes to the tag of the tracker it
// came from, and the tag changes with either number it formats.
func TestCheckpointTag(t *testing.T) {
	tag := func(s *Sharded) string {
		st := s.Stats()
		return CheckpointTag(st.Periods, st.Arrivals)
	}
	src := NewSharded(Config{MemoryBytes: 16 << 10, Seed: 3}, 2)
	for p := 0; p < 3; p++ {
		for i := 1; i <= 50; i++ {
			src.Insert(Item(i * (p + 1)))
		}
		src.EndPeriod()
	}
	img, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := new(Sharded)
	if err := dec.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if got, want := tag(dec), tag(src); got != want || want != `"3.150"` {
		t.Fatalf("decoded tag %s, source tag %s, want both \"3.150\"", got, want)
	}
	src.Insert(7)
	if tag(src) == tag(dec) {
		t.Fatal("an insert left the tag unchanged")
	}
	if CheckpointTag(1, 23) == CheckpointTag(12, 3) {
		t.Fatal("tags of (1, 23) and (12, 3) collide")
	}
}
