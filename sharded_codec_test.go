package sigstream

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestShardedCheckpointRoundTrip(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 32 << 10, Weights: Balanced, Seed: 2}, 4)
	for p := 0; p < 3; p++ {
		for i := 0; i < 100; i++ {
			s.Insert(Item(i + 1))
		}
		s.EndPeriod()
	}
	img, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSharded(Config{}, 1) // shape replaced on load
	if err := restored.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if restored.Shards() != 4 {
		t.Fatalf("restored %d shards, want 4", restored.Shards())
	}
	a := s.TopK(20)
	b := restored.TopK(20)
	if len(a) != len(b) {
		t.Fatalf("TopK size %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopK[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Restored tracker keeps working.
	restored.Insert(5)
	if _, ok := restored.Query(5); !ok {
		t.Fatal("restored tracker unusable")
	}
}

func TestShardedCheckpointRejectsGarbage(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 8 << 10}, 2)
	img, _ := s.MarshalBinary()
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte{1, 2, 3, 4}, img[4:]...),
		"truncated": img[:len(img)-3],
		"trailing":  append(append([]byte(nil), img...), 0xff),
	}
	for name, data := range cases {
		r := NewSharded(Config{}, 1)
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt sharded checkpoint accepted", name)
		}
	}
}

// TestShardedMarshalSizedUpFront: MarshalBinary sizes its buffer to the
// image exactly, so encoding it never regrows the buffer.
func TestShardedMarshalSizedUpFront(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 32 << 10, Seed: 3}, 3)
	for i := 0; i < 500; i++ {
		s.Insert(Item(i % 97))
	}
	s.EndPeriod()
	img, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != cap(img) {
		t.Fatalf("image of %d bytes in a %d-byte buffer", len(img), cap(img))
	}
	r := NewSharded(Config{}, 1)
	if err := r.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if got, want := r.TopK(100), s.TopK(100); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip ranks %v, want %v", got, want)
	}
}

// TestShardedUnmarshalForgedShardLength: a shard length larger than the
// bytes left is refused before anything is sliced or decoded, and the
// receiver keeps its shards.
func TestShardedUnmarshalForgedShardLength(t *testing.T) {
	s := NewSharded(Config{MemoryBytes: 8 << 10}, 2)
	img, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(forged[8:], 0xffffffff)
	r := NewSharded(Config{}, 3)
	if err := r.UnmarshalBinary(forged); !errors.Is(err, ErrBadShardedCheckpoint) {
		t.Fatalf("forged shard length: err %v, want ErrBadShardedCheckpoint", err)
	}
	if r.Shards() != 3 {
		t.Fatalf("a refused image left %d shards, want the receiver's 3", r.Shards())
	}
	// A header claiming more shards than the image has bytes for is
	// refused before the shard table is allocated.
	binary.LittleEndian.PutUint32(forged[4:], 1<<16)
	if err := r.UnmarshalBinary(forged[:16]); !errors.Is(err, ErrBadShardedCheckpoint) {
		t.Fatalf("forged shard count: err %v, want ErrBadShardedCheckpoint", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = r.UnmarshalBinary(forged[:16])
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16*(1<<16) {
		t.Fatalf("a 16-byte image claiming 65536 shards allocated %d bytes", grew)
	}
}
