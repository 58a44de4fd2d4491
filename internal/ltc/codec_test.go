package ltc

import (
	"bytes"
	"errors"
	"testing"

	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

func buildWarm(t *testing.T) (*LTC, *stream.Stream) {
	t.Helper()
	s := gen.Generate(gen.Config{N: 20000, M: 2000, Periods: 10, Skew: 1.0,
		Head: 30, TailWindowFrac: 0.4, Seed: 3})
	l := New(Options{MemoryBytes: 8 * 1024, Weights: stream.Balanced,
		ItemsPerPeriod: s.ItemsPerPeriod(), Seed: 7})
	s.Replay(l)
	return l, s
}

func TestCheckpointRoundTrip(t *testing.T) {
	l, _ := buildWarm(t)
	img, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != l.ImageBytes() || cap(img) != l.ImageBytes() {
		t.Fatalf("image of %d bytes in a %d-byte buffer, ImageBytes says %d", len(img), cap(img), l.ImageBytes())
	}
	restored := New(Options{MemoryBytes: 1024}) // any shape; rebuilt on load
	if err := restored.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	// The operation counters ride the image (codec v3): the restored
	// tracker's snapshot is bit-identical, not zeroed.
	if got, want := restored.Stats(), l.Stats(); got != want {
		t.Fatalf("stats differ after restore:\ngot  %+v\nwant %+v", got, want)
	}
	if restored.Stats().Expulsions == 0 {
		t.Fatal("warm 8KB tracker should have expelled items; counters look zeroed")
	}
	// Identical TopK and identical future behaviour.
	a := l.TopK(50)
	b := restored.TopK(50)
	if len(a) != len(b) {
		t.Fatalf("TopK lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TopK[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Continue both with the same arrivals: they must stay identical.
	for i := 0; i < 5000; i++ {
		it := stream.Item(i % 333)
		l.Insert(it)
		restored.Insert(it)
	}
	l.EndPeriod()
	restored.EndPeriod()
	img1, _ := l.MarshalBinary()
	img2, _ := restored.MarshalBinary()
	if !bytes.Equal(img1, img2) {
		t.Fatal("restored tracker diverged from the original after more input")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	l, _ := buildWarm(t)
	img, _ := l.MarshalBinary()

	cases := map[string][]byte{
		"empty":     {},
		"truncated": img[:len(img)/2],
		"magic":     append([]byte{0, 0, 0, 0}, img[4:]...),
		"version": func() []byte {
			c := append([]byte(nil), img...)
			c[4] = 0xff
			return c
		}(),
		"extra": append(append([]byte(nil), img...), 1, 2, 3),
	}
	for name, data := range cases {
		fresh := New(Options{})
		if err := fresh.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
	// Version error is distinguishable.
	c := append([]byte(nil), img...)
	c[4] = 0x7f
	if err := New(Options{}).UnmarshalBinary(c); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("want ErrCheckpointVersion, got %v", err)
	}
}

func TestCheckpointPreservesOptions(t *testing.T) {
	l := New(Options{MemoryBytes: 4096, BucketWidth: 4,
		Weights:                    stream.Weights{Alpha: 2, Beta: 3},
		DisableLongTailReplacement: true, Seed: 99, ItemsPerPeriod: 500})
	l.Insert(42)
	img, _ := l.MarshalBinary()
	r := New(Options{})
	if err := r.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if r.Name() != "LTC-noLTR" {
		t.Fatalf("feature flags lost: %s", r.Name())
	}
	if r.BucketWidth() != 4 || r.Buckets() != l.Buckets() {
		t.Fatal("geometry lost")
	}
	e, ok := r.Query(42)
	if !ok || e.Frequency != 1 {
		t.Fatalf("cell contents lost: %+v ok=%v", e, ok)
	}
	w := stream.Weights{Alpha: 2, Beta: 3}
	if e.Significance != w.Significance(e.Frequency, e.Persistency) {
		t.Fatal("weights lost")
	}
}

func TestReset(t *testing.T) {
	l, s := buildWarm(t)
	l.Reset()
	if l.Occupancy() != 0 {
		t.Fatalf("occupancy %d after Reset", l.Occupancy())
	}
	if len(l.TopK(10)) != 0 {
		t.Fatal("TopK nonempty after Reset")
	}
	// The structure is reusable and behaves like new.
	s.Replay(l)
	if l.Occupancy() == 0 {
		t.Fatal("tracker unusable after Reset")
	}
}
