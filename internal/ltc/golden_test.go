package ltc

// Golden-fixture regression tests for the core refactors: the fixtures in
// testdata/golden_core.json were generated from the pre-SoA build (PR 2,
// array-of-structs cells, float64 significance comparisons, `%` bucket
// reduction) and pin the exact observable behavior of the tracker — TopK
// ranking, per-item Query estimates, occupancy, and the byte-exact
// checkpoint image. The SoA layout, the fixed-point comparator and the
// Lemire multiply-shift reduction are all required to be bit-identical
// refactors, so these fixtures must keep passing unchanged.
//
// Each case also pins merged_sha256: the checkpoint image after merging a
// peer tracker of the same configuration, built over an overlapping
// stream, into the case's tracker. Those hashes were generated with the
// map-and-sort Merge kept in merge_ref_test.go, so the allocation-free
// merge kernel is held to its exact output.
//
// Regenerate (only for a deliberate, documented behavior change) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/ltc -run TestGoldenCore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sigstream/internal/stream"
)

// goldenStream derives a deterministic, skewed item stream from a seed
// without depending on math/rand internals: splitmix64 drives a two-level
// mixture of a small hot set and a long tail.
func goldenStream(seed uint64, n int) []stream.Item {
	items := make([]stream.Item, n)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range items {
		r := next()
		switch {
		case r%100 < 60: // hot set of 32 items
			items[i] = 1 + r>>32%32
		case r%100 < 85: // warm set of 1024 items
			items[i] = 1000 + r>>32%1024
		default: // long tail
			items[i] = 1_000_000 + r>>32%100_000
		}
	}
	return items
}

type goldenCase struct {
	Name    string  `json:"name"`
	Mem     int     `json:"mem"`
	Width   int     `json:"width"`
	Alpha   float64 `json:"alpha"`
	Beta    float64 `json:"beta"`
	Policy  int     `json:"policy"`
	NoDE    bool    `json:"no_de,omitempty"`
	Decay   float64 `json:"decay,omitempty"`
	Seed    uint32  `json:"seed"`
	N       int     `json:"n"`
	Periods int     `json:"periods"`

	// Captured outputs.
	Occupancy  int           `json:"occupancy"`
	TopK       []goldenEntry `json:"topk"`
	Queries    []goldenEntry `json:"queries"`
	Checkpoint string        `json:"checkpoint_sha256"`
	Merged     string        `json:"merged_sha256"`
}

type goldenEntry struct {
	Item uint64  `json:"item"`
	F    uint64  `json:"f"`
	P    uint64  `json:"p"`
	Sig  float64 `json:"sig"`
	Ok   bool    `json:"ok"`
}

func goldenConfigs() []goldenCase {
	return []goldenCase{
		{Name: "balanced-default", Mem: 8 << 10, Width: 8, Alpha: 1, Beta: 1, Seed: 1, N: 60_000, Periods: 20},
		{Name: "frequent", Mem: 8 << 10, Width: 8, Alpha: 1, Beta: 0, Seed: 2, N: 60_000, Periods: 20},
		{Name: "persistent", Mem: 8 << 10, Width: 8, Alpha: 0, Beta: 1, Seed: 3, N: 60_000, Periods: 20},
		{Name: "weighted-frac", Mem: 4 << 10, Width: 8, Alpha: 1.5, Beta: 0.25, Seed: 4, N: 40_000, Periods: 10},
		{Name: "weights-inexact", Mem: 4 << 10, Width: 8, Alpha: 0.3, Beta: 0.7, Seed: 5, N: 40_000, Periods: 10},
		{Name: "basic-policy", Mem: 4 << 10, Width: 8, Alpha: 1, Beta: 1, Policy: int(ReplaceBasic), Seed: 6, N: 40_000, Periods: 10},
		{Name: "eager-policy", Mem: 4 << 10, Width: 8, Alpha: 1, Beta: 1, Policy: int(ReplaceEager), Seed: 7, N: 40_000, Periods: 10},
		{Name: "second-smallest", Mem: 4 << 10, Width: 8, Alpha: 1, Beta: 1, Policy: int(ReplaceSecondSmallest), Seed: 8, N: 40_000, Periods: 10},
		{Name: "no-deviation-eliminator", Mem: 4 << 10, Width: 8, Alpha: 1, Beta: 1, NoDE: true, Seed: 9, N: 40_000, Periods: 10},
		{Name: "narrow-bucket", Mem: 4 << 10, Width: 4, Alpha: 1, Beta: 1, Seed: 10, N: 40_000, Periods: 10},
		{Name: "single-cell-bucket", Mem: 2 << 10, Width: 1, Alpha: 1, Beta: 1, Seed: 11, N: 20_000, Periods: 10},
		{Name: "decay", Mem: 4 << 10, Width: 8, Alpha: 1, Beta: 1, Decay: 0.5, Seed: 12, N: 40_000, Periods: 10},
		{Name: "tiny-table", Mem: 256, Width: 8, Alpha: 1, Beta: 1, Seed: 13, N: 20_000, Periods: 10},
	}
}

// goldenTracker builds the case's tracker, empty.
func goldenTracker(gc *goldenCase) *LTC {
	return New(Options{
		MemoryBytes:                gc.Mem,
		BucketWidth:                gc.Width,
		Weights:                    stream.Weights{Alpha: gc.Alpha, Beta: gc.Beta},
		Replacement:                ReplacementPolicy(gc.Policy),
		DisableDeviationEliminator: gc.NoDE,
		DecayFactor:                gc.Decay,
		Seed:                       gc.Seed,
	})
}

// replayGolden inserts items into l, closing a period every per arrivals
// and, when closeRagged is set, after a final partial period.
func replayGolden(l *LTC, items []stream.Item, per int, closeRagged bool) {
	for i, it := range items {
		l.Insert(it)
		if (i+1)%per == 0 {
			l.EndPeriod()
		}
	}
	if closeRagged && len(items)%per != 0 {
		l.EndPeriod()
	}
}

// goldenPair replays the first cut arrivals of the case's stream into its
// tracker (closing the ragged final period only when cut covers the whole
// stream, so a shorter cut leaves appearance flags pending), and a second
// stream of half the length — the same hot and warm sets, a different
// draw — into a peer of the same configuration.
func goldenPair(gc *goldenCase, cut int) (l, peer *LTC) {
	per := gc.N / gc.Periods
	l = goldenTracker(gc)
	replayGolden(l, goldenStream(uint64(gc.Seed)*0x517cc1b727220a95+1, gc.N)[:cut], per, cut == gc.N)
	peer = goldenTracker(gc)
	replayGolden(peer, goldenStream(uint64(gc.Seed)*0x517cc1b727220a95+2, gc.N/2), per, true)
	return l, peer
}

// runGolden replays the case's stream and fills in the captured outputs.
func runGolden(gc *goldenCase) {
	l, peer := goldenPair(gc, gc.N)

	gc.Occupancy = l.Occupancy()
	gc.TopK = nil
	for _, e := range l.TopK(64) {
		gc.TopK = append(gc.TopK, goldenEntry{Item: e.Item, F: e.Frequency, P: e.Persistency, Sig: e.Significance, Ok: true})
	}
	gc.Queries = nil
	for probe := uint64(1); probe <= 32; probe++ {
		e, ok := l.Query(probe)
		gc.Queries = append(gc.Queries, goldenEntry{Item: probe, F: e.Frequency, P: e.Persistency, Sig: e.Significance, Ok: ok})
	}
	gc.Checkpoint = imageHash(l)
	if err := l.Merge(peer); err != nil {
		panic(err)
	}
	gc.Merged = imageHash(l)
}

// imageHash is the hex SHA-256 of l's checkpoint image.
func imageHash(l *LTC) string {
	img, err := l.MarshalBinary()
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

func goldenPath() string { return filepath.Join("testdata", "golden_core.json") }

func TestGoldenCore(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		cases := goldenConfigs()
		for i := range cases {
			runGolden(&cases[i])
		}
		data, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath(), len(cases))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden fixtures (generate with UPDATE_GOLDEN=1): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	fresh := goldenConfigs()
	if len(fresh) != len(want) {
		t.Fatalf("config count drifted: have %d cases, fixtures hold %d", len(fresh), len(want))
	}
	for i := range fresh {
		gc := fresh[i]
		t.Run(gc.Name, func(t *testing.T) {
			runGolden(&gc)
			w := want[i]
			if gc.Occupancy != w.Occupancy {
				t.Errorf("occupancy: got %d, want %d", gc.Occupancy, w.Occupancy)
			}
			if err := compareEntries(gc.TopK, w.TopK); err != nil {
				t.Errorf("TopK: %v", err)
			}
			if err := compareEntries(gc.Queries, w.Queries); err != nil {
				t.Errorf("Query: %v", err)
			}
			if gc.Checkpoint != w.Checkpoint {
				t.Errorf("checkpoint image hash: got %s, want %s", gc.Checkpoint, w.Checkpoint)
			}
			if gc.Merged != w.Merged {
				t.Errorf("merged image hash: got %s, want %s", gc.Merged, w.Merged)
			}
		})
	}
}

func compareEntries(got, want []goldenEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
