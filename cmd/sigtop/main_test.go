package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sigstream"
)

func newTrackerAndKeys() (*sigstream.LTC, *sigstream.KeyMap) {
	return sigstream.New(sigstream.Config{
		MemoryBytes: 32 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
	}), sigstream.NewKeyMap()
}

func TestIngestWithPeriodColumn(t *testing.T) {
	tr, keys := newTrackerAndKeys()
	in := "alice 0\nbob 0\nalice 1\nalice 2\n"
	count, err := ingest(strings.NewReader(in), tr, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	e, ok := tr.Query(sigstream.HashKey("alice"))
	if !ok || e.Frequency != 3 || e.Persistency != 3 {
		t.Fatalf("alice: %+v ok=%v, want f=3 p=3", e, ok)
	}
	e, _ = tr.Query(sigstream.HashKey("bob"))
	if e.Persistency != 1 {
		t.Fatalf("bob persistency = %d, want 1", e.Persistency)
	}
}

func TestIngestCountBasedPeriods(t *testing.T) {
	tr, keys := newTrackerAndKeys()
	var in strings.Builder
	for i := 0; i < 10; i++ {
		in.WriteString("x\n")
	}
	count, err := ingest(strings.NewReader(in.String()), tr, keys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	e, _ := tr.Query(sigstream.HashKey("x"))
	if e.Persistency != 2 {
		t.Fatalf("persistency = %d, want 2 (two 5-item periods)", e.Persistency)
	}
}

func TestIngestSkipsBlanksAndBadPeriods(t *testing.T) {
	tr, keys := newTrackerAndKeys()
	in := "\n  \nweb notanumber\nweb 1\n"
	count, err := ingest(strings.NewReader(in), tr, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 (blanks skipped)", count)
	}
}

func TestReportFormat(t *testing.T) {
	tr, keys := newTrackerAndKeys()
	_, err := ingest(strings.NewReader("hot 0\nhot 1\ncold 1\n"), tr, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, tr, keys, 3, 2)
	text := out.String()
	for _, want := range []string{"3 arrivals", "hot", "significance"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	// "hot" must rank first (2 periods × β=10 + f=2).
	hotIdx := strings.Index(text, "hot")
	coldIdx := strings.Index(text, "cold")
	if coldIdx >= 0 && hotIdx > coldIdx {
		t.Fatalf("ranking order wrong:\n%s", text)
	}
}

// TestIngestBoundsKeyNames streams 100k distinct keys around one raised
// key: the key map stays within twice the tracker's cells, and the report
// names the raised key and every other ranked item.
func TestIngestBoundsKeyNames(t *testing.T) {
	tr, keys := newTrackerAndKeys()
	var in strings.Builder
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&in, "u%d %d\n", i, i/10_000)
		if i%20 == 0 {
			fmt.Fprintf(&in, "raised %d\n", i/10_000)
		}
	}
	if _, err := ingest(strings.NewReader(in.String()), tr, keys, 0); err != nil {
		t.Fatal(err)
	}
	if keys.Len() > 2*tr.Cells() {
		t.Fatalf("%d names held for %d cells", keys.Len(), tr.Cells())
	}
	var out bytes.Buffer
	report(&out, tr, keys, 0, 10)
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 || !strings.Contains(lines[2], "raised") {
		t.Fatalf("raised key not ranked first:\n%s", out.String())
	}
	if strings.Contains(out.String(), "0x") {
		t.Fatalf("a ranked item lost its name:\n%s", out.String())
	}
}
