package snapshot

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"sigstream/internal/fault"
)

func discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		got, err := Decode(Encode(payload))
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %d bytes -> %d", len(payload), len(got))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame := Encode([]byte("significant items"))
	cases := map[string][]byte{
		"zero-length":    {},
		"short":          frame[:headerSize+trailerSize-1],
		"truncated":      frame[:len(frame)-1],
		"bad magic":      append([]byte("NOPE"), frame[4:]...),
		"huge length":    append([]byte("SSN1\xff\xff\xff\xff\xff\xff\xff\xff"), frame[12:]...),
		"bit flip":       flipBit(frame, headerSize+3),
		"trailer flip":   flipBit(frame, len(frame)-1),
		"header flip":    flipBit(frame, 5),
		"extra trailing": append(append([]byte{}, frame...), 0),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
	}
}

func flipBit(frame []byte, i int) []byte {
	c := append([]byte{}, frame...)
	c[i] ^= 0x40
	return c
}

// saver runs the save sequence a tenant runs on its snapshot directory:
// NextSeq once, then WriteFileTo and Prune per save. A failed save burns
// its sequence number, as the tenant's does.
type saver struct {
	dir  string
	next uint64
	init bool
}

func (s *saver) save(payload []byte) (string, error) {
	if !s.init {
		seq, err := NextSeq(s.dir)
		if err != nil {
			return "", err
		}
		s.next, s.init = seq, true
	}
	seq := s.next
	s.next++
	name, err := WriteFileTo(s.dir, seq, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return "", err
	}
	Prune(s.dir, 2, discard())
	return name, nil
}

func mustSave(t *testing.T, s *saver, payload string) string {
	t.Helper()
	name, err := s.save([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return name
}

func TestSaveRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &saver{dir: dir}
	name := mustSave(t, s, "state v1")
	mustSave(t, s, "state v2")
	got, from, err := Recover(dir, discard())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "state v2" {
		t.Fatalf("recovered %q, want state v2", got)
	}
	if from == name {
		t.Fatalf("recovered the older snapshot %s", from)
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	if p, name, err := Recover(t.TempDir(), discard()); err != nil || p != nil || name != "" {
		t.Fatalf("empty dir: %v %q %v", p, name, err)
	}
	if p, name, err := Recover(filepath.Join(t.TempDir(), "nope"), discard()); err != nil || p != nil || name != "" {
		t.Fatalf("missing dir: %v %q %v", p, name, err)
	}
}

// TestRecoverSkipsTornNewest corrupts the newest snapshot three ways in
// turn (truncation, bit flip, zero length) and expects recovery to fall
// back to the older intact file every time.
func TestRecoverSkipsTornNewest(t *testing.T) {
	dir := t.TempDir()
	mustSave(t, &saver{dir: dir}, "good old state")
	newest := filepath.Join(dir, FileName(99))
	frame := Encode([]byte("newer but doomed"))
	for name, corrupt := range map[string][]byte{
		"truncated":   frame[:len(frame)-3],
		"bit-flipped": flipBit(frame, headerSize+1),
		"zero-length": {},
	} {
		if err := os.WriteFile(newest, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		got, from, err := Recover(dir, discard())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != "good old state" {
			t.Fatalf("%s: recovered %q from %s, want the older intact snapshot", name, got, from)
		}
	}
}

func TestRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	// A temp file left by a write that crashed before its rename.
	if err := os.WriteFile(filepath.Join(dir, FileName(42)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &saver{dir: dir} // retains 2
	for i := 0; i < 5; i++ {
		mustSave(t, s, "p")
	}
	entries := mustReadDir(t, dir)
	if len(entries) != 2 {
		t.Fatalf("retained %d files, want 2: %v", len(entries), entries)
	}
	// The two newest sequence numbers survive; the stray temp file is gone.
	for _, e := range entries {
		seq, ok := ParseSeq(e.Name())
		if !ok || seq < 3 {
			t.Fatalf("unexpected survivor %s", e.Name())
		}
	}
}

func TestSequenceResumesPastExistingFiles(t *testing.T) {
	dir := t.TempDir()
	s1 := &saver{dir: dir}
	for i := 0; i < 3; i++ {
		mustSave(t, s1, "p")
	}
	name := mustSave(t, &saver{dir: dir}, "p")
	if seq, _ := ParseSeq(name); seq != 3 {
		t.Fatalf("restarted saver wrote seq %d, want 3", seq)
	}
	// A corrupt file still claims its sequence number, so it is never
	// overwritten.
	if err := os.WriteFile(filepath.Join(dir, FileName(9)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	name = mustSave(t, &saver{dir: dir}, "p")
	if seq, _ := ParseSeq(name); seq != 10 {
		t.Fatalf("saver wrote seq %d past a corrupt seq 9, want 10", seq)
	}
}

// TestChaosSnapshotWriteFaults injects each I/O fault in turn — short
// write, fsync failure, rename failure — and checks the failed save
// leaves no file behind, recovery still finds the last good snapshot, and
// the next save succeeds.
func TestChaosSnapshotWriteFaults(t *testing.T) {
	boom := errors.New("injected io failure")
	points := []fault.Point{fault.SnapshotWrite, fault.SnapshotSync, fault.SnapshotRename}
	for _, p := range points {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			s := &saver{dir: dir}
			good := mustSave(t, s, "durable")
			deactivate := fault.Activate(p, func(int) error { return boom })
			t.Cleanup(deactivate)
			if _, err := s.save([]byte("lost to the fault")); !errors.Is(err, boom) {
				t.Fatalf("faulted save err = %v, want injected failure", err)
			}
			deactivate()
			got, _, err := Recover(dir, discard())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "durable" {
				t.Fatalf("recovered %q, want the pre-fault snapshot", got)
			}
			// The faulted attempt leaves neither a final-named file nor its
			// temp file.
			if entries := mustReadDir(t, dir); len(entries) != 1 || entries[0].Name() != good {
				t.Fatalf("directory after faulted save holds %v, want only %s", entries, good)
			}
			mustSave(t, s, "recovered cadence")
			if got, _, err := Recover(dir, discard()); err != nil || string(got) != "recovered cadence" {
				t.Fatalf("recover after fault cleared: %q %v", got, err)
			}
		})
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestWriteFileToMatchesEncode(t *testing.T) {
	payloads := [][]byte{
		{},
		{0},
		[]byte("hello snapshot"),
		bytes.Repeat([]byte{0xab, 0xcd, 0x01}, 40000), // multi-chunk stream
	}
	for i, payload := range payloads {
		dir := t.TempDir()
		// Stream the payload in awkward chunk sizes to exercise the
		// running CRC across write boundaries.
		name, err := WriteFileTo(dir, uint64(i), func(w io.Writer) error {
			for off := 0; off < len(payload); off += 7 {
				end := off + 7
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := w.Write(payload[off:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("case %d: WriteFileTo: %v", i, err)
		}
		streamed, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Bit-identical to the in-memory frame: the combined CRC is the CRC.
		if want := Encode(payload); !bytes.Equal(streamed, want) {
			t.Fatalf("case %d: streamed frame differs from Encode", i)
		}
		got, err := Decode(streamed)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("case %d: payload mismatch", i)
		}
	}
}

func TestWriteFileToFaultLeavesNoFinalFile(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected write fault")
	off := fault.Activate(fault.SnapshotWrite, func(int) error { return boom })
	_, err := WriteFileTo(dir, 0, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	off()
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileTo = %v, want injected error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("faulted WriteFileTo left %d files behind", len(entries))
	}
}

func TestWriteFileToSourceErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("source failed")
	_, err := WriteFileTo(dir, 0, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileTo = %v, want source error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed stream left %d files behind", len(entries))
	}
}
