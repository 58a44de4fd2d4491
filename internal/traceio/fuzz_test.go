package traceio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText: arbitrary text must either parse or return an error —
// never panic — and parsed streams must round-trip through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("1 0\n2 0\n3 1\n")
	f.Add("# comment\n\n42\n")
	f.Add("not a number\n")
	f.Add("1 -5\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadText(strings.NewReader(in), 4)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("parsed stream failed to write: %v", err)
		}
		back, err := ReadText(&buf, 4)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if len(back.Items) != len(s.Items) {
			t.Fatalf("round trip changed item count: %d → %d",
				len(s.Items), len(back.Items))
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic or over-allocate.
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte("SGTR"))
	f.Add([]byte{})
	// A header claiming 2.5 G items over an empty body.
	f.Add([]byte("SGTR\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x18\x95"))
	var buf bytes.Buffer
	_ = WriteBinary(&buf, sample())
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.Periods < 1 {
			t.Fatal("accepted stream with no periods")
		}
	})
}
