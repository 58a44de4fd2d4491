// Package traceio reads and writes stream traces in the two formats used
// by the command-line tools: text ("item period" per line) and binary
// (little-endian uint64 items, periods implied by position).
package traceio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sigstream/internal/stream"
)

// WriteText writes one "item period" pair per line.
func WriteText(w io.Writer, s *stream.Stream) error {
	bw := bufio.NewWriter(w)
	per := s.ItemsPerPeriod()
	for i, it := range s.Items {
		if _, err := fmt.Fprintf(bw, "%d %d\n", it, i/per); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinary writes items as little-endian uint64 values, preceded by a
// 16-byte header: magic "SGTR", version, period count, item count.
func WriteBinary(w io.Writer, s *stream.Stream) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:4], "SGTR")
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(s.Periods))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(s.Items)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, it := range s.Items {
		binary.LittleEndian.PutUint64(buf[:], it)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses "item [period]" lines. When a period column is present,
// the stream's period count is the largest period index + 1 and items are
// assumed grouped by period; otherwise fallbackPeriodItems arrivals form
// one period.
func ReadText(r io.Reader, fallbackPeriodItems int) (*stream.Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var items []stream.Item
	maxPeriod := -1
	sawPeriod := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		it, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: bad item %q: %w", line, fields[0], err)
		}
		items = append(items, it)
		if len(fields) >= 2 {
			p, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("traceio: line %d: bad period %q: %w", line, fields[1], err)
			}
			sawPeriod = true
			if p > maxPeriod {
				maxPeriod = p
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	s := &stream.Stream{Items: items, Label: "trace"}
	if sawPeriod {
		s.Periods = maxPeriod + 1
	} else if fallbackPeriodItems > 0 {
		s.Periods = (len(items) + fallbackPeriodItems - 1) / fallbackPeriodItems
	}
	if s.Periods < 1 {
		s.Periods = 1
	}
	return s, nil
}

// maxPrealloc caps the items ReadBinary allocates up front (8 MiB).
const maxPrealloc = 1 << 20

// ReadBinary parses a WriteBinary trace.
func ReadBinary(r io.Reader) (*stream.Stream, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("traceio: short header: %w", err)
	}
	if string(hdr[:4]) != "SGTR" {
		return nil, fmt.Errorf("traceio: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		return nil, fmt.Errorf("traceio: unsupported version %d", v)
	}
	periods := int(binary.LittleEndian.Uint32(hdr[8:]))
	n := int(binary.LittleEndian.Uint32(hdr[12:]))
	// The header's count is untrusted: a forged one must not allocate
	// gigabytes before the body shows it is short, so the slice grows
	// with the items actually read beyond the first maxPrealloc.
	items := make([]stream.Item, 0, min(n, maxPrealloc))
	var buf [8]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("traceio: truncated at item %d: %w", i, err)
		}
		items = append(items, binary.LittleEndian.Uint64(buf[:]))
	}
	if periods < 1 {
		periods = 1
	}
	return &stream.Stream{Items: items, Periods: periods, Label: "trace"}, nil
}

// MaybeGzip wraps r with a gzip reader when the stream starts with the
// gzip magic bytes, passing other content through untouched — so the CLIs
// accept both plain and .gz traces transparently.
func MaybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil {
		// Too short to be gzip; let downstream parsing report the real error.
		return br, nil
	}
	if head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("traceio: gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}
