package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame format, reusing internal/snapshot's CRC32-trailer discipline
// (little-endian):
//
//	offset  size  field
//	0       4     magic "SWL1"
//	4       8     payload length n
//	12      n     payload (one record, format below)
//	12+n    4     CRC32 (IEEE) over bytes [0, 12+n)
//
// A segment file is a plain concatenation of frames; the first invalid
// frame — torn tail, truncation, bit flip — ends the readable log, which
// is safe because every acknowledged record was fsynced before its append
// returned, so an unreadable tail holds only unacknowledged writes.
const (
	frameMagic  = "SWL1"
	headerSize  = 12
	trailerSize = 4
)

// Record payload format (first byte is the type):
//
//	RecordBatch:   0x01 | u32 key count | n × (u32 length | key bytes)
//	RecordPeriod:  0x02
//	RecordRestore: 0x03 | tracker checkpoint image
//
// Replay applies records strictly in log order: batches re-insert their
// keys, a period record closes the current period, and a restore record
// replaces the whole tracker state — so an operator-initiated /v1/restore
// is just another logged, replayable event.
const (
	// RecordBatch is an accepted insert batch: the keys, in arrival order.
	RecordBatch byte = 1
	// RecordPeriod is a period boundary.
	RecordPeriod byte = 2
	// RecordRestore is an accepted state restore carrying the full
	// checkpoint image that replaced the tracker.
	RecordRestore byte = 3
)

// maxRecordKeys bounds the declared key count of a batch record so a
// corrupt count cannot drive an unbounded decode loop.
const maxRecordKeys = 1 << 28

// ErrCorrupt tags every frame or record validation failure.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one decoded log entry.
type Record struct {
	// Type is RecordBatch, RecordPeriod or RecordRestore.
	Type byte
	// Keys are the batch's keys in arrival order (RecordBatch only).
	Keys []string
	// Image is the checkpoint image (RecordRestore only).
	Image []byte
}

// EncodeBatch renders an insert batch as a record payload. Writers use
// EncodeBatchRecords; EncodeBatch is the plain reference encoding that
// the equivalence tests hold EncodeBatchRecords to, byte for byte.
func EncodeBatch(keys []string) []byte {
	size := 5
	for _, k := range keys {
		size += 4 + len(k)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, RecordBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
	}
	return buf
}

// EncodeBatchRecords renders a weighted wire batch as a RecordBatch
// payload. The record format has no weight field — a record with weight w
// is written as w repetitions of its key — so logs written by the binary
// ingest path decode with the same DecodeRecord, replay through the same
// path, and stay bit-identical to what EncodeBatch would have produced
// for the expanded key sequence. weights == nil means every record has
// weight 1. The caller is responsible for bounding the total expansion
// (the ingest decoder caps arrivals per frame well under maxRecordKeys).
func EncodeBatchRecords(keys [][]byte, weights []uint32) []byte {
	total := 0
	size := 5
	for i, k := range keys {
		w := 1
		if weights != nil {
			w = int(weights[i])
		}
		total += w
		size += w * (4 + len(k))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, RecordBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	for i, k := range keys {
		w := 1
		if weights != nil {
			w = int(weights[i])
		}
		for ; w > 0; w-- {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
			buf = append(buf, k...)
		}
	}
	return buf
}

// EncodePeriod renders a period boundary as a record payload.
func EncodePeriod() []byte { return []byte{RecordPeriod} }

// EncodeRestore renders an accepted state restore as a record payload.
func EncodeRestore(image []byte) []byte {
	buf := make([]byte, 0, 1+len(image))
	buf = append(buf, RecordRestore)
	return append(buf, image...)
}

// DecodeRecord parses one record payload. Every declared length is
// checked against the actual payload size before slicing, so a forged
// count cannot drive an allocation or an out-of-range read. Returned keys
// and images are copies that do not alias payload.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	switch payload[0] {
	case RecordBatch:
		if len(payload) < 5 {
			return Record{}, fmt.Errorf("%w: truncated batch header", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(payload[1:])
		if n > maxRecordKeys {
			return Record{}, fmt.Errorf("%w: implausible key count %d", ErrCorrupt, n)
		}
		keys := make([]string, 0, min(int(n), len(payload)/4))
		off := 5
		for i := uint32(0); i < n; i++ {
			if off+4 > len(payload) {
				return Record{}, fmt.Errorf("%w: truncated at key %d", ErrCorrupt, i)
			}
			l := int(binary.LittleEndian.Uint32(payload[off:]))
			off += 4
			if l < 0 || l > len(payload)-off {
				return Record{}, fmt.Errorf("%w: key %d overruns record", ErrCorrupt, i)
			}
			keys = append(keys, string(payload[off:off+l]))
			off += l
		}
		if off != len(payload) {
			return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-off)
		}
		return Record{Type: RecordBatch, Keys: keys}, nil
	case RecordPeriod:
		if len(payload) != 1 {
			return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-1)
		}
		return Record{Type: RecordPeriod}, nil
	case RecordRestore:
		img := make([]byte, len(payload)-1)
		copy(img, payload[1:])
		return Record{Type: RecordRestore, Image: img}, nil
	default:
		return Record{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, payload[0])
	}
}

// encodeFrame wraps a record payload in a frame: magic, length, payload,
// CRC32 trailer.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+trailerSize)
	copy(buf, frameMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	sum := crc32.ChecksumIEEE(buf[:headerSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], sum)
	return buf
}

// Scan iterates the valid frame prefix of a segment image, calling fn
// with each frame's payload (which aliases data — fn must copy anything
// it keeps). It returns how many bytes of data form whole valid frames
// and, separately, why the scan stopped: nil at a clean end of data, an
// ErrCorrupt-wrapped reason at the first invalid frame, or fn's error.
// A declared length is checked against the remaining data before any
// slicing, so a forged multi-gigabyte length cannot drive an allocation.
func Scan(data []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerSize+trailerSize {
			return off, fmt.Errorf("%w: %d trailing bytes, need at least %d",
				ErrCorrupt, len(rest), headerSize+trailerSize)
		}
		if string(rest[:4]) != frameMagic {
			return off, fmt.Errorf("%w: bad magic %q at offset %d", ErrCorrupt, rest[:4], off)
		}
		n := binary.LittleEndian.Uint64(rest[4:])
		if n > uint64(len(rest)-headerSize-trailerSize) {
			return off, fmt.Errorf("%w: declared payload %d bytes, %d remain at offset %d",
				ErrCorrupt, n, len(rest)-headerSize-trailerSize, off)
		}
		body := rest[:headerSize+n]
		want := binary.LittleEndian.Uint32(rest[headerSize+n:])
		if got := crc32.ChecksumIEEE(body); got != want {
			return off, fmt.Errorf("%w: checksum %08x, want %08x at offset %d",
				ErrCorrupt, got, want, off)
		}
		if fn != nil {
			if err := fn(rest[headerSize : headerSize+n]); err != nil {
				return off, err
			}
		}
		off += headerSize + int(n) + trailerSize
	}
	return off, nil
}
