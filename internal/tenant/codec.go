package tenant

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"sigstream"
)

// Envelope magics. TNT2 is the current spill format: the TNT1 layout
// (key names + tracker image) prefixed with the WAL cut — the first log
// segment NOT covered by the image — so a snapshot and its replay
// starting point are one atomic unit in one file. TNT1 payloads decode
// with cut 0 (replay everything, which is exactly right for a snapshot
// taken before the WAL existed), and a payload with neither magic is a
// legacy raw tracker image (the PR-5 root-level snapshot format) with no
// key names.
const (
	envMagic   = "TNT1"
	envMagicV2 = "TNT2"
)

// maxEnvelopeKeys bounds the declared key count of an envelope so a
// corrupt header cannot drive an unbounded decode loop.
const maxEnvelopeKeys = 1 << 28

// ErrBadEnvelope reports a corrupt tenant spill envelope.
var ErrBadEnvelope = errors.New("tenant: bad spill envelope")

// envelopeNames lists a key map's names in sorted order, so identical
// state encodes to identical bytes.
func envelopeNames(keys *sigstream.KeyMap) []string {
	names := keyNames(keys)
	sort.Strings(names)
	return names
}

// keyNames copies a key map's names, unsorted. A caller holding the lock
// that guards keys copies under it and sorts after releasing it, since the
// sort dominates on large key maps.
func keyNames(keys *sigstream.KeyMap) []string {
	if keys == nil {
		return nil
	}
	names := make([]string, 0, keys.Len())
	keys.Range(func(_ sigstream.Item, k string) bool {
		names = append(names, k)
		return true
	})
	return names
}

// encodeEnvelopeTo streams a tenant spill envelope (little-endian):
//
//	offset  size  field
//	0       4     magic "TNT2"
//	4       8     WAL cut (first segment not covered by the image)
//	12      4     key count n
//	16      …     n × (u32 length | key bytes)
//	…       …     tracker image, streamed by writeImage
//
// The tracker image never materializes here — writeImage (typically
// Sharded.EncodeTo) streams it straight into w, which in the save path
// is the snapshot temp file.
func encodeEnvelopeTo(w io.Writer, names []string, cut uint64, writeImage func(io.Writer) error) error {
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, envMagicV2...)
	hdr = binary.LittleEndian.AppendUint64(hdr, cut)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(names)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var buf []byte
	for _, n := range names {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n)))
		buf = append(buf, n...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return writeImage(w)
}

// encodeEnvelope renders a spill envelope as one buffer; a thin wrapper
// over encodeEnvelopeTo for callers (and tests) that want bytes.
func encodeEnvelope(keys *sigstream.KeyMap, image []byte) []byte {
	var buf bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = encodeEnvelopeTo(&buf, envelopeNames(keys), 0, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	})
	return buf.Bytes()
}

// decodeEnvelope splits a spill payload into a rebuilt key map, the
// tracker image, and the WAL cut the image covers up to. TNT1 payloads
// and legacy raw tracker images decode with cut 0; a legacy image also
// yields an empty key map (unseen keys render as hex until noted again).
// The names are restored as saved: the saving tenant had bounded them
// already, and the first batch after a revive bounds the names of an
// envelope written before names were bounded.
// Every declared length is checked against the actual payload size before
// slicing.
func decodeEnvelope(payload []byte) (*sigstream.KeyMap, []byte, uint64, error) {
	km := sigstream.NewKeyMap()
	var cut uint64
	var off int
	switch {
	case len(payload) >= 16 && string(payload[:4]) == envMagicV2:
		cut = binary.LittleEndian.Uint64(payload[4:])
		off = 12
	case len(payload) >= 8 && string(payload[:4]) == envMagic:
		off = 4
	default:
		return km, payload, 0, nil
	}
	n := binary.LittleEndian.Uint32(payload[off:])
	if n > maxEnvelopeKeys {
		return nil, nil, 0, fmt.Errorf("%w: implausible key count %d", ErrBadEnvelope, n)
	}
	off += 4
	for i := uint32(0); i < n; i++ {
		if off+4 > len(payload) {
			return nil, nil, 0, fmt.Errorf("%w: truncated at key %d", ErrBadEnvelope, i)
		}
		l := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if l < 0 || l > len(payload)-off {
			return nil, nil, 0, fmt.Errorf("%w: key %d overruns envelope", ErrBadEnvelope, i)
		}
		key := payload[off : off+l]
		km.Note(sigstream.HashKeyBytes(key), key)
		off += l
	}
	return km, payload[off:], cut, nil
}
