// Package ingest implements sigstream's framed binary ingest protocol:
// length-prefixed, CRC32-trailered batches of (key, weight) records over
// persistent TCP connections, with an optional UDP fire-and-forget mode
// for lossy telemetry. It exists because JSON-over-HTTP taxes every item
// with request setup, base-10 parsing and per-request allocation long
// before the tracker core is the bottleneck; here a batch is decoded
// zero-copy — key bytes are hashed straight out of the receive buffer
// into the pooled []uint64 slice the tracker's batch insert consumes.
//
// Client frame (little-endian):
//
//	offset  size  field
//	0       4     magic "SBF1"
//	4       4     payload length n (u32)
//	8       n     payload (batch or period, below)
//	8+n     4     CRC32 (IEEE) over bytes [0, 8+n)
//
// Payload envelope, both types:
//
//	0       1     type (1 = batch, 2 = period)
//	1       4     sequence number (u32, echoed in the ack)
//	5       1     namespace length t (0 = default tenant)
//	6       t     namespace bytes
//
// A batch payload continues:
//
//	6+t     4     record count r (u32)
//	10+t    …     r × (u16 key length | key bytes | u32 weight ≥ 1)
//
// Ack frame (server → client, TCP only, fixed 20 bytes):
//
//	0       4     magic "SBA1"
//	4       4     sequence number (echoed)
//	8       1     status (0 ok, 1 throttled, 2 bad frame, 3 refused, 4 error)
//	9       1     reserved (0)
//	10      2     retry-after seconds (u16, throttled only)
//	12      4     accepted arrivals (u32)
//	16      4     CRC32 (IEEE) over bytes [0, 16)
//
// A record with weight w counts as w arrivals of its key; the WAL logs
// the weight-expanded key sequence in the existing RecordBatch format,
// so durability, replay and recovery are byte-identical to the same
// stream arriving over /v1/insert.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"sigstream"
	"sigstream/internal/tenant"
)

// Protocol constants. MaxFrameBytes in Config bounds the payload length
// a server accepts; the frame adds HeaderSize+TrailerSize bytes around
// it.
const (
	// FrameMagic opens every client frame.
	FrameMagic = "SBF1"
	// AckMagic opens every server ack.
	AckMagic = "SBA1"
	// HeaderSize is the fixed client frame header (magic + length).
	HeaderSize = 8
	// TrailerSize is the CRC32 trailer.
	TrailerSize = 4
	// AckSize is the fixed ack frame size.
	AckSize = 20
	// TypeBatch is a batch of (key, weight) records.
	TypeBatch byte = 1
	// TypePeriod is a period boundary for the frame's tenant.
	TypePeriod byte = 2
	// DefaultMaxFrameBytes is the default payload cap (1 MiB).
	DefaultMaxFrameBytes = 1 << 20
	// MaxKeyBytes is the largest key a record can carry (u16 length).
	MaxKeyBytes = 1<<16 - 1
	// MaxNamespaceBytes is the tenant namespace cap; the envelope's u8
	// length byte holds it.
	MaxNamespaceBytes = tenant.MaxNamespaceBytes
	// MaxBatchArrivals caps one batch's weight-expanded arrival count, so
	// a forged weight cannot expand a small frame into a multi-gigabyte
	// WAL record or item slice.
	MaxBatchArrivals = 1 << 20
	// envelopeSize is the fixed payload prefix (type + seq + ns length).
	envelopeSize = 6
)

// Ack statuses. Throttled and refused are per-frame: the connection
// stays usable. A bad frame means framing trust is lost and the server
// closes the connection after the ack (when the envelope was readable
// enough to carry a sequence number).
const (
	// StatusOK: the period is closed, or the batch is logged (fsynced
	// when a WAL is configured) and applied, so every later read sees it.
	StatusOK byte = 0
	// StatusThrottled: the tenant's quota refused the batch, which was
	// neither logged nor applied; retry after the hinted delay. Pinned
	// tenants (the default namespace) are never throttled.
	StatusThrottled byte = 1
	// StatusBadFrame: the frame failed structural validation.
	StatusBadFrame byte = 2
	// StatusRefused: the namespace is invalid or deleted.
	StatusRefused byte = 3
	// StatusError: the server failed to apply an otherwise valid frame.
	StatusError byte = 4
)

// ErrFrame tags every frame validation failure; the specific sentinels
// below are pre-built so the //sig:noalloc parse path never constructs
// an error.
var (
	ErrFrame        = errors.New("ingest: invalid frame")
	errBadMagic     = fmt.Errorf("%w: bad magic", ErrFrame)
	errShortHeader  = fmt.Errorf("%w: short header", ErrFrame)
	errShortPayload = fmt.Errorf("%w: short payload", ErrFrame)
	errOversize     = fmt.Errorf("%w: payload exceeds frame cap", ErrFrame)
	errBadCRC       = fmt.Errorf("%w: checksum mismatch", ErrFrame)
	errBadType      = fmt.Errorf("%w: unknown payload type", ErrFrame)
	errBadNS        = fmt.Errorf("%w: namespace overruns payload", ErrFrame)
	errBadCount     = fmt.Errorf("%w: implausible record count", ErrFrame)
	errOverrun      = fmt.Errorf("%w: record overruns payload", ErrFrame)
	errEmptyKey     = fmt.Errorf("%w: empty key", ErrFrame)
	errZeroWeight   = fmt.Errorf("%w: zero weight", ErrFrame)
	errTooHeavy     = fmt.Errorf("%w: batch exceeds arrival cap", ErrFrame)
	errTrailing     = fmt.Errorf("%w: trailing bytes", ErrFrame)
	errBadAck       = fmt.Errorf("%w: malformed ack", ErrFrame)
)

// Head is the decoded envelope of one client frame. NS aliases the
// payload; an empty NS means the default tenant.
type Head struct {
	Type byte
	Seq  uint32
	NS   []byte
	body int // offset of the type-specific body within the payload
}

// ParseHeader validates a fixed frame header and returns the declared
// payload length, bounded by maxPayload so a forged length can neither
// drive an allocation nor stall the reader on gigabytes that will never
// arrive.
//
//sig:noalloc
func ParseHeader(hdr []byte, maxPayload int) (int, error) {
	if len(hdr) < HeaderSize {
		return 0, errShortHeader
	}
	if string(hdr[:4]) != FrameMagic {
		return 0, errBadMagic
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n < envelopeSize {
		return 0, errShortPayload
	}
	if n > maxPayload {
		return 0, errOversize
	}
	return n, nil
}

// ParsePayload validates the complete structure of a client frame
// payload — envelope, and for a batch every record's bounds, the weight
// floor and the arrival cap — and returns the head plus the batch's
// record and weight-expanded arrival counts (zero for a period). Every
// declared length is checked against the remaining payload before any
// slicing, so a forged count or length cannot drive an out-of-range
// read, and nothing is allocated: Head.NS aliases p, and errors are the
// package's pre-built sentinels.
//
//sig:noalloc
func ParsePayload(p []byte) (h Head, records, arrivals int, err error) {
	if len(p) < envelopeSize {
		return h, 0, 0, errShortPayload
	}
	h.Type = p[0]
	h.Seq = binary.LittleEndian.Uint32(p[1:])
	nsl := int(p[5])
	if nsl > MaxNamespaceBytes || envelopeSize+nsl > len(p) {
		return h, 0, 0, errBadNS
	}
	h.NS = p[envelopeSize : envelopeSize+nsl]
	h.body = envelopeSize + nsl
	switch h.Type {
	case TypePeriod:
		if h.body != len(p) {
			return h, 0, 0, errTrailing
		}
		return h, 0, 0, nil
	case TypeBatch:
		if h.body+4 > len(p) {
			return h, 0, 0, errShortPayload
		}
		n := int(binary.LittleEndian.Uint32(p[h.body:]))
		off := h.body + 4
		// Each record is at least 2+1+4 bytes, so a count that cannot fit
		// is rejected before the scan.
		if n > (len(p)-off)/7 {
			return h, 0, 0, errBadCount
		}
		for i := 0; i < n; i++ {
			if off+2 > len(p) {
				return h, 0, 0, errOverrun
			}
			kl := int(binary.LittleEndian.Uint16(p[off:]))
			off += 2
			if kl == 0 {
				return h, 0, 0, errEmptyKey
			}
			if kl > len(p)-off-4 {
				return h, 0, 0, errOverrun
			}
			off += kl
			w := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if w == 0 {
				return h, 0, 0, errZeroWeight
			}
			arrivals += w
			if arrivals > MaxBatchArrivals {
				return h, 0, 0, errTooHeavy
			}
		}
		if off != len(p) {
			return h, 0, 0, errTrailing
		}
		return h, n, arrivals, nil
	default:
		return h, 0, 0, errBadType
	}
}

// Scratch holds the pooled decode buffers one connection (or the UDP
// loop) reuses frame after frame: the payload read buffer and the three
// batch slices DecodeBatch fills. Keys alias Buf, so a Scratch must not
// be recycled while a decoded batch is still referenced.
type Scratch struct {
	Buf     []byte
	Keys    [][]byte
	Weights []uint32
	Items   []sigstream.Item
}

// Grow ensures capacity for a batch of the given shape. It is the cold,
// amortised growth path deliberately hoisted out of the //sig:noalloc
// DecodeBatch, mirroring the getScratch idiom in Sharded.InsertBatch.
func (sc *Scratch) Grow(records, arrivals int) {
	if cap(sc.Keys) < records {
		sc.Keys = make([][]byte, 0, records+records/2)
	}
	if cap(sc.Weights) < records {
		sc.Weights = make([]uint32, 0, records+records/2)
	}
	if cap(sc.Items) < arrivals {
		sc.Items = make([]sigstream.Item, 0, arrivals+arrivals/2)
	}
}

// GrowBuf ensures the payload read buffer holds n bytes.
func (sc *Scratch) GrowBuf(n int) {
	if cap(sc.Buf) < n {
		sc.Buf = make([]byte, n+n/2)
	}
}

// DecodeBatch fills sc's Keys/Weights/Items from a batch payload that
// ParsePayload validated (records and the arrival total already bounded
// and Grown for). This is the zero-copy hot path: Keys alias p, and
// Items receives HashKeyBytes of each key repeated its weight, in record
// order — exactly the arrival sequence /v1/insert would produce for the
// same stream — without materialising a single string.
//
//sig:noalloc
func DecodeBatch(p []byte, h Head, records int, sc *Scratch) {
	sc.Keys = sc.Keys[:0]
	sc.Weights = sc.Weights[:0]
	sc.Items = sc.Items[:0]
	off := h.body + 4
	for i := 0; i < records; i++ {
		kl := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		k := p[off : off+kl]
		off += kl
		w := binary.LittleEndian.Uint32(p[off:])
		off += 4
		sc.Keys = append(sc.Keys, k)
		sc.Weights = append(sc.Weights, w)
		it := sigstream.HashKeyBytes(k)
		for ; w > 0; w-- {
			sc.Items = append(sc.Items, it)
		}
	}
}

// AppendFrame appends one complete frame — header, payload, CRC trailer
// — to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, FrameMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// VerifyFrame checks a complete frame image (one UDP datagram): magic,
// exact length match, and CRC. It returns the payload, aliasing frame.
func VerifyFrame(frame []byte, maxPayload int) ([]byte, error) {
	if len(frame) < HeaderSize+TrailerSize {
		return nil, errShortHeader
	}
	n, err := ParseHeader(frame[:HeaderSize], maxPayload)
	if err != nil {
		return nil, err
	}
	if len(frame) != HeaderSize+n+TrailerSize {
		return nil, errTrailing
	}
	sum := crc32.ChecksumIEEE(frame[:HeaderSize+n])
	if sum != binary.LittleEndian.Uint32(frame[HeaderSize+n:]) {
		return nil, errBadCRC
	}
	return frame[HeaderSize : HeaderSize+n], nil
}

// AppendBatchPayload appends a batch payload to dst: the envelope, then
// one record per key with its weight (weights == nil means all ones).
// It validates what the server would refuse — namespace and key length
// caps, zero weights, the arrival cap — so a client fails fast locally
// instead of burning a connection on a StatusBadFrame.
func AppendBatchPayload(dst []byte, seq uint32, ns string, keys []string, weights []uint32) ([]byte, error) {
	if len(ns) > MaxNamespaceBytes {
		return dst, errBadNS
	}
	if weights != nil && len(weights) != len(keys) {
		return dst, fmt.Errorf("%w: %d keys, %d weights", ErrFrame, len(keys), len(weights))
	}
	arrivals := 0
	for i, k := range keys {
		if len(k) == 0 {
			return dst, errEmptyKey
		}
		if len(k) > MaxKeyBytes {
			return dst, fmt.Errorf("%w: key %d is %d bytes (max %d)", ErrFrame, i, len(k), MaxKeyBytes)
		}
		w := 1
		if weights != nil {
			if weights[i] == 0 {
				return dst, errZeroWeight
			}
			w = int(weights[i])
		}
		arrivals += w
		if arrivals > MaxBatchArrivals {
			return dst, errTooHeavy
		}
	}
	dst = appendEnvelope(dst, TypeBatch, seq, ns)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
		w := uint32(1)
		if weights != nil {
			w = weights[i]
		}
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst, nil
}

// AppendPeriodPayload appends a period-boundary payload to dst.
func AppendPeriodPayload(dst []byte, seq uint32, ns string) ([]byte, error) {
	if len(ns) > MaxNamespaceBytes {
		return dst, errBadNS
	}
	return appendEnvelope(dst, TypePeriod, seq, ns), nil
}

func appendEnvelope(dst []byte, typ byte, seq uint32, ns string) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = append(dst, byte(len(ns)))
	return append(dst, ns...)
}

// Ack is one decoded server acknowledgement.
type Ack struct {
	Seq        uint32
	Status     byte
	RetryAfter uint16 // seconds, StatusThrottled only
	Accepted   uint32 // weight-expanded arrivals applied
}

// AppendAck appends one ack frame to dst.
func AppendAck(dst []byte, a Ack) []byte {
	start := len(dst)
	dst = append(dst, AckMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, a.Seq)
	dst = append(dst, a.Status, 0)
	dst = binary.LittleEndian.AppendUint16(dst, a.RetryAfter)
	dst = binary.LittleEndian.AppendUint32(dst, a.Accepted)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ParseAck decodes one fixed-size ack frame.
func ParseAck(b []byte) (Ack, error) {
	if len(b) < AckSize {
		return Ack{}, errBadAck
	}
	if string(b[:4]) != AckMagic {
		return Ack{}, errBadAck
	}
	if crc32.ChecksumIEEE(b[:AckSize-TrailerSize]) != binary.LittleEndian.Uint32(b[AckSize-TrailerSize:]) {
		return Ack{}, errBadAck
	}
	return Ack{
		Seq:        binary.LittleEndian.Uint32(b[4:]),
		Status:     b[8],
		RetryAfter: binary.LittleEndian.Uint16(b[10:]),
		Accepted:   binary.LittleEndian.Uint32(b[12:]),
	}, nil
}
