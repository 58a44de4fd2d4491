package sigstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sigstream/internal/ltc"
)

// shardedMagic identifies a Sharded checkpoint ("SGSH").
const shardedMagic = 0x48534753

// ErrBadShardedCheckpoint reports a corrupt Sharded checkpoint image.
var ErrBadShardedCheckpoint = errors.New("sigstream: bad sharded checkpoint")

// EncodeTo streams a checkpoint of every shard to w, shard by shard, so
// persistence layers (snapshots, tenant spill envelopes, the WAL restore
// record) never hold more than one shard's image in memory on top of the
// writer's own buffering. Each shard encodes into one frame buffer reused
// across shards. Safe to call concurrently with Insert. The wire format is
// MarshalBinary's:
//
//	offset  size  field
//	0       4     magic "SGSH"
//	4       4     shard count n
//	8       …     n × (u32 length | shard LTC image)
func (s *Sharded) EncodeTo(w io.Writer) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], shardedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.shards)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var frame []byte
	for i := range s.shards {
		sh := &s.shards[i]
		if need := 4 + sh.l.ImageBytes(); cap(frame) < need {
			frame = make([]byte, 0, need)
		}
		sh.mu.Lock()
		frame = sh.l.AppendBinary(append(frame[:0], 0, 0, 0, 0))
		sh.mu.Unlock()
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary snapshots every shard into one image
// (encoding.BinaryMarshaler): EncodeTo into a buffer sized up front. Safe
// to call concurrently with Insert.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	size := 8
	for i := range s.shards {
		size += 4 + s.shards[i].l.ImageBytes()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := s.EncodeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a Sharded tracker from a MarshalBinary or
// EncodeTo image (encoding.BinaryUnmarshaler), rejecting trailing bytes.
// Each shard decodes straight from its slice of data. The shard count and
// every declared shard length are checked against the bytes left before
// anything is allocated or sliced, so a forged header fails without
// driving an allocation. The receiver's shard count and contents are
// replaced only on success. Not safe to call concurrently with other
// operations.
func (s *Sharded) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	if len(data) < 8 {
		return fmt.Errorf("%w: short header", ErrBadShardedCheckpoint)
	}
	if le.Uint32(data) != shardedMagic {
		return fmt.Errorf("%w: bad magic", ErrBadShardedCheckpoint)
	}
	// Every shard carries at least its 4-byte length.
	n := int(le.Uint32(data[4:]))
	if n < 1 || n > 1<<16 || 4*n > len(data)-8 {
		return fmt.Errorf("%w: implausible shard count %d", ErrBadShardedCheckpoint, n)
	}
	rest := data[8:]
	shards := make([]shard, n)
	for i := range shards {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated at shard %d", ErrBadShardedCheckpoint, i)
		}
		size := uint64(le.Uint32(rest))
		rest = rest[4:]
		if size > uint64(len(rest)) {
			return fmt.Errorf("%w: shard %d overruns image", ErrBadShardedCheckpoint, i)
		}
		l := new(ltc.LTC)
		if err := l.UnmarshalBinary(rest[:size]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i].l = l
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadShardedCheckpoint, len(rest))
	}
	s.shards = shards
	return nil
}

var (
	_ interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	} = (*Sharded)(nil)
)
