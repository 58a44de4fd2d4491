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
// writer's own buffering. Safe to call concurrently with Insert. The wire
// format is identical to MarshalBinary:
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
	var lenBuf [4]byte
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		img, err := sh.l.MarshalBinary()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(img)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(img); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFrom restores a Sharded tracker from an EncodeTo stream, reading
// exactly one checkpoint and nothing past it. The receiver's shard count
// and contents are replaced. Not safe to call concurrently with other
// operations. A declared shard size is read incrementally, so a forged
// multi-gigabyte length fails on the short read instead of driving a
// matching allocation.
func (s *Sharded) DecodeFrom(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header", ErrBadShardedCheckpoint)
	}
	if binary.LittleEndian.Uint32(hdr[:]) != shardedMagic {
		return fmt.Errorf("%w: bad magic", ErrBadShardedCheckpoint)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n < 1 || n > 1<<16 {
		return fmt.Errorf("%w: implausible shard count %d", ErrBadShardedCheckpoint, n)
	}
	shards := make([]shard, n)
	var buf bytes.Buffer
	var lenBuf [4]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("%w: truncated at shard %d", ErrBadShardedCheckpoint, i)
		}
		size := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		buf.Reset()
		if _, err := io.CopyN(&buf, r, size); err != nil {
			return fmt.Errorf("%w: shard %d overruns image", ErrBadShardedCheckpoint, i)
		}
		l := new(ltc.LTC)
		if err := l.UnmarshalBinary(buf.Bytes()); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i].l = l
	}
	s.shards = shards
	return nil
}

// MarshalBinary snapshots every shard into one image
// (encoding.BinaryMarshaler); a thin wrapper over EncodeTo. Safe to call
// concurrently with Insert.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a Sharded tracker from a MarshalBinary image
// (encoding.BinaryUnmarshaler); a thin wrapper over DecodeFrom that also
// rejects trailing bytes. Not safe to call concurrently with other
// operations.
func (s *Sharded) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var tmp Sharded
	if err := tmp.DecodeFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadShardedCheckpoint, r.Len())
	}
	s.shards = tmp.shards
	return nil
}

var (
	_ interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	} = (*Sharded)(nil)
)
