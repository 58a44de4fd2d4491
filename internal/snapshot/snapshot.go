// Package snapshot gives a serving tracker crash safety: WriteFileTo
// streams an opaque payload (a tenant's tracker image) to disk as one
// checksummed frame, and Recover finds the newest intact snapshot after a
// restart — including a kill -9 mid-write, a full disk, or a torn rename.
// A save is NextSeq (once per directory), WriteFileTo, then Prune; the
// tenant registry runs that sequence for every tenant.
//
// Durability discipline: every snapshot is written to a temp file in the
// target directory, fsynced, closed, renamed into place, and the directory
// is fsynced so the rename itself survives power loss. A reader can
// therefore trust any file with the final name — except one corrupted at
// rest, which is why every frame carries a CRC32 trailer (format below).
// Recovery walks snapshots newest-first and skips, with a logged reason,
// anything torn, truncated, or bit-flipped, so one bad file costs one
// interval of history, never the whole state.
//
// Frame format (little-endian):
//
//	offset  size  field
//	0       4     magic "SSN1"
//	4       8     payload length n
//	12      n     payload (opaque to this package)
//	12+n    4     CRC32 (IEEE) over bytes [0, 12+n)
//
// Files are named snap-<seq>.ssnap with a zero-padded hexadecimal
// sequence number, so lexical order is age order and the newest snapshot
// is the highest name; sequence numbering resumes past any existing file
// after a restart.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sigstream/internal/fault"
)

const (
	magic       = "SSN1"
	headerSize  = 12
	trailerSize = 4

	prefix = "snap-"
	suffix = ".ssnap"

	// DefaultRetain is how many snapshots a directory keeps when the
	// caller sets no retention.
	DefaultRetain = 3
)

// ErrCorrupt tags every frame validation failure, so callers can
// errors.Is one sentinel instead of matching reason strings.
var ErrCorrupt = errors.New("snapshot: corrupt frame")

// Encode frames payload: magic, length, payload, CRC32 trailer. It is
// the in-memory form of the frame WriteFileTo streams to disk.
func Encode(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+trailerSize)
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	sum := crc32.ChecksumIEEE(buf[:headerSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], sum)
	return buf
}

// Decode validates one frame and returns its payload. The payload aliases
// data; callers that outlive data must copy. Every failure wraps
// ErrCorrupt with the specific reason (short frame, bad magic, length
// mismatch, checksum mismatch) — the length is checked against the actual
// frame size before any slicing, so a forged multi-gigabyte length field
// cannot drive an allocation or an out-of-range read.
func Decode(data []byte) ([]byte, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d",
			ErrCorrupt, len(data), headerSize+trailerSize)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	n := binary.LittleEndian.Uint64(data[4:])
	if n != uint64(len(data)-headerSize-trailerSize) {
		return nil, fmt.Errorf("%w: declared payload %d bytes, frame carries %d",
			ErrCorrupt, n, len(data)-headerSize-trailerSize)
	}
	body := data[:headerSize+n]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[headerSize+n:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return data[headerSize : headerSize+n], nil
}

// WriteFileTo writes snapshot seq to dir, creating dir if missing, and
// returns the written file name. The payload comes from write, which
// streams it into an io.Writer (for example Sharded.EncodeTo), so a large
// tracker image goes to disk without ever existing as one []byte. The
// frame is built in place — payload bytes land at their final offset
// while a running CRC accumulates, then the header is patched in and the
// trailer checksum derived by CRC combination — and the write keeps the
// full crash discipline (temp file, fsync, rename, directory fsync).
// Concurrent writers of the same directory must serialize externally.
func WriteFileTo(dir string, seq uint64, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	name := FileName(seq)
	if err := writeAtomicTo(dir, name, write); err != nil {
		return "", err
	}
	return name, nil
}

// writeAtomicTo streams a frame to dir/name with full crash discipline:
// temp file, fsync, close, rename, directory fsync. On any failure the
// temp file is removed and dir/name is untouched, so a concurrent or
// later Recover never observes a half-written final file. The payload is
// written at its final offset behind a placeholder header; once its
// length and CRC are known the header is patched and the trailer
// appended, with the frame checksum assembled as combine(crc(header),
// crc(payload)) so the payload is never re-read or buffered. The write,
// sync and rename steps carry fault-injection points for chaos tests.
func writeAtomicTo(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := fault.Inject(fault.SnapshotWrite, 0); err != nil {
		// Model a mid-write failure: half the header lands in the temp
		// file, which fail then removes.
		var hdr [headerSize]byte
		copy(hdr[:], magic)
		_, _ = f.Write(hdr[:headerSize/2])
		return fail(fmt.Errorf("snapshot: write %s: %w", f.Name(), err))
	}
	var hdr [headerSize]byte
	if _, err := f.Write(hdr[:]); err != nil {
		return fail(fmt.Errorf("snapshot: write %s: %w", f.Name(), err))
	}
	cw := &crcWriter{w: f, sum: crc32.NewIEEE()}
	if err := write(cw); err != nil {
		return fail(fmt.Errorf("snapshot: write %s: %w", f.Name(), err))
	}
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(cw.n))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fail(fmt.Errorf("snapshot: write %s: %w", f.Name(), err))
	}
	frameSum := crc32Combine(crc32.ChecksumIEEE(hdr[:]), cw.sum.Sum32(), cw.n)
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint32(trailer[:], frameSum)
	if _, err := f.Write(trailer[:]); err != nil {
		return fail(fmt.Errorf("snapshot: write %s: %w", f.Name(), err))
	}
	if err := syncFile(f); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// crcWriter tees writes into a running CRC32 and counts payload bytes.
type crcWriter struct {
	w   io.Writer
	sum hash.Hash32
	n   int64
}

// Write implements io.Writer.
func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		// hash.Hash.Write is documented to never return an error.
		_, _ = c.sum.Write(p[:n])
		c.n += int64(n)
	}
	return n, err
}

// crc32Combine returns the CRC32 (IEEE) of the concatenation A‖B given
// crc1 = CRC(A), crc2 = CRC(B) and len2 = len(B) — zlib's crc32_combine,
// which advances crc1 through len2 zero bytes by GF(2) matrix squaring
// and folds crc2 in. This is what lets writeAtomicTo checksum a frame
// whose header is only known after the payload streamed through.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1 ^ crc2
	}
	var even, odd [32]uint32
	odd[0] = crc32.IEEE // reflected polynomial: operator for one zero bit
	row := uint32(1)
	for n := 1; n < 32; n++ {
		odd[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&even, &odd) // two zero bits
	gf2MatrixSquare(&odd, &even) // four zero bits
	for {
		gf2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		len2 >>= 1
	}
	return crc1 ^ crc2
}

// gf2MatrixTimes multiplies the GF(2) matrix mat by the vector vec.
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// gf2MatrixSquare sets square to mat·mat over GF(2).
func gf2MatrixSquare(square, mat *[32]uint32) {
	for n := 0; n < 32; n++ {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}

// FileName renders the snapshot file name for a sequence number.
func FileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, suffix)
}

// ParseSeq extracts the sequence number from a snapshot file name,
// reporting false for names that are not snapshot files.
func ParseSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Recover returns the payload and file name of the newest valid snapshot
// in dir, or (nil, "", nil) when dir has none (including when dir does
// not exist — a fresh deployment is not an error). Invalid files — torn
// writes, truncation, bit flips — are skipped with a logged reason and
// recovery falls back to the next-newest, so a single bad file never
// blocks a restart.
func Recover(dir string, logger *slog.Logger) ([]byte, string, error) {
	if logger == nil {
		logger = slog.Default()
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("snapshot: recover: %w", err)
	}
	type candidate struct {
		seq  uint64
		name string
	}
	var found []candidate
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := ParseSeq(e.Name()); ok {
			found = append(found, candidate{seq, e.Name()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq > found[j].seq })
	for _, c := range found {
		data, err := os.ReadFile(filepath.Join(dir, c.name))
		if err == nil {
			var payload []byte
			if payload, err = Decode(data); err == nil {
				return payload, c.name, nil
			}
		}
		logger.Warn("snapshot: skipping invalid snapshot",
			"file", c.name, "reason", err)
	}
	return nil, "", nil
}

// NextSeq scans dir and returns the first sequence number past every
// existing snapshot file, valid or corrupt — so a skipped corrupt file is
// never overwritten. A missing directory yields 0, the first sequence of a
// fresh deployment.
func NextSeq(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	var next uint64
	for _, e := range entries {
		if seq, ok := ParseSeq(e.Name()); ok && seq >= next {
			next = seq + 1
		}
	}
	return next, nil
}

// Prune removes all but the newest retain snapshots in dir, plus any
// stray .tmp files left behind by a crashed write. Failures are logged,
// not returned: pruning is housekeeping and must never block a save path.
// A nil logger means slog.Default(); retain < 1 is treated as 1 so the
// newest snapshot always survives.
func Prune(dir string, retain int, logger *slog.Logger) {
	if logger == nil {
		logger = slog.Default()
	}
	if retain < 1 {
		retain = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			logger.Warn("snapshot: prune readdir failed", "dir", dir, "err", err)
		}
		return
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, prefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := ParseSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) <= retain {
		return
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs[retain:] {
		name := FileName(seq)
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			logger.Warn("snapshot: prune failed", "file", name, "err", err)
		} else {
			logger.Debug("snapshot: pruned", "file", name)
		}
	}
}

// syncFile fsyncs the temp file (injection point: fsync failure).
func syncFile(f *os.File) error {
	if err := fault.Inject(fault.SnapshotSync, 0); err != nil {
		return fmt.Errorf("snapshot: fsync %s: %w", f.Name(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("snapshot: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// renameFile renames the temp file into place (injection point: rename
// failure).
func renameFile(oldpath, newpath string) error {
	if err := fault.Inject(fault.SnapshotRename, 0); err != nil {
		return fmt.Errorf("snapshot: rename %s: %w", newpath, err)
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return fmt.Errorf("snapshot: rename %s: %w", newpath, err)
	}
	return nil
}

// syncDir fsyncs dir so a completed rename survives power loss. Best
// effort: some filesystems refuse directory fsync, and the rename itself
// already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
