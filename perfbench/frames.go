package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"sigstream/internal/ingest"
)

// frameKeys is the records per pre-rendered batch frame.
const frameKeys = 1024

// frameSet is a trace pre-rendered as complete binary ingest frames in
// one pointer-free slab: frame i is slab[off[i]:off[i+1]]. A frame with
// arrivals[i] == 0 is a period boundary.
type frameSet struct {
	slab     []byte
	off      []int
	arrivals []int32
}

func (f *frameSet) n() int                 { return len(f.arrivals) }
func (f *frameSet) frame(i int) []byte     { return f.slab[f.off[i]:f.off[i+1]] }
func (f *frameSet) isPeriod(i int) bool    { return f.arrivals[i] == 0 }
func (f *frameSet) bytes(from, to int) int { return f.off[to] - f.off[from] }

// renderFrames renders periods [0, periods) of tr for namespace ns: each
// period's arrivals in frameKeys-record batch frames, then one period
// frame. It also returns the index of the first frame of every period
// (plus the end).
func renderFrames(tr trace, ns string) (frameSet, []int, error) {
	var fs frameSet
	starts := make([]int, 0, tr.periods()+1)
	keys := make([]string, 0, frameKeys)
	var payload, key []byte
	seq := uint32(0)
	emit := func(p []byte, arrivals int) {
		fs.off = append(fs.off, len(fs.slab))
		fs.slab = ingest.AppendFrame(fs.slab, p)
		fs.arrivals = append(fs.arrivals, int32(arrivals))
	}
	var err error
	for p := 0; p < tr.periods(); p++ {
		starts = append(starts, fs.n())
		items := tr.period(p)
		for off := 0; off < len(items); off += frameKeys {
			keys = keys[:0]
			for _, it := range items[off:min(off+frameKeys, len(items))] {
				key = appendKey(key[:0], it)
				keys = append(keys, string(key))
			}
			seq++
			if payload, err = ingest.AppendBatchPayload(payload[:0], seq, ns, keys, nil); err != nil {
				return fs, nil, err
			}
			emit(payload, len(keys))
		}
		seq++
		if payload, err = ingest.AppendPeriodPayload(payload[:0], seq, ns); err != nil {
			return fs, nil, err
		}
		emit(payload, 0)
	}
	starts = append(starts, fs.n())
	fs.off = append(fs.off, len(fs.slab))
	return fs, starts, nil
}

// sendStats is what one producer run observed.
type sendStats struct {
	acked      int  // arrivals acknowledged OK
	insert     dist // ms per batch frame, send to ack
	acks       []event
	windowWait time.Duration
	batches    int
	ops        tally
}

// produce sends frames [from, to) over conn keeping at most window
// frames unacknowledged, times every frame from its send to its ack, and
// returns once every frame is acknowledged; t records a span per frame
// and per full-window wait.
func produce(conn net.Conn, fs *frameSet, from, to, window int, t *tracer, req int64) (sendStats, error) {
	var st sendStats
	br := bufio.NewReaderSize(conn, 4<<10)
	sent := make([]time.Time, window)
	var ack [ingest.AckSize]byte
	next, done := from, from
	for done < to {
		if next < to && next-done < window {
			sent[(next-from)%window] = time.Now()
			if _, err := conn.Write(fs.frame(next)); err != nil {
				return st, fmt.Errorf("send frame %d: %w", next, err)
			}
			next++
			continue
		}
		full := next-done == window && next < to
		w0 := time.Now()
		if _, err := io.ReadFull(br, ack[:]); err != nil {
			return st, fmt.Errorf("ack of frame %d: %w", done, err)
		}
		now := time.Now()
		if full {
			st.windowWait += now.Sub(w0)
			if t != nil {
				t.record("ingest.window_wait", req, w0, now)
			}
		}
		a, err := ingest.ParseAck(ack[:])
		if err != nil {
			return st, err
		}
		start := sent[(done-from)%window]
		if t != nil {
			t.record("client.frame", req, start, now)
		}
		switch {
		case a.Status != ingest.StatusOK:
			st.ops.fail()
		case fs.isPeriod(done):
			st.ops.ok()
		default:
			st.ops.ok()
			st.acked += int(a.Accepted)
			st.batches++
			ms := float64(now.Sub(start).Nanoseconds()) / 1e6
			st.insert.add(ms)
			st.acks = append(st.acks, event{at: now, arrivals: int(a.Accepted)})
		}
		done++
	}
	return st, nil
}
