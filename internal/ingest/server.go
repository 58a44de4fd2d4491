package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sigstream/internal/fault"
	"sigstream/internal/obs"
	"sigstream/internal/tenant"
)

// Config configures an ingest listener.
type Config struct {
	// Addr is the TCP listen address ("" disables TCP).
	Addr string
	// UDPAddr is the UDP listen address ("" disables UDP).
	UDPAddr string
	// Registry resolves frame namespaces to tenants.
	Registry *tenant.Registry
	// MaxFrameBytes caps a frame's payload length (DefaultMaxFrameBytes
	// when zero). UDP payloads are additionally bounded by the datagram.
	MaxFrameBytes int
	// Logger receives accept/serve diagnostics (slog.Default when nil).
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of the listener's counters.
type Stats struct {
	// Conns is the number of currently open TCP connections.
	Conns int64
	// ConnsTotal counts TCP connections ever accepted.
	ConnsTotal uint64
	// Frames counts valid TCP frames processed.
	Frames uint64
	// Batches counts batch frames applied (acked StatusOK).
	Batches uint64
	// Arrivals counts weight-expanded arrivals applied over TCP.
	Arrivals uint64
	// Periods counts period frames applied.
	Periods uint64
	// Bytes counts TCP wire bytes consumed (headers and trailers
	// included).
	Bytes uint64
	// Throttled counts frames refused by the tenant's quota.
	Throttled uint64
	// Refused counts frames naming an invalid or deleted namespace.
	Refused uint64
	// BadFrames counts TCP frames that failed structural validation.
	BadFrames uint64
	// Errors counts frames the server failed to apply.
	Errors uint64
	// UDPFrames counts datagrams received on the UDP listener.
	UDPFrames uint64
	// UDPDrops counts datagrams discarded for any reason — corrupt
	// frame, quota denial, refused namespace or apply failure. UDP is
	// fire-and-forget: this counter is the only trace.
	UDPDrops uint64
}

// Server is a running binary ingest listener: an accept loop per
// transport, one goroutine per TCP connection, pooled decode scratch,
// and a graceful drain on Close — every frame fully received before the
// close is processed and acked.
type Server struct {
	cfg Config
	tcp net.Listener
	udp net.PacketConn

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	closed  atomic.Bool
	scratch sync.Pool

	active     atomic.Int64
	connsTotal atomic.Uint64
	frames     atomic.Uint64
	batches    atomic.Uint64
	arrivals   atomic.Uint64
	periods    atomic.Uint64
	bytes      atomic.Uint64
	throttled  atomic.Uint64
	refused    atomic.Uint64
	badFrames  atomic.Uint64
	errs       atomic.Uint64
	udpFrames  atomic.Uint64
	udpDrops   atomic.Uint64
}

// Start opens the configured listeners and begins serving. At least one
// of Addr/UDPAddr must be set.
func Start(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("ingest: Config.Registry is required")
	}
	if cfg.Addr == "" && cfg.UDPAddr == "" {
		return nil, errors.New("ingest: no listen address")
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.scratch.New = func() any { return new(Scratch) }
	if cfg.Addr != "" {
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
		s.tcp = ln
	}
	if cfg.UDPAddr != "" {
		pc, err := net.ListenPacket("udp", cfg.UDPAddr)
		if err != nil {
			if s.tcp != nil {
				_ = s.tcp.Close()
			}
			return nil, err
		}
		s.udp = pc
	}
	if s.tcp != nil {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if s.udp != nil {
		s.wg.Add(1)
		go s.udpLoop()
	}
	return s, nil
}

// Addr reports the TCP listener's address, nil when TCP is disabled.
func (s *Server) Addr() net.Addr {
	if s.tcp == nil {
		return nil
	}
	return s.tcp.Addr()
}

// UDPAddr reports the UDP listener's address, nil when UDP is disabled.
func (s *Server) UDPAddr() net.Addr {
	if s.udp == nil {
		return nil
	}
	return s.udp.LocalAddr()
}

// Close drains the listener: stop accepting, nudge every connection's
// blocked read, and wait for the per-connection loops to finish. A frame
// whose bytes were fully received before the close is processed and
// acked; a frame cut off mid-read is dropped unacked, which is exactly
// the durability contract (never acked, never applied). Idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.tcp != nil {
		_ = s.tcp.Close()
	}
	if s.udp != nil {
		_ = s.udp.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Stats snapshots the listener's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:      s.active.Load(),
		ConnsTotal: s.connsTotal.Load(),
		Frames:     s.frames.Load(),
		Batches:    s.batches.Load(),
		Arrivals:   s.arrivals.Load(),
		Periods:    s.periods.Load(),
		Bytes:      s.bytes.Load(),
		Throttled:  s.throttled.Load(),
		Refused:    s.refused.Load(),
		BadFrames:  s.badFrames.Load(),
		Errors:     s.errs.Load(),
		UDPFrames:  s.udpFrames.Load(),
		UDPDrops:   s.udpDrops.Load(),
	}
}

// Collect writes the sigstream_ingest_* metric families; the server
// registers it with the /metrics registry. Counters are plain atomics,
// so a scrape never touches a tenant lock.
func (s *Server) Collect(w *obs.Writer) {
	st := s.Stats()
	w.Gauge("sigstream_ingest_connections",
		"Open binary ingest TCP connections.", float64(st.Conns))
	w.Counter("sigstream_ingest_connections_total",
		"Binary ingest TCP connections accepted.", float64(st.ConnsTotal))
	w.Counter("sigstream_ingest_frames_total",
		"Valid binary ingest frames received.", float64(st.Frames),
		obs.Label{Name: "proto", Value: "tcp"})
	w.Counter("sigstream_ingest_frames_total",
		"Valid binary ingest frames received.", float64(st.UDPFrames),
		obs.Label{Name: "proto", Value: "udp"})
	w.Counter("sigstream_ingest_batches_total",
		"Binary ingest batches applied.", float64(st.Batches))
	w.Counter("sigstream_ingest_arrivals_total",
		"Weight-expanded arrivals applied via binary ingest.", float64(st.Arrivals))
	w.Counter("sigstream_ingest_periods_total",
		"Period boundaries applied via binary ingest.", float64(st.Periods))
	w.Counter("sigstream_ingest_bytes_total",
		"Binary ingest wire bytes consumed.", float64(st.Bytes))
	w.Counter("sigstream_ingest_throttled_total",
		"Binary ingest frames refused by the tenant's quota.", float64(st.Throttled))
	w.Counter("sigstream_ingest_refused_total",
		"Binary ingest frames naming an invalid or deleted namespace.", float64(st.Refused))
	w.Counter("sigstream_ingest_bad_frames_total",
		"Binary ingest frames failing structural validation.", float64(st.BadFrames))
	w.Counter("sigstream_ingest_errors_total",
		"Binary ingest frames the server failed to apply.", float64(st.Errors))
	w.Counter("sigstream_ingest_udp_drops_total",
		"UDP ingest datagrams discarded (corrupt, throttled, refused or failed).",
		float64(st.UDPDrops))
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.tcp.Accept()
		if err != nil {
			if !s.closed.Load() {
				s.cfg.Logger.Warn("ingest: accept failed", "err", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go s.serve(c)
	}
}

// serve runs one TCP connection: read a frame, decode it zero-copy into
// the pooled scratch, apply it to the frame's tenant, ack. Acks are
// buffered and flushed only when no complete frame is already buffered,
// so a pipelining client pays one syscall per burst, not per batch. The
// last-resolved tenant is cached per connection — the common one-tenant
// feed resolves its namespace once, not per frame.
func (s *Server) serve(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
		s.active.Add(-1)
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	sc := s.scratch.Get().(*Scratch)
	defer s.scratch.Put(sc)
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 8<<10)
	defer func() { _ = bw.Flush() }()
	var hdr [HeaderSize]byte
	var curNS []byte
	var cur *tenant.Tenant
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF, reset, or the drain deadline
		}
		n, err := ParseHeader(hdr[:], s.cfg.MaxFrameBytes)
		if err != nil {
			// Framing is lost: without a trusted length there is no next
			// frame to resync to.
			s.badFrames.Add(1)
			return
		}
		sc.GrowBuf(n + TrailerSize)
		buf := sc.Buf[:n+TrailerSize]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		sum := crc32.Update(0, crc32.IEEETable, hdr[:])
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		if sum != binary.LittleEndian.Uint32(buf[n:]) {
			s.badFrames.Add(1)
			return
		}
		s.frames.Add(1)
		s.bytes.Add(uint64(HeaderSize + n + TrailerSize))
		p := buf[:n]
		h, records, arrivals, perr := ParsePayload(p)
		if perr != nil {
			// The envelope may not have parsed, so h.Seq is best-effort.
			s.badFrames.Add(1)
			s.writeAck(bw, Ack{Seq: h.Seq, Status: StatusBadFrame})
			_ = bw.Flush()
			return
		}
		if cur == nil || !bytes.Equal(h.NS, curNS) {
			tn, terr := s.resolve(h.NS)
			if terr != nil {
				s.refused.Add(1)
				s.writeAck(bw, Ack{Seq: h.Seq, Status: StatusRefused})
				if err := s.maybeFlush(bw, br); err != nil {
					return
				}
				continue
			}
			cur = tn
			curNS = append(curNS[:0], h.NS...)
		}
		var ack Ack
		switch h.Type {
		case TypePeriod:
			ack = s.applyPeriod(cur, h.Seq)
		case TypeBatch:
			if fault.Inject(fault.IngestAccept, 0) != nil {
				// Simulated crash between receive and WAL append: the
				// connection dies with the batch unacked and unapplied.
				s.errs.Add(1)
				return
			}
			sc.Grow(records, arrivals)
			DecodeBatch(p, h, records, sc)
			ack = s.applyBatch(cur, h.Seq, sc)
		}
		s.writeAck(bw, ack)
		if err := s.maybeFlush(bw, br); err != nil {
			return
		}
		if s.closed.Load() {
			_ = bw.Flush()
			return
		}
	}
}

// applyBatch feeds one decoded batch to its tenant and maps the result
// to an ack.
func (s *Server) applyBatch(tn *tenant.Tenant, seq uint32, sc *Scratch) Ack {
	got, err := tn.IngestWire(tenant.WireBatch{Keys: sc.Keys, Weights: sc.Weights, Items: sc.Items})
	if err != nil {
		return s.errAck(seq, err)
	}
	s.batches.Add(1)
	s.arrivals.Add(uint64(got))
	return Ack{Seq: seq, Status: StatusOK, Accepted: uint32(got)}
}

// applyPeriod closes the tenant's period and maps the result to an ack.
func (s *Server) applyPeriod(tn *tenant.Tenant, seq uint32) Ack {
	if _, err := tn.EndPeriod(); err != nil {
		return s.errAck(seq, err)
	}
	s.periods.Add(1)
	return Ack{Seq: seq, Status: StatusOK}
}

// errAck maps a tenant error onto an ack status, counting it.
func (s *Server) errAck(seq uint32, err error) Ack {
	var qe *tenant.QuotaError
	if errors.As(err, &qe) {
		s.throttled.Add(1)
		return Ack{Seq: seq, Status: StatusThrottled, RetryAfter: retrySeconds(qe.RetryAfter)}
	}
	if errors.Is(err, tenant.ErrNotFound) || errors.Is(err, tenant.ErrBadNamespace) {
		s.refused.Add(1)
		return Ack{Seq: seq, Status: StatusRefused}
	}
	s.errs.Add(1)
	s.cfg.Logger.Warn("ingest: apply failed", "err", err)
	return Ack{Seq: seq, Status: StatusError}
}

// resolve maps a frame's namespace bytes to its tenant; empty means the
// default tenant. The string conversion allocates only on a connection's
// namespace switch — serve caches the result.
func (s *Server) resolve(ns []byte) (*tenant.Tenant, error) {
	if len(ns) == 0 {
		return s.cfg.Registry.Get(tenant.DefaultNamespace)
	}
	return s.cfg.Registry.GetOrCreate(string(ns))
}

func (s *Server) writeAck(bw *bufio.Writer, a Ack) {
	var buf [AckSize]byte
	_, _ = bw.Write(AppendAck(buf[:0], a))
}

// maybeFlush flushes buffered acks when the reader holds no complete
// next frame — the batching heuristic that makes pipelined clients pay
// one write per burst while a synchronous client still gets its ack
// immediately.
func (s *Server) maybeFlush(bw *bufio.Writer, br *bufio.Reader) error {
	if br.Buffered() >= HeaderSize {
		return nil
	}
	return bw.Flush()
}

// udpLoop serves the fire-and-forget transport: one frame per datagram,
// no acks, every discard counted in UDPDrops.
func (s *Server) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	sc := &Scratch{}
	var curNS []byte
	var cur *tenant.Tenant
	for {
		n, _, err := s.udp.ReadFrom(buf)
		if err != nil {
			if !s.closed.Load() {
				s.cfg.Logger.Warn("ingest: udp read failed", "err", err)
			}
			return
		}
		s.udpFrames.Add(1)
		p, err := VerifyFrame(buf[:n], s.cfg.MaxFrameBytes)
		if err != nil {
			s.udpDrops.Add(1)
			continue
		}
		h, records, arrivals, perr := ParsePayload(p)
		if perr != nil {
			s.udpDrops.Add(1)
			continue
		}
		if cur == nil || !bytes.Equal(h.NS, curNS) {
			tn, terr := s.resolve(h.NS)
			if terr != nil {
				s.udpDrops.Add(1)
				continue
			}
			cur = tn
			curNS = append(curNS[:0], h.NS...)
		}
		switch h.Type {
		case TypePeriod:
			if _, err := cur.EndPeriod(); err != nil {
				s.udpDrops.Add(1)
				continue
			}
			s.periods.Add(1)
		case TypeBatch:
			sc.Grow(records, arrivals)
			DecodeBatch(p, h, records, sc)
			got, err := cur.IngestWire(tenant.WireBatch{Keys: sc.Keys, Weights: sc.Weights, Items: sc.Items})
			if err != nil {
				s.udpDrops.Add(1)
				continue
			}
			s.batches.Add(1)
			s.arrivals.Add(uint64(got))
		}
	}
}

// retrySeconds renders a retry hint as whole seconds, rounded up, capped
// at the u16 the ack frame carries.
func retrySeconds(d time.Duration) uint16 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 0xffff {
		secs = 0xffff
	}
	return uint16(secs)
}
