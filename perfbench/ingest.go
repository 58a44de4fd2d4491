package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"sigstream"
	"sigstream/internal/gen"
	"sigstream/internal/server"
	"sigstream/internal/tenant"
)

// ingest-binary: one in-process server with snapshots on (no WAL), fed
// pre-rendered binary frames over one TCP connection while a second
// connection reads the top-k on a fixed schedule. Set-up is crash
// recovery of a seeded tenant from its snapshot.
const (
	ingNS        = "bench"
	ingWindow    = 4                     // frames in flight
	ingReadGap   = 50 * time.Millisecond // open-loop reader schedule
	ingAckWindow = 8                     // batch acks per window of arrivals_per_s
)

type ingSize struct {
	arrivals int // trace length (Network-like: 1000 periods)
	prefix   int // periods ingested before the crash
}

func ingSizing(smoke bool) ingSize {
	if smoke {
		return ingSize{arrivals: 60_000, prefix: 500}
	}
	return ingSize{arrivals: 2_400_000, prefix: 500}
}

// discard is the logger of every server under test.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// ingServerConfig is the server configuration of ingest-binary: server
// defaults (no WAL), with the tenant tracker sized like core-replay's.
// The WAL stays out of the timed path because its fsync, on the
// checkout's disk, set this workload's numbers (see README.md); the
// traced run prices the WAL append and replay on the same frames.
func ingServerConfig() server.Config {
	return server.Config{
		MemoryBytes:       server.DefaultOptions().MemoryBytes,
		TenantMemoryBytes: trackerBytes,
		Weights:           sigstream.Weights(weights),
		Logger:            discard,
	}
}

// ingInputs is everything generated before set-up.
type ingInputs struct {
	size    ingSize
	tr      trace
	frames  frameSet
	starts  []int // first frame of every period
	ex      exact
	seedDir string // pristine crash image (the snapshot directory)
	seeded  seededState
}

// seededState is what the abandoned server had acknowledged.
type seededState struct {
	arrivals int
	periods  int
	keys     int
	image    []byte
}

func runIngest(cfg runConfig) (outcome, error) {
	in, err := prepareIngest(cfg)
	if err != nil {
		return outcome{}, err
	}
	pass := func(t *tracer, id int64, setupOnly bool) (passStats, error) {
		return ingPass(cfg, in, t, id, setupOnly)
	}
	return runPasses(cfg, pass, func(t *tracer, untraced, traced []passStats) (figures, error) {
		return ingLayers(cfg, in, t, untraced, traced)
	})
}

// prepareIngest generates the trace, its frames and its oracle, then builds
// the crash image: a server ingests the prefix, saves it, and is
// abandoned without Close; its directories are copied as they stand.
func prepareIngest(cfg runConfig) (*ingInputs, error) {
	in := &ingInputs{size: ingSizing(cfg.smoke)}
	in.tr = newTrace(gen.NetworkLike(in.size.arrivals, cfg.seed))
	var err error
	if in.frames, in.starts, err = renderFrames(in.tr, ingNS); err != nil {
		return nil, err
	}
	in.ex = buildExact(in.tr, in.tr.periods(), true)

	live := filepath.Join(cfg.dir, "seeding")
	srv, addr, err := startIngestServer(live)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(callDeadline))
	st, err := produce(conn, &in.frames, 0, in.starts[in.size.prefix], ingWindow, nil, 0)
	_ = conn.Close()
	var tn *tenant.Tenant
	if err == nil {
		if tn, err = srv.Tenants().Get(ingNS); err == nil {
			_, err = tn.Save()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	if st.ops.failed > 0 {
		return nil, fmt.Errorf("seeding: %d frames refused", st.ops.failed)
	}
	ts, err := tn.Stats()
	if err != nil {
		return nil, err
	}
	img, err := tn.CheckpointImage()
	if err != nil {
		return nil, err
	}
	in.seeded = seededState{arrivals: st.acked, periods: in.size.prefix, keys: ts.Keys, image: img}
	if ts.Arrivals != uint64(st.acked) || ts.Periods != uint64(in.size.prefix) {
		return nil, fmt.Errorf("seeding: tenant counts %d arrivals / %d periods, %d / %d were acked",
			ts.Arrivals, ts.Periods, st.acked, in.size.prefix)
	}
	// The crash: copy the directories while the server still holds them,
	// then let the abandoned server go.
	in.seedDir = filepath.Join(cfg.dir, "crash")
	if err := copyTree(live, in.seedDir); err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return in, os.RemoveAll(live)
}

// startIngestServer starts a server on dir with snapshots and the binary
// listener, returning it and the listener's address.
func startIngestServer(dir string) (*server.Server, string, error) {
	srv := server.New(ingServerConfig())
	if err := srv.StartSnapshots(server.SnapshotConfig{Dir: filepath.Join(dir, "snap"),
		Interval: time.Duration(server.DefaultOptions().SnapshotInterval)}); err != nil {
		return nil, "", err
	}
	if err := srv.StartIngest(server.IngestConfig{Addr: "127.0.0.1:0"}); err != nil {
		return nil, "", err
	}
	return srv, srv.Ingest().Addr().String(), nil
}

// httpFront serves h on a loopback listener until close.
type httpFront struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

func (f *httpFront) close() {
	_ = f.srv.Close()
	<-f.done
}

// ingStatsReply is the part of /v1/t/{ns}/stats the checks read.
type ingStatsReply struct {
	Arrivals uint64 `json:"arrivals"`
	Periods  uint64 `json:"periods"`
	Keys     int    `json:"distinct_keys_seen"`
}

// getJSON GETs url and decodes a 200 reply into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// entryReply is one /top or /topk entry.
type entryReply struct {
	Item         uint64  `json:"item"`
	Frequency    uint64  `json:"frequency"`
	Persistency  uint64  `json:"persistency"`
	Significance float64 `json:"significance"`
}

func toEntries(es []entryReply) []sigstream.Entry {
	out := make([]sigstream.Entry, len(es))
	for i, e := range es {
		out[i] = sigstream.Entry{Item: e.Item, Frequency: e.Frequency, Persistency: e.Persistency, Significance: e.Significance}
	}
	return out
}

// ingLive is one pass's running system, kept for the traced ledger.
type ingLive struct {
	srv   *server.Server
	front *httpFront
	dir   string
}

func (l *ingLive) close() error {
	l.front.close()
	err := l.srv.Close()
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

func ingPass(cfg runConfig, in *ingInputs, t *tracer, id int64, setupOnly bool) (passStats, error) {
	live, ps, err := ingSetup(cfg, in, t, id)
	if err != nil {
		return ps, err
	}
	if !setupOnly {
		err = ingTimed(in, live, &ps, t, id)
	}
	if err == nil && t != nil && !setupOnly {
		ps.layer, err = ingReadLedger(live, t)
	}
	if cerr := live.close(); err == nil {
		err = cerr
	}
	return ps, err
}

// ingSetup restores a private copy of the crash image and times the
// recovery: New, StartSnapshots, StartIngest, the HTTP listener and the
// first tenant stats request, which revives the tenant from its newest
// snapshot.
func ingSetup(cfg runConfig, in *ingInputs, t *tracer, id int64) (*ingLive, passStats, error) {
	var ps passStats
	dir := filepath.Join(cfg.dir, fmt.Sprintf("pass-%d", id))
	if err := copyTree(in.seedDir, dir); err != nil {
		return nil, ps, err
	}
	quiesce()
	before := liveHeap()
	ps.refs = append(ps.refs, refMs())
	root := t.begin("ingest.setup", id)
	start := time.Now()
	srv, _, err := startIngestServer(dir)
	if err != nil {
		return nil, ps, err
	}
	front, err := serveHTTP(srv)
	if err != nil {
		return nil, ps, err
	}
	live := &ingLive{srv: srv, front: front, dir: dir}
	var st ingStatsReply
	sp := t.begin("client.stats", id)
	err = getJSON(context.Background(), http.DefaultClient, front.url+"/v1/t/"+ingNS+"/stats", &st)
	t.end(sp)
	ps.setup = time.Since(start).Seconds()
	t.end(root)
	ps.heapBefore = before
	if err != nil {
		_ = live.close()
		return nil, ps, fmt.Errorf("recovery: %w", err)
	}
	ps.ops.ok()
	// The revived tenant must hold exactly the acknowledged prefix.
	if st.Arrivals != uint64(in.seeded.arrivals) || st.Periods != uint64(in.seeded.periods) || st.Keys != in.seeded.keys {
		_ = live.close()
		return nil, ps, fmt.Errorf("recovered %d arrivals / %d periods / %d keys, the crashed server had acked %d / %d / %d",
			st.Arrivals, st.Periods, st.Keys, in.seeded.arrivals, in.seeded.periods, in.seeded.keys)
	}
	tn, err := srv.Tenants().Get(ingNS)
	if err == nil {
		var img []byte
		if img, err = tn.CheckpointImage(); err == nil && !bytes.Equal(img, in.seeded.image) {
			err = fmt.Errorf("recovered tracker image differs from the crashed server's")
		}
	}
	if err != nil {
		_ = live.close()
		return nil, ps, err
	}
	return live, ps, nil
}

// ingTimed runs the body: the producer streams every remaining frame
// while the reader fetches the top-k every ingReadGap, timed from its due
// time. No snapshot is taken here (see README.md, "Snapshots").
func ingTimed(in *ingInputs, live *ingLive, ps *passStats, t *tracer, id int64) error {
	tn, err := live.srv.Tenants().Get(ingNS)
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", live.srv.Ingest().Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(callDeadline))
	client := &http.Client{Timeout: callDeadline}
	first, last := in.starts[in.size.prefix], in.frames.n()

	quiesce()
	ps.refs = append(ps.refs, refMs())
	rt0 := readRuntime()
	var rt *tracer
	if t != nil {
		rt = newTracer(t.origin)
	}
	root := t.begin("ingest.timed", id)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads readerStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = openLoopReader(client, live.front.url+"/v1/t/"+ingNS+fmt.Sprintf("/top?k=%d", topK), start, ingReadGap, stop, rt, id)
	}()
	st, perr := produce(conn, &in.frames, first, last, ingWindow, t, id)
	ps.wall = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	t.end(root)
	if t != nil {
		t.absorb(rt)
	}
	ps.rt = readRuntime().sub(rt0)
	ps.refs = append(ps.refs, refMs())
	if perr != nil {
		return perr
	}
	ps.arrivals, ps.insert = st.acked, st.insert
	ps.read, ps.late = reads.read, reads.late
	ps.ops.add(st.ops)
	ps.ops.add(reads.ops)
	ps.windowWait = st.windowWait
	ps.batches = st.batches
	ps.windows = ackWindows(start, st.acks, ingAckWindow)
	ps.retained = liveHeap() - ps.heapBefore

	// Every acked arrival is in the tenant, and the final top-k is scored
	// against the oracle over the whole acked stream.
	ts, err := tn.Stats()
	if err != nil {
		return err
	}
	want := uint64(in.seeded.arrivals + st.acked)
	if ts.Arrivals != want || ts.Tracker.Arrivals != want {
		return fmt.Errorf("tenant counts %d arrivals (tracker %d), %d were acked", ts.Arrivals, ts.Tracker.Arrivals, want)
	}
	if ts.Periods != uint64(in.tr.periods()) {
		return fmt.Errorf("tenant counts %d periods, %d were closed", ts.Periods, in.tr.periods())
	}
	ps.ltc = ts.Tracker
	ps.keys = ts.Keys
	var top []entryReply
	if err := getJSON(context.Background(), client, live.front.url+"/v1/t/"+ingNS+fmt.Sprintf("/top?k=%d", topK), &top); err != nil {
		return err
	}
	ps.acc, err = in.ex.score(toEntries(top))
	return err
}

// ackWindows cuts a producer's acknowledged batch frames into windows of
// n frames, each running from the ack before its first frame (or the
// start of the phase) to its last frame's ack; a short tail is dropped.
func ackWindows(start time.Time, acks []event, n int) []window {
	var out []window
	prev := start
	for i := n - 1; i < len(acks); i += n {
		w := window{wall: acks[i].at.Sub(prev).Seconds()}
		for _, e := range acks[i-n+1 : i+1] {
			w.arrivals += e.arrivals
		}
		out = append(out, w)
		prev = acks[i].at
	}
	return out
}

// readerStats is what the open-loop reader observed.
type readerStats struct {
	read dist // ms from due time to the full reply
	late dist // ms the request was sent after its due time
	ops  tally
}

// openLoopReader GETs url at start, start+gap, start+2·gap, … until stop
// closes, never skipping a due read: a stalled reply delays the next send,
// and that delay counts in the next read's latency and lateness.
func openLoopReader(c *http.Client, url string, start time.Time, gap time.Duration, stop <-chan struct{}, t *tracer, id int64) readerStats {
	var rs readerStats
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * gap)
		sleepUntil(due)
		select {
		case <-stop:
			return rs
		default:
		}
		sent := time.Now()
		rs.late.add(float64(sent.Sub(due).Nanoseconds()) / 1e6)
		err := getJSON(context.Background(), c, url, nil)
		done := time.Now()
		t.record("client.read", id, sent, done)
		if err != nil {
			rs.ops.fail()
			continue
		}
		rs.ops.ok()
		rs.read.add(float64(done.Sub(due).Nanoseconds()) / 1e6)
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// sleepUntil blocks the calling thread in the kernel until t. The
// reader does not wait on a runtime timer: while the producer and the
// server's connection goroutine keep both processors cycling through
// short syscalls, a timer on a busy processor was measured firing up to
// 0.9 s late, which would have slowed the open-loop schedule with the
// system it measures.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
