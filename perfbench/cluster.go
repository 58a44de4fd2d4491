package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"sigstream"
	"sigstream/internal/cluster"
	"sigstream/internal/coord"
	"sigstream/internal/gen"
	"sigstream/internal/server"
	"sigstream/internal/stream"
)

// cluster-gather: three in-process nodes behind one coordinator. The
// producer posts each period's keys as text batches to every replica of
// their partition, then one fresh read runs a gather round (close the
// period, fetch P×R checkpoints, merge one image per partition) and the
// coordinator's top-k.
const (
	clusterNodes    = 3
	clusterParts    = 8
	clusterReplicas = 2
	clusterBatch    = 256 // keys per insert request
	clusterRefEvery = 20  // periods between reference kernel samples in a timed phase
	// nodeTrackerBytes sizes each partition tenant at sigstream's default
	// budget: the partitions cannot hold every key, so the merged top-k
	// is not exact and a merge that double-counts shows in topk_are.
	nodeTrackerBytes = 64 << 10
)

type clusterSize struct {
	arrivals int // trace length (200 periods)
	warm     int // warm-up periods, each closed by a gather round
}

func clusterSizing(smoke bool) clusterSize {
	if smoke {
		return clusterSize{arrivals: 20_000, warm: 5}
	}
	return clusterSize{arrivals: 1_200_000, warm: 10}
}

// bodySet is a trace pre-rendered as text insert bodies in one
// pointer-free slab: body i (newline-separated keys) goes to partition
// part[i] and carries arrivals[i] keys. Period p's bodies are
// [starts[p], starts[p+1]).
type bodySet struct {
	slab     []byte
	off      []int
	part     []uint8
	arrivals []int32
	starts   []int
}

func (b *bodySet) body(i int) []byte { return b.slab[b.off[i]:b.off[i+1]] }

// renderBodies routes every arrival to its partition, as cmd/siggen
// -cluster does, and cuts each period's per-partition key sequence into
// clusterBatch-key bodies.
func renderBodies(tr trace) (bodySet, error) {
	topo, err := cluster.NewTopology([]string{"a", "b", "c"}, clusterParts, clusterReplicas)
	if err != nil {
		return bodySet{}, err
	}
	var bs bodySet
	pending := make([][]byte, clusterParts)
	counts := make([]int, clusterParts)
	flush := func(p int) {
		if counts[p] == 0 {
			return
		}
		bs.off = append(bs.off, len(bs.slab))
		bs.slab = append(bs.slab, pending[p]...)
		bs.part = append(bs.part, uint8(p))
		bs.arrivals = append(bs.arrivals, int32(counts[p]))
		pending[p], counts[p] = pending[p][:0], 0
	}
	var key []byte
	for p := 0; p < tr.periods(); p++ {
		bs.starts = append(bs.starts, len(bs.part))
		for _, it := range tr.period(p) {
			key = appendKey(key[:0], it)
			part := topo.Partition(sigstream.HashKeyBytes(key))
			pending[part] = append(append(pending[part], key...), '\n')
			if counts[part]++; counts[part] == clusterBatch {
				flush(part)
			}
		}
		for part := range pending {
			flush(part)
		}
	}
	bs.starts = append(bs.starts, len(bs.part))
	bs.off = append(bs.off, len(bs.slab))
	return bs, nil
}

// clusterInputs is everything generated before set-up.
type clusterInputs struct {
	size   clusterSize
	tr     trace
	bodies bodySet
	ex     exact
}

func runCluster(cfg runConfig) (outcome, error) {
	in := &clusterInputs{size: clusterSizing(cfg.smoke)}
	in.tr = newTrace(clusterTrace(in.size.arrivals, cfg.seed))
	var err error
	if in.bodies, err = renderBodies(in.tr); err != nil {
		return outcome{}, err
	}
	in.ex = buildExact(in.tr, in.tr.periods(), true)
	pass := func(t *tracer, id int64, setupOnly bool) (passStats, error) {
		return clusterPass(in, t, id, setupOnly)
	}
	return runPasses(cfg, pass, func(t *tracer, _, traced []passStats) (figures, error) {
		return clusterLayers(in, t, traced)
	})
}

// nodeConfig is every node's configuration: server defaults without a
// WAL, with partition tenants of nodeTrackerBytes.
func nodeConfig() server.Config {
	return server.Config{
		MemoryBytes:       server.DefaultOptions().MemoryBytes,
		TenantMemoryBytes: nodeTrackerBytes,
		Weights:           sigstream.Weights(weights),
		Logger:            discard,
	}
}

// clusterLive is one pass's running cluster.
type clusterLive struct {
	nodes  []*server.Server
	fronts []*httpFront
	co     *coord.Server
	cfront *httpFront
	topo   *cluster.Topology
	hc     *http.Client
	epoch  int
}

func (c *clusterLive) close() error {
	var first error
	if c.co != nil {
		first = c.co.Close()
		c.cfront.close()
	}
	for i, n := range c.nodes {
		c.fronts[i].close()
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.hc.CloseIdleConnections()
	return first
}

// startCluster boots the nodes and the coordinator on loopback.
func startCluster() (*clusterLive, error) {
	c := &clusterLive{hc: &http.Client{Timeout: callDeadline}}
	var sites []string
	for i := 0; i < clusterNodes; i++ {
		n := server.New(nodeConfig())
		f, err := serveHTTP(n)
		if err != nil {
			_ = c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.fronts = append(c.fronts, f)
		sites = append(sites, f.url)
	}
	co, err := coord.New(coord.Config{
		Sites: sites, Partitions: clusterParts, Replicas: clusterReplicas,
		ClosePeriods: true, Logger: discard,
	})
	if err != nil {
		_ = c.close()
		return nil, err
	}
	c.co, c.topo = co, co.Topology()
	if c.cfront, err = serveHTTP(co); err != nil {
		c.co = nil
		_ = co.Close()
		_ = c.close()
		return nil, err
	}
	return c, nil
}

// post sends one insert body to one site's partition namespace.
func (c *clusterLive) post(site string, part int, body []byte) error {
	url := site + "/v1/t/" + cluster.PartitionNamespace(part) + "/insert"
	resp, err := c.hc.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// writePeriod posts period p's bodies to every replica of their
// partition, one request in flight, timing each from send to reply.
func (c *clusterLive) writePeriod(in *clusterInputs, p int, ps *passStats, t *tracer, id int64) {
	for i := in.bodies.starts[p]; i < in.bodies.starts[p+1]; i++ {
		part := int(in.bodies.part[i])
		ok := true
		for _, site := range c.topo.ReplicaSites(part) {
			sp := t.begin("client.insert", id)
			t0 := time.Now()
			err := c.post(site, part, in.bodies.body(i))
			ps.insert.add(msSince(t0))
			t.end(sp)
			if err != nil {
				ok = false
				ps.ops.fail()
				continue
			}
			ps.ops.ok()
		}
		if ok {
			ps.arrivals += int(in.bodies.arrivals[i])
		}
	}
}

// topkReply is the coordinator's /v1/topk payload.
type topkReply struct {
	Epoch   int          `json:"epoch"`
	Stale   bool         `json:"stale"`
	Entries []entryReply `json:"entries"`
}

// read runs one fresh read: a gather round, then the coordinator's
// top-k. The round must commit with every partition at quorum and the
// view's epoch must advance by one.
func (c *clusterLive) read(ctx context.Context, t *tracer, id int64) (topkReply, error) {
	var top topkReply
	sp := t.begin("coord.gather", id)
	rep := c.co.GatherNow(ctx)
	t.end(sp)
	if !rep.Committed || rep.QuorumPartitions() != clusterParts {
		return top, fmt.Errorf("round did not commit (%d/%d partitions at quorum): %s", rep.QuorumPartitions(), clusterParts, rep.Reason)
	}
	sp = t.begin("client.topk", id)
	err := getJSON(ctx, c.hc, c.cfront.url+fmt.Sprintf("/v1/topk?k=%d", topK), &top)
	t.end(sp)
	if err != nil {
		return top, err
	}
	if top.Epoch != c.epoch+1 || top.Stale {
		return top, fmt.Errorf("view epoch %d (stale=%v) after epoch %d", top.Epoch, top.Stale, c.epoch)
	}
	c.epoch = top.Epoch
	return top, nil
}

func clusterPass(in *clusterInputs, t *tracer, id int64, setupOnly bool) (passStats, error) {
	var ps passStats
	ctx := context.Background()
	quiesce()
	ps.heapBefore = liveHeap()
	ps.refs = append(ps.refs, refMs())
	root := t.begin("cluster.setup", id)
	start := time.Now()
	c, err := startCluster()
	if err != nil {
		return ps, err
	}
	// Warm-up calls are untraced: the ledger prices the timed phase.
	var warm passStats
	for p := 0; p < in.size.warm && err == nil; p++ {
		c.writePeriod(in, p, &warm, nil, id)
		_, err = c.read(ctx, nil, id)
	}
	if err == nil {
		err = getJSON(ctx, c.hc, c.cfront.url+"/readyz", nil)
	}
	ps.setup = time.Since(start).Seconds()
	t.end(root)
	ps.ops.add(warm.ops)
	if err == nil && warm.ops.failed > 0 {
		err = fmt.Errorf("%d warm-up inserts failed", warm.ops.failed)
	}
	if err == nil && !setupOnly {
		err = clusterTimed(ctx, in, c, &ps, t, id)
	}
	if err == nil && t != nil && !setupOnly {
		ps.layer, err = clusterReadLedger(c, t)
	}
	if cerr := c.close(); err == nil {
		err = cerr
	}
	return ps, err
}

func clusterTimed(ctx context.Context, in *clusterInputs, c *clusterLive, ps *passStats, t *tracer, id int64) error {
	quiesce()
	ps.refs = append(ps.refs, refMs())
	rt0 := readRuntime()
	root := t.begin("cluster.timed", id)
	start := time.Now()
	var top topkReply
	prev := start
	var paused time.Duration // reference kernel samples inside the phase
	for p := in.size.warm; p < in.tr.periods(); p++ {
		arrivals := ps.arrivals
		c.writePeriod(in, p, ps, t, id)
		t0 := time.Now()
		var err error
		top, err = c.read(ctx, t, id)
		if err != nil {
			ps.ops.fail()
			return err
		}
		ps.read.add(msSince(t0))
		ps.ops.ok()
		now := time.Now()
		ps.windows = append(ps.windows, window{arrivals: ps.arrivals - arrivals, wall: now.Sub(prev).Seconds()})
		prev = now
		// A timed phase lasts seconds here, longer than the host keeps one
		// speed, so it samples the reference kernel as it goes, outside
		// the windows and the phase's wall time.
		if (p-in.size.warm+1)%clusterRefEvery == 0 {
			ps.refs = append(ps.refs, refMs())
			prev = time.Now()
			paused += prev.Sub(now)
		}
	}
	ps.wall = (time.Since(start) - paused).Seconds()
	t.end(root)
	ps.rt = readRuntime().sub(rt0)
	ps.refs = append(ps.refs, refMs())
	ps.retained = liveHeap() - ps.heapBefore

	// Every replica of every partition holds exactly the arrivals routed
	// to it, and the view is scored against the oracle.
	want := make([]uint64, clusterParts)
	for i := range in.bodies.part {
		want[in.bodies.part[i]] += uint64(in.bodies.arrivals[i])
	}
	var st sigstream.Stats
	for part := 0; part < clusterParts; part++ {
		ns := cluster.PartitionNamespace(part)
		for _, site := range c.topo.ReplicaSites(part) {
			tn, err := c.nodeAt(site).Tenants().Get(ns)
			if err != nil {
				return err
			}
			ts, err := tn.Stats()
			if err != nil {
				return err
			}
			if ts.Arrivals != want[part] || ts.Tracker.Arrivals != want[part] {
				return fmt.Errorf("%s on %s counts %d arrivals, %d were acked", ns, site, ts.Arrivals, want[part])
			}
			if ts.Periods != uint64(in.tr.periods()) {
				return fmt.Errorf("%s on %s counts %d periods, %d were closed", ns, site, ts.Periods, in.tr.periods())
			}
			addStats(&st, ts.Tracker)
		}
	}
	ps.ltc = st
	var err error
	ps.acc, err = in.ex.score(toEntries(top.Entries))
	return err
}

func (c *clusterLive) nodeAt(site string) *server.Server {
	for i, f := range c.fronts {
		if f.url == site {
			return c.nodes[i]
		}
	}
	return nil
}

// addStats sums the operation counters of b into a.
func addStats(a *sigstream.Stats, b sigstream.Stats) {
	a.Arrivals += b.Arrivals
	a.Hits += b.Hits
	a.Expulsions += b.Expulsions
	a.CellsSwept += b.CellsSwept
}

// clusterTrace is the Network-like key mix (Zipf 0.9, one distinct key
// per five arrivals, short bursty activity windows) cut into 200 long
// periods, one gather round each. The Social-like mix would keep this
// workload's shape closer to its namesake, but its top-1000 is the
// persistent head every partition tracks exactly, so topk_are would read
// 0 on every run and no loss of accuracy could show.
func clusterTrace(n int, seed int64) *stream.Stream {
	return gen.Generate(gen.Config{
		N: n, M: max(n/5, 64), Periods: 200, Skew: 0.9,
		Head: 500, TailWindowFrac: 0.1, Seed: seed, Label: "Network-like/200",
	})
}
