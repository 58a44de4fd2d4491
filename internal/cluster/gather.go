// Networked quorum gather: the failure-first core of the cluster tier.
// A Gatherer owns the partition topology and one SiteClient per member
// site; each Round pulls every partition's checkpoint from its replica
// sites — deadline per call, full-jitter retry for transient failures,
// no retry for deterministic ones, per-site circuit breaker — and
// commits the partitions' images as the cluster view only when every
// partition reached read quorum (⌈R/2⌉ replicas reported) and every image
// ranks by the same weights. On quorum loss the previous
// committed view keeps serving with a growing staleness age: a stale
// cluster-wide ranking beats no ranking, and beats a silently partial
// one even more.
//
// Round uses a named return so its deferred bookkeeping (breaker
// transitions, site reports, the last-round record) lands in the value
// the caller sees even when the commit fault hook panics mid-round.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"sigstream"
	"sigstream/internal/fault"
)

// ErrNoPartition is the sentinel a SiteClient returns from
// FetchCheckpoint when the site is reachable but has never seen the
// partition's namespace (a cluster warming up, or a partition with no
// traffic yet). It counts as a successful, empty report for quorum — the
// site answered; there is simply no image to keep.
var ErrNoPartition = errors.New("cluster: partition namespace not present on site")

// ErrUnchanged is the sentinel a SiteClient returns from FetchCheckpoint
// when the site's tracker carries the tag the fetch was asked with, so it
// shipped no image. It counts as a successful report for quorum: the
// replica matches the image the round already holds.
var ErrUnchanged = errors.New("cluster: partition unchanged since the tagged image")

// SiteClient is the transport to one sigserver node. The production
// implementation wraps internal/client over HTTP; tests substitute
// in-process fakes. Every call must honor its context deadline.
type SiteClient interface {
	// FetchCheckpoint downloads the binary checkpoint of one partition
	// namespace (a Sharded image, as served by the checkpoint route).
	// Unknown namespaces map to ErrNoPartition. A non-empty tag (a
	// sigstream.CheckpointTag) makes the fetch conditional: a site whose
	// tracker carries that tag ships nothing and the call returns
	// ErrUnchanged.
	FetchCheckpoint(ctx context.Context, ns, tag string) ([]byte, error)
	// FetchNames returns up to k of the namespace's top items with their
	// registered key strings, for display-name resolution in the cluster
	// view; an item the site cannot name is left out. Best-effort: an
	// error degrades names, never the round.
	FetchNames(ctx context.Context, ns string, k int) (map[uint64]string, error)
	// Ready probes the site's readiness endpoint; it gates half-opening a
	// tripped breaker.
	Ready(ctx context.Context) error
}

// GatherConfig shapes a Gatherer. Topology and Clients are required;
// zero values elsewhere select defaults.
type GatherConfig struct {
	// Topology is the cluster's partition map.
	Topology *Topology
	// Clients maps each topology site name to its transport.
	Clients map[string]SiteClient
	// Retry bounds the per-fetch backoff for transient failures.
	Retry RetryPolicy
	// Breaker bounds each site's circuit breaker.
	Breaker BreakerConfig
	// FetchTimeout is the deadline applied to every remote call
	// (default 2s).
	FetchTimeout time.Duration
	// ResolveNames is the number of top items per partition whose key
	// strings the cluster view holds (default 64; negative disables
	// resolution). A round asks a partition's replica for names only when
	// one of these items has none in the previous view.
	ResolveNames int

	// now replaces time.Now in tests.
	now func() time.Time
}

// SiteHealth classifies one site in a round report.
type SiteHealth string

// The site health classes surfaced by cluster status: healthy (delivered
// everything asked of it), degraded (answered with failures, breaker
// still closed or trialing), tripped (breaker open; the site is being
// skipped).
const (
	SiteHealthy  SiteHealth = "healthy"
	SiteDegraded SiteHealth = "degraded"
	SiteTripped  SiteHealth = "tripped"
)

// SiteReport is one site's state after a round.
type SiteReport struct {
	// Site is the topology site name.
	Site string `json:"site"`
	// Health is the coarse classification.
	Health SiteHealth `json:"health"`
	// Breaker is the breaker position after the round.
	Breaker string `json:"breaker"`
	// Failures is the consecutive failed-round streak while closed.
	Failures int `json:"failures,omitempty"`
	// LastEpoch is the last committed epoch this site contributed to
	// (0 before its first contribution).
	LastEpoch int `json:"last_epoch"`
	// Skips lists this round's skip reasons, one per partition fetch the
	// site failed or was excused from.
	Skips []string `json:"skips,omitempty"`
}

// PartitionReport is one partition's outcome in a round.
type PartitionReport struct {
	// Partition is the partition index.
	Partition int `json:"partition"`
	// Namespace is the tenant namespace hosting the partition.
	Namespace string `json:"namespace"`
	// Reported is the number of replicas that answered this round.
	Reported int `json:"reported"`
	// Quorum reports whether Reported reached ⌈R/2⌉.
	Quorum bool `json:"quorum"`
	// MergedFrom is the replica site whose image entered the view
	// (empty when the partition had no data or missed quorum).
	MergedFrom string `json:"merged_from,omitempty"`
	// Empty reports that every answering replica had no data.
	Empty bool `json:"empty,omitempty"`
}

// RoundReport describes one gather round end to end.
type RoundReport struct {
	// Epoch is the view epoch after the round (unchanged if uncommitted).
	Epoch int `json:"epoch"`
	// Committed reports whether the round installed a new view.
	Committed bool `json:"committed"`
	// Reason explains an uncommitted round.
	Reason string `json:"reason,omitempty"`
	// Partitions holds one entry per partition, in index order.
	Partitions []PartitionReport `json:"partitions"`
	// Sites holds one entry per topology site, in name order.
	Sites []SiteReport `json:"sites"`
}

// QuorumPartitions counts partitions that reached quorum this round.
func (r RoundReport) QuorumPartitions() int {
	n := 0
	for _, p := range r.Partitions {
		if p.Quorum {
			n++
		}
	}
	return n
}

// HealthySites counts sites classified healthy this round.
func (r RoundReport) HealthySites() int {
	n := 0
	for _, s := range r.Sites {
		if s.Health == SiteHealthy {
			n++
		}
	}
	return n
}

// ViewEntry is one ranked item of the cluster view, with its display key
// when a replica's top list resolved one.
type ViewEntry struct {
	// Key is the registered key string, or a decimal rendering of the
	// item hash when no site resolved a name.
	Key string `json:"key"`
	// Item is the item identifier.
	Item uint64 `json:"item"`
	// Frequency is the estimated number of appearances cluster-wide.
	Frequency uint64 `json:"frequency"`
	// Persistency is the estimated number of periods with ≥1 appearance.
	Persistency uint64 `json:"persistency"`
	// Significance is the weighted score.
	Significance float64 `json:"significance"`
}

// ViewInfo describes the committed view being served.
type ViewInfo struct {
	// Epoch is the view's commit epoch.
	Epoch int `json:"epoch"`
	// Committed is when the view was installed.
	Committed time.Time `json:"committed"`
	// AgeSeconds is how old the view was at query time.
	AgeSeconds float64 `json:"age_seconds"`
	// Stale reports that at least one round has failed to commit since
	// this view was installed — the answers are real but not current.
	Stale bool `json:"stale"`
	// MemoryBytes is the size of the view: the summed tracker budgets of
	// the partition images it holds.
	MemoryBytes int `json:"memory_bytes"`
}

// GatherStats is a counters snapshot for metrics export.
type GatherStats struct {
	// Rounds is the number of gather rounds run.
	Rounds uint64
	// Commits is the number of rounds that installed a new view.
	Commits uint64
	// StaleRounds is the number of rounds that failed to commit.
	StaleRounds uint64
	// Fetches is the number of checkpoint fetch attempts (retries count).
	Fetches uint64
	// FetchesUnchanged is the number of conditional fetch attempts a site
	// answered with no image, its tracker matching the tag asked with.
	FetchesUnchanged uint64
	// FetchErrors is the number of failed fetch attempts.
	FetchErrors uint64
	// NameFetches is the number of FetchNames calls: one per committed
	// partition whose top items the previous view could not all name.
	NameFetches uint64
	// SiteSkips counts per-site partition skips across all rounds.
	SiteSkips map[string]uint64
	// BreakerState is each site's current breaker position.
	BreakerState map[string]BreakerState
	// ViewEpoch is the committed view's epoch (0 before the first).
	ViewEpoch int
	// ViewAgeSeconds is the committed view's age (0 before the first).
	ViewAgeSeconds float64
	// Sites is the topology's member count.
	Sites int
	// SitesHealthy is the healthy-site count of the last round.
	SitesHealthy int
	// Partitions is the topology's partition count.
	Partitions int
	// PartitionsQuorum is the last round's quorum-partition count.
	PartitionsQuorum int
}

// view is one committed cluster snapshot: the winning image of every
// partition that had data, ranked together by one selection, and the
// names of each partition's top items.
type view struct {
	epoch     int
	committed time.Time
	parts     []*sigstream.Sharded // empty when the committed cluster was empty
	bytes     int                  // summed MemoryBytes of parts
	names     map[uint64]string

	// rankMu guards ranked, the view's highest-ranked entries as deep as
	// any read has asked so far, and complete, set once ranked holds every
	// cell of every part.
	rankMu   sync.Mutex
	ranked   []ViewEntry
	complete bool
}

// top returns a copy of the view's k highest-ranked entries. A committed
// view never changes and the ranking is a total order (significance, then
// item), so the top k of any shallower read is a prefix of a deeper one:
// the view runs the selection across its parts only when a read asks
// deeper than any before it, and answers every other read from ranked.
func (v *view) top(k int) []ViewEntry {
	v.rankMu.Lock()
	defer v.rankMu.Unlock()
	if k > len(v.ranked) && !v.complete {
		ranked := sigstream.TopKAcross(k, v.parts...)
		v.ranked = make([]ViewEntry, len(ranked))
		for i, e := range ranked {
			key, found := v.names[e.Item]
			if !found {
				key = strconv.FormatUint(e.Item, 10)
			}
			v.ranked[i] = ViewEntry{
				Key:          key,
				Item:         e.Item,
				Frequency:    e.Frequency,
				Persistency:  e.Persistency,
				Significance: e.Significance,
			}
		}
		v.complete = len(ranked) < k
	}
	out := make([]ViewEntry, min(k, len(v.ranked)))
	copy(out, v.ranked)
	return out
}

// Gatherer runs quorum gather rounds and serves the committed view.
// Rounds are serialized on roundMu; view readers only take mu, so a slow
// round (retries, timeouts) never blocks TopK or Status.
//
//sig:lockorder roundMu < mu
type Gatherer struct {
	cfg     GatherConfig
	topo    *Topology
	timeout time.Duration
	resolve int
	now     func() time.Time

	roundMu sync.Mutex // serializes Round

	mu        sync.Mutex
	sites     map[string]*siteEntry
	cur       *view
	lastRound *RoundReport
	rounds    uint64
	commits   uint64
	stale     uint64
	fetches   uint64
	unchanged uint64
	fetchErrs uint64
	nameCalls uint64
	skips     map[string]uint64
}

// siteEntry is the per-site state the gatherer tracks across rounds.
type siteEntry struct {
	b         *breaker
	lastEpoch int
}

// NewGatherer builds a gatherer over cfg. Every topology site must have
// a client.
func NewGatherer(cfg GatherConfig) (*Gatherer, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: gatherer needs a topology")
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	resolve := cfg.ResolveNames
	if resolve == 0 {
		resolve = 64
	}
	if resolve < 0 {
		resolve = 0
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	g := &Gatherer{
		cfg:     cfg,
		topo:    cfg.Topology,
		timeout: cfg.FetchTimeout,
		resolve: resolve,
		now:     cfg.now,
		sites:   make(map[string]*siteEntry),
		skips:   make(map[string]uint64),
	}
	for _, site := range cfg.Topology.Sites() {
		if cfg.Clients[site] == nil {
			return nil, fmt.Errorf("cluster: no client for site %s", site)
		}
		g.sites[site] = &siteEntry{b: newBreaker(cfg.Breaker)}
	}
	return g, nil
}

// fetchClass classifies one replica fetch outcome.
type fetchClass int

const (
	fetchOK fetchClass = iota
	fetchEmpty
	fetchUnchanged // the replica matches the tagged image already held
	fetchCorrupt
	fetchUnreachable
	fetchCanceled // the caller's context ended the fetch; no fault of the site
)

// replicaFetch is one replica's round outcome for one partition. The
// decoded tracker is what the view keeps: each image is decoded once.
type replicaFetch struct {
	class   fetchClass
	tracker *sigstream.Sharded
	err     error
}

// tag is the version tag of the fetched image, empty when none was
// decoded.
func (r replicaFetch) tag() string {
	if r.tracker == nil {
		return ""
	}
	st := r.tracker.Stats()
	return sigstream.CheckpointTag(st.Periods, st.Arrivals)
}

// fetchReplica pulls and validates one partition checkpoint from one
// site, retrying transient failures under the configured policy. A
// non-empty tag is passed on, so a site whose tracker matches it answers
// fetchUnchanged instead of shipping an image.
// Deterministic failures (a corrupt image) surface immediately: re-asking
// the same question gets the same broken answer. Once ctx is done the
// fetch stops, backoff included, and reports fetchCanceled: the caller
// gave up, so the outcome says nothing about the site.
func (g *Gatherer) fetchReplica(ctx context.Context, sc SiteClient, ns, tag string) replicaFetch {
	p := g.cfg.Retry.withDefaults()
	delay := p.BaseDelay
	var lastErr error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			p.sleep(ctx, time.Duration(p.rand()*float64(delay)))
			delay *= 2
			if delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		if err := ctx.Err(); err != nil {
			return replicaFetch{class: fetchCanceled, err: err}
		}
		g.mu.Lock()
		g.fetches++
		g.mu.Unlock()
		cctx, cancel := context.WithTimeout(ctx, g.timeout)
		img, err := sc.FetchCheckpoint(cctx, ns, tag)
		cancel()
		if errors.Is(err, ErrNoPartition) {
			return replicaFetch{class: fetchEmpty}
		}
		if errors.Is(err, ErrUnchanged) {
			g.mu.Lock()
			g.unchanged++
			g.mu.Unlock()
			return replicaFetch{class: fetchUnchanged}
		}
		if err != nil && ctx.Err() != nil {
			return replicaFetch{class: fetchCanceled, err: ctx.Err()}
		}
		if err != nil {
			g.mu.Lock()
			g.fetchErrs++
			g.mu.Unlock()
			lastErr = err
			continue
		}
		tracker := new(sigstream.Sharded)
		if derr := tracker.UnmarshalBinary(img); derr != nil {
			g.mu.Lock()
			g.fetchErrs++
			g.mu.Unlock()
			return replicaFetch{class: fetchCorrupt, err: derr}
		}
		return replicaFetch{class: fetchOK, tracker: tracker}
	}
	return replicaFetch{class: fetchUnreachable,
		err: fmt.Errorf("unreachable after %d attempts: %w", p.Attempts, lastErr)}
}

// Round runs one gather cycle: probe tripped breakers, fetch every
// partition from its replicas, and commit the freshest replica image of
// every partition as the view if every partition reached quorum and the
// images rank by the same weights. It never returns an error — failure
// detail lives in the report, and an uncommitted round leaves the
// previous view serving. A round whose ctx ends first stops asking sites
// and does not commit; the cancellation trips no breaker, skips no site
// and degrades no site's health, since it says nothing about the sites.
// Concurrent Round calls serialize.
func (g *Gatherer) Round(ctx context.Context) (rep RoundReport) {
	g.roundMu.Lock()
	defer g.roundMu.Unlock()

	now := g.now()
	siteNames := g.topo.Sites()

	// Breaker gate: decide per site whether to fetch at all this round,
	// probing readiness where a cooldown has expired.
	allowed := make(map[string]bool, len(siteNames))
	var canceled error
	for _, site := range siteNames {
		g.mu.Lock()
		ok, probe := g.sites[site].b.Allow(now)
		g.mu.Unlock()
		if probe {
			pctx, cancel := context.WithTimeout(ctx, g.timeout)
			perr := g.cfg.Clients[site].Ready(pctx)
			cancel()
			if perr != nil && ctx.Err() != nil {
				canceled = ctx.Err()
				break
			}
			g.mu.Lock()
			g.sites[site].b.Probe(perr == nil, now)
			ok, _ = g.sites[site].b.Allow(now)
			g.mu.Unlock()
		}
		allowed[site] = ok
	}

	// Fetch phase. A site that exhausts its retries once is marked down
	// for the remainder of the round: burning the full backoff schedule
	// against a dead node once per partition would turn one node death
	// into a round lasting partitions×retries×timeout.
	down := make(map[string]bool, len(siteNames))
	hardFail := make(map[string]bool, len(siteNames))
	succeeded := make(map[string]bool, len(siteNames))
	siteSkips := make(map[string][]string, len(siteNames))
	skip := func(site, ns, reason string) {
		siteSkips[site] = append(siteSkips[site], ns+": "+reason)
		g.mu.Lock()
		g.skips[site]++
		g.mu.Unlock()
	}

	parts := make([]PartitionReport, g.topo.Partitions())
	images := make([]*sigstream.Sharded, g.topo.Partitions()) // nil: no data
	quorum := g.topo.Quorum()
	allQuorum := true
	for p := 0; p < g.topo.Partitions(); p++ {
		ns := PartitionNamespace(p)
		pr := PartitionReport{Partition: p, Namespace: ns}
		var best replicaFetch
		for _, site := range g.topo.ReplicaSites(p) {
			switch {
			case canceled != nil:
				continue
			case !allowed[site]:
				skip(site, ns, "breaker open")
				continue
			case down[site]:
				skip(site, ns, "site down this round")
				continue
			}
			// The first replica to answer ships its image; each later
			// one is asked with that image's tag and ships only if its
			// tracker differs, since an equal tag never displaces best.
			res := g.fetchReplica(ctx, g.cfg.Clients[site], ns, best.tag())
			switch res.class {
			case fetchCanceled:
				canceled = res.err
			case fetchUnreachable:
				down[site] = true
				hardFail[site] = true
				skip(site, ns, res.err.Error())
			case fetchCorrupt:
				hardFail[site] = true
				skip(site, ns, "corrupt checkpoint: "+res.err.Error())
			case fetchEmpty, fetchUnchanged:
				succeeded[site] = true
				pr.Reported++
			case fetchOK:
				succeeded[site] = true
				pr.Reported++
				if better(res, best) {
					best = res
					pr.MergedFrom = site
				}
			}
		}
		pr.Quorum = pr.Reported >= quorum
		pr.Empty = pr.Reported > 0 && best.tracker == nil
		if !pr.Quorum {
			allQuorum = false
		}
		images[p] = best.tracker
		parts[p] = pr
	}

	rep.Partitions = parts
	committedEpoch := 0
	defer func() {
		// Breaker and report bookkeeping runs whether or not the commit
		// succeeded — and, crucially, even if the commit fault hook panics
		// (the simulated coordinator crash unwinds through here).
		g.mu.Lock()
		g.rounds++
		if rep.Committed {
			g.commits++
		} else {
			g.stale++
		}
		for _, site := range siteNames {
			se := g.sites[site]
			if hardFail[site] || (!succeeded[site] && !allowed[site]) {
				if hardFail[site] {
					se.b.Failure(now)
				}
			} else if succeeded[site] {
				se.b.Success()
				if rep.Committed {
					se.lastEpoch = committedEpoch
				}
			}
			sr := SiteReport{
				Site:      site,
				Breaker:   se.b.State().String(),
				Failures:  se.b.ConsecutiveFailures(),
				LastEpoch: se.lastEpoch,
				Skips:     siteSkips[site],
			}
			switch {
			case se.b.State() != BreakerClosed:
				sr.Health = SiteTripped
			case hardFail[site] || len(siteSkips[site]) > 0:
				sr.Health = SiteDegraded
			default:
				sr.Health = SiteHealthy
			}
			rep.Sites = append(rep.Sites, sr)
		}
		if g.cur != nil {
			rep.Epoch = g.cur.epoch
		}
		g.lastRound = &rep
		g.mu.Unlock()
	}()

	if canceled != nil {
		rep.Reason = "round canceled: " + canceled.Error()
		return rep
	}
	if !allQuorum {
		rep.Reason = fmt.Sprintf("quorum loss: %d/%d partitions reported ≥%d replicas",
			rep.QuorumPartitions(), len(parts), quorum)
		return rep
	}

	// Every partition reached quorum: commit. The fault point models the
	// coordinator dying (panic) or failing (error) between gather and
	// commit; either way the previous view must survive.
	if err := fault.Inject(fault.CoordCommit, 0); err != nil {
		rep.Reason = "commit aborted: " + err.Error()
		return rep
	}
	// One selection ranks every partition's cells by significance, so
	// every image must weigh frequency and persistency alike. Nothing else
	// about the images has to match: the partitions hold disjoint items.
	if reason := weightsMismatch(images); reason != "" {
		rep.Reason = reason
		return rep
	}
	g.mu.Lock()
	var prevNames map[uint64]string
	if g.cur != nil {
		prevNames = g.cur.names
	}
	g.mu.Unlock()
	next := &view{committed: now, names: g.harvestNames(ctx, parts, images, prevNames)}
	for _, tr := range images {
		if tr != nil {
			next.parts = append(next.parts, tr)
			next.bytes += tr.MemoryBytes()
		}
	}

	g.mu.Lock()
	epoch := 1
	if g.cur != nil {
		epoch = g.cur.epoch + 1
	}
	next.epoch = epoch
	g.cur = next
	g.mu.Unlock()
	rep.Committed = true
	committedEpoch = epoch
	return rep
}

// better ranks replica images of one partition: prefer the one that has
// seen the most history (periods, then arrivals), so a freshly restarted
// replica that missed traffic while dead does not mask the survivor's
// complete view.
func better(a, b replicaFetch) bool {
	if b.tracker == nil {
		return a.tracker != nil
	}
	as, bs := a.tracker.Stats(), b.tracker.Stats()
	if as.Periods != bs.Periods {
		return as.Periods > bs.Periods
	}
	return as.Arrivals > bs.Arrivals
}

// weightsMismatch names the first partition image whose weights differ
// from the first image's, or returns "" when every image has the same
// weights.
func weightsMismatch(images []*sigstream.Sharded) string {
	first := -1
	var want sigstream.Stats
	for p, tr := range images {
		if tr == nil {
			continue
		}
		st := tr.Stats()
		if first < 0 {
			first, want = p, st
			continue
		}
		if st.Alpha != want.Alpha || st.Beta != want.Beta {
			return fmt.Sprintf("weights mismatch: partition %d ranks by α=%g β=%g, partition %d by α=%g β=%g",
				p, st.Alpha, st.Beta, first, want.Alpha, want.Beta)
		}
	}
	return ""
}

// harvestNames names each committed partition's top items, best-effort.
// An item is the hash of its key, so a name never changes: every name the
// previous view held for one of these items is kept, and the replica whose
// image entered the view is asked (FetchNames) only for a partition whose
// top holds an item prev cannot name. The result holds names for top items
// only, at most ResolveNames per partition.
func (g *Gatherer) harvestNames(ctx context.Context, parts []PartitionReport, images []*sigstream.Sharded, prev map[uint64]string) map[uint64]string {
	names := make(map[uint64]string)
	if g.resolve == 0 {
		return names
	}
	for p, tr := range images {
		if tr == nil {
			continue
		}
		top := tr.TopK(g.resolve)
		unnamed := false
		for _, e := range top {
			if key, ok := prev[e.Item]; ok {
				names[e.Item] = key
			} else {
				unnamed = true
			}
		}
		if !unnamed {
			continue
		}
		g.mu.Lock()
		g.nameCalls++
		g.mu.Unlock()
		nctx, cancel := context.WithTimeout(ctx, g.timeout)
		m, err := g.cfg.Clients[parts[p].MergedFrom].FetchNames(nctx, parts[p].Namespace, g.resolve)
		cancel()
		if err != nil {
			continue
		}
		for _, e := range top {
			if key, ok := m[e.Item]; ok {
				names[e.Item] = key
			}
		}
	}
	return names
}

// TopK reports the committed cluster view's top-k entries with view
// provenance; the entries are the caller's. ok is false before the first
// committed view.
func (g *Gatherer) TopK(k int) (entries []ViewEntry, info ViewInfo, ok bool) {
	g.mu.Lock()
	v := g.cur
	staleRound := g.lastRound != nil && !g.lastRound.Committed
	g.mu.Unlock()
	if v == nil {
		return nil, ViewInfo{}, false
	}
	info = ViewInfo{
		Epoch:       v.epoch,
		Committed:   v.committed,
		AgeSeconds:  g.now().Sub(v.committed).Seconds(),
		Stale:       staleRound,
		MemoryBytes: v.bytes,
	}
	return v.top(k), info, true
}

// ViewInfo reports the committed view's provenance without its entries.
// ok is false before the first committed view.
func (g *Gatherer) ViewInfo() (ViewInfo, bool) {
	_, info, ok := g.TopK(0)
	return info, ok
}

// LastRound returns the most recent round report. ok is false before the
// first round.
func (g *Gatherer) LastRound() (RoundReport, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastRound == nil {
		return RoundReport{}, false
	}
	return *g.lastRound, true
}

// Stats snapshots the gatherer's counters for metrics export.
func (g *Gatherer) Stats() GatherStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GatherStats{
		Rounds:           g.rounds,
		Commits:          g.commits,
		StaleRounds:      g.stale,
		Fetches:          g.fetches,
		FetchesUnchanged: g.unchanged,
		FetchErrors:      g.fetchErrs,
		NameFetches:      g.nameCalls,
		SiteSkips:        make(map[string]uint64, len(g.skips)),
		BreakerState:     make(map[string]BreakerState, len(g.sites)),
		Sites:            len(g.sites),
		Partitions:       g.topo.Partitions(),
	}
	for site, n := range g.skips {
		st.SiteSkips[site] = n
	}
	for site, se := range g.sites {
		st.BreakerState[site] = se.b.State()
	}
	if g.cur != nil {
		st.ViewEpoch = g.cur.epoch
		st.ViewAgeSeconds = g.now().Sub(g.cur.committed).Seconds()
	}
	if g.lastRound != nil {
		st.SitesHealthy = g.lastRound.HealthySites()
		st.PartitionsQuorum = g.lastRound.QuorumPartitions()
	}
	return st
}
