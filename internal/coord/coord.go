// Package coord is the cluster coordinator service behind cmd/sigcoord:
// it periodically gathers partition checkpoints from a fleet of sigserver
// nodes over HTTP (via internal/client against the tenant checkpoint
// route), commits them under the quorum rules of internal/cluster, and
// serves the cluster-wide view ranked across every partition's image.
//
// Endpoints (all JSON):
//
//	GET /v1/topk              cluster-wide top-k with view provenance (503 before the first commit)
//	GET /v1/cluster/status    per-site and per-partition health, breaker states, skip reasons
//	GET /v1/stats             gather counters and the last round's skip report
//	GET /metrics              Prometheus text exposition (sigstream_cluster_* families)
//	GET /healthz              liveness: 200 while the process serves requests
//	GET /readyz               readiness: 200 once a view has been committed
//
// The design is failure-first: every remote call carries a deadline,
// transient failures retry under full-jitter backoff, corrupt answers do
// not retry, per-site circuit breakers stop burning timeouts on dead
// nodes, and quorum loss serves the last committed view with a staleness
// age instead of failing. A coordinator restart loses only staleness —
// the next committed round rebuilds the view from the sites, which own
// all durable state.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/obs"
)

// Config shapes a coordinator. Sites is required; zero values elsewhere
// select the defaults.
type Config struct {
	// Sites are the sigserver base URLs (e.g. "http://10.0.0.1:8080").
	Sites []string
	// Partitions is the partition count P (default 16).
	Partitions int
	// Replicas is the replication factor R (default 2, capped at the
	// site count).
	Replicas int
	// Interval is the gather cadence (default 2s).
	Interval time.Duration
	// FetchTimeout is the deadline on every remote call (default 2s).
	FetchTimeout time.Duration
	// Retry bounds the per-fetch backoff for transient failures.
	Retry cluster.RetryPolicy
	// Breaker bounds each site's circuit breaker.
	Breaker cluster.BreakerConfig
	// ResolveNames is the number of top items per partition whose keys
	// the view names (default 64, negative disables).
	ResolveNames int
	// ClosePeriods makes the coordinator drive period boundaries: before
	// each gather it closes the current period of every partition
	// namespace on every replica, so one round equals one period
	// cluster-wide. Leave false when producers own the period clock.
	ClosePeriods bool
	// Logger receives round logs; nil discards them.
	Logger *slog.Logger
	// HTTPClient overrides the transport to the sites (tests); nil uses
	// a client bounded by FetchTimeout.
	HTTPClient *http.Client
}

// Route is one coordinator endpoint.
type Route struct {
	// Method is the HTTP method the route accepts.
	Method string
	// Pattern is the ServeMux pattern.
	Pattern string
}

// routeTable is the canonical route list; New panics if any row has no
// registered handler, so the table cannot drift from the mux.
var routeTable = []Route{
	{Method: http.MethodGet, Pattern: "/v1/topk"},
	{Method: http.MethodGet, Pattern: "/v1/cluster/status"},
	{Method: http.MethodGet, Pattern: "/v1/stats"},
	{Method: http.MethodGet, Pattern: "/metrics"},
	{Method: http.MethodGet, Pattern: "/healthz"},
	{Method: http.MethodGet, Pattern: "/readyz"},
}

// Routes returns the coordinator's route table, sorted by pattern then
// method.
func Routes() []Route {
	out := make([]Route, len(routeTable))
	copy(out, routeTable)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// Server is an http.Handler running the gather loop and serving the
// cluster view.
type Server struct {
	cfg      Config
	log      *slog.Logger
	topo     *cluster.Topology
	gatherer *cluster.Gatherer
	tenants  map[string]*client.Client // site -> API client (period control)
	mux      *http.ServeMux
	reg      *obs.Registry
	httpm    *obs.HTTPMetrics

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a coordinator. It validates the topology and the per-site
// clients but performs no network I/O; call Start to begin gathering.
func New(cfg Config) (*Server, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 16
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Sites) {
		cfg.Replicas = len(cfg.Sites)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	topo, err := cluster.NewTopology(cfg.Sites, cfg.Partitions, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: cfg.FetchTimeout}
	}
	clients := make(map[string]cluster.SiteClient, len(cfg.Sites))
	tenants := make(map[string]*client.Client, len(cfg.Sites))
	for _, site := range topo.Sites() {
		c := client.New(site, httpc)
		tenants[site] = c
		clients[site] = httpSite{c: c}
	}
	gatherer, err := cluster.NewGatherer(cluster.GatherConfig{
		Topology:     topo,
		Clients:      clients,
		Retry:        cfg.Retry,
		Breaker:      cfg.Breaker,
		FetchTimeout: cfg.FetchTimeout,
		ResolveNames: cfg.ResolveNames,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		topo:     topo,
		gatherer: gatherer,
		tenants:  tenants,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		httpm:    obs.NewHTTPMetrics(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	s.reg.Register(obs.CollectorFunc(s.collectCluster))
	s.reg.Register(s.httpm)
	s.registerRoutes()
	return s, nil
}

// discardHandler drops all log records (slog.DiscardHandler arrives in a
// later Go release than this module targets).
type discardHandler struct{}

// Enabled implements slog.Handler.
func (discardHandler) Enabled(context.Context, slog.Level) bool { return false }

// Handle implements slog.Handler.
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }

// WithAttrs implements slog.Handler.
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler { return d }

// WithGroup implements slog.Handler.
func (d discardHandler) WithGroup(string) slog.Handler { return d }

// registerRoutes installs every routeTable row on the mux, wrapped in
// metrics middleware keyed by pattern.
func (s *Server) registerRoutes() {
	impl := map[string]http.HandlerFunc{
		"GET /v1/topk":           s.handleTopK,
		"GET /v1/cluster/status": s.handleStatus,
		"GET /v1/stats":          s.handleStats,
		"GET /metrics":           s.reg.ServeHTTP,
		"GET /healthz":           s.handleHealthz,
		"GET /readyz":            s.handleReadyz,
	}
	for _, rt := range routeTable {
		key := rt.Method + " " + rt.Pattern
		h, ok := impl[key]
		if !ok {
			panic("coord: route " + key + " has no handler")
		}
		s.mux.Handle(key, s.httpm.Wrap(rt.Pattern, h))
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Topology returns the coordinator's partition map.
func (s *Server) Topology() *cluster.Topology { return s.topo }

// TopKView returns the committed cluster view's top-k entries with its
// provenance; ok is false before the first committed round.
func (s *Server) TopKView(k int) ([]cluster.ViewEntry, cluster.ViewInfo, bool) {
	return s.gatherer.TopK(k)
}

// Start launches the gather loop. It is idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		go s.loop()
	})
}

// Close stops the gather loop, cancelling any in-flight round, and waits
// for it to exit. Idempotent; safe to call without Start.
func (s *Server) Close() error {
	s.stopOnce.Do(func() {
		s.cancel()
		s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	})
	<-s.done
	return nil
}

// loop runs gather rounds at the configured cadence until Close.
func (s *Server) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	// An immediate first round, so a fresh coordinator serves a view
	// after one interval-free gather rather than one interval late.
	s.runRound()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.runRound()
		}
	}
}

// runRound executes one gather round with optional period control.
func (s *Server) runRound() {
	if s.ctx.Err() != nil {
		return
	}
	if s.cfg.ClosePeriods {
		s.closePeriods()
	}
	rep := s.gatherer.Round(s.ctx)
	if rep.Committed {
		s.log.Info("gather round committed",
			"epoch", rep.Epoch,
			"healthy_sites", rep.HealthySites(),
			"quorum_partitions", rep.QuorumPartitions())
	} else {
		s.log.Warn("gather round did not commit",
			"reason", rep.Reason,
			"healthy_sites", rep.HealthySites(),
			"quorum_partitions", rep.QuorumPartitions())
	}
}

// closePeriods closes the current period of every partition namespace on
// every replica site, best-effort: a replica that misses a boundary while
// dead diverges anyway, and the freshest-replica rule absorbs it.
func (s *Server) closePeriods() {
	for p := 0; p < s.topo.Partitions(); p++ {
		ns := cluster.PartitionNamespace(p)
		for _, site := range s.topo.ReplicaSites(p) {
			ctx, cancel := context.WithTimeout(s.ctx, s.cfg.FetchTimeout)
			_, err := s.tenants[site].Tenant(ns).EndPeriod(ctx)
			cancel()
			if err != nil && s.ctx.Err() == nil {
				s.log.Warn("period close failed", "site", site, "namespace", ns, "error", err)
			}
		}
	}
}

// GatherNow runs one synchronous gather round, for tests and operator
// tooling. It is safe alongside the loop (rounds serialize).
func (s *Server) GatherNow(ctx context.Context) cluster.RoundReport {
	if s.cfg.ClosePeriods {
		s.closePeriods()
	}
	return s.gatherer.Round(ctx)
}

// httpSite adapts a client.Client to cluster.SiteClient.
type httpSite struct {
	c *client.Client
}

// FetchCheckpoint downloads one partition checkpoint, conditional on tag
// when it is non-empty, mapping the server's 404 for an unknown namespace
// to ErrNoPartition and its 304 to ErrUnchanged.
func (h httpSite) FetchCheckpoint(ctx context.Context, ns, tag string) ([]byte, error) {
	img, err := h.c.Tenant(ns).CheckpointIfChanged(ctx, tag)
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound:
		return nil, cluster.ErrNoPartition
	case errors.Is(err, client.ErrNotModified):
		return nil, cluster.ErrUnchanged
	}
	return img, err
}

// FetchNames resolves display keys from the namespace's top list. A key
// that is the item's sigstream.PlaceholderKey is the node saying it holds
// no name, so it is left out and a later round asks again.
func (h httpSite) FetchNames(ctx context.Context, ns string, k int) (map[uint64]string, error) {
	entries, err := h.c.Tenant(ns).TopK(ctx, k)
	if err != nil {
		return nil, err
	}
	m := make(map[uint64]string, len(entries))
	for _, e := range entries {
		if e.Key != "" && e.Key != sigstream.PlaceholderKey(e.Item) {
			m[e.Item] = e.Key
		}
	}
	return m, nil
}

// Ready probes the site's readiness endpoint.
func (h httpSite) Ready(ctx context.Context) error {
	return h.c.Ready(ctx)
}

// maxTopK bounds the k a /v1/topk request may ask for, as the node's top
// route does.
const maxTopK = 1 << 20

// topKResponse is the /v1/topk payload.
type topKResponse struct {
	Epoch         int                 `json:"epoch"`
	CommittedUnix int64               `json:"committed_unix"`
	AgeSeconds    float64             `json:"age_seconds"`
	Stale         bool                `json:"stale"`
	Entries       []cluster.ViewEntry `json:"entries"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > maxTopK {
			httpError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("k must be a decimal integer in [1, %d]", maxTopK))
			return
		}
		k = parsed
	}
	entries, info, ok := s.gatherer.TopK(k)
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "no_view",
			"no cluster view committed yet")
		return
	}
	if entries == nil {
		entries = []cluster.ViewEntry{}
	}
	writeJSON(w, topKResponse{
		Epoch:         info.Epoch,
		CommittedUnix: info.Committed.Unix(),
		AgeSeconds:    info.AgeSeconds,
		Stale:         info.Stale,
		Entries:       entries,
	})
}

// topologyInfo summarizes the partition map in status payloads.
type topologyInfo struct {
	Sites      int `json:"sites"`
	Partitions int `json:"partitions"`
	Replicas   int `json:"replicas"`
	Quorum     int `json:"quorum"`
}

// statusResponse is the /v1/cluster/status payload.
type statusResponse struct {
	Topology topologyInfo         `json:"topology"`
	View     *cluster.ViewInfo    `json:"view"`
	Round    *cluster.RoundReport `json:"round"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := statusResponse{Topology: topologyInfo{
		Sites:      len(s.topo.Sites()),
		Partitions: s.topo.Partitions(),
		Replicas:   s.topo.Replicas(),
		Quorum:     s.topo.Quorum(),
	}}
	if info, ok := s.gatherer.ViewInfo(); ok {
		resp.View = &info
	}
	if rep, ok := s.gatherer.LastRound(); ok {
		resp.Round = &rep
	}
	writeJSON(w, resp)
}

// statsResponse is the /v1/stats payload: the gather counters plus the
// last round's skip report, so degraded state is observable between
// rounds, not just at gather time.
type statsResponse struct {
	Rounds           uint64               `json:"rounds"`
	Commits          uint64               `json:"commits"`
	StaleRounds      uint64               `json:"stale_rounds"`
	Fetches          uint64               `json:"fetches"`
	FetchesUnchanged uint64               `json:"fetches_unchanged"`
	FetchErrors      uint64               `json:"fetch_errors"`
	NameFetches      uint64               `json:"name_fetches"`
	SiteSkips        map[string]uint64    `json:"site_skips"`
	Breakers         map[string]string    `json:"breakers"`
	ViewEpoch        int                  `json:"view_epoch"`
	ViewAgeSeconds   float64              `json:"view_age_seconds"`
	Sites            int                  `json:"sites"`
	SitesHealthy     int                  `json:"sites_healthy"`
	Partitions       int                  `json:"partitions"`
	PartitionsQuorum int                  `json:"partitions_quorum"`
	LastRound        *cluster.RoundReport `json:"last_round,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.gatherer.Stats()
	resp := statsResponse{
		Rounds:           st.Rounds,
		Commits:          st.Commits,
		StaleRounds:      st.StaleRounds,
		Fetches:          st.Fetches,
		FetchesUnchanged: st.FetchesUnchanged,
		FetchErrors:      st.FetchErrors,
		NameFetches:      st.NameFetches,
		SiteSkips:        st.SiteSkips,
		Breakers:         make(map[string]string, len(st.BreakerState)),
		ViewEpoch:        st.ViewEpoch,
		ViewAgeSeconds:   st.ViewAgeSeconds,
		Sites:            st.Sites,
		SitesHealthy:     st.SitesHealthy,
		Partitions:       st.Partitions,
		PartitionsQuorum: st.PartitionsQuorum,
	}
	for site, state := range st.BreakerState {
		resp.Breakers[site] = state.String()
	}
	if rep, ok := s.gatherer.LastRound(); ok {
		resp.LastRound = &rep
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}`))
}

// handleReadyz reports 200 once a cluster view has been committed: a
// coordinator that has never gathered successfully should not receive
// traffic from a load balancer, but one serving a stale view should.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.gatherer.ViewInfo(); !ok {
		httpError(w, http.StatusServiceUnavailable, "no_view",
			"no cluster view committed yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ready"}`))
}

// collectCluster emits the sigstream_cluster_* metric families.
func (s *Server) collectCluster(w *obs.Writer) {
	st := s.gatherer.Stats()
	w.Counter("sigstream_cluster_rounds_total",
		"Gather rounds run.", float64(st.Rounds))
	w.Counter("sigstream_cluster_commits_total",
		"Gather rounds that committed a new cluster view.", float64(st.Commits))
	w.Counter("sigstream_cluster_stale_rounds_total",
		"Gather rounds that failed to commit (the previous view kept serving).",
		float64(st.StaleRounds))
	w.Counter("sigstream_cluster_fetches_total",
		"Checkpoint fetch attempts, retries included.", float64(st.Fetches))
	w.Counter("sigstream_cluster_fetch_errors_total",
		"Checkpoint fetch attempts that failed.", float64(st.FetchErrors))
	w.Counter("sigstream_cluster_fetches_unchanged_total",
		"Conditional checkpoint fetch attempts a site answered with no image, its partition matching the replica image already fetched.",
		float64(st.FetchesUnchanged))
	w.Counter("sigstream_cluster_name_fetches_total",
		"Top-name requests to a partition's replica, made only when the previous view cannot name one of the partition's top items.",
		float64(st.NameFetches))
	w.Gauge("sigstream_cluster_sites",
		"Member sites in the topology.", float64(st.Sites))
	w.Gauge("sigstream_cluster_sites_healthy",
		"Sites classified healthy in the last round.", float64(st.SitesHealthy))
	w.Gauge("sigstream_cluster_partitions",
		"Partitions in the topology.", float64(st.Partitions))
	w.Gauge("sigstream_cluster_partitions_quorum",
		"Partitions that reached read quorum in the last round.",
		float64(st.PartitionsQuorum))
	w.Gauge("sigstream_cluster_replicas",
		"Replication factor R.", float64(s.topo.Replicas()))
	w.Gauge("sigstream_cluster_view_epoch",
		"Epoch of the committed cluster view (0 before the first commit).",
		float64(st.ViewEpoch))
	w.Gauge("sigstream_cluster_view_age_seconds",
		"Age of the committed cluster view.", st.ViewAgeSeconds)
	sites := make([]string, 0, len(st.BreakerState))
	for site := range st.BreakerState {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		lbl := obs.Label{Name: "site", Value: site}
		w.Counter("sigstream_cluster_site_skips_total",
			"Partition fetches skipped per site (breaker open, site down, corrupt).",
			float64(st.SiteSkips[site]), lbl)
		w.Gauge("sigstream_cluster_breaker_state",
			"Circuit-breaker position per site: 0 closed, 1 open, 2 half-open.",
			float64(st.BreakerState[site]), lbl)
	}
}

// writeJSON writes v as a JSON 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes the service's JSON error envelope, matching the shape
// internal/client's typed errors parse.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"code": code, "message": msg})
}
