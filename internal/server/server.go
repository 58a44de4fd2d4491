// Package server exposes sigstream trackers over HTTP, so non-Go
// producers (log shippers, packet samplers, cron jobs) can feed streams
// and dashboards can poll the significant-items ranking.
//
// The API is tenant-scoped: every tracker lives in a namespace, and the
// /v1/t/{ns}/* routes address one namespace's tracker. The legacy
// un-namespaced /v1/* routes remain as thin aliases for the reserved
// "default" tenant, so pre-namespace deployments keep working unchanged.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/t/{ns}/insert     body: newline-separated item keys (tenant auto-created)
//	POST   /v1/t/{ns}/period     close the tenant's current period
//	GET    /v1/t/{ns}/top?k=N    tenant's top-N significant items
//	GET    /v1/t/{ns}/query?key=K one item's estimate
//	GET    /v1/t/{ns}/stats      tenant statistics, snapshot age and recovery state
//	GET    /v1/t/{ns}/checkpoint download a binary snapshot of the tenant's tracker
//	POST   /v1/t/{ns}/restore    replace the tenant's state from a snapshot body
//	DELETE /v1/t/{ns}            delete the tenant and its snapshots
//	GET    /v1/tenants           list tenants with registry totals
//	POST   /v1/tenants           create a tenant: {"namespace": "..."}
//	POST   /v1/insert            legacy alias for /v1/t/default/insert
//	POST   /v1/period            legacy alias for /v1/t/default/period
//	GET    /v1/top               legacy alias for /v1/t/default/top
//	GET    /v1/query             legacy alias for /v1/t/default/query
//	GET    /v1/stats             legacy alias for /v1/t/default/stats
//	GET    /v1/checkpoint        legacy alias for /v1/t/default/checkpoint
//	POST   /v1/restore           legacy alias for /v1/t/default/restore
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness: 200 while the process serves requests
//	GET    /readyz               readiness: 200 when no restore is running and Close has not begun
//
// Every endpoint is wrapped in obs.HTTPMetrics middleware keyed by route
// pattern (bounded label cardinality), so /metrics reports per-endpoint
// request counts, error counts and latency histograms alongside the
// tracker and tenant-registry series.
//
// Multi-tenancy: tenants are created lazily on first insert, priced
// against a global memory budget, and spilled to tenant-labelled
// snapshot directories when the budget fills or they idle — reviving
// transparently, bit-identical, on the next touch. Per-tenant token
// buckets answer a quota breach with 429 + Retry-After, so one noisy
// namespace cannot starve another. The default tenant is pinned: never
// spilled, outside budget and quota, carrying the exact single-tenant
// semantics this server had before namespaces. Every tenant ingests
// through one synchronous path, so a 200 from an insert means the batch
// is logged (with a WAL) and applied.
//
// Fault tolerance: StartSnapshots loads the default tenant from disk at
// startup (newest valid checkpoint, then its WAL tail; legacy root-level
// snapshot files recover into it) and registers every other namespace
// found there to load on first touch, then checkpoints dirty tenants
// periodically and once more on Close.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigstream"
	"sigstream/internal/fault"
	"sigstream/internal/ingest"
	"sigstream/internal/obs"
	"sigstream/internal/tenant"
)

// Config sizes the served trackers.
type Config struct {
	// MemoryBytes is the default tenant's tracker budget (default 1 MiB).
	MemoryBytes int
	// Weights are the significance coefficients (default Balanced).
	Weights sigstream.Weights
	// Shards is the concurrency level of every tracker (default
	// GOMAXPROCS).
	Shards int
	// DecayFactor optionally ages counts at each period boundary
	// (see sigstream.Config.DecayFactor).
	DecayFactor float64
	// MaxBodyBytes caps an insert or restore request body (default 32 MiB);
	// an oversized body is refused with 413 before it is buffered whole.
	MaxBodyBytes int64
	// TenantMemoryBytes is each non-default tenant's tracker budget
	// (default MemoryBytes). The global TenantBudgetBytes is spent in
	// units of this size.
	TenantMemoryBytes int
	// TenantBudgetBytes caps the summed tracker budgets of resident
	// non-default tenants; 0 means uncapped. When the cap is hit the
	// least-recently-used tenant spills to disk (with snapshots started)
	// or new tenants are refused with 507 (without).
	TenantBudgetBytes int64
	// TenantQuota is each non-default tenant's sustained insert rate in
	// keys per second; a breach answers 429 + Retry-After. 0 disables
	// quotas.
	TenantQuota float64
	// TenantBurst is the quota token-bucket depth in keys (default:
	// TenantQuota rounded up).
	TenantBurst int
	// TenantIdleAfter spills tenants untouched for this long (0 disables
	// idle spilling; requires StartSnapshots).
	TenantIdleAfter time.Duration
	// TenantMax caps the number of namespaces, resident or not; 0 means
	// uncapped.
	TenantMax int
	// WALDir enables the write-ahead log: every tenant (the default
	// included) logs accepted mutations under WALDir/<namespace>/ and an
	// insert is acknowledged only after its record is fsynced, so a crash
	// — even kill -9 — loses nothing a client was told succeeded. Pair
	// with StartSnapshots for bounded disk: each snapshot truncates the
	// log below its cut. Empty disables the WAL.
	WALDir string
	// WALSyncInterval is the WAL group-commit window: ≤ 0 fsyncs every
	// append inline (maximum durability, one fsync per insert); positive
	// coalesces concurrent inserts into one fsync taken at most this long
	// after the first waiter arrived (higher throughput, same guarantee —
	// the ack still waits for the fsync).
	WALSyncInterval time.Duration
	// WALSegmentBytes is the WAL segment rotation threshold (0 means
	// wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// Logger receives tenant spill/revive, WAL and snapshot lifecycle
	// events (default slog.Default()).
	Logger *slog.Logger
}

// SnapshotConfig wires crash-safe durability into a Server: where
// checkpoints live, how often they are taken, and how many to keep.
// Every tenant persists under its own Dir/<namespace>/ subdirectory.
type SnapshotConfig struct {
	// Dir is the snapshot base directory (created if missing).
	Dir string
	// Interval is the periodic checkpoint cadence for dirty tenants;
	// zero means only the final snapshot on Close.
	Interval time.Duration
	// Retain is how many newest snapshots each tenant keeps (default
	// snapshot.DefaultRetain).
	Retain int
}

// Route is one row of the server's route table: the contract shared by
// the ServeMux registration, the README documentation and the
// route-contract test.
type Route struct {
	// Method is the HTTP method the route accepts.
	Method string
	// Pattern is the ServeMux pattern ({ns} is the namespace wildcard).
	Pattern string
	// Legacy marks the un-namespaced aliases of default-tenant routes.
	Legacy bool
}

// routeTable is the canonical route list; New panics if any row has no
// registered handler, so the table cannot drift from the mux.
var routeTable = []Route{
	{Method: http.MethodPost, Pattern: "/v1/t/{ns}/insert"},
	{Method: http.MethodPost, Pattern: "/v1/t/{ns}/period"},
	{Method: http.MethodGet, Pattern: "/v1/t/{ns}/top"},
	{Method: http.MethodGet, Pattern: "/v1/t/{ns}/query"},
	{Method: http.MethodGet, Pattern: "/v1/t/{ns}/stats"},
	{Method: http.MethodGet, Pattern: "/v1/t/{ns}/checkpoint"},
	{Method: http.MethodPost, Pattern: "/v1/t/{ns}/restore"},
	{Method: http.MethodDelete, Pattern: "/v1/t/{ns}"},
	{Method: http.MethodGet, Pattern: "/v1/tenants"},
	{Method: http.MethodPost, Pattern: "/v1/tenants"},
	{Method: http.MethodPost, Pattern: "/v1/insert", Legacy: true},
	{Method: http.MethodPost, Pattern: "/v1/period", Legacy: true},
	{Method: http.MethodGet, Pattern: "/v1/top", Legacy: true},
	{Method: http.MethodGet, Pattern: "/v1/query", Legacy: true},
	{Method: http.MethodGet, Pattern: "/v1/stats", Legacy: true},
	{Method: http.MethodGet, Pattern: "/v1/checkpoint", Legacy: true},
	{Method: http.MethodPost, Pattern: "/v1/restore", Legacy: true},
	{Method: http.MethodGet, Pattern: "/metrics"},
	{Method: http.MethodGet, Pattern: "/healthz"},
	{Method: http.MethodGet, Pattern: "/readyz"},
}

// Routes returns the server's full route table, sorted by pattern then
// method. The README's route table documents exactly this set; the
// route-contract test enforces it.
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

// Server is an http.Handler serving a tenant registry of trackers.
type Server struct {
	mux     *http.ServeMux
	cfg     Config
	httpm   *obs.HTTPMetrics
	reg     *obs.Registry
	logger  *slog.Logger
	tenants *tenant.Registry
	def     *tenant.Tenant // the pinned default tenant behind legacy routes

	restoring atomic.Bool // startup recovery in progress (/readyz gates on it)
	snapsOn   atomic.Bool // StartSnapshots completed

	ingest *ingest.Server // binary ingest listener (nil before StartIngest)

	closeOnce sync.Once
	closed    atomic.Bool
}

// New builds a Server. It panics only on programming errors (a route
// table row without a handler).
func New(cfg Config) *Server {
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = 1 << 20
	}
	if cfg.Weights == (sigstream.Weights{}) {
		cfg.Weights = sigstream.Balanced
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.TenantMemoryBytes <= 0 {
		cfg.TenantMemoryBytes = cfg.MemoryBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		mux:    http.NewServeMux(),
		cfg:    cfg,
		httpm:  obs.NewHTTPMetrics(),
		reg:    obs.NewRegistry(),
		logger: cfg.Logger,
	}
	s.tenants = tenant.NewRegistry(tenant.Config{
		Tracker: sigstream.Config{
			MemoryBytes: cfg.TenantMemoryBytes,
			Weights:     cfg.Weights,
			DecayFactor: cfg.DecayFactor,
		},
		Shards:          cfg.Shards,
		BudgetBytes:     cfg.TenantBudgetBytes,
		MaxTenants:      cfg.TenantMax,
		QuotaPerSec:     cfg.TenantQuota,
		QuotaBurst:      cfg.TenantBurst,
		IdleAfter:       cfg.TenantIdleAfter,
		WALDir:          cfg.WALDir,
		WALSyncInterval: cfg.WALSyncInterval,
		WALSegmentBytes: cfg.WALSegmentBytes,
		Logger:          cfg.Logger,
	})
	def, err := s.tenants.Pin(tenant.DefaultNamespace, tenant.PinOptions{
		Tracker: sigstream.Config{
			MemoryBytes: cfg.MemoryBytes,
			Weights:     cfg.Weights,
			DecayFactor: cfg.DecayFactor,
		},
		Shards: cfg.Shards,
	})
	if err != nil {
		panic("server: pin default tenant: " + err.Error())
	}
	s.def = def
	s.registerRoutes()
	s.reg.Register(obs.CollectorFunc(s.collectTracker))
	s.reg.Register(obs.CollectorFunc(s.collectTenants))
	s.reg.Register(s.httpm)
	return s
}

// registerRoutes installs every routeTable row on the mux, one pattern
// per mux entry with method dispatch inside (so a wrong method answers a
// JSON 405 with an Allow header instead of ServeMux's plain-text 405).
func (s *Server) registerRoutes() {
	impl := map[string]http.HandlerFunc{
		"POST /v1/t/{ns}/insert":    s.scoped(true, s.handleInsert),
		"POST /v1/t/{ns}/period":    s.scoped(true, s.handlePeriod),
		"GET /v1/t/{ns}/top":        s.scoped(false, s.handleTop),
		"GET /v1/t/{ns}/query":      s.scoped(false, s.handleQuery),
		"GET /v1/t/{ns}/stats":      s.scoped(false, s.handleStats),
		"GET /v1/t/{ns}/checkpoint": s.scoped(false, s.handleCheckpoint),
		"POST /v1/t/{ns}/restore":   s.scoped(true, s.handleRestore),
		"DELETE /v1/t/{ns}":         s.handleTenantDelete,
		"GET /v1/tenants":           s.handleTenantList,
		"POST /v1/tenants":          s.handleTenantCreate,
		"POST /v1/insert":           s.legacy(s.handleInsert),
		"POST /v1/period":           s.legacy(s.handlePeriod),
		"GET /v1/top":               s.legacy(s.handleTop),
		"GET /v1/query":             s.legacy(s.handleQuery),
		"GET /v1/stats":             s.legacy(s.handleStats),
		"GET /v1/checkpoint":        s.legacy(s.handleCheckpoint),
		"POST /v1/restore":          s.legacy(s.handleRestore),
		"GET /metrics":              s.reg.ServeHTTP,
		"GET /healthz":              s.handleHealthz,
		"GET /readyz":               s.handleReadyz,
	}
	byPattern := make(map[string]map[string]http.HandlerFunc)
	for _, rt := range routeTable {
		h, ok := impl[rt.Method+" "+rt.Pattern]
		if !ok {
			panic("server: route table row without handler: " + rt.Method + " " + rt.Pattern)
		}
		if byPattern[rt.Pattern] == nil {
			byPattern[rt.Pattern] = make(map[string]http.HandlerFunc)
		}
		byPattern[rt.Pattern][rt.Method] = h
	}
	if len(impl) != len(routeTable) {
		panic("server: handler without route table row")
	}
	for pattern, methods := range byPattern {
		s.mux.Handle(pattern, s.httpm.Wrap(pattern, methodDispatch(methods)))
	}
}

// methodDispatch answers with the method's handler, or a JSON 405
// carrying the Allow header.
func methodDispatch(methods map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	msg := strings.Join(allowed, " or ") + " required"
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := methods[r.Method]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		httpError(w, http.StatusMethodNotAllowed, msg)
	}
}

// tenantHandlerFunc is a handler bound to one resolved tenant.
type tenantHandlerFunc func(http.ResponseWriter, *http.Request, *tenant.Tenant)

// scoped resolves the {ns} path wildcard into a tenant before the
// handler runs. Write routes (create=true) register unknown namespaces
// on the fly; read routes answer 404 for them.
func (s *Server) scoped(create bool, fn tenantHandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ns := r.PathValue("ns")
		var tn *tenant.Tenant
		var err error
		if create {
			tn, err = s.tenants.GetOrCreate(ns)
		} else {
			tn, err = s.tenants.Get(ns)
		}
		if err != nil {
			s.tenantError(w, err)
			return
		}
		fn(w, r, tn)
	}
}

// legacy binds a tenant-scoped handler to the pinned default tenant, the
// compatibility contract of the un-namespaced /v1/* routes.
func (s *Server) legacy(fn tenantHandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fn(w, r, s.def)
	}
}

// tenantError maps tenant-package failures onto the HTTP contract:
// quota breach → 429 + Retry-After, geometry mismatch → 409, unknown
// namespace → 404, invalid namespace → 400, exhausted budget or tenant
// limit → 507, everything else (closed registry, disk failure) → 503.
func (s *Server) tenantError(w http.ResponseWriter, err error) {
	var qe *tenant.QuotaError
	var ge *tenant.GeometryError
	switch {
	case errors.As(err, &qe):
		secs := int(math.Ceil(qe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, "insert quota exceeded, retry later")
	case errors.As(err, &ge):
		httpError(w, http.StatusConflict, ge.Error())
	case errors.Is(err, tenant.ErrNotFound):
		httpError(w, http.StatusNotFound, "unknown tenant")
	case errors.Is(err, tenant.ErrBadNamespace):
		httpError(w, http.StatusBadRequest, "invalid namespace")
	case errors.Is(err, tenant.ErrTooManyTenants), errors.Is(err, tenant.ErrBudget):
		httpError(w, http.StatusInsufficientStorage, err.Error())
	default:
		httpError(w, http.StatusServiceUnavailable, err.Error())
	}
}

// Tenants exposes the tenant registry so embedding programs (and tests)
// can reach tenants directly.
func (s *Server) Tenants() *tenant.Registry { return s.tenants }

// Registry exposes the server's metrics registry so embedding programs can
// register additional collectors into the same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// StartSnapshots makes the server crash-safe: it recovers every
// namespace's newest valid checkpoint from cfg.Dir (tenant-labelled
// subdirectories; legacy root-level snapshot files recover into the
// default tenant; a fresh or empty directory recovers nothing and is not
// an error), then checkpoints dirty tenants there periodically and once
// more on Close. While recovery runs, /readyz reports 503 so a load
// balancer holds traffic until the restored state is live. Call it once,
// after New and before serving traffic.
func (s *Server) StartSnapshots(cfg SnapshotConfig) error {
	if cfg.Dir == "" {
		return errors.New("server: snapshot dir required")
	}
	s.restoring.Store(true)
	defer s.restoring.Store(false)
	s.tenants.SetRetain(cfg.Retain)
	if err := s.tenants.AttachDir(cfg.Dir); err != nil {
		return err
	}
	s.tenants.Start(cfg.Interval)
	s.snapsOn.Store(true)
	return nil
}

// IngestConfig configures the framed binary ingest listener (wire
// protocol in internal/ingest).
type IngestConfig struct {
	// Addr is the TCP listen address ("" disables TCP).
	Addr string
	// UDPAddr is the UDP fire-and-forget listen address ("" disables UDP).
	UDPAddr string
	// MaxFrameBytes caps a frame's payload length (1 MiB when zero).
	MaxFrameBytes int
}

// StartIngest opens the binary ingest listener against the server's
// tenant registry and registers its sigstream_ingest_* metrics. Call it
// once, after New — and after StartSnapshots, so recovery finishes
// before the first frame lands. Close drains the listener before the
// tenants shut down, so every acked frame reaches the WAL.
func (s *Server) StartIngest(cfg IngestConfig) error {
	if s.ingest != nil {
		return errors.New("server: ingest already started")
	}
	ing, err := ingest.Start(ingest.Config{
		Addr:          cfg.Addr,
		UDPAddr:       cfg.UDPAddr,
		Registry:      s.tenants,
		MaxFrameBytes: cfg.MaxFrameBytes,
		Logger:        s.logger,
	})
	if err != nil {
		return err
	}
	s.ingest = ing
	s.reg.Register(obs.CollectorFunc(ing.Collect))
	return nil
}

// Ingest exposes the running binary ingest listener so embedding
// programs can read its address and counters; nil before StartIngest.
func (s *Server) Ingest() *ingest.Server { return s.ingest }

// SnapshotNow forces one checkpoint of the default tenant to disk
// outside the periodic cadence — returning the written file name — and
// flushes every other dirty tenant. It fails if StartSnapshots has not
// run.
func (s *Server) SnapshotNow() (string, error) {
	if !s.snapsOn.Load() {
		return "", errors.New("server: snapshots not started")
	}
	name, err := s.def.Save()
	if err != nil {
		return "", err
	}
	if derr := s.tenants.SaveDirty(); derr != nil {
		s.logger.Warn("server: tenant snapshot failed", "err", derr)
	}
	return name, nil
}

// Close shuts the durability and ingestion paths down: the binary
// listener drains, then the tenant registry closes, which refuses every
// later mutation, takes one final snapshot of every resident tenant (when
// StartSnapshots ran) and closes every WAL. The HTTP handlers remain
// usable for reads; an insert, period close or restore refused by the
// closed registry fails with 503 (a binary frame is acked with an error),
// never panics. Close is idempotent and safe under concurrent
// requests — the first call does the work and reports any failure, later
// calls return nil.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		// Drain the binary listener first: frames fully received before
		// the close are processed and acked while the tenants (and their
		// WALs) are still up; later frames are never acked.
		if s.ingest != nil {
			if ierr := s.ingest.Close(); ierr != nil {
				s.logger.Warn("server: ingest close failed", "err", ierr)
			}
		}
		err = s.tenants.Close()
	})
	return err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// entryJSON is the wire form of one estimate.
type entryJSON struct {
	Key          string  `json:"key"`
	Item         uint64  `json:"item"`
	Frequency    uint64  `json:"frequency"`
	Persistency  uint64  `json:"persistency"`
	Significance float64 `json:"significance"`
}

// snapshotStatus is the durability section of /v1/stats: residency,
// spill/revive history, snapshot age and the last recovery outcome, so
// operators can see per-tenant spill state at a glance.
type snapshotStatus struct {
	Resident     bool    `json:"resident"`
	Spills       uint64  `json:"spills"`
	Revives      uint64  `json:"revives"`
	Saves        uint64  `json:"saves"`
	Errors       uint64  `json:"errors"`
	LastSaveUnix int64   `json:"last_save_unix"`
	AgeSeconds   float64 `json:"age_seconds"` // -1 when never saved
	LastRecovery string  `json:"last_recovery"`
}

// walStatus is the write-ahead-log section of /v1/stats, present only
// when the tenant has an open log: append/fsync counters (their ratio is
// the group-commit batch factor) and the on-disk footprint, so operators
// can watch durability cost and segment truncation at a glance.
type walStatus struct {
	Appends       uint64 `json:"appends"`
	AppendedBytes uint64 `json:"appended_bytes"`
	Syncs         uint64 `json:"syncs"`
	Rotations     uint64 `json:"rotations"`
	Truncations   uint64 `json:"truncations"`
	Segments      int    `json:"segments"`
	DiskBytes     int64  `json:"disk_bytes"`
}

// statsResponse is the /v1/stats payload: the service-level counters plus
// the tracker's typed sigstream.Stats snapshot and the tenant's
// durability state. The flat fields mirror the pre-StatsReporter payload
// for existing consumers; new consumers should read the structured
// "tracker" and "snapshot" objects. The flat fields are filled from the
// same snapshot, not tracked separately — the typed Stats is the single
// source of truth.
type statsResponse struct {
	Tenant      string          `json:"tenant"`
	MemoryBytes int             `json:"memory_bytes"`
	Shards      int             `json:"shards"`
	Arrivals    uint64          `json:"arrivals"`
	Periods     uint64          `json:"periods"`
	Keys        int             `json:"distinct_keys_seen"` // key names held, at most twice the cells
	Alpha       float64         `json:"alpha"`
	Beta        float64         `json:"beta"`
	Tracker     sigstream.Stats `json:"tracker"`
	Snapshot    snapshotStatus  `json:"snapshot"`
	WAL         *walStatus      `json:"wal,omitempty"`
}

// tenantInfoJSON is one row of the /v1/tenants listing.
type tenantInfoJSON struct {
	Namespace    string `json:"namespace"`
	Pinned       bool   `json:"pinned"`
	Resident     bool   `json:"resident"`
	Arrivals     uint64 `json:"arrivals"`
	Periods      uint64 `json:"periods"`
	Spills       uint64 `json:"spills"`
	Revives      uint64 `json:"revives"`
	QuotaDenials uint64 `json:"quota_denials"`
	Dirty        bool   `json:"dirty"`
	LastSaveUnix int64  `json:"last_save_unix"`
}

// tenantsResponse is the /v1/tenants payload: the per-tenant rows plus
// registry totals.
type tenantsResponse struct {
	Tenants       []tenantInfoJSON `json:"tenants"`
	Count         int              `json:"count"`
	Resident      int              `json:"resident"`
	ResidentBytes int64            `json:"resident_bytes"`
	BudgetBytes   int64            `json:"budget_bytes"`
	CostPerTenant int64            `json:"cost_per_tenant_bytes"`
}

func infoJSON(i tenant.Info) tenantInfoJSON {
	return tenantInfoJSON{
		Namespace:    i.Namespace,
		Pinned:       i.Pinned,
		Resident:     i.Resident,
		Arrivals:     i.Arrivals,
		Periods:      i.Periods,
		Spills:       i.Spills,
		Revives:      i.Revives,
		QuotaDenials: i.QuotaDenials,
		Dirty:        i.Dirty,
		LastSaveUnix: i.LastSaveUnix,
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	// The body buffer and batch slices are pooled: a steady producer
	// stream stops allocating per request, and the parsed key views feed
	// IngestWire without ever materialising per-key strings (names are
	// copied only on an intern miss).
	sc := insertPool.Get().(*insertScratch)
	defer insertPool.Put(sc)
	var ok bool
	sc.body, ok = s.readBodyInto(w, r, sc.body[:0])
	if !ok {
		return
	}
	sc.keys, sc.items = sc.keys[:0], sc.items[:0]
	rest := sc.body
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			continue
		}
		sc.keys = append(sc.keys, line)
		sc.items = append(sc.items, sigstream.HashKeyBytes(line))
	}
	n, err := tn.IngestWire(tenant.WireBatch{Keys: sc.keys, Items: sc.items})
	if err != nil {
		s.tenantError(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"inserted": uint64(n)})
}

// insertScratch is the pooled per-request state of handleInsert. keys
// alias body; items carry the pre-hashed arrivals. IngestWire retains
// none of it, so the scratch recycles as soon as the handler returns.
type insertScratch struct {
	body  []byte
	keys  [][]byte
	items []sigstream.Item
}

var insertPool = sync.Pool{New: func() any { return new(insertScratch) }}

func (s *Server) handlePeriod(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	periods, err := tn.EndPeriod()
	if err != nil {
		s.tenantError(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"periods": periods})
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > 1<<20 {
			httpError(w, http.StatusBadRequest, "bad k")
			return
		}
		k = parsed
	}
	entries, err := tn.TopK(k)
	if err != nil {
		s.tenantError(w, err)
		return
	}
	out := make([]entryJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON{
			Key:          e.Key,
			Item:         e.Item,
			Frequency:    e.Frequency,
			Persistency:  e.Persistency,
			Significance: e.Significance,
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "key required")
		return
	}
	e, ok, err := tn.Query(key)
	if err != nil {
		s.tenantError(w, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "not tracked")
		return
	}
	writeJSON(w, entryJSON{
		Key:          e.Key,
		Item:         e.Item,
		Frequency:    e.Frequency,
		Persistency:  e.Persistency,
		Significance: e.Significance,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	ts, err := tn.Stats()
	if err != nil {
		s.tenantError(w, err)
		return
	}
	age := float64(-1)
	if ts.LastSaveUnix > 0 {
		age = math.Max(0, time.Since(time.Unix(ts.LastSaveUnix, 0)).Seconds())
	}
	var walst *walStatus
	if ws, ok := tn.WALStats(); ok {
		walst = &walStatus{
			Appends:       ws.Appends,
			AppendedBytes: ws.AppendedBytes,
			Syncs:         ws.Syncs,
			Rotations:     ws.Rotations,
			Truncations:   ws.Truncations,
			Segments:      ws.Segments,
			DiskBytes:     ws.DiskBytes,
		}
	}
	writeJSON(w, statsResponse{
		Tenant:      ts.Namespace,
		MemoryBytes: ts.Tracker.MemoryBytes,
		Shards:      ts.Tracker.Shards,
		Arrivals:    ts.Arrivals,
		Periods:     ts.Periods,
		Keys:        ts.Keys,
		Alpha:       ts.Tracker.Alpha,
		Beta:        ts.Tracker.Beta,
		Tracker:     ts.Tracker,
		Snapshot: snapshotStatus{
			Resident:     ts.Resident,
			Spills:       ts.Spills,
			Revives:      ts.Revives,
			Saves:        ts.Saves,
			Errors:       ts.SaveErrors,
			LastSaveUnix: ts.LastSaveUnix,
			AgeSeconds:   age,
			LastRecovery: ts.LastRecovery,
		},
		WAL: walst,
	})
}

// handleCheckpoint ships the tenant's image. A request whose
// If-None-Match is exactly the tracker's sigstream.CheckpointTag gets 304
// with no body and costs no encode. That tag is a private version tag a
// gathering coordinator computes from an image it already holds, not an
// HTTP entity tag: the route sends no ETag and compares the header byte
// for byte, so "*", a weak tag or a tag list gets the image.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	img, changed, err := tn.CheckpointImageIfChanged(r.Header.Get("If-None-Match"))
	if err != nil {
		s.tenantError(w, err)
		return
	}
	if !changed {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	if ferr := fault.Inject(fault.CheckpointShip, 0); ferr != nil {
		// Torn shipment: half the image under the full declared length, so
		// the fetching coordinator sees an unexpected EOF mid-transfer —
		// what a site crashing between accept and write looks like.
		_, _ = w.Write(img[:len(img)/2])
		return
	}
	_, _ = w.Write(img)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, tn *tenant.Tenant) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := tn.RestoreImage(body); err != nil {
		var ge *tenant.GeometryError
		if errors.As(err, &ge) {
			s.tenantError(w, err)
			return
		}
		if errors.Is(err, tenant.ErrNotFound) || errors.Is(err, tenant.ErrClosed) ||
			errors.Is(err, tenant.ErrBudget) || errors.Is(err, tenant.ErrTooManyTenants) {
			s.tenantError(w, err)
			return
		}
		// A malformed image is the client's problem, not the server's.
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := tn.Stats()
	if err != nil {
		s.tenantError(w, err)
		return
	}
	writeJSON(w, map[string]int{"shards": st.Tracker.Shards})
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	infos := s.tenants.List()
	rows := make([]tenantInfoJSON, len(infos))
	for i, info := range infos {
		rows[i] = infoJSON(info)
	}
	st := s.tenants.Stats()
	writeJSON(w, tenantsResponse{
		Tenants:       rows,
		Count:         st.Tenants,
		Resident:      st.Resident,
		ResidentBytes: st.ResidentBytes,
		BudgetBytes:   st.BudgetBytes,
		CostPerTenant: st.CostPerTenant,
	})
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Namespace string `json:"namespace"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Namespace == "" {
		httpError(w, http.StatusBadRequest, `body must be {"namespace": "..."}`)
		return
	}
	tn, err := s.tenants.GetOrCreate(req.Namespace)
	if err != nil {
		s.tenantError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]string{"namespace": tn.Namespace()})
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	if err := s.tenants.Delete(ns); err != nil {
		if errors.Is(err, tenant.ErrPinned) {
			httpError(w, http.StatusConflict, "the default tenant cannot be deleted")
			return
		}
		s.tenantError(w, err)
		return
	}
	writeJSON(w, map[string]string{"deleted": ns})
}

// handleHealthz is the liveness probe: 200 whenever the process can
// answer HTTP at all, including while not ready — restarting the process
// is the remedy for a hung process, not for a restore in progress.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only when the server should
// receive traffic — no startup restore in progress and not shut down. A
// load balancer drains a 503 instance while /healthz keeps it alive for
// diagnosis.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if s.restoring.Load() {
		httpError(w, http.StatusServiceUnavailable, "snapshot restore in progress")
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// collectTracker contributes the default tenant's service- and
// tracker-level series to the /metrics exposition — the historical
// series keep their names, so pre-namespace dashboards stay correct; the
// LTC core counters are exported under sigstream_ltc_*.
func (s *Server) collectTracker(w *obs.Writer) {
	ts, ok := s.def.TrackerStats()
	if !ok {
		return
	}
	w.Counter("sigstream_arrivals_total", "Stream arrivals ingested.", float64(s.def.Arrivals()))
	w.Counter("sigstream_periods_total", "Periods closed.", float64(s.def.Periods()))
	w.Gauge("sigstream_distinct_keys", "Key names held (at most twice the tracker's cells).", float64(s.def.KeyCount()))
	w.Gauge("sigstream_memory_bytes", "Tracker memory budget.", float64(ts.MemoryBytes))
	w.Gauge("sigstream_shards", "Tracker shard count.", float64(ts.Shards))
	w.Gauge("sigstream_ltc_cells", "Total LTC cell capacity.", float64(ts.Cells))
	w.Gauge("sigstream_ltc_occupied_cells", "Occupied LTC cells.", float64(ts.OccupiedCells))
	w.Counter("sigstream_ltc_hits_total",
		"Arrivals that matched a tracked cell.", float64(ts.Hits))
	w.Counter("sigstream_ltc_admissions_total",
		"Items installed into a cell.", float64(ts.Admissions))
	w.Counter("sigstream_ltc_decrements_total",
		"Significance Decrementing operations.", float64(ts.Decrements))
	w.Counter("sigstream_ltc_expulsions_total",
		"Items expelled from the table.", float64(ts.Expulsions))
	w.Counter("sigstream_ltc_flags_consumed_total",
		"Persistency credits granted by the CLOCK sweep.", float64(ts.FlagsConsumed))
	w.Counter("sigstream_ltc_cells_swept_total",
		"Cells passed by the CLOCK sweep pointer.", float64(ts.CellsSwept))
	w.Counter("sigstream_ltc_parity_flips_total",
		"Deviation-Eliminator parity flips.", float64(ts.ParityFlips))
	w.Counter("sigstream_ltc_batches_total",
		"Native-path InsertBatch calls.", float64(ts.Batches))
	w.Counter("sigstream_ltc_batched_items_total",
		"Arrivals ingested via InsertBatch.", float64(ts.BatchedItems))
	if ws, ok := s.def.WALStats(); ok {
		w.Counter("sigstream_wal_appends_total",
			"WAL records appended and fsynced (acknowledged mutations).", float64(ws.Appends))
		w.Counter("sigstream_wal_appended_bytes_total",
			"WAL frame bytes written by acknowledged appends.", float64(ws.AppendedBytes))
		w.Counter("sigstream_wal_syncs_total",
			"WAL fsyncs taken (appends/syncs is the group-commit batch factor).",
			float64(ws.Syncs))
		w.Counter("sigstream_wal_rotations_total",
			"WAL segments sealed by rotation.", float64(ws.Rotations))
		w.Counter("sigstream_wal_truncations_total",
			"WAL segments deleted after a snapshot.", float64(ws.Truncations))
		w.Gauge("sigstream_wal_segments",
			"WAL segment files on disk.", float64(ws.Segments))
		w.Gauge("sigstream_wal_disk_bytes",
			"Total WAL bytes on disk.", float64(ws.DiskBytes))
	}
	if s.snapsOn.Load() {
		saves, errs, lastUnix := s.def.SaveCounters()
		w.Counter("sigstream_snapshot_saves_total",
			"Snapshots written successfully.", float64(saves))
		w.Counter("sigstream_snapshot_errors_total",
			"Snapshot attempts that failed.", float64(errs))
		w.Gauge("sigstream_snapshot_last_unix",
			"Unix time of the newest snapshot.", float64(lastUnix))
	}
}

// collectTenants contributes the tenant-registry series: global
// residency and budget gauges plus per-tenant labeled counters (bounded
// by the tenant count; assembled from atomics, so a scrape never revives
// a spilled tenant).
func (s *Server) collectTenants(w *obs.Writer) {
	st := s.tenants.Stats()
	w.Gauge("sigstream_tenants", "Known namespaces.", float64(st.Tenants))
	w.Gauge("sigstream_tenants_resident", "Tenants resident in memory.", float64(st.Resident))
	w.Gauge("sigstream_tenant_resident_bytes",
		"Summed tracker budgets of resident non-pinned tenants.", float64(st.ResidentBytes))
	w.Gauge("sigstream_tenant_budget_bytes",
		"Global tenant memory budget (0 = uncapped).", float64(st.BudgetBytes))
	w.Gauge("sigstream_tenant_cost_bytes",
		"Priced memory cost of one tenant.", float64(st.CostPerTenant))
	w.Counter("sigstream_tenant_spills_total",
		"Tenant spill (resident to disk) transitions.", float64(st.Spills))
	w.Counter("sigstream_tenant_revives_total",
		"Tenant revive (disk to resident) transitions.", float64(st.Revives))
	w.Counter("sigstream_tenant_quota_denials_total",
		"Ingest batches denied by per-tenant quotas.", float64(st.QuotaDenials))
	w.Counter("sigstream_tenant_saves_total",
		"Tenant snapshots written successfully.", float64(st.Saves))
	w.Counter("sigstream_tenant_save_errors_total",
		"Tenant snapshot attempts that failed.", float64(st.SaveErrors))
	for _, info := range s.tenants.List() {
		lbl := obs.Label{Name: "tenant", Value: info.Namespace}
		w.Counter("sigstream_tenant_arrivals_total",
			"Arrivals ingested per tenant.", float64(info.Arrivals), lbl)
		resident := 0.0
		if info.Resident {
			resident = 1
		}
		w.Gauge("sigstream_tenant_resident",
			"Whether the tenant is resident (1) or spilled (0).", resident, lbl)
	}
}

// readBody buffers a request body under the configured limit, translating
// an overrun into 413 (the limit is the operator's, not the client's) and
// any other failure into 400. The bool reports whether the caller may
// proceed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	return s.readBodyInto(w, r, nil)
}

// readBodyInto is readBody appending into a caller-owned (typically
// pooled) buffer, so hot handlers reuse one allocation across requests.
func (s *Server) readBodyInto(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	body, err := appendAll(buf, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d byte limit", mbe.Limit))
			return body, false
		}
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return body, false
	}
	return body, true
}

// appendAll reads r to EOF, appending into dst (io.ReadAll with a
// caller-owned buffer).
func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}
