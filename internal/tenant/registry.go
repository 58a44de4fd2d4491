// Package tenant multiplexes many independent sigstream trackers behind
// one process: a registry of lazily-created, namespace-keyed tenants
// governed by a global memory budget. Each tenant owns a concurrency-safe
// sharded tracker and a key map; when the budget fills, the
// least-recently-used tenant is spilled — snapshotted to a tenant-labelled
// directory under internal/snapshot's crash discipline and freed — and
// transparently revived, bit-identical, on its next touch. Per-tenant
// token-bucket rate limits bound any one tenant's ingest rate so a noisy
// namespace cannot starve the rest; the HTTP layer maps a quota denial to
// 429 + Retry-After.
//
// The reserved default tenant is pinned: never spilled and excluded from
// budget and quota — it carries the exact single-tenant serving semantics
// the server had before namespaces existed, so legacy un-namespaced
// routes keep their behavior. Every tenant, pinned or not, loads through
// one path (newest valid snapshot, geometry-checked restore, then WAL
// replay from the snapshot's cut) and ingests through one path
// (Tenant.IngestWire). A pinned tenant loads at AttachDir or on its first
// touch, whichever comes first.
package tenant

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigstream"
	"sigstream/internal/snapshot"
	"sigstream/internal/wal"
)

// DefaultNamespace is the reserved namespace legacy un-namespaced routes
// serve; the server pins it at startup and it cannot be deleted.
const DefaultNamespace = "default"

// MaxNamespaceBytes is the longest legal tenant namespace.
const MaxNamespaceBytes = 64

// ValidNamespace reports whether ns is a legal tenant namespace: 1 to
// MaxNamespaceBytes characters of lowercase letters, digits, '.', '_' or
// '-', starting with a letter or digit. The charset is path-safe by
// construction — a namespace is also a snapshot directory name — and the
// leading-alnum rule keeps dot-names like ".." unrepresentable.
func ValidNamespace(ns string) bool {
	if len(ns) == 0 || len(ns) > MaxNamespaceBytes {
		return false
	}
	for i := 0; i < len(ns); i++ {
		c := ns[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// AutoSize prices each tenant's tracker from workload expectations
// instead of a fixed byte count, via sigstream.SuggestMemoryBytes.
type AutoSize struct {
	// Workload describes one tenant's expected stream.
	Workload sigstream.Workload
	// K is the top-k size the budget must answer correctly.
	K int
	// TargetCorrectRate is the correct-rate lower bound to size for.
	TargetCorrectRate float64
}

// Config tunes a Registry. The zero value is usable: unlimited tenants,
// no budget, no quotas, no durability.
type Config struct {
	// Tracker is the per-tenant tracker configuration (zero fields take
	// sigstream's defaults). AutoSize, when set, overrides
	// Tracker.MemoryBytes.
	Tracker sigstream.Config
	// Shards is each tenant's tracker shard count (0 selects GOMAXPROCS).
	Shards int
	// AutoSize, when non-nil, sizes Tracker.MemoryBytes from workload
	// expectations via sigstream.SuggestMemoryBytes.
	AutoSize *AutoSize
	// BudgetBytes caps the summed tracker budgets of resident non-pinned
	// tenants; 0 means uncapped. When the cap is hit the registry spills
	// the least-recently-used tenant (with Dir set) or refuses residency
	// with ErrBudget (without).
	BudgetBytes int64
	// MaxTenants caps the number of namespaces, resident or not; 0 means
	// uncapped.
	MaxTenants int
	// QuotaPerSec is each non-pinned tenant's sustained ingest rate in
	// keys per second; 0 disables quotas.
	QuotaPerSec float64
	// QuotaBurst is the token-bucket depth in keys (default: QuotaPerSec
	// rounded up, minimum 1).
	QuotaBurst int
	// IdleAfter spills tenants untouched for this long on each sweep; 0
	// disables idle spilling.
	IdleAfter time.Duration
	// Dir is the snapshot base directory: each tenant persists under
	// Dir/<namespace>/. Empty disables durability and spilling.
	Dir string
	// WALDir is the write-ahead log base directory: each tenant logs
	// accepted mutations under WALDir/<namespace>/ and acknowledges only
	// after the record is fsynced. Empty disables the WAL. Without Dir the
	// log is replayed whole on every recovery and never truncated — pair
	// both for bounded disk.
	WALDir string
	// WALSyncInterval is the WAL group-commit window: ≤ 0 fsyncs every
	// append inline; positive coalesces concurrent appends into one fsync
	// taken at most this long after the first waiter arrived.
	WALSyncInterval time.Duration
	// WALSegmentBytes is the WAL segment rotation threshold (0 means
	// wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// Retain is how many snapshots each tenant keeps (default
	// snapshot.DefaultRetain).
	Retain int
	// Logger receives spill/revive/save events (default slog.Default()).
	Logger *slog.Logger
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// RegistryStats is a point-in-time summary of the whole registry, the
// substance behind the /v1/tenants listing header and /metrics gauges.
type RegistryStats struct {
	// Tenants is the number of known namespaces, resident or not.
	Tenants int
	// Resident is the number of tenants currently in memory.
	Resident int
	// ResidentBytes is the summed tracker budgets of resident non-pinned
	// tenants.
	ResidentBytes int64
	// BudgetBytes is the configured global budget (0 = uncapped).
	BudgetBytes int64
	// CostPerTenant is one tenant's priced tracker budget.
	CostPerTenant int64
	// Capacity is how many non-pinned tenants fit the budget at once
	// (0 = unlimited).
	Capacity int
	// Spills counts resident→disk transitions across all tenants.
	Spills uint64
	// Revives counts disk→resident transitions across all tenants.
	Revives uint64
	// QuotaDenials counts quota-denied ingest batches across all tenants.
	QuotaDenials uint64
	// Saves counts successful snapshot writes across current tenants.
	Saves uint64
	// SaveErrors counts failed snapshot attempts across current tenants.
	SaveErrors uint64
}

// Info is one tenant's row in a /v1/tenants listing. It is assembled
// from atomics only, so listing never revives a spilled tenant.
type Info struct {
	// Namespace is the tenant's namespace.
	Namespace string
	// Pinned reports whether the tenant is pinned.
	Pinned bool
	// Resident reports whether the tracker is currently in memory.
	Resident bool
	// Arrivals is the number of recorded arrivals.
	Arrivals uint64
	// Periods is the number of period boundaries crossed.
	Periods uint64
	// Spills counts resident→disk transitions.
	Spills uint64
	// Revives counts disk→resident transitions.
	Revives uint64
	// QuotaDenials counts quota-denied ingest batches.
	QuotaDenials uint64
	// Dirty reports un-snapshotted state in memory.
	Dirty bool
	// LastTouchUnixNano is when the tenant last served an operation.
	LastTouchUnixNano int64
	// LastSaveUnix is the Unix time of the newest successful snapshot.
	LastSaveUnix int64
}

// PinOptions configures a pinned tenant: its own tracker geometry,
// independent of the registry's per-tenant configuration. A pinned tenant
// is never spilled and sits outside the budget and quota; it loads at
// AttachDir or on first touch.
type PinOptions struct {
	// Tracker is the pinned tenant's tracker configuration.
	Tracker sigstream.Config
	// Shards is the pinned tenant's shard count (0 selects GOMAXPROCS).
	Shards int
}

// Registry owns every tenant in the process. All methods are safe for
// concurrent use.
type Registry struct {
	cfg        Config
	cost       int64
	quotaBurst int
	logger     *slog.Logger
	clock      func() time.Time

	// mu guards the tenant map and the residency accounting. Lock order:
	// Tenant.mu before Registry.mu, never the reverse — paths that need
	// both collect tenant pointers under mu, release it, then lock tenants
	// individually.
	mu            sync.Mutex
	tenants       map[string]*Tenant
	residentBytes int64
	// closed is set, under mu, as Close begins. Registration and loads
	// check it under mu; tenant mutations check it under the tenant lock,
	// which Close takes for each tenant's final save, so a mutation is
	// either refused or in that save.
	closed atomic.Bool

	spills, revives, quotaDenied atomic.Uint64

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	closeOnce sync.Once
	closeErr  error
}

// NewRegistry builds a Registry. The per-tenant memory cost is priced
// once, from a probe tracker of the configured geometry, so budget
// accounting is exact multiples of what each resident tenant really
// holds. NewRegistry panics if cfg.Tracker is invalid (pre-check
// untrusted configurations with sigstream's Config.Validate).
func NewRegistry(cfg Config) *Registry {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Retain <= 0 {
		cfg.Retain = snapshot.DefaultRetain
	}
	if a := cfg.AutoSize; a != nil {
		if b := sigstream.SuggestMemoryBytes(a.Workload, a.K, a.TargetCorrectRate); b > 0 {
			cfg.Tracker.MemoryBytes = b
		}
	}
	burst := cfg.QuotaBurst
	if burst <= 0 && cfg.QuotaPerSec > 0 {
		burst = int(cfg.QuotaPerSec + 0.999)
	}
	if burst < 1 {
		burst = 1
	}
	probe := sigstream.NewSharded(cfg.Tracker, cfg.Shards)
	r := &Registry{
		cfg:        cfg,
		cost:       int64(probe.MemoryBytes()),
		quotaBurst: burst,
		logger:     cfg.Logger,
		clock:      cfg.Clock,
		tenants:    make(map[string]*Tenant),
	}
	if cfg.WALDir != "" {
		// Register every namespace that left a log behind, so its tail
		// replays on first touch instead of lying orphaned — the WAL
		// counterpart of AttachDir's spilled-tenant scan. The default
		// namespace is left for Pin, which refuses an existing one.
		entries, err := os.ReadDir(cfg.WALDir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			r.logger.Warn("tenant: cannot scan wal dir", "dir", cfg.WALDir, "err", err)
		}
		for _, e := range entries {
			if e.IsDir() && ValidNamespace(e.Name()) && e.Name() != DefaultNamespace {
				r.newTenantLocked(e.Name())
			}
		}
	}
	return r
}

// baseDir reports the snapshot base directory ("" = no durability).
func (r *Registry) baseDir() string {
	r.mu.Lock()
	d := r.cfg.Dir
	r.mu.Unlock()
	return d
}

// walBase reports the write-ahead log base directory ("" = no WAL).
// Unlike Dir (mutated by AttachDir), the WAL configuration is immutable
// after NewRegistry, so no lock is needed.
func (r *Registry) walBase() string {
	return r.cfg.WALDir
}

// walOptions assembles one tenant log's options from the (immutable) WAL
// configuration.
func (r *Registry) walOptions(dir string) wal.Options {
	return wal.Options{
		Dir:          dir,
		SyncInterval: r.cfg.WALSyncInterval,
		SegmentBytes: r.cfg.WALSegmentBytes,
		Logger:       r.logger,
	}
}

// retain reports the per-tenant snapshot retention count.
func (r *Registry) retain() int {
	r.mu.Lock()
	n := r.cfg.Retain
	r.mu.Unlock()
	return n
}

// SetRetain changes how many snapshots each tenant keeps; a non-positive
// count restores snapshot.DefaultRetain. Call before AttachDir so every
// prune uses the configured count.
func (r *Registry) SetRetain(n int) {
	if n <= 0 {
		n = snapshot.DefaultRetain
	}
	r.mu.Lock()
	r.cfg.Retain = n
	r.mu.Unlock()
}

// CostPerTenant reports one tenant's priced tracker budget in bytes.
func (r *Registry) CostPerTenant() int64 { return r.cost }

// newTenantLocked registers a fresh, non-resident tenant. Caller holds mu.
func (r *Registry) newTenantLocked(ns string) *Tenant {
	t := &Tenant{ns: ns, reg: r}
	t.lastTouch.Store(r.clock().UnixNano())
	r.tenants[ns] = t
	return t
}

// Get returns an existing tenant, ErrNotFound otherwise.
func (r *Registry) Get(ns string) (*Tenant, error) {
	if !ValidNamespace(ns) {
		return nil, ErrBadNamespace
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[ns]; ok {
		return t, nil
	}
	return nil, ErrNotFound
}

// GetOrCreate returns the named tenant, registering it first if new.
// Creation is cheap — no tracker is built until the first operation
// brings the tenant resident.
func (r *Registry) GetOrCreate(ns string) (*Tenant, error) {
	if !ValidNamespace(ns) {
		return nil, ErrBadNamespace
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if t, ok := r.tenants[ns]; ok {
		return t, nil
	}
	if r.cfg.MaxTenants > 0 && len(r.tenants) >= r.cfg.MaxTenants {
		return nil, ErrTooManyTenants
	}
	return r.newTenantLocked(ns), nil
}

// Pin registers a pinned tenant: never spilled, outside the budget, quota
// and idle sweep, with its own tracker geometry. Pin does no I/O; the
// tenant loads at AttachDir or on first touch, like any other. The server
// pins DefaultNamespace at startup so legacy routes keep single-tenant
// semantics. Pinning an existing namespace is an error, as is an invalid
// opts.Tracker.
func (r *Registry) Pin(ns string, opts PinOptions) (*Tenant, error) {
	if !ValidNamespace(ns) {
		return nil, ErrBadNamespace
	}
	if err := opts.Tracker.Validate(); err != nil {
		return nil, fmt.Errorf("tenant: pin %q: %w", ns, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := r.tenants[ns]; ok {
		return nil, fmt.Errorf("tenant: namespace %q already exists", ns)
	}
	t := r.newTenantLocked(ns)
	t.pinned, t.pin = true, opts
	return t, nil
}

// Delete removes a tenant: its tracker is freed, its snapshot directory
// deleted, and its namespace forgotten. Pinned tenants cannot be deleted.
func (r *Registry) Delete(ns string) error {
	t, err := r.Get(ns)
	if err != nil {
		return err
	}
	if t.pinned {
		return ErrPinned
	}
	t.mu.Lock()
	if t.deleted.Load() {
		t.mu.Unlock()
		return ErrNotFound
	}
	t.deleted.Store(true)
	wasResident := t.resident.Load()
	t.unloadLocked()
	t.mu.Unlock()
	if wasResident {
		r.release(t)
	}
	r.mu.Lock()
	if cur, ok := r.tenants[ns]; ok && cur == t {
		delete(r.tenants, ns)
	}
	r.mu.Unlock()
	if base := r.baseDir(); base != "" {
		if err := os.RemoveAll(filepath.Join(base, ns)); err != nil {
			r.logger.Warn("tenant: delete directory failed", "tenant", ns, "err", err)
		}
	}
	if base := r.walBase(); base != "" {
		if err := os.RemoveAll(filepath.Join(base, ns)); err != nil {
			r.logger.Warn("tenant: delete wal directory failed", "tenant", ns, "err", err)
		}
	}
	return nil
}

// snapshotTenants copies the current tenant set out from under the lock,
// so per-tenant work never nests Registry.mu inside Tenant.mu.
func (r *Registry) snapshotTenants() []*Tenant {
	r.mu.Lock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	return ts
}

// List reports every tenant's Info, sorted by namespace. It reads
// atomics only — listing tenants never revives a spilled one.
func (r *Registry) List() []Info {
	ts := r.snapshotTenants()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		if t.deleted.Load() {
			continue
		}
		out = append(out, Info{
			Namespace:         t.ns,
			Pinned:            t.pinned,
			Resident:          t.resident.Load(),
			Arrivals:          t.arrivals.Load(),
			Periods:           t.periods.Load(),
			Spills:            t.spillCount.Load(),
			Revives:           t.reviveCount.Load(),
			QuotaDenials:      t.quotaDenials.Load(),
			Dirty:             t.dirty.Load(),
			LastTouchUnixNano: t.lastTouch.Load(),
			LastSaveUnix:      t.lastSaveUnix.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Namespace < out[j].Namespace })
	return out
}

// Stats summarizes the registry.
func (r *Registry) Stats() RegistryStats {
	ts := r.snapshotTenants()
	r.mu.Lock()
	st := RegistryStats{
		Tenants:       len(r.tenants),
		ResidentBytes: r.residentBytes,
		BudgetBytes:   r.cfg.BudgetBytes,
		CostPerTenant: r.cost,
		Spills:        r.spills.Load(),
		Revives:       r.revives.Load(),
		QuotaDenials:  r.quotaDenied.Load(),
	}
	r.mu.Unlock()
	if st.BudgetBytes > 0 && r.cost > 0 {
		st.Capacity = int(st.BudgetBytes / r.cost)
	}
	for _, t := range ts {
		if t.resident.Load() && !t.deleted.Load() {
			st.Resident++
		}
		st.Saves += t.saveCount.Load()
		st.SaveErrors += t.saveErrCount.Load()
	}
	return st
}

// reserve charges one tenant's cost against the budget, spilling the
// least-recently-used resident tenants until the charge fits. Pinned
// tenants are outside the budget and charge nothing, but a closed
// registry refuses every load. With no spill directory an over-budget
// charge is refused with ErrBudget; with one, eviction only fails if
// every resident tenant is pinned, the requester, or un-spillable — then
// the registry overcommits (logged) rather than deadlock.
func (r *Registry) reserve(t *Tenant) error {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return ErrClosed
	}
	if t.pinned {
		r.mu.Unlock()
		return nil
	}
	failed := make(map[*Tenant]bool)
	r.residentBytes += r.cost
	for r.cfg.BudgetBytes > 0 && r.residentBytes > r.cfg.BudgetBytes {
		if r.cfg.Dir == "" {
			r.residentBytes -= r.cost
			r.mu.Unlock()
			return ErrBudget
		}
		victim := r.lruVictimLocked(t, failed)
		if victim == nil {
			r.logger.Warn("tenant: budget overcommitted, no spillable tenant",
				"resident_bytes", r.residentBytes, "budget_bytes", r.cfg.BudgetBytes)
			break
		}
		r.mu.Unlock()
		if _, err := victim.Spill(); err != nil {
			r.logger.Warn("tenant: eviction spill failed",
				"tenant", victim.ns, "err", err)
			failed[victim] = true
		}
		r.mu.Lock()
	}
	r.mu.Unlock()
	return nil
}

// release returns one tenant's cost to the budget after a spill, delete
// or failed load; pinned tenants charged nothing.
func (r *Registry) release(t *Tenant) {
	if t.pinned {
		return
	}
	r.mu.Lock()
	r.residentBytes -= r.cost
	r.mu.Unlock()
}

// lruVictimLocked picks the resident, non-pinned tenant with the oldest
// touch time, skipping the requester and tenants whose spill already
// failed. Caller holds mu.
func (r *Registry) lruVictimLocked(requester *Tenant, skip map[*Tenant]bool) *Tenant {
	var victim *Tenant
	var oldest int64
	for _, t := range r.tenants {
		if t.pinned || t == requester || skip[t] ||
			!t.resident.Load() || t.deleted.Load() {
			continue
		}
		if touch := t.lastTouch.Load(); victim == nil || touch < oldest {
			victim, oldest = t, touch
		}
	}
	return victim
}

// AttachDir wires durability into the registry after construction: set
// the snapshot base directory, register every namespace already spilled
// there (their trackers load lazily on first touch), and load each pinned
// tenant now, rebuilding one touched earlier, so a recovery error fails
// AttachDir instead of a later request. Call it once, before Start and
// before serving traffic.
func (r *Registry) AttachDir(dir string) error {
	if dir == "" {
		return errors.New("tenant: snapshot dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	r.mu.Lock()
	r.cfg.Dir = dir
	var pinned []*Tenant
	for _, t := range r.tenants {
		if t.pinned {
			pinned = append(pinned, t)
		}
	}
	r.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidNamespace(e.Name()) {
			continue
		}
		if _, err := r.GetOrCreate(e.Name()); err != nil {
			r.logger.Warn("tenant: cannot register spilled tenant",
				"tenant", e.Name(), "err", err)
		}
	}
	for _, t := range pinned {
		t.mu.Lock()
		t.unloadLocked()
		err := t.ensureResidentLocked()
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Start launches the registry's background goroutine: every interval it
// snapshots dirty resident tenants and spills those idle past
// Config.IdleAfter. A non-positive interval falls back to IdleAfter;
// with neither set Start is a no-op. Call at most once, before Close.
func (r *Registry) Start(interval time.Duration) {
	if interval <= 0 {
		interval = r.cfg.IdleAfter
	}
	if interval <= 0 {
		return
	}
	r.startOnce.Do(func() {
		r.stop = make(chan struct{})
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := r.SaveDirty(); err != nil {
						r.logger.Error("tenant: periodic save failed", "err", err)
					}
					r.Sweep()
				case <-r.stop:
					return
				}
			}
		}()
	})
}

// SaveDirty snapshots every resident tenant with un-persisted state.
func (r *Registry) SaveDirty() error {
	var errs []error
	for _, t := range r.snapshotTenants() {
		if !t.resident.Load() || t.deleted.Load() || !t.dirty.Load() {
			continue
		}
		if _, err := t.Save(); err != nil && !errors.Is(err, ErrNotFound) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sweep spills every non-pinned tenant untouched for Config.IdleAfter,
// reporting how many it spilled. A zero IdleAfter or missing spill
// directory makes it a no-op.
func (r *Registry) Sweep() int {
	if r.cfg.IdleAfter <= 0 || r.baseDir() == "" {
		return 0
	}
	cutoff := r.clock().Add(-r.cfg.IdleAfter).UnixNano()
	n := 0
	for _, t := range r.snapshotTenants() {
		if t.pinned || !t.resident.Load() || t.deleted.Load() {
			continue
		}
		if t.lastTouch.Load() > cutoff {
			continue
		}
		spilled, err := t.Spill()
		if err != nil {
			r.logger.Warn("tenant: idle spill failed", "tenant", t.ns, "err", err)
			continue
		}
		if spilled {
			n++
		}
	}
	return n
}

// Close stops the background goroutine, refuses every later mutation and
// residency change with ErrClosed, takes one final snapshot of every
// resident tenant, and closes every log. Reads of resident tenants still
// answer. Idempotent; every call reports the first close's outcome.
func (r *Registry) Close() error {
	r.closeOnce.Do(func() {
		if r.stop != nil {
			close(r.stop)
			<-r.done
		}
		r.mu.Lock()
		r.closed.Store(true)
		r.mu.Unlock()
		// Each tenant's final save runs under its write lock: mutations
		// that passed the closed check have finished, and later ones are
		// refused, so the snapshot holds every acknowledged mutation. The
		// log then gets a final fsync and close; whatever outlived the
		// final snapshot replays on next boot.
		var errs []error
		for _, t := range r.snapshotTenants() {
			t.mu.Lock()
			if t.resident.Load() && !t.deleted.Load() {
				if _, err := t.saveRLocked(); err != nil {
					errs = append(errs, err)
				}
			}
			t.closeWAL()
			t.mu.Unlock()
		}
		r.closeErr = errors.Join(errs...)
	})
	return r.closeErr
}
