package tenant

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigstream"
	"sigstream/internal/snapshot"
	"sigstream/internal/wal"
)

// Tenant is one namespace's tracker, key map and counters. Tenants are
// created by a Registry and live in one of two residency states: resident
// (tracker in memory) or not (state on disk or not yet loaded, tracker
// freed). Every data operation transparently loads a non-resident tenant
// first, so callers never observe the distinction except through Stats.
//
// All methods are safe for concurrent use. A tenant holds a read lock for
// the duration of each data operation — the tracker itself is a
// concurrency-safe sigstream.Sharded — and takes the write lock only for
// residency transitions (spill, revive, restore, delete).
//
// Every tenant, pinned or not, ingests through one synchronous path,
// IngestWire: WAL append, tracker apply, then the batch's key names. A
// successful return means the batch is logged and applied, so every read
// that follows it observes it.
//
// The tenant holds key names only for the items its tracker holds: every
// batch notes its names after it is applied and then bounds the key map
// to twice the tracker's cells (sigstream.KeyMap.Bound), so names live and
// die with cells.
//
// The declared acquisition order below is machine-checked by siglint's
// lockorder analyzer (see DESIGN.md §12): mu is always outermost; the
// append path nests walMu then keysMu under it, and holds keysMu across
// the bound's cell walk; the save path and the quota gate each nest their
// own mutex under mu and never under each other.
//
//sig:lockorder mu < walMu < keysMu
//sig:lockorder mu < saveMu
//sig:lockorder mu < quotaMu
type Tenant struct {
	ns     string
	reg    *Registry
	pinned bool
	pin    PinOptions

	// mu guards the tracker/keys pointers and the residency state. Data
	// operations hold it read; spill/revive/restore/delete hold it write.
	// Lock order: Tenant.mu before Registry.mu, never the reverse.
	mu      sync.RWMutex
	tracker *sigstream.Sharded
	keys    *sigstream.KeyMap

	keysMu sync.Mutex // KeyMap is not concurrency-safe

	quotaMu    sync.Mutex // token bucket state
	tokens     float64
	lastRefill time.Time

	saveMu       sync.Mutex // sequence counter and recovery note
	seqInit      bool
	nextSeq      uint64
	lastRecovery string

	// walMu makes a WAL append and its tracker apply one atomic unit
	// against the snapshot cut: data operations hold it read around
	// [append record, apply to tracker], the save path holds it write
	// around [rotate → cut, marshal image], so the image covers
	// exactly the records in segments below the cut. Lock order: mu
	// before walMu. wal is guarded by mu like the tracker pointer; it is
	// nil when the registry has no WAL configured or the tenant is
	// spilled. walCuts (the cuts of the retained snapshots, oldest first)
	// is touched under saveMu while resident and under mu during
	// residency transitions.
	walMu   sync.RWMutex
	wal     *wal.Log
	walCuts []uint64

	arrivals, periods        atomic.Uint64
	spillCount, reviveCount  atomic.Uint64
	saveCount, saveErrCount  atomic.Uint64
	quotaDenials             atomic.Uint64
	lastSaveUnix, lastTouch  atomic.Int64
	resident, deleted, dirty atomic.Bool
}

// Entry is one ranking or query result: the tracker's estimate plus the
// key string. A ranked item's name is held for as long as the item sits in
// a cell, so the key is hex-rendered only for an item whose name was never
// noted: one restored from a checkpoint image or a legacy snapshot, which
// carry no names for it.
type Entry struct {
	// Key is the item's string key.
	Key string
	// Entry is the tracker's estimate.
	sigstream.Entry
}

// Stats is a point-in-time observability snapshot of one tenant, the
// substance behind the per-tenant /v1/stats response.
type Stats struct {
	// Namespace is the tenant's namespace.
	Namespace string
	// Pinned reports whether the tenant is pinned (never spilled,
	// outside the budget and quota).
	Pinned bool
	// Resident reports whether the tracker is currently in memory.
	Resident bool
	// Arrivals is the number of recorded arrivals.
	Arrivals uint64
	// Periods is the number of period boundaries crossed.
	Periods uint64
	// Keys is the number of key names held: at most twice the tracker's
	// cells after every batch.
	Keys int
	// Spills counts resident→disk transitions.
	Spills uint64
	// Revives counts disk→resident transitions.
	Revives uint64
	// QuotaDenials counts ingest batches denied by the rate limit.
	QuotaDenials uint64
	// Saves counts successful snapshot writes.
	Saves uint64
	// SaveErrors counts failed snapshot attempts.
	SaveErrors uint64
	// LastSaveUnix is the Unix time of the newest successful snapshot (0
	// when never saved).
	LastSaveUnix int64
	// LastRecovery describes the most recent residency recovery:
	// "recovered <file>", "fresh", or "" before first residency.
	LastRecovery string
	// Tracker is the underlying tracker's snapshot.
	Tracker sigstream.Stats
}

// Namespace reports the tenant's namespace.
func (t *Tenant) Namespace() string { return t.ns }

// Pinned reports whether the tenant is pinned.
func (t *Tenant) Pinned() bool { return t.pinned }

// Resident reports whether the tracker is currently in memory.
func (t *Tenant) Resident() bool { return t.resident.Load() }

// dir returns the tenant's snapshot directory, or "" when the registry
// has no durability configured.
func (t *Tenant) dir() string {
	base := t.reg.baseDir()
	if base == "" {
		return ""
	}
	return filepath.Join(base, t.ns)
}

// walDir returns the tenant's write-ahead log directory, or "" when the
// registry has no WAL configured.
func (t *Tenant) walDir() string {
	base := t.reg.walBase()
	if base == "" {
		return ""
	}
	return filepath.Join(base, t.ns)
}

// openWAL opens the tenant's write-ahead log, (nil, nil) when the
// registry has no WAL configured.
func (t *Tenant) openWAL() (*wal.Log, error) {
	dir := t.walDir()
	if dir == "" {
		return nil, nil
	}
	l, err := wal.Open(t.reg.walOptions(dir))
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", t.ns, err)
	}
	return l, nil
}

// replayWAL replays l's records at or above cut, in log order, into
// tracker and km: batches re-insert and re-intern their keys and bound km
// as IngestWire does, period records close periods, and a restore record
// swaps in the image it carries (validated against the tenant's
// geometry). It returns the tracker in effect after the replay and the
// number of records applied. The caller owns tracker and km exclusively —
// replay runs during recovery, before the state is installed or served.
func (t *Tenant) replayWAL(l *wal.Log, cut uint64, tracker *sigstream.Sharded, km *sigstream.KeyMap) (*sigstream.Sharded, int, error) {
	cur := tracker
	n, err := l.Replay(cut, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordBatch:
			items := make([]sigstream.Item, len(rec.Keys))
			for i, k := range rec.Keys {
				items[i] = km.Intern(k)
			}
			cur.InsertBatch(items)
			km.Bound(cur.Cells(), cur.VisitItems)
		case wal.RecordPeriod:
			cur.EndPeriod()
		case wal.RecordRestore:
			fresh, _, err := t.restoreInto(rec.Image)
			if err != nil {
				return err
			}
			cur = fresh
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("tenant %s: wal replay: %w", t.ns, err)
	}
	return cur, n, nil
}

// closeWAL closes and clears the tenant's log, logging (not returning)
// the close outcome. Caller holds the write lock.
func (t *Tenant) closeWAL() {
	if t.wal == nil {
		return
	}
	if err := t.wal.Close(); err != nil {
		t.reg.logger.Warn("tenant: wal close failed", "tenant", t.ns, "err", err)
	}
	t.wal = nil
}

// WALStats reports the tenant's write-ahead log counters, false when the
// tenant has no open log (WAL disabled, or the tenant is spilled).
func (t *Tenant) WALStats() (wal.Stats, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.wal == nil {
		return wal.Stats{}, false
	}
	return t.wal.Stats(), true
}

// touch records activity for LRU eviction and idle sweeps.
func (t *Tenant) touch() {
	t.lastTouch.Store(t.reg.clock().UnixNano())
}

// acquire returns with the read lock held on a resident, live tenant —
// reviving it from disk first if it was spilled — or returns an error
// with no lock held.
func (t *Tenant) acquire() error {
	for {
		t.mu.RLock()
		if t.deleted.Load() {
			t.mu.RUnlock()
			return ErrNotFound
		}
		if t.resident.Load() {
			return nil
		}
		t.mu.RUnlock()
		t.mu.Lock()
		err := t.ensureResidentLocked()
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// ensureResidentLocked is the one path that loads a tenant's state, pinned
// or not, at first touch, after a spill, or when AttachDir rebuilds a
// pinned tenant. It reserves budget (evicting colder tenants if needed;
// pinned tenants sit outside the budget), recovers the newest valid
// snapshot (for the pinned default tenant, falling back to the legacy
// snapshot files at the root of the snapshot directory) or starts fresh
// when there is none, replays the WAL tail past the snapshot's cut, and
// installs the tracker. Caller holds the write lock.
func (t *Tenant) ensureResidentLocked() error {
	if t.deleted.Load() {
		return ErrNotFound
	}
	if t.resident.Load() {
		return nil
	}
	if err := t.reg.reserve(t); err != nil {
		return err
	}
	keys := sigstream.NewKeyMap()
	var tracker *sigstream.Sharded
	var cut uint64
	recovery := "fresh"
	fail := func(err error) error {
		t.reg.release(t)
		t.saveMu.Lock()
		t.lastRecovery = "failed: " + err.Error()
		t.saveMu.Unlock()
		return err
	}
	if dir := t.dir(); dir != "" {
		payload, file, err := snapshot.Recover(dir, t.reg.logger)
		if err == nil && payload == nil && t.pinned && t.ns == DefaultNamespace {
			// Snapshots written before the tenant layout existed sit at
			// the root of the snapshot directory.
			payload, file, err = snapshot.Recover(filepath.Dir(dir), t.reg.logger)
		}
		if err != nil {
			return fail(err)
		}
		if payload != nil {
			km, img, c, err := decodeEnvelope(payload)
			if err == nil {
				tracker, _, err = t.restoreInto(img)
			}
			if err != nil {
				return fail(fmt.Errorf("tenant %s: restore snapshot %s: %w", t.ns, file, err))
			}
			keys, cut = km, c
			t.reviveCount.Add(1)
			t.reg.revives.Add(1)
			recovery = "recovered " + file
		}
	}
	if tracker == nil {
		tracker = t.newTracker()
	}
	// Replay the WAL tail past the snapshot cut, so the tenant lands on
	// exactly the state whose appends were acknowledged.
	l, err := t.openWAL()
	if err != nil {
		return fail(err)
	}
	if l != nil {
		replayed, n, err := t.replayWAL(l, cut, tracker, keys)
		if err != nil {
			_ = l.Close()
			return fail(err)
		}
		tracker = replayed
		if n > 0 {
			recovery += fmt.Sprintf(" +%d wal records", n)
		}
	}
	st := tracker.Stats()
	t.arrivals.Store(st.Arrivals)
	t.periods.Store(st.Periods)
	t.tracker = tracker
	t.wal = l
	t.walCuts = nil
	if cut > 0 {
		t.walCuts = []uint64{cut}
	}
	t.keysMu.Lock()
	t.keys = keys
	t.keysMu.Unlock()
	t.saveMu.Lock()
	t.lastRecovery = recovery
	t.saveMu.Unlock()
	t.dirty.Store(false)
	t.resident.Store(true)
	return nil
}

// unloadLocked frees a resident tenant's tracker, key map and log. Budget
// accounting is the caller's. Caller holds the write lock.
func (t *Tenant) unloadLocked() {
	t.closeWAL()
	t.tracker = nil
	t.keysMu.Lock()
	t.keys = nil
	t.keysMu.Unlock()
	t.resident.Store(false)
}

// newTracker builds an empty tracker from the tenant's configuration;
// revive and restore share it so every installed image is validated
// against the same geometry.
func (t *Tenant) newTracker() *sigstream.Sharded {
	cfg, shards := t.reg.cfg.Tracker, t.reg.cfg.Shards
	if t.pinned {
		cfg, shards = t.pin.Tracker, t.pin.Shards
	}
	return sigstream.NewSharded(cfg, shards)
}

// restoreInto decodes a tracker image into a fresh tracker of the
// tenant's geometry, rejecting with GeometryError any image built for a
// differently-sized tracker — accepting it would silently replace the
// configured shard count, memory budget and weights with whatever the
// image carries.
func (t *Tenant) restoreInto(img []byte) (*sigstream.Sharded, sigstream.Stats, error) {
	fresh := t.newTracker()
	want := fresh.Stats()
	if err := fresh.UnmarshalBinary(img); err != nil {
		return nil, sigstream.Stats{}, err
	}
	got := fresh.Stats()
	if got.Shards != want.Shards || got.MemoryBytes != want.MemoryBytes ||
		got.BucketWidth != want.BucketWidth ||
		got.Alpha != want.Alpha || got.Beta != want.Beta {
		return nil, sigstream.Stats{}, &GeometryError{Msg: fmt.Sprintf(
			"tenant %s: snapshot geometry (shards=%d mem=%d d=%d α=%g β=%g) does not match configuration (shards=%d mem=%d d=%d α=%g β=%g)",
			t.ns,
			got.Shards, got.MemoryBytes, got.BucketWidth, got.Alpha, got.Beta,
			want.Shards, want.MemoryBytes, want.BucketWidth, want.Alpha, want.Beta)}
	}
	return fresh, got, nil
}

// allow runs the token bucket: an ingest of n keys needs n tokens (capped
// at one full bucket, so a single batch larger than the burst drains the
// bucket rather than being denied forever). On denial it reports how long
// until the bucket holds enough tokens.
func (t *Tenant) allow(n int) (time.Duration, bool) {
	qps, burst := t.reg.cfg.QuotaPerSec, float64(t.reg.quotaBurst)
	now := t.reg.clock()
	t.quotaMu.Lock()
	defer t.quotaMu.Unlock()
	if t.lastRefill.IsZero() {
		t.tokens = burst
		t.lastRefill = now
	}
	if elapsed := now.Sub(t.lastRefill).Seconds(); elapsed > 0 {
		t.tokens = math.Min(burst, t.tokens+elapsed*qps)
		t.lastRefill = now
	}
	need := math.Min(float64(n), burst)
	if need <= t.tokens {
		t.tokens -= need
		return 0, true
	}
	retry := time.Duration((need - t.tokens) / qps * float64(time.Second))
	return retry, false
}

// Ingest records one arrival per key, in order: it is IngestWire for a
// batch of unit-weight string keys, with the same quota, WAL and apply
// discipline and the same logged bytes. It reports the number of arrivals
// accepted — all of them, or none with a QuotaError carrying the retry
// hint. With a WAL, a successful return means the batch is fsynced: a
// crash after the ack replays it; an error means the batch was neither
// logged nor applied.
func (t *Tenant) Ingest(keys []string) (int, error) {
	b := WireBatch{Keys: make([][]byte, len(keys)), Items: make([]sigstream.Item, len(keys))}
	for i, k := range keys {
		b.Keys[i] = []byte(k)
		b.Items[i] = sigstream.HashKeyBytes(b.Keys[i])
	}
	return t.IngestWire(b)
}

// WireBatch is one decoded ingest batch in the tenant's native currency:
// Keys and Weights are the distinct records in frame order (nil Weights
// means every record has weight 1) and Items is the weight-expanded,
// pre-hashed arrival sequence — the caller guarantees Items holds
// sigstream.HashKeyBytes of each key, repeated that key's weight, in
// record order, and that every weight is at least 1. Decoders build all
// three in pooled buffers; IngestWire never retains any of the slices
// (the WAL encoder copies the key bytes), so the caller may recycle them
// the moment the call returns.
type WireBatch struct {
	Keys    [][]byte
	Weights []uint32
	Items   []sigstream.Item
}

// IngestWire records b's arrivals, in order, and is every transport's one
// ingest path: charge the tenant's quota one token per arrival (pinned
// tenants are exempt), append one RecordBatch holding the weight-expanded
// key sequence to the write-ahead log (when configured), apply Items to
// the tracker, then note the key names and bound the key map to the
// tracker's cells. Names are noted after the apply so that a concurrent
// batch's prune, which keeps the names of items in cells, cannot drop the
// name of an item this batch is still placing. A successful return means
// the batch is logged (fsynced, with a WAL) and applied; on error nothing
// was logged or applied. Once the registry's Close has begun the batch is
// refused with ErrClosed.
func (t *Tenant) IngestWire(b WireBatch) (int, error) {
	if len(b.Items) == 0 {
		return 0, nil
	}
	if err := t.acquire(); err != nil {
		return 0, err
	}
	defer t.mu.RUnlock()
	if t.reg.closed.Load() {
		return 0, ErrClosed
	}
	if !t.pinned && t.reg.cfg.QuotaPerSec > 0 {
		if retry, ok := t.allow(len(b.Items)); !ok {
			t.quotaDenials.Add(1)
			t.reg.quotaDenied.Add(1)
			return 0, &QuotaError{RetryAfter: retry}
		}
	}
	if t.wal != nil {
		// Append and apply under the WAL gate, so a snapshot cut can
		// never land between a batch's record and its tracker effect.
		t.walMu.RLock()
		defer t.walMu.RUnlock()
		if err := t.wal.Append(wal.EncodeBatchRecords(b.Keys, b.Weights)); err != nil {
			return 0, fmt.Errorf("tenant %s: %w", t.ns, err)
		}
	}
	t.tracker.InsertBatch(b.Items)
	t.keysMu.Lock()
	cursor := 0
	for i, k := range b.Keys {
		t.keys.Note(b.Items[cursor], k)
		if b.Weights != nil {
			cursor += int(b.Weights[i])
		} else {
			cursor++
		}
	}
	t.keys.Bound(t.tracker.Cells(), t.tracker.VisitItems)
	t.keysMu.Unlock()
	t.arrivals.Add(uint64(len(b.Items)))
	t.dirty.Store(true)
	t.touch()
	return len(b.Items), nil
}

// EndPeriod closes the tenant's current period and reports the new
// period count. With a WAL the boundary is logged holding the gate
// exclusively, so no insert can slip between the period record and its
// tracker effect and replay closes periods at exactly the logged
// positions. Once the registry's Close has begun the close is refused with
// ErrClosed.
func (t *Tenant) EndPeriod() (uint64, error) {
	if err := t.acquire(); err != nil {
		return 0, err
	}
	defer t.mu.RUnlock()
	if t.reg.closed.Load() {
		return 0, ErrClosed
	}
	if t.wal != nil {
		t.walMu.Lock()
		defer t.walMu.Unlock()
		if err := t.wal.Append(wal.EncodePeriod()); err != nil {
			return 0, fmt.Errorf("tenant %s: %w", t.ns, err)
		}
	}
	t.tracker.EndPeriod()
	periods := t.periods.Add(1)
	t.dirty.Store(true)
	t.touch()
	return periods, nil
}

// TopK reports the tenant's k most significant items with their key
// names, most significant first.
func (t *Tenant) TopK(k int) ([]Entry, error) {
	if err := t.acquire(); err != nil {
		return nil, err
	}
	defer t.mu.RUnlock()
	es := t.tracker.TopK(k)
	out := make([]Entry, len(es))
	t.keysMu.Lock()
	for i, e := range es {
		out[i] = Entry{Key: t.keys.Name(e.Item), Entry: e}
	}
	t.keysMu.Unlock()
	t.touch()
	return out, nil
}

// Query reports the tenant's estimate for one key and whether the key is
// currently tracked.
func (t *Tenant) Query(key string) (Entry, bool, error) {
	if err := t.acquire(); err != nil {
		return Entry{}, false, err
	}
	defer t.mu.RUnlock()
	e, ok := t.tracker.Query(sigstream.HashKey(key))
	t.touch()
	if !ok {
		return Entry{}, false, nil
	}
	return Entry{Key: key, Entry: e}, true, nil
}

// Stats reports the tenant's observability snapshot, reviving a spilled
// tenant first so the tracker fields are live.
func (t *Tenant) Stats() (Stats, error) {
	if err := t.acquire(); err != nil {
		return Stats{}, err
	}
	defer t.mu.RUnlock()
	st := t.statsRLocked()
	st.Tracker = t.tracker.Stats()
	t.keysMu.Lock()
	st.Keys = t.keys.Len()
	t.keysMu.Unlock()
	t.touch()
	return st, nil
}

// statsRLocked assembles the counter-only part of Stats from atomics.
// Caller holds at least the read lock.
func (t *Tenant) statsRLocked() Stats {
	t.saveMu.Lock()
	recovery := t.lastRecovery
	t.saveMu.Unlock()
	return Stats{
		Namespace:    t.ns,
		Pinned:       t.pinned,
		Resident:     t.resident.Load(),
		Arrivals:     t.arrivals.Load(),
		Periods:      t.periods.Load(),
		Spills:       t.spillCount.Load(),
		Revives:      t.reviveCount.Load(),
		QuotaDenials: t.quotaDenials.Load(),
		Saves:        t.saveCount.Load(),
		SaveErrors:   t.saveErrCount.Load(),
		LastSaveUnix: t.lastSaveUnix.Load(),
		LastRecovery: recovery,
	}
}

// TrackerStats reports the live tracker's counters without reviving a
// spilled tenant (false when not resident), so a metrics scrape never
// loads one.
func (t *Tenant) TrackerStats() (sigstream.Stats, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.tracker == nil {
		return sigstream.Stats{}, false
	}
	return t.tracker.Stats(), true
}

// Arrivals reports the number of recorded arrivals.
func (t *Tenant) Arrivals() uint64 { return t.arrivals.Load() }

// Periods reports the number of period boundaries crossed.
func (t *Tenant) Periods() uint64 { return t.periods.Load() }

// SaveCounters reports the snapshot counters — successful saves, failed
// attempts, and the Unix time of the newest save — from atomics, so a
// metrics scrape never blocks or revives.
func (t *Tenant) SaveCounters() (saves, errs uint64, lastUnix int64) {
	return t.saveCount.Load(), t.saveErrCount.Load(), t.lastSaveUnix.Load()
}

// KeyCount reports the number of key names held, at most twice the
// tracker's cells after every batch (0 when spilled).
func (t *Tenant) KeyCount() int {
	t.keysMu.Lock()
	defer t.keysMu.Unlock()
	if t.keys == nil {
		return 0
	}
	return t.keys.Len()
}

// CheckpointImage marshals the tracker into a portable image (the
// /v1/checkpoint body and golden-fixture format).
func (t *Tenant) CheckpointImage() ([]byte, error) {
	img, _, err := t.CheckpointImageIfChanged("")
	return img, err
}

// CheckpointImageIfChanged is CheckpointImage made conditional: when tag
// equals the tracker's sigstream.CheckpointTag, it encodes nothing and
// reports changed false. The comparison is exact;
// the empty tag matches no tracker.
func (t *Tenant) CheckpointImageIfChanged(tag string) (img []byte, changed bool, err error) {
	if err := t.acquire(); err != nil {
		return nil, false, err
	}
	defer t.mu.RUnlock()
	t.touch()
	if tag != "" {
		st := t.tracker.Stats()
		if tag == sigstream.CheckpointTag(st.Periods, st.Arrivals) {
			return nil, false, nil
		}
	}
	if img, err = t.tracker.MarshalBinary(); err != nil {
		return nil, false, err
	}
	return img, true, nil
}

// RestoreImage validates a checkpoint image against the tenant's
// geometry and installs it as the live tracker. The image is restored
// into a fresh tracker first, so a bad image leaves the live state
// untouched. Key names are not part of the image: the names held stay
// until the next batch's bound drops those of items the restored tracker
// does not hold, and the image's items that have no name render as hex
// until a batch notes them. Once the registry's Close has begun the
// restore is refused with ErrClosed.
func (t *Tenant) RestoreImage(body []byte) error {
	t.mu.Lock()
	if t.deleted.Load() {
		t.mu.Unlock()
		return ErrNotFound
	}
	if t.reg.closed.Load() {
		t.mu.Unlock()
		return ErrClosed
	}
	if err := t.ensureResidentLocked(); err != nil {
		t.mu.Unlock()
		return err
	}
	fresh, st, err := t.restoreInto(body)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	if t.wal != nil {
		// A restore is just another logged mutation: the full image rides
		// the log, so replay swaps trackers at exactly this position. The
		// write lock on mu already excludes every data operation and save.
		if err := t.wal.Append(wal.EncodeRestore(body)); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("tenant %s: %w", t.ns, err)
		}
	}
	t.tracker = fresh
	t.arrivals.Store(st.Arrivals)
	t.periods.Store(st.Periods)
	t.dirty.Store(true)
	t.touch()
	t.mu.Unlock()
	return nil
}

// Spill writes the tenant's state to disk (when dirty) and frees the
// tracker, reporting whether a resident→disk transition happened. A
// pinned tenant never spills; a save failure keeps the tenant resident so
// no state is lost.
func (t *Tenant) Spill() (bool, error) {
	if t.pinned {
		return false, ErrPinned
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.resident.Load() || t.deleted.Load() {
		return false, nil
	}
	if t.dirty.Load() {
		if _, err := t.saveRLocked(); err != nil {
			return false, err
		}
	}
	t.unloadLocked()
	t.spillCount.Add(1)
	t.reg.spills.Add(1)
	t.reg.release(t)
	return true, nil
}

// Save forces one snapshot of the tenant's state to disk and returns the
// written file name. A spilled tenant ("", nil) already has its state on
// disk; a registry without a spill directory has nowhere to save.
func (t *Tenant) Save() (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.deleted.Load() {
		return "", ErrNotFound
	}
	if !t.resident.Load() {
		return "", nil
	}
	return t.saveRLocked()
}

// saveRLocked snapshots the tenant's envelope (key names + WAL cut +
// tracker image) to its directory with the crash discipline of
// internal/snapshot, then prunes old files and truncates the WAL below
// the oldest retained snapshot's cut. The dirty flag is cleared before
// the state is read, so writes landing during the save re-mark it.
// Caller holds at least the read lock on a resident tenant.
//
// With a WAL, the save is the snapshot/truncate coordinator: it holds
// the WAL gate exclusively across [segment rotation → cut, image
// marshal, key-name copy], so the image and the names cover
// exactly the records in segments below the cut — replay from the cut is
// the missing suffix, nothing less and nothing twice, and re-notes and
// re-bounds names exactly as the live tenant did. The cut rides inside
// the envelope, so snapshot and replay point commit atomically in one
// renamed file.
func (t *Tenant) saveRLocked() (string, error) {
	dir := t.dir()
	if dir == "" {
		return "", nil
	}
	fail := func(err error) (string, error) {
		t.dirty.Store(true)
		t.saveErrCount.Add(1)
		return "", err
	}
	var cut uint64
	var writeImage func(io.Writer) error
	var names []string
	if t.wal != nil {
		t.walMu.Lock()
		var err error
		cut, err = t.wal.Rotate()
		if err != nil {
			t.walMu.Unlock()
			return fail(fmt.Errorf("tenant %s: %w", t.ns, err))
		}
		t.dirty.Store(false)
		img, err := t.tracker.MarshalBinary()
		names = t.copyNames()
		t.walMu.Unlock()
		if err != nil {
			return fail(fmt.Errorf("tenant %s: %w", t.ns, err))
		}
		writeImage = func(w io.Writer) error {
			_, werr := w.Write(img)
			return werr
		}
	} else {
		t.dirty.Store(false)
		names = t.copyNames()
		// Without a cut to pin, the image streams straight to the temp
		// file — it never materializes in memory.
		writeImage = t.tracker.EncodeTo
	}
	// The names are copied under keysMu and sorted after: TopK name
	// resolution and ingest wait on keysMu, and the sort is the slow part.
	sort.Strings(names)
	t.saveMu.Lock()
	defer t.saveMu.Unlock()
	if !t.seqInit {
		seq, err := snapshot.NextSeq(dir)
		if err != nil {
			return fail(err)
		}
		t.nextSeq, t.seqInit = seq, true
	}
	seq := t.nextSeq
	t.nextSeq++
	name, err := snapshot.WriteFileTo(dir, seq, func(w io.Writer) error {
		return encodeEnvelopeTo(w, names, cut, writeImage)
	})
	if err != nil {
		return fail(err)
	}
	t.saveCount.Add(1)
	t.lastSaveUnix.Store(t.reg.clock().Unix())
	retain := t.reg.retain()
	snapshot.Prune(dir, retain, t.reg.logger)
	if t.wal != nil {
		// Truncate below the oldest retained snapshot's cut: any snapshot
		// still on disk can be recovered and replayed from its own cut.
		t.walCuts = append(t.walCuts, cut)
		if len(t.walCuts) > retain {
			t.walCuts = t.walCuts[len(t.walCuts)-retain:]
		}
		t.wal.TruncateBefore(t.walCuts[0])
	}
	return name, nil
}

// copyNames copies the held key names, unsorted, under keysMu.
func (t *Tenant) copyNames() []string {
	t.keysMu.Lock()
	defer t.keysMu.Unlock()
	return keyNames(t.keys)
}
