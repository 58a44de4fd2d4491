package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/snapshot"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// smallTracker keeps per-tenant cost low so budget tests stay fast.
func smallTracker() sigstream.Config {
	return sigstream.Config{MemoryBytes: 1 << 14}
}

func TestValidNamespace(t *testing.T) {
	valid := []string{"a", "default", "team-1", "acme.prod", "x_y", "0abc",
		strings.Repeat("a", MaxNamespaceBytes)}
	invalid := []string{"", ".", "..", ".hidden", "-x", "_x", "UPPER", "a b",
		"a/b", "a\\b", string(make([]byte, 65)), "café",
		strings.Repeat("a", MaxNamespaceBytes+1)}
	for _, ns := range valid {
		if !ValidNamespace(ns) {
			t.Errorf("ValidNamespace(%q) = false, want true", ns)
		}
	}
	for _, ns := range invalid {
		if ValidNamespace(ns) {
			t.Errorf("ValidNamespace(%q) = true, want false", ns)
		}
	}
}

func TestIngestTopKQuery(t *testing.T) {
	r := NewRegistry(Config{Tracker: smallTracker(), Logger: quietLogger()})
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "a", "a", "b", "b", "c"}
	if n, err := tn.Ingest(keys); err != nil || n != len(keys) {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	if _, err := tn.EndPeriod(); err != nil {
		t.Fatal(err)
	}
	top, err := tn.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Key != "a" {
		t.Fatalf("TopK = %+v, want a first", top)
	}
	e, ok, err := tn.Query("b")
	if err != nil || !ok || e.Frequency != 2 {
		t.Fatalf("Query(b) = %+v, %v, %v", e, ok, err)
	}
	if _, ok, _ := tn.Query("nope"); ok {
		t.Fatal("Query(nope) tracked")
	}
	st, err := tn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 6 || st.Periods != 1 || st.Keys != 3 || !st.Resident {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestSpillReviveBitIdentical is the golden-fixture acceptance test: a
// spilled tenant revives with a bit-identical tracker image and the same
// TopK, key names included.
func TestSpillReviveBitIdentical(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(Config{Tracker: smallTracker(), Dir: dir, Logger: quietLogger()})
	defer r.Close()
	tn, err := r.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for p := 0; p < 5; p++ {
		var batch []string
		for i := 0; i < 500; i++ {
			batch = append(batch, fmt.Sprintf("key-%d", rng.Intn(100)))
		}
		if _, err := tn.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := tn.EndPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := tn.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	topBefore, err := tn.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := tn.Spill()
	if err != nil || !spilled {
		t.Fatalf("Spill = %v, %v", spilled, err)
	}
	if tn.Resident() {
		t.Fatal("still resident after spill")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "acme"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no tenant-labelled snapshot written: %v", err)
	}
	// Next touch revives transparently.
	topAfter, err := tn.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if !tn.Resident() {
		t.Fatal("not resident after revive")
	}
	if !reflect.DeepEqual(topBefore, topAfter) {
		t.Fatalf("TopK changed across spill/revive:\nbefore %+v\nafter  %+v", topBefore, topAfter)
	}
	after, err := tn.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("checkpoint image not bit-identical across spill/revive")
	}
	st, err := tn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spills != 1 || st.Revives != 1 {
		t.Fatalf("Spills/Revives = %d/%d, want 1/1", st.Spills, st.Revives)
	}
	if len(st.LastRecovery) < len("recovered ") || st.LastRecovery[:10] != "recovered " {
		t.Fatalf("LastRecovery = %q", st.LastRecovery)
	}
}

// TestBudgetEviction is the 64 MiB / 100-tenant acceptance criterion
// scaled to test time: many more tenants than the budget holds stay
// usable, cold ones spill, and resident accounting never exceeds the
// budget.
func TestBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	cost := int64(NewRegistry(Config{Tracker: smallTracker(), Logger: quietLogger()}).CostPerTenant())
	budget := 8 * cost
	r := NewRegistry(Config{
		Tracker:     smallTracker(),
		BudgetBytes: budget,
		Dir:         dir,
		Logger:      quietLogger(),
	})
	defer r.Close()
	const tenants = 120
	for i := 0; i < tenants; i++ {
		tn, err := r.GetOrCreate(fmt.Sprintf("t%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Ingest([]string{fmt.Sprintf("item-%d", i), "shared"}); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	st := r.Stats()
	if st.Tenants != tenants {
		t.Fatalf("Tenants = %d, want %d", st.Tenants, tenants)
	}
	if st.ResidentBytes > budget {
		t.Fatalf("ResidentBytes %d exceeds budget %d", st.ResidentBytes, budget)
	}
	if st.Spills == 0 {
		t.Fatal("no spills under a budget smaller than the tenant count")
	}
	if int64(st.Resident)*cost != st.ResidentBytes {
		t.Fatalf("accounting drift: %d resident × %d cost != %d resident bytes",
			st.Resident, cost, st.ResidentBytes)
	}
	// Every tenant — spilled or not — still answers with its own state.
	for i := 0; i < tenants; i += 17 {
		tn, err := r.Get(fmt.Sprintf("t%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		e, ok, err := tn.Query(fmt.Sprintf("item-%d", i))
		if err != nil || !ok || e.Frequency != 1 {
			t.Fatalf("tenant %d lost state: %+v, %v, %v", i, e, ok, err)
		}
	}
}

// TestBudgetNoDirRefuses: without a spill directory the registry cannot
// evict, so an over-budget residency is refused with ErrBudget.
func TestBudgetNoDirRefuses(t *testing.T) {
	cost := NewRegistry(Config{Tracker: smallTracker(), Logger: quietLogger()}).CostPerTenant()
	r := NewRegistry(Config{
		Tracker:     smallTracker(),
		BudgetBytes: 2 * cost,
		Logger:      quietLogger(),
	})
	defer r.Close()
	for i := 0; i < 2; i++ {
		tn, err := r.GetOrCreate(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Ingest([]string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	tn, err := r.GetOrCreate("overflow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Ingest([]string{"x"}); !errors.Is(err, ErrBudget) {
		t.Fatalf("Ingest over budget = %v, want ErrBudget", err)
	}
}

// TestQuotaIsolation: a noisy tenant burning its quota gets 429-style
// denials with a retry hint while a victim tenant's inserts proceed
// untouched.
func TestQuotaIsolation(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := NewRegistry(Config{
		Tracker:     smallTracker(),
		QuotaPerSec: 10,
		QuotaBurst:  20,
		Logger:      quietLogger(),
		Clock:       clock,
	})
	defer r.Close()
	noisy, err := r.GetOrCreate("noisy")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := r.GetOrCreate("victim")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]string, 20)
	for i := range batch {
		batch[i] = fmt.Sprintf("k%d", i)
	}
	if _, err := noisy.Ingest(batch); err != nil {
		t.Fatalf("first burst should pass: %v", err)
	}
	_, err = noisy.Ingest(batch)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second burst = %v, want QuotaError", err)
	}
	if qe.RetryAfter <= 0 || qe.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 2s]", qe.RetryAfter)
	}
	// The victim's bucket is independent: full batch passes.
	if n, err := victim.Ingest(batch); err != nil || n != len(batch) {
		t.Fatalf("victim Ingest = %d, %v — noisy tenant starved it", n, err)
	}
	// Refill: advancing the clock restores the noisy tenant's tokens.
	now = now.Add(2 * time.Second)
	if _, err := noisy.Ingest(batch); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	st, err := noisy.Stats()
	if err != nil || st.QuotaDenials != 1 {
		t.Fatalf("QuotaDenials = %d, %v", st.QuotaDenials, err)
	}
	if vs, _ := victim.Stats(); vs.QuotaDenials != 0 {
		t.Fatalf("victim QuotaDenials = %d", vs.QuotaDenials)
	}
}

// TestConcurrentCreateEvictRevive hammers a small-budget registry from
// many goroutines (run under -race) and then checks the residency
// accounting invariant.
func TestConcurrentCreateEvictRevive(t *testing.T) {
	dir := t.TempDir()
	cost := NewRegistry(Config{Tracker: smallTracker(), Logger: quietLogger()}).CostPerTenant()
	r := NewRegistry(Config{
		Tracker:     smallTracker(),
		BudgetBytes: 3 * cost,
		Dir:         dir,
		Logger:      quietLogger(),
	})
	defer r.Close()
	const goroutines = 8
	const namespaces = 10
	const opsPer = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPer; i++ {
				ns := fmt.Sprintf("ns%d", rng.Intn(namespaces))
				tn, err := r.GetOrCreate(ns)
				if err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(5) {
				case 0:
					if _, err := tn.TopK(3); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("%s TopK: %v", ns, err)
					}
				case 1:
					if _, err := tn.Spill(); err != nil && !errors.Is(err, ErrPinned) {
						t.Errorf("%s Spill: %v", ns, err)
					}
				case 2:
					if _, err := tn.EndPeriod(); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("%s EndPeriod: %v", ns, err)
					}
				default:
					if _, err := tn.Ingest([]string{fmt.Sprintf("g%d-i%d", g, i)}); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("%s Ingest: %v", ns, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if int64(st.Resident)*cost != st.ResidentBytes {
		t.Fatalf("accounting drift after churn: %d resident × %d != %d bytes",
			st.Resident, cost, st.ResidentBytes)
	}
	if st.ResidentBytes > 3*cost {
		t.Fatalf("ResidentBytes %d exceeds budget %d", st.ResidentBytes, 3*cost)
	}
}

// TestReviveAfterAbandon models kill -9: state saved, registry abandoned
// without Close, a new registry attaches the same directory and every
// tenant revives with identical TopK.
func TestReviveAfterAbandon(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Tracker: smallTracker(), Dir: dir, Logger: quietLogger()})
	want := map[string][]Entry{}
	for i := 0; i < 5; i++ {
		ns := fmt.Sprintf("ns%d", i)
		tn, err := r1.GetOrCreate(ns)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p <= i; p++ {
			if _, err := tn.Ingest([]string{"a", "b", ns}); err != nil {
				t.Fatal(err)
			}
			if _, err := tn.EndPeriod(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tn.Save(); err != nil {
			t.Fatal(err)
		}
		top, err := tn.TopK(5)
		if err != nil {
			t.Fatal(err)
		}
		want[ns] = top
	}
	// No Close: the process "dies" here.
	r2 := NewRegistry(Config{Tracker: smallTracker(), Logger: quietLogger()})
	defer r2.Close()
	if err := r2.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	infos := r2.List()
	if len(infos) != 5 {
		t.Fatalf("AttachDir registered %d tenants, want 5", len(infos))
	}
	for ns, top := range want {
		tn, err := r2.Get(ns)
		if err != nil {
			t.Fatalf("%s: %v", ns, err)
		}
		got, err := tn.TopK(5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, top) {
			t.Fatalf("%s TopK after restart:\ngot  %+v\nwant %+v", ns, got, top)
		}
	}
}

func TestDeleteTenant(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(Config{Tracker: smallTracker(), Dir: dir, Logger: quietLogger()})
	defer r.Close()
	tn, err := r.GetOrCreate("gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Ingest([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Save(); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if _, err := tn.Ingest([]string{"x"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Ingest on deleted handle = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("snapshot directory survived delete")
	}
	if err := r.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(nope) = %v", err)
	}
	st := r.Stats()
	if st.Resident != 0 || st.ResidentBytes != 0 {
		t.Fatalf("budget not released on delete: %+v", st)
	}
}

func TestPinnedTenant(t *testing.T) {
	r := NewRegistry(Config{Tracker: smallTracker(), QuotaPerSec: 1, Logger: quietLogger()})
	defer r.Close()
	def, err := r.Pin(DefaultNamespace, PinOptions{Tracker: smallTracker()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Pin(DefaultNamespace, PinOptions{}); err == nil {
		t.Fatal("double Pin allowed")
	}
	// Pinned tenants are quota-exempt: far more than 1/s passes.
	batch := make([]string, 100)
	for i := range batch {
		batch[i] = fmt.Sprintf("k%d", i)
	}
	if _, err := def.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := def.Spill(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Spill(pinned) = %v, want ErrPinned", err)
	}
	if err := r.Delete(DefaultNamespace); !errors.Is(err, ErrPinned) {
		t.Fatalf("Delete(pinned) = %v, want ErrPinned", err)
	}
	got, err := r.GetOrCreate(DefaultNamespace)
	if err != nil || got != def {
		t.Fatalf("GetOrCreate(default) = %v, %v", got, err)
	}
}

// TestIdleSweep spills tenants idle past IdleAfter via the background
// path's Sweep, using a fake clock.
func TestIdleSweep(t *testing.T) {
	now := time.Unix(5000, 0)
	r := NewRegistry(Config{
		Tracker:   smallTracker(),
		Dir:       t.TempDir(),
		IdleAfter: time.Minute,
		Logger:    quietLogger(),
		Clock:     func() time.Time { return now },
	})
	defer r.Close()
	cold, err := r.GetOrCreate("cold")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Ingest([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	hot, err := r.GetOrCreate("hot")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := hot.Ingest([]string{"y"}); err != nil {
		t.Fatal(err)
	}
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if cold.Resident() || !hot.Resident() {
		t.Fatalf("residency after sweep: cold=%v hot=%v", cold.Resident(), hot.Resident())
	}
}

// TestLegacyRawImageRevive: a tenant directory holding a PR-5 style raw
// tracker image (no TNT1 envelope) still revives; keys render as hex.
func TestLegacyRawImageRevive(t *testing.T) {
	dir := t.TempDir()
	cfg := smallTracker()
	donor := sigstream.NewSharded(cfg, 1)
	donor.Insert(sigstream.HashKey("legacy"))
	donor.EndPeriod() //nolint:errcheck
	img, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.WriteFileTo(filepath.Join(dir, "old"), 0, func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Config{Tracker: cfg, Shards: 1, Logger: quietLogger()})
	defer r.Close()
	if err := r.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	tn, err := r.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := tn.Query("legacy")
	if err != nil || !ok || e.Frequency != 1 {
		t.Fatalf("Query(legacy) = %+v, %v, %v", e, ok, err)
	}
	top, err := tn.TopK(1)
	if err != nil || len(top) != 1 {
		t.Fatal(err)
	}
	if top[0].Key[:2] != "0x" {
		t.Fatalf("legacy image key = %q, want hex rendering", top[0].Key)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	km := sigstream.NewKeyMap()
	km.Intern("alpha")
	km.Intern("beta")
	img := []byte{1, 2, 3, 4, 5}
	payload := encodeEnvelope(km, img)
	got, gotImg, cut, err := decodeEnvelope(payload)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
	if !bytes.Equal(gotImg, img) {
		t.Fatalf("image %v, want %v", gotImg, img)
	}
	if got.Len() != 2 {
		t.Fatalf("keys = %d, want 2", got.Len())
	}
	if name := got.Name(sigstream.HashKey("alpha")); name != "alpha" {
		t.Fatalf("Name(alpha) = %q", name)
	}
	// Deterministic encoding.
	if !bytes.Equal(payload, encodeEnvelope(km, img)) {
		t.Fatal("envelope encoding not deterministic")
	}
	// A non-zero cut rides the envelope and round-trips.
	var withCut bytes.Buffer
	if err := encodeEnvelopeTo(&withCut, envelopeNames(km), 42, func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, cut, err = decodeEnvelope(withCut.Bytes()); err != nil || cut != 42 {
		t.Fatalf("cut round-trip = %d, %v, want 42", cut, err)
	}
	// A TNT1 payload (pre-WAL) still decodes, with cut 0.
	legacy := append([]byte(envMagic), payload[12:]...)
	if got, gotImg, cut, err = decodeEnvelope(legacy); err != nil ||
		cut != 0 || got.Len() != 2 || !bytes.Equal(gotImg, img) {
		t.Fatalf("TNT1 decode = %d keys, cut %d, %v", got.Len(), cut, err)
	}
	// Corruption is refused, not mis-sliced.
	bad := append([]byte{}, payload...)
	bad[12] = 0xff // implausible key count under a valid magic
	bad[13], bad[14], bad[15] = 0xff, 0xff, 0xff
	if _, _, _, err := decodeEnvelope(bad); err == nil {
		t.Fatal("corrupt envelope decoded")
	}
	truncated := payload[:18]
	if _, _, err := decodeEnvelopeSafe(truncated); err == nil {
		t.Fatal("truncated envelope decoded")
	}
}

// decodeEnvelopeSafe guards short payloads that fall below the legacy
// threshold (treated as raw images, which then fail tracker decode — the
// error surfaces there instead).
func decodeEnvelopeSafe(p []byte) (*sigstream.KeyMap, []byte, error) {
	km, img, _, err := decodeEnvelope(p)
	if err != nil {
		return nil, nil, err
	}
	if len(img) < 8 {
		return nil, nil, errors.New("short image")
	}
	return km, img, nil
}

func TestGeometryGate(t *testing.T) {
	r := NewRegistry(Config{Tracker: smallTracker(), Shards: 1, Logger: quietLogger()})
	defer r.Close()
	tn, err := r.GetOrCreate("g")
	if err != nil {
		t.Fatal(err)
	}
	donor := sigstream.NewSharded(sigstream.Config{MemoryBytes: 1 << 16}, 2)
	img, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ge *GeometryError
	if err := tn.RestoreImage(img); !errors.As(err, &ge) {
		t.Fatalf("RestoreImage mismatched geometry = %v, want GeometryError", err)
	}
	// A matching image installs cleanly.
	match := sigstream.NewSharded(smallTracker(), 1)
	match.Insert(sigstream.HashKey("ok"))
	img2, err := match.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.RestoreImage(img2); err != nil {
		t.Fatal(err)
	}
	if e, ok, _ := tn.Query("ok"); !ok || e.Frequency != 1 {
		t.Fatalf("restored state missing: %+v, %v", e, ok)
	}
}
