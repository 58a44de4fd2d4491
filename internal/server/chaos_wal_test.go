package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"sigstream"
	"sigstream/internal/fault"
)

// walConfig is the geometry shared by the WAL chaos tests. An
// acknowledged insert is also applied (read-your-writes), which lets a
// test capture the exact pre-crash ranking to compare the recovered
// server against.
func walConfig(base string) Config {
	return Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      2,
		WALDir:      filepath.Join(base, "wal"),
		Logger:      quietLogger(),
	}
}

// distinctWorkload inserts key-i exactly i+1 times, i descending, so
// every key has a distinct frequency and the top-k order is unambiguous.
func distinctWorkload(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for c := 0; c <= i; c++ {
			fmt.Fprintf(&b, "key-%d\n", i)
		}
	}
	return b.String()
}

// mustTop fetches and decodes /v1/top for a URL already known to serve.
func mustTop(t *testing.T, base string, k int) []entryJSON {
	t.Helper()
	return decode[[]entryJSON](t, get(t, base+fmt.Sprintf("/v1/top?k=%d", k)))
}

// requireSameRanking asserts two rankings are bit-identical, key names
// included — WAL replay re-interns every key and the snapshot envelope
// carries the keymap, so nothing may degrade to a hex placeholder.
func requireSameRanking(t *testing.T, got, want []entryJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered top-k has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestChaosWALCrashLosesNothingAcked is the headline WAL guarantee: a
// server takes a snapshot mid-stream, keeps accepting inserts and
// periods past it, then dies without any shutdown. The replacement must
// recover snapshot + WAL tail to a state bit-identical to the moment of
// death — not to the snapshot, which is all plain checkpointing could
// promise.
func TestChaosWALCrashLosesNothingAcked(t *testing.T) {
	base := t.TempDir()
	snap := filepath.Join(base, "snap")

	a := New(walConfig(base))
	if err := a.StartSnapshots(SnapshotConfig{Dir: snap}); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(a)

	post(t, srvA.URL+"/v1/insert", distinctWorkload(8)).Body.Close()
	post(t, srvA.URL+"/v1/period", "").Body.Close()
	if _, err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// The tail beyond the snapshot: a second period and fresh arrivals,
	// all acknowledged, none checkpointed — only the WAL holds them.
	post(t, srvA.URL+"/v1/insert", distinctWorkload(5)).Body.Close()
	post(t, srvA.URL+"/v1/period", "").Body.Close()
	post(t, srvA.URL+"/v1/insert", "tail-only\ntail-only\n").Body.Close()

	preKill := mustTop(t, srvA.URL, 10)
	preStats := decode[statsResponse](t, get(t, srvA.URL+"/v1/stats"))
	srvA.Close() // kill -9: no a.Close(), no final snapshot

	b := New(walConfig(base))
	if err := b.StartSnapshots(SnapshotConfig{Dir: snap}); err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)

	requireSameRanking(t, mustTop(t, srvB.URL, 10), preKill)
	gotStats := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if gotStats.Arrivals != preStats.Arrivals || gotStats.Periods != preStats.Periods {
		t.Fatalf("recovered counters %d arrivals/%d periods, want %d/%d",
			gotStats.Arrivals, gotStats.Periods, preStats.Arrivals, preStats.Periods)
	}
	if gotStats.Tracker.Arrivals != preStats.Tracker.Arrivals {
		t.Fatalf("recovered tracker arrivals %d, want %d",
			gotStats.Tracker.Arrivals, preStats.Tracker.Arrivals)
	}
}

// TestChaosWALAppendFault injects a torn append mid-stream: the insert
// must be refused (the client is NOT told it succeeded), the tear must
// be rolled back so it cannot strand later records, and recovery must
// show exactly the acknowledged inserts — the refused batch gone, the
// ones before and after intact.
func TestChaosWALAppendFault(t *testing.T) {
	base := t.TempDir()
	a := New(walConfig(base))
	srvA := httptest.NewServer(a)

	post(t, srvA.URL+"/v1/insert", "stable\nstable\nstable\n").Body.Close()

	deactivate := fault.Activate(fault.WALAppend, func(int) error {
		return fmt.Errorf("injected torn append")
	})
	resp := post(t, srvA.URL+"/v1/insert", "torn\n")
	resp.Body.Close()
	deactivate()
	if resp.StatusCode < 500 {
		t.Fatalf("insert under an append fault: status %d, want a 5xx refusal", resp.StatusCode)
	}

	post(t, srvA.URL+"/v1/insert", "after\nafter\n").Body.Close()
	preKill := mustTop(t, srvA.URL, 5)
	srvA.Close() // crash

	b := New(walConfig(base))
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)

	got := mustTop(t, srvB.URL, 5)
	requireSameRanking(t, got, preKill)
	for _, e := range got {
		if e.Key == "torn" {
			t.Fatalf("the refused batch replayed: %+v", e)
		}
	}
	st := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if st.Tracker.Arrivals != 5 {
		t.Fatalf("recovered %d arrivals, want exactly the 5 acknowledged", st.Tracker.Arrivals)
	}
}

// TestChaosWALSyncFault injects an fsync failure: the insert is refused
// (no ack without durability), but the frame was already written, so an
// in-process restart — which loses no page cache — may legitimately
// replay it. The contract is at-least-once for what was written and
// exactly-once for what was acknowledged: every acked insert must
// survive; the nacked one is allowed to.
func TestChaosWALSyncFault(t *testing.T) {
	base := t.TempDir()
	a := New(walConfig(base))
	srvA := httptest.NewServer(a)

	post(t, srvA.URL+"/v1/insert", "stable\nstable\nstable\n").Body.Close()

	deactivate := fault.Activate(fault.WALSync, func(int) error {
		return fmt.Errorf("injected fsync failure")
	})
	resp := post(t, srvA.URL+"/v1/insert", "unsynced\n")
	resp.Body.Close()
	deactivate()
	if resp.StatusCode < 500 {
		t.Fatalf("insert under a sync fault: status %d, want a 5xx refusal", resp.StatusCode)
	}

	post(t, srvA.URL+"/v1/insert", "after\nafter\n").Body.Close()
	srvA.Close() // crash

	b := New(walConfig(base))
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)

	byKey := make(map[string]entryJSON)
	for _, e := range mustTop(t, srvB.URL, 5) {
		byKey[e.Key] = e
	}
	if byKey["stable"].Frequency == 0 || byKey["after"].Frequency == 0 {
		t.Fatalf("an acknowledged insert did not survive: %+v", byKey)
	}
	st := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if st.Tracker.Arrivals < 5 || st.Tracker.Arrivals > 6 {
		t.Fatalf("recovered %d arrivals, want 5 acked (+ at most the 1 written-but-unsynced)",
			st.Tracker.Arrivals)
	}
}

// TestChaosWALRotateFault fails segment rotation during a snapshot cut:
// the snapshot must fail loudly, serving and ingest must continue, and
// once the fault clears a crash-recovery must still land on the full
// acknowledged stream.
func TestChaosWALRotateFault(t *testing.T) {
	base := t.TempDir()
	snap := filepath.Join(base, "snap")
	a := New(walConfig(base))
	if err := a.StartSnapshots(SnapshotConfig{Dir: snap}); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(a)

	post(t, srvA.URL+"/v1/insert", distinctWorkload(4)).Body.Close()

	deactivate := fault.Activate(fault.WALRotate, func(int) error {
		return fmt.Errorf("injected rotate failure")
	})
	if _, err := a.SnapshotNow(); err == nil {
		t.Fatal("SnapshotNow succeeded under an injected rotate failure")
	}
	deactivate()

	// Durability degraded for a moment, availability did not.
	resp := post(t, srvA.URL+"/v1/insert", "post-fault\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert after the failed snapshot: status %d, want 200", resp.StatusCode)
	}
	preKill := mustTop(t, srvA.URL, 10)
	srvA.Close() // crash

	b := New(walConfig(base))
	if err := b.StartSnapshots(SnapshotConfig{Dir: snap}); err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)
	requireSameRanking(t, mustTop(t, srvB.URL, 10), preKill)
}

// TestChaosWALPerTenantReplay kills a server holding two tenants with
// divergent streams: recovery must restore each tenant's exact ranking
// from its own log, and reviving one tenant must not disturb the other.
func TestChaosWALPerTenantReplay(t *testing.T) {
	base := t.TempDir()
	a := New(walConfig(base))
	srvA := httptest.NewServer(a)

	post(t, srvA.URL+"/v1/t/alpha/insert", distinctWorkload(6)).Body.Close()
	post(t, srvA.URL+"/v1/t/alpha/period", "").Body.Close()
	post(t, srvA.URL+"/v1/t/alpha/insert", "alpha-tail\n").Body.Close()
	post(t, srvA.URL+"/v1/t/bravo/insert", "b1\nb2\nb2\nb3\nb3\nb3\n").Body.Close()

	preAlpha := decode[[]entryJSON](t, get(t, srvA.URL+"/v1/t/alpha/top?k=7"))
	preBravo := decode[[]entryJSON](t, get(t, srvA.URL+"/v1/t/bravo/top?k=3"))
	srvA.Close() // crash with both tenants live

	b := New(walConfig(base))
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)

	// Revive bravo first: alpha's later revival must come from alpha's
	// own log, untouched by bravo's replay.
	requireSameRanking(t,
		decode[[]entryJSON](t, get(t, srvB.URL+"/v1/t/bravo/top?k=3")), preBravo)
	requireSameRanking(t,
		decode[[]entryJSON](t, get(t, srvB.URL+"/v1/t/alpha/top?k=7")), preAlpha)
}

// TestChaosWALDiskBounded drives several insert+snapshot cycles over a
// tiny segment size and asserts the log's segment count stays bounded:
// each snapshot's cut truncates the segments it covers (with the
// snapshot retention lag), so the WAL cannot grow without bound.
func TestChaosWALDiskBounded(t *testing.T) {
	base := t.TempDir()
	cfg := walConfig(base)
	cfg.WALSegmentBytes = 512
	a := New(cfg)
	if err := a.StartSnapshots(SnapshotConfig{Dir: filepath.Join(base, "snap")}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(a)
	t.Cleanup(func() { srv.Close(); _ = a.Close() })

	const cycles = 5
	for c := 0; c < cycles; c++ {
		post(t, srv.URL+"/v1/insert", distinctWorkload(12)).Body.Close()
		if _, err := a.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		st := decode[statsResponse](t, get(t, srv.URL+"/v1/stats"))
		if st.WAL == nil {
			t.Fatal("/v1/stats has no wal block on a WAL-enabled server")
		}
		// One cycle writes a handful of 512-byte segments; truncation lags
		// by the snapshot retention, so the steady state is a few cycles'
		// worth — far below the ~5 cycles of unbounded growth.
		if st.WAL.Segments > 30 {
			t.Fatalf("cycle %d: %d live segments, the WAL is not being truncated", c, st.WAL.Segments)
		}
	}
	st := decode[statsResponse](t, get(t, srv.URL+"/v1/stats"))
	if st.WAL.Truncations == 0 {
		t.Fatal("no segment was ever truncated across 5 snapshot cycles")
	}
	if st.WAL.Rotations < cycles {
		t.Fatalf("%d rotations across %d snapshot cycles, want at least one per cycle",
			st.WAL.Rotations, cycles)
	}
	metrics, err := readAll(get(t, srv.URL+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"sigstream_wal_appends_total",
		"sigstream_wal_truncations_total",
		"sigstream_wal_disk_bytes",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Fatalf("/metrics missing %q:\n%s", series, metrics)
		}
	}
}

// TestCloseRefusesPeriodAndRestore: once Close has begun, the tenant
// registry refuses every mutation, so a period close or a restore after
// Close answers 503 instead of a 200 that no log holds, and a new server
// on the same WAL directory recovers exactly the acknowledged state.
func TestCloseRefusesPeriodAndRestore(t *testing.T) {
	base := t.TempDir()
	a := New(walConfig(base))
	srvA := httptest.NewServer(a)
	t.Cleanup(srvA.Close)
	post(t, srvA.URL+"/v1/insert", distinctWorkload(4)).Body.Close()
	post(t, srvA.URL+"/v1/period", "").Body.Close()
	img, err := io.ReadAll(get(t, srvA.URL+"/v1/checkpoint").Body)
	if err != nil {
		t.Fatal(err)
	}
	acked := decode[statsResponse](t, get(t, srvA.URL+"/v1/stats"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/period", "/v1/t/other/period", "/v1/insert"} {
		resp := post(t, srvA.URL+path, "late\n")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s after Close: status %d, want 503", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srvA.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("restore after Close: status %d, want 503", resp.StatusCode)
	}
	after := decode[statsResponse](t, get(t, srvA.URL+"/v1/stats"))
	if after.Periods != acked.Periods || after.Arrivals != acked.Arrivals {
		t.Fatalf("after Close the server counts %d periods/%d arrivals, %d/%d were acked",
			after.Periods, after.Arrivals, acked.Periods, acked.Arrivals)
	}

	b := New(walConfig(base))
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	got := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if got.Periods != acked.Periods || got.Arrivals != acked.Arrivals {
		t.Fatalf("recovered %d periods/%d arrivals, want the acked %d/%d",
			got.Periods, got.Arrivals, acked.Periods, acked.Arrivals)
	}
}
