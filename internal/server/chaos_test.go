package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/fault"
	"sigstream/internal/snapshot"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// durableConfig is the geometry shared by every crash-recovery test: the
// recovering server must be built with the same config as the one that
// wrote the snapshot, exactly as one deployment restarting.
func durableConfig() Config {
	return Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      2,
		Logger:      quietLogger(),
	}
}

// waitForStatus polls url until it answers with the wanted status.
func waitForStatus(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to answer %d", url, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosCrashRecoveryRoundTrip is the headline durability check: a
// server checkpoints mid-stream, dies without any shutdown (the handler
// is simply abandoned, as kill -9 would), and a new server pointed at the
// same snapshot directory comes back ready with a ranking identical to
// the checkpoint. Inserts after the checkpoint are lost — durability is
// bounded by the snapshot interval, never corrupt.
func TestChaosCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()

	a := New(durableConfig())
	if err := a.StartSnapshots(SnapshotConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(a)
	var body strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&body, "key-%d\n", i%37)
	}
	post(t, srvA.URL+"/v1/insert", body.String()).Body.Close()
	post(t, srvA.URL+"/v1/period", "").Body.Close()
	preKill := decode[[]entryJSON](t, get(t, srvA.URL+"/v1/top?k=10"))
	preStats := decode[statsResponse](t, get(t, srvA.URL+"/v1/stats"))
	if _, err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Un-checkpointed tail: these arrivals must NOT survive the crash.
	post(t, srvA.URL+"/v1/insert", strings.Repeat("doomed\n", 100)).Body.Close()
	srvA.Close() // kill -9: no a.Close(), no final snapshot

	b := New(durableConfig())
	if err := b.StartSnapshots(SnapshotConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })

	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)
	got := decode[[]entryJSON](t, get(t, srvB.URL+"/v1/top?k=10"))
	if len(got) != len(preKill) {
		t.Fatalf("recovered top-k has %d entries, want %d", len(got), len(preKill))
	}
	for i := range got {
		// Key names are not part of the checkpoint (they render as hex
		// until re-interned); everything the tracker owns must match.
		w, g := preKill[i], got[i]
		if g.Item != w.Item || g.Frequency != w.Frequency ||
			g.Persistency != w.Persistency || g.Significance != w.Significance {
			t.Fatalf("recovered entry %d = %+v, want %+v", i, g, w)
		}
	}
	gotStats := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if gotStats.Arrivals != preStats.Arrivals || gotStats.Periods != preStats.Periods {
		t.Fatalf("recovered counters %d/%d, want the checkpoint's %d/%d",
			gotStats.Arrivals, gotStats.Periods, preStats.Arrivals, preStats.Periods)
	}
	if gotStats.Tracker.Arrivals != preStats.Tracker.Arrivals {
		t.Fatalf("recovered tracker arrivals %d, want %d (the doomed tail leaked in)",
			gotStats.Tracker.Arrivals, preStats.Tracker.Arrivals)
	}
}

// TestChaosRecoverySkipsTornSnapshot plants a newer, torn snapshot file on
// top of a valid one: startup recovery must skip the torn file and come up
// from the older intact checkpoint instead of failing or serving garbage.
func TestChaosRecoverySkipsTornSnapshot(t *testing.T) {
	dir := t.TempDir()

	a := New(durableConfig())
	if err := a.StartSnapshots(SnapshotConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(a)
	post(t, srvA.URL+"/v1/insert", "alpha\nalpha\nbeta\n").Body.Close()
	post(t, srvA.URL+"/v1/period", "").Body.Close()
	preKill := decode[[]entryJSON](t, get(t, srvA.URL+"/v1/top?k=5"))
	if _, err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srvA.Close() // crash

	// A torn write that made it past rename (e.g. corrupted at rest), with
	// a sequence number newer than anything the server wrote.
	frame := snapshot.Encode([]byte("half a checkpoint"))
	torn := filepath.Join(dir, snapshot.FileName(1<<40))
	if err := os.WriteFile(torn, frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	b := New(durableConfig())
	if err := b.StartSnapshots(SnapshotConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(b)
	t.Cleanup(func() { srvB.Close(); _ = b.Close() })
	waitForStatus(t, srvB.URL+"/readyz", http.StatusOK)
	got := decode[[]entryJSON](t, get(t, srvB.URL+"/v1/top?k=5"))
	if len(got) != len(preKill) {
		t.Fatalf("recovered %d entries past the torn file, want %d", len(got), len(preKill))
	}
	for i := range got {
		if got[i].Item != preKill[i].Item || got[i].Frequency != preKill[i].Frequency {
			t.Fatalf("recovered entry %d = %+v, want %+v", i, got[i], preKill[i])
		}
	}
}

// TestCloseIdempotentUnderConcurrentRequests hammers a server with
// inserts while two goroutines race Close: nothing may panic or
// deadlock, every request must complete (200 or 503), and every Close
// after the first must return nil.
func TestCloseIdempotentUnderConcurrentRequests(t *testing.T) {
	cfg := durableConfig()
	h := New(cfg)
	if err := h.StartSnapshots(SnapshotConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(srv.URL+"/v1/insert", "text/plain",
					strings.NewReader("k\n"))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("insert during Close: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	closeErrs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closeErrs <- h.Close()
		}()
	}
	wg.Wait()
	if err1, err2 := <-closeErrs, <-closeErrs; err1 != nil && err2 != nil {
		t.Fatalf("both racing Close calls failed: %v / %v", err1, err2)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close after Close = %v, want nil", err)
	}
	// The final snapshot landed despite the race.
	resp := get(t, srv.URL+"/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after Close, want 503", resp.StatusCode)
	}
}

// TestBodyLimitReturns413 checks the MaxBytesReader guard on both body
// endpoints: an oversized body is refused with 413 and a JSON error, and
// a body under the limit still works.
func TestBodyLimitReturns413(t *testing.T) {
	cfg := durableConfig()
	cfg.MaxBodyBytes = 64
	h := New(cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	for _, path := range []string{"/v1/insert", "/v1/restore"} {
		resp := post(t, srv.URL+path, strings.Repeat("x", 200))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a 200-byte body: status %d, want 413", path, resp.StatusCode)
		}
		errBody := decode[ErrorBody](t, resp)
		if errBody.Code != "payload_too_large" {
			t.Fatalf("%s 413 code %q, want payload_too_large", path, errBody.Code)
		}
		if !strings.Contains(errBody.Message, "64 byte limit") {
			t.Fatalf("%s 413 error %q does not name the limit", path, errBody.Message)
		}
	}
	resp := post(t, srv.URL+"/v1/insert", "small\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert under the limit: status %d, want 200", resp.StatusCode)
	}
}

// TestHealthEndpointsOnHealthyServer pins the happy-path contract: both
// probes answer 200 on a fresh server.
func TestHealthEndpointsOnHealthyServer(t *testing.T) {
	h := New(durableConfig())
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); _ = h.Close() })
	for _, path := range []string{"/healthz", "/readyz"} {
		resp := get(t, srv.URL+path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestSnapshotFaultDoesNotKillServing injects an fsync failure into the
// snapshot path: SnapshotNow fails, the error is counted on /metrics, and
// the server keeps serving — durability degrades, availability does not.
func TestSnapshotFaultDoesNotKillServing(t *testing.T) {
	deactivate := fault.Activate(fault.SnapshotSync, func(int) error {
		return fmt.Errorf("injected fsync failure")
	})
	t.Cleanup(deactivate)

	h := New(durableConfig())
	if err := h.StartSnapshots(SnapshotConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	post(t, srv.URL+"/v1/insert", "a\nb\n").Body.Close()
	if _, err := h.SnapshotNow(); err == nil {
		t.Fatal("SnapshotNow succeeded under an injected fsync failure")
	}
	resp := get(t, srv.URL+"/v1/top?k=2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after a failed snapshot: status %d, want 200", resp.StatusCode)
	}
	metrics, err := readAll(get(t, srv.URL+"/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "sigstream_snapshot_errors_total 1") {
		t.Fatalf("/metrics does not count the failed snapshot:\n%s", metrics)
	}
	deactivate()
	if err := h.Close(); err != nil {
		t.Fatalf("Close after the fault cleared: %v (final snapshot should succeed)", err)
	}
}
