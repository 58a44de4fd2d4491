package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/fault"
)

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// newPipelinedServer starts a server with the asynchronous ingestion path
// enabled, plus its synchronous twin for equivalence checks.
func newPipelinedServer(t *testing.T) (piped, sync *httptest.Server, handler *Server) {
	t.Helper()
	cfg := Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      4,
	}
	pcfg := cfg
	pcfg.Pipeline = true
	pcfg.PipelineRing = 8
	handler = New(pcfg)
	piped = httptest.NewServer(handler)
	t.Cleanup(func() { piped.Close(); _ = handler.Close() })
	sync = httptest.NewServer(New(cfg))
	t.Cleanup(sync.Close)
	return piped, sync, handler
}

// TestPipelinedServerMatchesSync drives the same workload through a
// pipelined server and a synchronous one and expects identical responses:
// the flush barrier before every read endpoint must hide the asynchrony.
func TestPipelinedServerMatchesSync(t *testing.T) {
	piped, syncSrv, _ := newPipelinedServer(t)

	var body strings.Builder
	for p := 0; p < 3; p++ {
		body.Reset()
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&body, "key-%d\n", i%97)
		}
		for _, srv := range []*httptest.Server{piped, syncSrv} {
			post(t, srv.URL+"/v1/insert", body.String()).Body.Close()
			post(t, srv.URL+"/v1/period", "").Body.Close()
		}
	}
	pTop := decode[[]entryJSON](t, get(t, piped.URL+"/v1/top?k=10"))
	sTop := decode[[]entryJSON](t, get(t, syncSrv.URL+"/v1/top?k=10"))
	if len(pTop) != len(sTop) {
		t.Fatalf("top-k sizes differ: piped %d, sync %d", len(pTop), len(sTop))
	}
	for i := range pTop {
		if pTop[i] != sTop[i] {
			t.Fatalf("top-k entry %d differs: piped %+v, sync %+v", i, pTop[i], sTop[i])
		}
	}
	pStats := decode[statsResponse](t, get(t, piped.URL+"/v1/stats"))
	sStats := decode[statsResponse](t, get(t, syncSrv.URL+"/v1/stats"))
	if pStats.Arrivals != sStats.Arrivals || pStats.Periods != sStats.Periods {
		t.Fatalf("service counters differ: piped %+v, sync %+v", pStats, sStats)
	}
	if pStats.Tracker.Arrivals != sStats.Tracker.Arrivals {
		t.Fatalf("tracker arrivals differ: piped %d, sync %d",
			pStats.Tracker.Arrivals, sStats.Tracker.Arrivals)
	}
}

// TestPipelinedServerConcurrentClients checks the pipelined insert path
// under concurrent producers with interleaved reads, and that every
// accepted arrival is visible after the final stats barrier. With a small
// ring the server may shed a request with 429 throttled; its keys never
// arrive, so only the keys of accepted requests are expected.
func TestPipelinedServerConcurrentClients(t *testing.T) {
	piped, _, _ := newPipelinedServer(t)
	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(piped.URL+"/v1/insert", "text/plain",
					strings.NewReader(fmt.Sprintf("k%d\nk%d\nk%d\n", c, i%7, (c+i)%13)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(3)
				case http.StatusTooManyRequests:
				default:
					t.Errorf("insert status %d, want 200 or 429", resp.StatusCode)
					return
				}
				if i%10 == 0 {
					if r, err := http.Get(piped.URL + "/v1/top?k=5"); err == nil {
						r.Body.Close()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	want := accepted.Load()
	if want == 0 {
		t.Fatal("every insert was refused")
	}
	st := decode[statsResponse](t, get(t, piped.URL+"/v1/stats"))
	if st.Tracker.Arrivals != want {
		t.Fatalf("tracker saw %d arrivals, want %d (the keys of accepted inserts)", st.Tracker.Arrivals, want)
	}
}

// TestPipelinedServerRestoreSwapsPipeline checks /v1/restore retires the
// pipeline bound to the replaced tracker and starts a fresh one: inserts
// after the restore must land in the restored tracker.
func TestPipelinedServerRestoreSwapsPipeline(t *testing.T) {
	piped, _, _ := newPipelinedServer(t)

	post(t, piped.URL+"/v1/insert", "a\nb\nc\n").Body.Close()
	resp := get(t, piped.URL+"/v1/checkpoint")
	img, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	post(t, piped.URL+"/v1/insert", "d\ne\n").Body.Close()

	restore, err := http.Post(piped.URL+"/v1/restore", "application/octet-stream",
		strings.NewReader(string(img)))
	if err != nil {
		t.Fatal(err)
	}
	restore.Body.Close()
	if restore.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", restore.StatusCode)
	}

	post(t, piped.URL+"/v1/insert", "f\ng\nh\nf\n").Body.Close()
	st := decode[statsResponse](t, get(t, piped.URL+"/v1/stats"))
	// 3 from the checkpoint + 4 after the restore; the 2 inserted between
	// checkpoint and restore were discarded with the replaced tracker.
	if st.Tracker.Arrivals != 7 {
		t.Fatalf("tracker saw %d arrivals after restore, want 7", st.Tracker.Arrivals)
	}
}

// TestPipelinedServerMetrics checks the pipeline series appear on /metrics
// only when the pipeline is enabled.
func TestPipelinedServerMetrics(t *testing.T) {
	piped, syncSrv, _ := newPipelinedServer(t)
	post(t, piped.URL+"/v1/insert", "x\ny\n").Body.Close()

	body := func(srv *httptest.Server) string {
		resp := get(t, srv.URL+"/metrics")
		b, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	pm, sm := body(piped), body(syncSrv)
	for _, series := range []string{
		"sigstream_pipeline_shards 4",
		"sigstream_pipeline_items_total 2",
		`sigstream_pipeline_ring_depth{shard="0"}`,
		"sigstream_pipeline_stalls_total",
	} {
		if !strings.Contains(pm, series) {
			t.Errorf("pipelined /metrics missing %q", series)
		}
	}
	if strings.Contains(sm, "sigstream_pipeline_") {
		t.Error("sync /metrics unexpectedly exposes pipeline series")
	}
}

// TestServerCloseStopsIngestion checks Close retires the pipeline: further
// pipelined inserts fail with 503 while reads keep working.
func TestServerCloseStopsIngestion(t *testing.T) {
	piped, _, handler := newPipelinedServer(t)
	post(t, piped.URL+"/v1/insert", "a\n").Body.Close()
	if err := handler.Close(); err != nil {
		t.Fatal(err)
	}
	resp := post(t, piped.URL+"/v1/insert", "b\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert after Close: status %d, want 503", resp.StatusCode)
	}
	st := decode[statsResponse](t, get(t, piped.URL+"/v1/stats"))
	if st.Tracker.Arrivals != 1 {
		t.Fatalf("tracker saw %d arrivals, want 1", st.Tracker.Arrivals)
	}
}

// TestCheckpointTagPipelined: a pipelined tenant's tag counts every
// accepted insert, because the checkpoint route runs the pipeline barrier
// before it reads the tag. Workers are slowed so that inserts are still
// queued when the tag is asked for.
func TestCheckpointTagPipelined(t *testing.T) {
	deactivate := fault.Activate(fault.PipelineSlow, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	t.Cleanup(func() { deactivate() })
	piped, _, _ := newPipelinedServer(t)
	var body strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&body, "key-%d\n", i%197)
	}
	for round := uint64(1); round <= 5; round++ {
		post(t, piped.URL+"/v1/insert", body.String()).Body.Close()
		tag := sigstream.CheckpointTag(0, 4000*round)
		if code, _ := getTagged(t, piped.URL+"/v1/checkpoint", tag); code != http.StatusNotModified {
			t.Fatalf("round %d: tag %s answered %d, want 304", round, tag, code)
		}
	}
}
