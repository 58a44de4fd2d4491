package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sigstream"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      2,
	}))
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInsertTopQueryFlow(t *testing.T) {
	srv := newTestServer(t)

	// Two periods: "web1" every period, "burst" once.
	for p := 0; p < 2; p++ {
		body := strings.Repeat("web1\n", 5)
		if p == 0 {
			body += strings.Repeat("burst\n", 20)
		}
		resp := post(t, srv.URL+"/v1/insert", body)
		if resp.StatusCode != 200 {
			t.Fatalf("insert status %d", resp.StatusCode)
		}
		r := decode[map[string]uint64](t, resp)
		want := uint64(5)
		if p == 0 {
			want = 25
		}
		if r["inserted"] != want {
			t.Fatalf("inserted %d, want %d", r["inserted"], want)
		}
		resp = post(t, srv.URL+"/v1/period", "")
		if resp.StatusCode != 200 {
			t.Fatalf("period status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Query.
	resp := get(t, srv.URL+"/v1/query?key=web1")
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	e := decode[map[string]any](t, resp)
	if e["frequency"].(float64) != 10 || e["persistency"].(float64) != 2 {
		t.Fatalf("web1 estimate wrong: %v", e)
	}

	// Top: α=1, β=10 → web1 = 10+20 = 30; burst = 20+10 = 30... use k=2
	// and just verify both present and sorted.
	resp = get(t, srv.URL+"/v1/top?k=2")
	top := decode[[]map[string]any](t, resp)
	if len(top) != 2 {
		t.Fatalf("top returned %d entries", len(top))
	}
	keys := map[string]bool{}
	for _, e := range top {
		keys[e["key"].(string)] = true
	}
	if !keys["web1"] || !keys["burst"] {
		t.Fatalf("top keys wrong: %v", keys)
	}
}

func TestQueryMissing(t *testing.T) {
	srv := newTestServer(t)
	resp := get(t, srv.URL+"/v1/query?key=ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/v1/insert", http.StatusMethodNotAllowed},
		{"GET", "/v1/period", http.StatusMethodNotAllowed},
		{"POST", "/v1/top", http.StatusMethodNotAllowed},
		{"POST", "/v1/query", http.StatusMethodNotAllowed},
		{"POST", "/v1/stats", http.StatusMethodNotAllowed},
		{"GET", "/v1/top?k=0", http.StatusBadRequest},
		{"GET", "/v1/top?k=abc", http.StatusBadRequest},
		{"GET", "/v1/query", http.StatusBadRequest},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(""))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path,
				resp.StatusCode, c.wantStatus)
		}
	}
}

func TestStats(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv.URL+"/v1/insert", "a\nb\nc\n").Body.Close()
	post(t, srv.URL+"/v1/period", "").Body.Close()
	resp := get(t, srv.URL+"/v1/stats")
	st := decode[map[string]any](t, resp)
	if st["arrivals"].(float64) != 3 {
		t.Fatalf("arrivals %v, want 3", st["arrivals"])
	}
	if st["periods"].(float64) != 1 {
		t.Fatalf("periods %v, want 1", st["periods"])
	}
	if st["distinct_keys_seen"].(float64) != 3 {
		t.Fatalf("keys %v, want 3", st["distinct_keys_seen"])
	}
	if st["beta"].(float64) != 10 {
		t.Fatalf("beta %v, want 10", st["beta"])
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf("worker%d\nshared\n", g)
				resp, err := http.Post(srv.URL+"/v1/insert", "text/plain",
					strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	post(t, srv.URL+"/v1/period", "").Body.Close()
	resp := get(t, srv.URL+"/v1/query?key=shared")
	e := decode[map[string]any](t, resp)
	if e["frequency"].(float64) != 160 {
		t.Fatalf("shared frequency %v, want 160", e["frequency"])
	}
}

// TestServerCloseStopsIngestion checks Close ends ingestion: further
// inserts fail with 503 while reads keep working.
func TestServerCloseStopsIngestion(t *testing.T) {
	h := New(Config{MemoryBytes: 64 << 10, Shards: 2, Logger: quietLogger()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	post(t, srv.URL+"/v1/insert", "a\n").Body.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	resp := post(t, srv.URL+"/v1/insert", "b\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert after Close: status %d, want 503", resp.StatusCode)
	}
	st := decode[statsResponse](t, get(t, srv.URL+"/v1/stats"))
	if st.Tracker.Arrivals != 1 {
		t.Fatalf("tracker saw %d arrivals, want 1", st.Tracker.Arrivals)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := New(Config{})
	// The pinned default tenant loads on first use; Stats loads it.
	st, err := s.def.Stats()
	if err != nil || st.Tracker.MemoryBytes <= 0 {
		t.Fatalf("no default memory: %+v, %v", st.Tracker, err)
	}
	if s.tenants.CostPerTenant() <= 0 {
		t.Fatal("no tenant cost priced")
	}
}

func TestCheckpointRestoreFlow(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv.URL+"/v1/insert", "alpha\nalpha\nbeta\n").Body.Close()
	post(t, srv.URL+"/v1/period", "").Body.Close()

	// Download the snapshot.
	resp := get(t, srv.URL+"/v1/checkpoint")
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	img, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 {
		t.Fatal("empty checkpoint")
	}

	// Mutate the live tracker, then restore the snapshot.
	post(t, srv.URL+"/v1/insert", strings.Repeat("gamma\n", 50)).Body.Close()
	resp, err = http.Post(srv.URL+"/v1/restore", "application/octet-stream",
		bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("restore status %d", resp.StatusCode)
	}

	// State is back to the snapshot: alpha present with f=2, gamma gone.
	resp = get(t, srv.URL+"/v1/query?key=alpha")
	e := decode[map[string]any](t, resp)
	if e["frequency"].(float64) != 2 {
		t.Fatalf("alpha frequency %v after restore, want 2", e["frequency"])
	}
	resp = get(t, srv.URL+"/v1/query?key=gamma")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("gamma survived restore: status %d", resp.StatusCode)
	}
}

// getTagged fetches url with If-None-Match set to tag, returning the
// status and the body.
func getTagged(t *testing.T, url, tag string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// imageTag is the version tag of a checkpoint image.
func imageTag(t *testing.T, img []byte) string {
	t.Helper()
	dec := new(sigstream.Sharded)
	if err := dec.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	st := dec.Stats()
	return sigstream.CheckpointTag(st.Periods, st.Arrivals)
}

// TestCheckpointIfNoneMatch: on both checkpoint routes exactly the
// tracker's own tag answers 304 with no body, and any other value, or
// none, the image. The tag is compared byte for byte, so "*", the weak
// form and a list holding the tag get the image too, as README states.
func TestCheckpointIfNoneMatch(t *testing.T) {
	srv := newTestServer(t)
	for _, prefix := range []string{"/v1/t/red", "/v1"} {
		post(t, srv.URL+prefix+"/insert", "alpha\nalpha\nbeta\n").Body.Close()
		post(t, srv.URL+prefix+"/period", "").Body.Close()
		url := srv.URL + prefix + "/checkpoint"
		code, img := getTagged(t, url, "")
		if code != http.StatusOK || len(img) == 0 {
			t.Fatalf("%s: status %d, %d bytes", url, code, len(img))
		}
		tag := imageTag(t, img)
		if code, body := getTagged(t, url, tag); code != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s with its own tag: status %d, %d bytes; want 304, none", url, code, len(body))
		}
		for _, other := range []string{sigstream.CheckpointTag(1, 2), "*", `W/` + tag, tag + ", " + sigstream.CheckpointTag(1, 2)} {
			if code, body := getTagged(t, url, other); code != http.StatusOK || !bytes.Equal(body, img) {
				t.Fatalf("%s with tag %s: status %d, %d bytes; want the %d-byte image", url, other, code, len(body), len(img))
			}
		}
	}
	if code, _ := getTagged(t, srv.URL+"/v1/t/ghost/checkpoint", sigstream.CheckpointTag(0, 0)); code != http.StatusNotFound {
		t.Fatalf("unknown namespace with a tag: status %d, want 404", code)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/restore", "application/octet-stream",
		strings.NewReader("definitely not a checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv.URL+"/v1/insert", "a\nb\n").Body.Close()
	post(t, srv.URL+"/v1/period", "").Body.Close()
	resp := get(t, srv.URL+"/metrics")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sigstream_arrivals_total 2",
		"sigstream_periods_total 1",
		"sigstream_distinct_keys 2",
		"# TYPE sigstream_memory_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestDecayConfigApplied(t *testing.T) {
	srv := httptest.NewServer(New(Config{
		MemoryBytes: 32 << 10,
		Weights:     sigstream.Frequent,
		Shards:      1,
		DecayFactor: 0.5,
	}))
	t.Cleanup(srv.Close)
	post(t, srv.URL+"/v1/insert", strings.Repeat("hot\n", 100)).Body.Close()
	post(t, srv.URL+"/v1/period", "").Body.Close()
	post(t, srv.URL+"/v1/period", "").Body.Close()
	resp := get(t, srv.URL+"/v1/query?key=hot")
	e := decode[map[string]any](t, resp)
	if got := e["frequency"].(float64); got != 25 {
		t.Fatalf("decayed frequency %v, want 25 (100 halved twice)", got)
	}
}
