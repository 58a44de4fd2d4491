package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"sigstream"
	"sigstream/internal/ingest"
	"sigstream/internal/tenant"
)

// equivConfig is the geometry the ingest-equivalence tests share.
func equivConfig() Config {
	return Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      2,
		Logger:      quietLogger(),
	}
}

// equivRecord is one (key, weight) step of the shared workload.
type equivRecord struct {
	key string
	w   uint32
}

// equivWorkload is a deterministic three-period weighted stream with
// distinct per-key totals, so any divergence shows up in the ranking.
func equivWorkload() [][]equivRecord {
	return [][]equivRecord{
		{{"alpha", 5}, {"bravo", 3}, {"charlie", 1}, {"alpha", 2}},
		{{"bravo", 4}, {"delta", 6}, {"alpha", 1}},
		{{"charlie", 2}, {"delta", 1}, {"echo", 9}, {"bravo", 1}},
	}
}

// TestIngestEquivalenceBitIdentical is the acceptance check for the
// binary transport: the same weighted stream fed once through JSON
// /v1/insert (weights expanded into repeated lines) and once through the
// framed binary protocol must leave the two trackers with bit-identical
// checkpoint images — not merely the same ranking, the same bytes.
func TestIngestEquivalenceBitIdentical(t *testing.T) {
	periods := equivWorkload()

	// Transport 1: text lines over HTTP, weights as repetition.
	httpSrv := New(equivConfig())
	srvA := httptest.NewServer(httpSrv)
	t.Cleanup(func() { srvA.Close(); _ = httpSrv.Close() })
	for pi, p := range periods {
		if pi > 0 {
			post(t, srvA.URL+"/v1/period", "").Body.Close()
		}
		var b strings.Builder
		for _, r := range p {
			for j := uint32(0); j < r.w; j++ {
				b.WriteString(r.key + "\n")
			}
		}
		post(t, srvA.URL+"/v1/insert", b.String()).Body.Close()
	}

	// Transport 2: weighted records over framed binary TCP.
	binSrv := New(equivConfig())
	srvB := httptest.NewServer(binSrv)
	t.Cleanup(func() { srvB.Close(); _ = binSrv.Close() })
	if err := binSrv.StartIngest(IngestConfig{Addr: "127.0.0.1:0"}); err != nil {
		t.Fatalf("StartIngest: %v", err)
	}
	conn, err := ingest.Dial(binSrv.Ingest().Addr().String(), ingest.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for pi, p := range periods {
		if pi > 0 {
			if err := conn.Period(); err != nil {
				t.Fatalf("Period: %v", err)
			}
		}
		keys := make([]string, len(p))
		weights := make([]uint32, len(p))
		for i, r := range p {
			keys[i], weights[i] = r.key, r.w
		}
		if err := conn.InsertWeighted(keys, weights); err != nil {
			t.Fatalf("InsertWeighted: %v", err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The strongest comparison first: the marshalled tracker state.
	imgA, err := readAll(get(t, srvA.URL+"/v1/checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := readAll(get(t, srvB.URL+"/v1/checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgA, imgB) {
		t.Fatalf("checkpoint images diverge: %d vs %d bytes", len(imgA), len(imgB))
	}

	// And the user-visible surfaces: ranking with key names, counters.
	requireSameRanking(t, mustTop(t, srvB.URL, 5), mustTop(t, srvA.URL, 5))
	stA := decode[statsResponse](t, get(t, srvA.URL+"/v1/stats"))
	stB := decode[statsResponse](t, get(t, srvB.URL+"/v1/stats"))
	if stA.Arrivals != stB.Arrivals || stA.Periods != stB.Periods {
		t.Fatalf("counters diverge: http %d/%d, binary %d/%d",
			stA.Arrivals, stA.Periods, stB.Arrivals, stB.Periods)
	}
}

// TestIngestEquivalenceWeightedVsRepeated feeds one binary server
// weighted records and another the same stream as unit-weight
// repetitions: the weight field must be pure wire compression, invisible
// to the tracker.
func TestIngestEquivalenceWeightedVsRepeated(t *testing.T) {
	periods := equivWorkload()
	images := make([][]byte, 2)
	for variant := 0; variant < 2; variant++ {
		s := New(equivConfig())
		srv := httptest.NewServer(s)
		if err := s.StartIngest(IngestConfig{Addr: "127.0.0.1:0"}); err != nil {
			t.Fatalf("StartIngest: %v", err)
		}
		conn, err := ingest.Dial(s.Ingest().Addr().String(), ingest.Options{Window: 4})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		for pi, p := range periods {
			if pi > 0 {
				if err := conn.Period(); err != nil {
					t.Fatalf("Period: %v", err)
				}
			}
			if variant == 0 {
				keys := make([]string, len(p))
				weights := make([]uint32, len(p))
				for i, r := range p {
					keys[i], weights[i] = r.key, r.w
				}
				err = conn.InsertWeighted(keys, weights)
			} else {
				var keys []string
				for _, r := range p {
					for j := uint32(0); j < r.w; j++ {
						keys = append(keys, r.key)
					}
				}
				err = conn.Insert(keys...)
			}
			if err != nil {
				t.Fatalf("variant %d insert: %v", variant, err)
			}
		}
		if err := conn.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		images[variant], err = readAll(get(t, srv.URL+fmt.Sprintf("/v1/checkpoint")))
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		_ = s.Close()
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("weighted and repeated streams diverge: %d vs %d bytes",
			len(images[0]), len(images[1]))
	}
}

// TestIngestLongestNamespace ships binary frames into a namespace of
// tenant.MaxNamespaceBytes bytes, the longest the HTTP routes serve, and
// reads them back through /v1/t/{ns}/top: both transports accept the same
// namespaces.
func TestIngestLongestNamespace(t *testing.T) {
	s := New(equivConfig())
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); _ = s.Close() })
	if err := s.StartIngest(IngestConfig{Addr: "127.0.0.1:0"}); err != nil {
		t.Fatalf("StartIngest: %v", err)
	}
	ns := strings.Repeat("n", tenant.MaxNamespaceBytes)
	conn, err := ingest.Dial(s.Ingest().Addr().String(), ingest.Options{Namespace: ns})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Insert("alpha", "alpha", "bravo"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	top := decode[[]entryJSON](t, get(t, srv.URL+"/v1/t/"+ns+"/top?k=5"))
	if len(top) != 2 || top[0].Key != "alpha" || top[0].Frequency != 2 ||
		top[1].Key != "bravo" {
		t.Fatalf("top of %d-byte namespace = %+v", len(ns), top)
	}
}
