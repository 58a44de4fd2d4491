package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/fault"
	"sigstream/internal/server"
)

// fixture is a three-node cluster: real sigserver handlers behind
// httptest listeners, one coordinator in front.
type fixture struct {
	sites  []string
	srvs   map[string]*httptest.Server
	nodes  map[string]*server.Server
	meters map[string]*siteMeter
	coord  *Server
}

// siteMeter wraps a node's handler and counts the checkpoint images it
// ships, and their bytes.
type siteMeter struct {
	h      http.Handler
	images atomic.Int64
	bytes  atomic.Int64
}

func (m *siteMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/checkpoint") {
		m.h.ServeHTTP(w, r)
		return
	}
	mw := &meterWriter{ResponseWriter: w}
	m.h.ServeHTTP(mw, r)
	if mw.status == http.StatusOK {
		m.images.Add(1)
		m.bytes.Add(mw.n)
	}
}

// meterWriter records a response's status and body length.
type meterWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *meterWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *meterWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// startNodes serves three nodes with partition tenants of tenantBytes,
// each behind a siteMeter on a loopback listener closed at cleanup.
func startNodes(tb testing.TB, tenantBytes int) (sites []string, srvs map[string]*httptest.Server,
	nodes map[string]*server.Server, meters map[string]*siteMeter) {
	srvs = make(map[string]*httptest.Server)
	nodes = make(map[string]*server.Server)
	meters = make(map[string]*siteMeter)
	for i := 0; i < 3; i++ {
		node := server.New(server.Config{
			MemoryBytes:       128 << 10,
			TenantMemoryBytes: tenantBytes,
			Shards:            2,
			Weights:           sigstream.Weights{Alpha: 1, Beta: 1},
		})
		m := &siteMeter{h: node}
		srv := httptest.NewServer(m)
		tb.Cleanup(func() { srv.Close(); _ = node.Close() })
		sites = append(sites, srv.URL)
		srvs[srv.URL], nodes[srv.URL], meters[srv.URL] = srv, node, m
	}
	return sites, srvs, nodes, meters
}

func newFixture(t *testing.T, partitions, replicas int) *fixture {
	t.Helper()
	f := &fixture{}
	f.sites, f.srvs, f.nodes, f.meters = startNodes(t, 32<<10)
	c, err := New(Config{
		Sites:        f.sites,
		Partitions:   partitions,
		Replicas:     replicas,
		Interval:     50 * time.Millisecond,
		FetchTimeout: 2 * time.Second,
		Retry: cluster.RetryPolicy{
			Attempts:  3,
			BaseDelay: time.Millisecond,
			MaxDelay:  2 * time.Millisecond,
		},
		Breaker:      cluster.BreakerConfig{Trip: 100, Cooldown: time.Millisecond},
		ClosePeriods: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	f.coord = c
	return f
}

// load inserts keys key-0..key-n-1 into their partition namespaces on
// every replica site, exactly as a partition-aware producer would.
func (f *fixture) load(t *testing.T, n int) {
	t.Helper()
	ctx := context.Background()
	topo := f.coord.Topology()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		p := topo.PartitionKey(key)
		ns := cluster.PartitionNamespace(p)
		for _, site := range topo.ReplicaSites(p) {
			c := client.New(site, f.srvs[site].Client())
			if _, err := c.Tenant(ns).Insert(ctx, key); err != nil {
				t.Fatalf("insert %q on %s: %v", key, site, err)
			}
		}
	}
}

// get issues a request against the coordinator handler and decodes the
// JSON body into out (when non-nil), returning the status code.
func (f *fixture) get(t *testing.T, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	f.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return rec.Code
}

func TestCoordClusterRoundTrip(t *testing.T) {
	f := newFixture(t, 8, 2)
	f.load(t, 60)

	if code := f.get(t, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first commit = %d, want 503", code)
	}
	if code := f.get(t, "/v1/topk", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("topk before first commit = %d, want 503", code)
	}

	rep := f.coord.GatherNow(context.Background())
	if !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("first round: %+v", rep)
	}
	if code := f.get(t, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after commit = %d, want 200", code)
	}

	var view struct {
		Epoch   int  `json:"epoch"`
		Stale   bool `json:"stale"`
		Entries []struct {
			Key         string `json:"key"`
			Frequency   uint64 `json:"frequency"`
			Persistency uint64 `json:"persistency"`
		} `json:"entries"`
	}
	if code := f.get(t, "/v1/topk?k=100", &view); code != http.StatusOK {
		t.Fatalf("topk = %d", code)
	}
	if view.Epoch != 1 || view.Stale {
		t.Fatalf("view provenance: %+v", view)
	}
	if len(view.Entries) != 60 {
		t.Fatalf("entries = %d, want 60", len(view.Entries))
	}
	for _, e := range view.Entries {
		// One insert per replica, one replica image merged per
		// partition: replication must not inflate counts.
		if e.Frequency != 1 || e.Persistency != 1 {
			t.Fatalf("entry %+v: replication double-counted", e)
		}
		if !strings.HasPrefix(e.Key, "key-") {
			t.Fatalf("entry key %q not resolved", e.Key)
		}
	}
}

func TestCoordClientMirrors(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.load(t, 20)
	rep := f.coord.GatherNow(context.Background())
	// The view holds each partition's winning image.
	viewBytes := 0
	for _, pr := range rep.Partitions {
		if pr.MergedFrom == "" {
			continue
		}
		tn, err := f.nodes[pr.MergedFrom].Tenants().Get(pr.Namespace)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := tn.TrackerStats()
		viewBytes += st.MemoryBytes
	}

	front := httptest.NewServer(f.coord)
	defer front.Close()
	c := client.New(front.URL, front.Client())
	ctx := context.Background()

	view, err := c.ClusterTopK(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != 1 || len(view.Entries) != 20 || view.CommittedUnix == 0 {
		t.Fatalf("ClusterTopK: epoch=%d entries=%d committed=%d",
			view.Epoch, len(view.Entries), view.CommittedUnix)
	}
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Topology.Sites != 3 || st.Topology.Partitions != 4 ||
		st.Topology.Replicas != 2 || st.Topology.Quorum != 1 {
		t.Fatalf("topology: %+v", st.Topology)
	}
	if st.View == nil || st.View.Epoch != 1 || viewBytes == 0 || st.View.MemoryBytes != viewBytes {
		t.Fatalf("view info: %+v, want epoch 1 holding %d bytes", st.View, viewBytes)
	}
	if st.Round == nil || !st.Round.Committed ||
		len(st.Round.Sites) != 3 || len(st.Round.Partitions) != 4 {
		t.Fatalf("round: %+v", st.Round)
	}
	for _, s := range st.Round.Sites {
		if s.Health != "healthy" || s.Breaker != "closed" {
			t.Fatalf("site %s: health=%s breaker=%s", s.Site, s.Health, s.Breaker)
		}
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("coordinator readyz via client: %v", err)
	}
}

func TestCoordServesThroughNodeDeath(t *testing.T) {
	f := newFixture(t, 8, 2)
	f.load(t, 60)
	if rep := f.coord.GatherNow(context.Background()); !rep.Committed {
		t.Fatalf("baseline round: %+v", rep)
	}

	dead := f.sites[1]
	f.srvs[dead].Close()

	rep := f.coord.GatherNow(context.Background())
	if !rep.Committed {
		t.Fatalf("round with one dead node did not commit: %+v", rep)
	}
	var view struct {
		Entries []struct {
			Frequency uint64 `json:"frequency"`
		} `json:"entries"`
	}
	if code := f.get(t, "/v1/topk?k=100", &view); code != http.StatusOK {
		t.Fatalf("topk with dead node = %d", code)
	}
	if len(view.Entries) != 60 {
		t.Fatalf("entries with dead node = %d, want 60 (lost a partition)", len(view.Entries))
	}
	var st struct {
		Round struct {
			Sites []struct {
				Site   string   `json:"site"`
				Health string   `json:"health"`
				Skips  []string `json:"skips"`
			} `json:"sites"`
		} `json:"round"`
	}
	f.get(t, "/v1/cluster/status", &st)
	found := false
	for _, s := range st.Round.Sites {
		if s.Site == dead {
			found = true
			if s.Health == "healthy" || len(s.Skips) == 0 {
				t.Fatalf("dead site reported %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("dead site missing from status: %+v", st.Round.Sites)
	}
}

func TestCoordTornCheckpointRetriedWithinRound(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.load(t, 20)

	var torn atomic.Bool
	deactivate := fault.Activate(fault.CheckpointShip, func(int) error {
		if torn.CompareAndSwap(false, true) {
			return errors.New("injected torn checkpoint")
		}
		return nil
	})
	defer deactivate()

	rep := f.coord.GatherNow(context.Background())
	if !rep.Committed {
		t.Fatalf("round with torn checkpoint did not commit: %+v", rep)
	}
	if !torn.Load() {
		t.Fatal("fault hook never fired")
	}
	st := make(map[string]any)
	f.get(t, "/v1/stats", &st)
	if st["fetch_errors"].(float64) == 0 {
		t.Fatalf("torn shipment not counted as fetch error: %v", st["fetch_errors"])
	}
	var view struct {
		Entries []any `json:"entries"`
	}
	f.get(t, "/v1/topk?k=50", &view)
	if len(view.Entries) != 20 {
		t.Fatalf("entries after torn-checkpoint round = %d, want 20", len(view.Entries))
	}
}

func TestCoordCommitFaultKeepsPreviousView(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.load(t, 20)
	if rep := f.coord.GatherNow(context.Background()); !rep.Committed {
		t.Fatalf("baseline round: %+v", rep)
	}

	deactivate := fault.Activate(fault.CoordCommit, func(int) error {
		return errors.New("injected commit failure")
	})
	rep := f.coord.GatherNow(context.Background())
	deactivate()
	if rep.Committed || !strings.Contains(rep.Reason, "commit aborted") {
		t.Fatalf("faulted round: %+v", rep)
	}
	var view struct {
		Epoch int  `json:"epoch"`
		Stale bool `json:"stale"`
	}
	if code := f.get(t, "/v1/topk", &view); code != http.StatusOK {
		t.Fatalf("topk during commit fault = %d", code)
	}
	if view.Epoch != 1 || !view.Stale {
		t.Fatalf("expected stale epoch-1 view, got %+v", view)
	}

	rep = f.coord.GatherNow(context.Background())
	if !rep.Committed || rep.Epoch != 2 {
		t.Fatalf("recovery round: %+v", rep)
	}
	f.get(t, "/v1/topk", &view)
	if view.Epoch != 2 || view.Stale {
		t.Fatalf("recovered view: %+v", view)
	}
}

func TestCoordGatherLoopStartClose(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.load(t, 10)
	f.coord.Start()
	f.coord.Start() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for f.get(t, "/readyz", nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("gather loop never committed a view")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.coord.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestCoordCloseWithoutStart(t *testing.T) {
	f := newFixture(t, 2, 1)
	if err := f.coord.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCoordMetricsExposition(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.load(t, 10)
	f.coord.GatherNow(context.Background())

	rec := httptest.NewRecorder()
	f.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, family := range []string{
		"sigstream_cluster_rounds_total 1",
		"sigstream_cluster_commits_total 1",
		"sigstream_cluster_stale_rounds_total 0",
		"sigstream_cluster_fetches_total",
		"sigstream_cluster_fetch_errors_total",
		"sigstream_cluster_sites 3",
		"sigstream_cluster_sites_healthy 3",
		"sigstream_cluster_partitions 4",
		"sigstream_cluster_partitions_quorum 4",
		"sigstream_cluster_replicas 2",
		"sigstream_cluster_view_epoch 1",
		"sigstream_cluster_view_age_seconds",
		"sigstream_cluster_site_skips_total{site=",
		"sigstream_cluster_breaker_state{site=",
		"sigstream_http_requests_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("metrics exposition missing %q", family)
		}
	}
}

func TestCoordBadRequests(t *testing.T) {
	f := newFixture(t, 2, 1)
	f.load(t, 4)
	f.coord.GatherNow(context.Background())
	for _, q := range []string{"/v1/topk?k=0", "/v1/topk?k=-3", "/v1/topk?k=potato"} {
		if code := f.get(t, q, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", q, code)
		}
	}
	if code := f.get(t, "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
}

func TestCoordRoutesTable(t *testing.T) {
	routes := Routes()
	if len(routes) != 6 {
		t.Fatalf("routes = %d, want 6", len(routes))
	}
	want := map[string]bool{
		"GET /v1/topk":           true,
		"GET /v1/cluster/status": true,
		"GET /v1/stats":          true,
		"GET /metrics":           true,
		"GET /healthz":           true,
		"GET /readyz":            true,
	}
	for _, r := range routes {
		if !want[r.Method+" "+r.Pattern] {
			t.Errorf("unexpected route %s %s", r.Method, r.Pattern)
		}
	}
}

func TestCoordConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := New(Config{Sites: []string{"http://a", "http://a"}}); err == nil {
		t.Fatal("duplicate sites accepted")
	}
	// Replicas above the site count clamps instead of failing: a
	// three-node fleet asked for R=5 runs at R=3.
	s, err := New(Config{Sites: []string{"http://a", "http://b"}, Replicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Topology().Replicas(); got != 2 {
		t.Fatalf("clamped replicas = %d, want 2", got)
	}
}

// TestCoordTopKBadK: k is a decimal integer in [1, 1<<20], as on the node
// top route; anything else answers 400 bad_request.
func TestCoordTopKBadK(t *testing.T) {
	f := newFixture(t, 2, 1)
	f.load(t, 8)
	f.coord.GatherNow(context.Background())
	for _, c := range []struct {
		k    string
		code int
	}{
		{"1e3", http.StatusBadRequest},
		{"10abc", http.StatusBadRequest},
		{"0x10", http.StatusBadRequest},
		{"7%20", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"1048577", http.StatusBadRequest},
		{"1048576", http.StatusOK},
		{"5", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		f.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?k="+c.k, nil))
		if rec.Code != c.code {
			t.Errorf("k=%s: status %d, want %d", c.k, rec.Code, c.code)
			continue
		}
		if c.code == http.StatusBadRequest {
			var env struct {
				Code string `json:"code"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != "bad_request" {
				t.Errorf("k=%s: envelope %q (%v), want code bad_request", c.k, rec.Body.String(), err)
			}
		}
	}
	var view struct {
		Entries []any `json:"entries"`
	}
	if f.get(t, "/v1/topk?k=5", &view); len(view.Entries) != 5 {
		t.Fatalf("k=5 answered %d entries", len(view.Entries))
	}
}

// TestCoordConditionalFetchKeepsSelection runs the freshest-replica rule
// against real nodes: later replicas are asked with the first image's
// tag, so agreeing replicas ship one image per partition, and the
// committed view is the one the rule builds from every replica's image.
func TestCoordConditionalFetchKeepsSelection(t *testing.T) {
	const parts = 4
	ctx := context.Background()
	cases := []struct {
		name string
		// diverge changes partition 0's first or second replica, through
		// a client of that site, before the round.
		diverge     func(ns string, first, second *client.Client) error
		firstDown   bool // partition 0's first replica is shut down
		wantShipped int64
		wantFrom    int // replica index whose image partition 0 merges
	}{
		{"identical", nil, false, parts, 0},
		{"second fresher by a period", func(ns string, _, second *client.Client) error {
			_, err := second.Tenant(ns).EndPeriod(ctx)
			return err
		}, false, parts + 1, 1},
		{"second behind on arrivals", func(ns string, first, _ *client.Client) error {
			_, err := first.Tenant(ns).Insert(ctx, "extra")
			return err
		}, false, parts + 1, 0},
		{"first unreachable", nil, true, parts, 1},
		{"first empty", func(ns string, first, _ *client.Client) error {
			return first.DeleteTenant(ctx, ns)
		}, false, parts, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, parts, 2)
			for p := 0; p < 3; p++ {
				f.load(t, 40)
				f.coord.closePeriods()
			}
			topo := f.coord.Topology()
			reps := topo.ReplicaSites(0)
			if c.diverge != nil {
				first := client.New(reps[0], f.srvs[reps[0]].Client())
				second := client.New(reps[1], f.srvs[reps[1]].Client())
				if err := c.diverge(cluster.PartitionNamespace(0), first, second); err != nil {
					t.Fatal(err)
				}
			}
			if c.firstDown {
				f.srvs[reps[0]].Close()
			}

			// The rule's view, from every live replica's image.
			var winners []*sigstream.Sharded
			from := make([]string, parts)
			for p := range from {
				ns := cluster.PartitionNamespace(p)
				var best *sigstream.Sharded
				var bestSt sigstream.Stats
				for _, site := range topo.ReplicaSites(p) {
					if c.firstDown && site == reps[0] {
						continue
					}
					tn, err := f.nodes[site].Tenants().Get(ns)
					if err != nil {
						continue
					}
					img, err := tn.CheckpointImage()
					if err != nil {
						t.Fatal(err)
					}
					dec := new(sigstream.Sharded)
					if err := dec.UnmarshalBinary(img); err != nil {
						t.Fatal(err)
					}
					st := dec.Stats()
					if best == nil || st.Periods > bestSt.Periods ||
						(st.Periods == bestSt.Periods && st.Arrivals > bestSt.Arrivals) {
						best, bestSt, from[p] = dec, st, site
					}
				}
				if best != nil {
					winners = append(winners, best)
				}
			}
			cells := 0
			for _, w := range winners {
				cells += w.Cells()
			}
			want := sigstream.TopKAcross(cells, winners...)

			var before int64
			for _, m := range f.meters {
				before += m.images.Load()
			}
			rep := f.coord.gatherer.Round(ctx)
			if !rep.Committed {
				t.Fatalf("round did not commit: %+v", rep)
			}
			var shipped int64
			for _, m := range f.meters {
				shipped += m.images.Load()
			}
			if shipped -= before; shipped != c.wantShipped {
				t.Errorf("sites shipped %d images, want %d", shipped, c.wantShipped)
			}
			if got := rep.Partitions[0].MergedFrom; got != reps[c.wantFrom] {
				t.Errorf("partition 0 merged from %q, want %q", got, reps[c.wantFrom])
			}
			for p, pr := range rep.Partitions {
				if pr.MergedFrom != from[p] {
					t.Errorf("partition %d merged from %q, the rule picks %q", p, pr.MergedFrom, from[p])
				}
			}
			if c.name == "identical" {
				rec := httptest.NewRecorder()
				f.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if want := fmt.Sprintf("sigstream_cluster_fetches_unchanged_total %d\n", parts); !strings.Contains(rec.Body.String(), want) {
					t.Errorf("metrics lack %q", want)
				}
			}
			got, _, _ := f.coord.TopKView(len(want) + 1)
			if len(got) != len(want) {
				t.Fatalf("view holds %d entries, the rule's view %d", len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.Item != w.Item || g.Frequency != w.Frequency ||
					g.Persistency != w.Persistency || g.Significance != w.Significance {
					t.Fatalf("entry %d = %+v, the rule's view has %+v", i, g, w)
				}
			}
		})
	}
}

// TestHTTPSiteFetchNamesSkipsPlaceholders: a node renders an item it holds
// no name for as a hex placeholder. FetchNames leaves such an item out, so
// a later round asks again instead of the view keeping the placeholder as
// the item's name for as long as the item stays on top.
func TestHTTPSiteFetchNamesSkipsPlaceholders(t *testing.T) {
	sites, srvs, _, _ := startNodes(t, 32<<10)
	c := client.New(sites[0], srvs[sites[0]].Client())
	ctx := context.Background()
	if _, err := c.Tenant("src").Insert(ctx, "alpha", "alpha"); err != nil {
		t.Fatal(err)
	}
	img, err := c.Tenant("src").Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A restored image carries no names: dst holds alpha's item unnamed.
	if err := c.Tenant("dst").Restore(ctx, img); err != nil {
		t.Fatal(err)
	}
	site := httpSite{c: c}
	item := sigstream.HashKey("alpha")
	names, err := site.FetchNames(ctx, "dst", 10)
	if err != nil {
		t.Fatal(err)
	}
	if key, ok := names[item]; ok {
		t.Fatalf("FetchNames named the restored item %q, want it left out", key)
	}
	if _, err := c.Tenant("dst").Insert(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if names, err = site.FetchNames(ctx, "dst", 10); err != nil || names[item] != "alpha" {
		t.Fatalf("after an insert noted the name: %v, %v; want alpha", names, err)
	}
}
