package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/fault"
	"sigstream/internal/gen"
	"sigstream/internal/metrics"
	"sigstream/internal/oracle"
	"sigstream/internal/stream"
)

// fakeSite is an in-process SiteClient backed by real Sharded trackers,
// one per partition namespace, with scriptable failure modes.
type fakeSite struct {
	mu         sync.Mutex
	parts      map[string]*sigstream.Sharded
	names      map[string]map[uint64]string
	down       bool            // every call fails (node dead)
	corrupt    map[string]bool // namespaces served as garbage
	failFirst  int             // fail this many fetches, then recover
	stall      bool            // fetches hang until their context ends
	fetchCalls int             // every fetch, conditional ones included
	shipped    int             // fetches answered with a tracker image
	readyCalls int

	shape     func(ns string) *sigstream.Sharded // builds a namespace's tracker; nil: 32 KiB, 2 shards
	nameCalls []string                           // the namespace of every FetchNames call
}

func newFakeSite() *fakeSite {
	return &fakeSite{
		parts:   map[string]*sigstream.Sharded{},
		names:   map[string]map[uint64]string{},
		corrupt: map[string]bool{},
	}
}

func (f *fakeSite) tracker(ns string) *sigstream.Sharded {
	f.mu.Lock()
	defer f.mu.Unlock()
	tr, ok := f.parts[ns]
	if !ok {
		if f.shape != nil {
			tr = f.shape(ns)
		} else {
			tr = sigstream.NewSharded(sigstream.Config{MemoryBytes: 32 << 10, Seed: 7}, 2)
		}
		f.parts[ns] = tr
	}
	return tr
}

func (f *fakeSite) FetchCheckpoint(ctx context.Context, ns, tag string) ([]byte, error) {
	f.mu.Lock()
	f.fetchCalls++
	stall := f.stall
	f.mu.Unlock()
	if stall {
		<-ctx.Done()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.down {
		return nil, fmt.Errorf("connection refused (fetch %d)", f.fetchCalls)
	}
	if f.failFirst > 0 {
		f.failFirst--
		return nil, errors.New("i/o timeout")
	}
	if f.corrupt[ns] {
		return []byte("garbage"), nil
	}
	tr, ok := f.parts[ns]
	if !ok {
		return nil, ErrNoPartition
	}
	if st := tr.Stats(); tag != "" && tag == sigstream.CheckpointTag(st.Periods, st.Arrivals) {
		return nil, ErrUnchanged
	}
	f.shipped++
	return tr.MarshalBinary()
}

func (f *fakeSite) FetchNames(ctx context.Context, ns string, k int) (map[uint64]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nameCalls = append(f.nameCalls, ns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.down {
		return nil, errors.New("connection refused")
	}
	return f.names[ns], nil
}

func (f *fakeSite) Ready(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readyCalls++
	if err := ctx.Err(); err != nil {
		return err
	}
	if f.down {
		return errors.New("connection refused")
	}
	return nil
}

func (f *fakeSite) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *fakeSite) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetchCalls
}

// fastPolicy retries without real sleeping or jitter.
func fastPolicy() RetryPolicy {
	p, _ := recordedPolicy(2, time.Millisecond, time.Millisecond)
	return p
}

// recordedPolicy returns a policy whose sleeps are captured instead of
// slept and whose jitter source is pinned to 1, so the exact un-jittered
// backoff shape is asserted without wall-clock time.
func recordedPolicy(attempts int, base, max time.Duration) (RetryPolicy, *[]time.Duration) {
	var slept []time.Duration
	return RetryPolicy{
		Attempts:  attempts,
		BaseDelay: base,
		MaxDelay:  max,
		sleep:     func(_ context.Context, d time.Duration) { slept = append(slept, d) },
		rand:      func() float64 { return 1 },
	}, &slept
}

// testCluster wires a topology, fake sites, and a gatherer with a
// controllable clock.
type testCluster struct {
	topo  *Topology
	fakes map[string]*fakeSite
	g     *Gatherer
	clock time.Time
}

func newTestCluster(t testing.TB, partitions, replicas int, breaker BreakerConfig, retry RetryPolicy) *testCluster {
	t.Helper()
	sites := testSites()
	topo, err := NewTopology(sites, partitions, replicas)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{topo: topo, fakes: map[string]*fakeSite{}, clock: time.Unix(10000, 0)}
	clients := map[string]SiteClient{}
	for _, s := range sites {
		f := newFakeSite()
		tc.fakes[s] = f
		clients[s] = f
	}
	g, err := NewGatherer(GatherConfig{
		Topology: topo,
		Clients:  clients,
		Retry:    retry,
		Breaker:  breaker,
		now:      func() time.Time { return tc.clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.g = g
	return tc
}

// load inserts items 1..n once and closes one period everywhere.
func (tc *testCluster) load(n int) {
	for i := 1; i <= n; i++ {
		tc.insert(uint64(i), 1)
	}
	tc.endPeriod()
}

// insert records times arrivals of item on every replica of its
// partition, as a replicating producer does.
func (tc *testCluster) insert(item uint64, times int) {
	p := tc.topo.Partition(item)
	ns := PartitionNamespace(p)
	for _, site := range tc.topo.ReplicaSites(p) {
		tr := tc.fakes[site].tracker(ns)
		for i := 0; i < times; i++ {
			tr.Insert(item)
		}
	}
}

// endPeriod closes one period on every partition tracker of every site.
func (tc *testCluster) endPeriod() {
	for _, f := range tc.fakes {
		f.mu.Lock()
		for _, tr := range f.parts {
			tr.EndPeriod()
		}
		f.mu.Unlock()
	}
}

func TestGatherRoundCommitsHealthyCluster(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{}, fastPolicy())
	tc.load(100)
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}
	if rep.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", rep.Epoch)
	}
	if got := rep.HealthySites(); got != 3 {
		t.Fatalf("%d healthy sites, want 3: %+v", got, rep.Sites)
	}
	if got := rep.QuorumPartitions(); got != 8 {
		t.Fatalf("%d quorum partitions, want 8", got)
	}
	entries, info, ok := tc.g.TopK(200)
	if !ok {
		t.Fatal("no view after a committed round")
	}
	if info.Stale || info.Epoch != 1 {
		t.Fatalf("view info %+v, want fresh epoch-1 view", info)
	}
	if len(entries) != 100 {
		t.Fatalf("cluster view holds %d items, want 100", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1 (replicas must not double-count)", e.Item, e.Frequency)
		}
	}
}

func TestGatherSurvivesSingleNodeDeath(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{}, fastPolicy())
	tc.load(100)
	for _, site := range tc.topo.Sites() {
		tc.fakes[site].setDown(true)
		rep := tc.g.Round(context.Background())
		if !rep.Committed {
			t.Fatalf("round with %s dead did not commit: %s", site, rep.Reason)
		}
		entries, _, ok := tc.g.TopK(200)
		if !ok || len(entries) != 100 {
			t.Fatalf("with %s dead: view has %d items, want all 100 (R=2 must mask one death)",
				site, len(entries))
		}
		var dead *SiteReport
		for i := range rep.Sites {
			if rep.Sites[i].Site == site {
				dead = &rep.Sites[i]
			}
		}
		if dead == nil || dead.Health == SiteHealthy {
			t.Fatalf("dead site %s reported healthy: %+v", site, rep.Sites)
		}
		if len(dead.Skips) == 0 {
			t.Fatalf("dead site %s has no skip reasons", site)
		}
		tc.fakes[site].setDown(false)
		tc.g.Round(context.Background()) // recovery round resets breaker state
	}
}

func TestGatherQuorumLossServesStaleView(t *testing.T) {
	tc := newTestCluster(t, 4, 1, BreakerConfig{Trip: 100}, fastPolicy())
	tc.load(50)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}
	// R=1: killing the owner of any partition loses quorum on it.
	tc.fakes[tc.topo.ReplicaSites(0)[0]].setDown(true)
	tc.clock = tc.clock.Add(30 * time.Second)
	rep := tc.g.Round(context.Background())
	if rep.Committed {
		t.Fatal("round without quorum committed")
	}
	if !strings.Contains(rep.Reason, "quorum") {
		t.Fatalf("reason %q does not mention quorum", rep.Reason)
	}
	entries, info, ok := tc.g.TopK(100)
	if !ok || len(entries) != 50 {
		t.Fatalf("stale view lost: %d items, want 50", len(entries))
	}
	if !info.Stale {
		t.Fatal("view not marked stale after an uncommitted round")
	}
	if info.Epoch != 1 || info.AgeSeconds < 29 {
		t.Fatalf("view info %+v, want epoch 1 aged ≥29s", info)
	}
}

func TestGatherCorruptReplicaNotRetriedOtherReplicaMerged(t *testing.T) {
	tc := newTestCluster(t, 1, 2, BreakerConfig{}, fastPolicy())
	tc.load(20)
	reps := tc.topo.ReplicaSites(0)
	first := tc.fakes[reps[0]]
	first.corrupt[PartitionNamespace(0)] = true
	before := first.calls()
	rep := tc.g.Round(context.Background())
	if got := first.calls() - before; got != 1 {
		t.Fatalf("corrupt replica fetched %d times, want 1 (deterministic failures must not retry)", got)
	}
	if !rep.Committed {
		t.Fatalf("round did not commit despite a valid second replica: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != reps[1] {
		t.Fatalf("merged from %q, want the clean replica %q", rep.Partitions[0].MergedFrom, reps[1])
	}
	entries, _, _ := tc.g.TopK(50)
	if len(entries) != 20 {
		t.Fatalf("view holds %d items, want 20", len(entries))
	}
}

func TestGatherTransientFailureRetriedWithinRound(t *testing.T) {
	tc := newTestCluster(t, 1, 1, BreakerConfig{}, fastPolicy())
	tc.load(10)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].failFirst = 1 // first fetch times out, retry succeeds
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit after a retried transient failure: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != site {
		t.Fatalf("merged from %q, want %q", rep.Partitions[0].MergedFrom, site)
	}
	st := tc.g.Stats()
	if st.FetchErrors == 0 {
		t.Fatal("transient failure left no fetch-error count")
	}
}

func TestGatherBreakerTripsThenRecoversViaReadyProbe(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{Trip: 2, Cooldown: 10 * time.Second}, fastPolicy())
	tc.load(100)
	dead := tc.topo.Sites()[1]
	tc.fakes[dead].setDown(true)

	// Two failed rounds trip the breaker.
	tc.g.Round(context.Background())
	tc.clock = tc.clock.Add(time.Second)
	tc.g.Round(context.Background())
	if st := tc.g.Stats(); st.BreakerState[dead] != BreakerOpen {
		t.Fatalf("breaker %v after %d failed rounds, want open", st.BreakerState[dead], 2)
	}

	// While open and inside the cooldown the site is not fetched at all.
	calls := tc.fakes[dead].calls()
	tc.clock = tc.clock.Add(time.Second)
	rep := tc.g.Round(context.Background())
	if got := tc.fakes[dead].calls() - calls; got != 0 {
		t.Fatalf("open breaker allowed %d fetches", got)
	}
	var tripped *SiteReport
	for i := range rep.Sites {
		if rep.Sites[i].Site == dead {
			tripped = &rep.Sites[i]
		}
	}
	if tripped.Health != SiteTripped || tripped.Breaker != "open" {
		t.Fatalf("tripped site reported %+v", tripped)
	}

	// Node comes back; after the cooldown a readiness probe half-opens the
	// breaker, the trial fetch succeeds, and the breaker closes.
	tc.fakes[dead].setDown(false)
	tc.clock = tc.clock.Add(10 * time.Second)
	rep = tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("recovery round did not commit: %s", rep.Reason)
	}
	if tc.fakes[dead].readyCalls == 0 {
		t.Fatal("no readiness probe before half-opening")
	}
	if st := tc.g.Stats(); st.BreakerState[dead] != BreakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", st.BreakerState[dead])
	}
	for _, sr := range rep.Sites {
		if sr.Site == dead && sr.Health != SiteHealthy {
			t.Fatalf("recovered site reported %+v", sr)
		}
	}
}

func TestGatherCommitFaultServesPreviousViewThenRecovers(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	tc.load(50)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}

	// Erroring hook: the round aborts between gather and commit.
	deactivate := fault.Activate(fault.CoordCommit, func(int) error {
		return errors.New("injected commit failure")
	})
	rep := tc.g.Round(context.Background())
	deactivate()
	if rep.Committed || !strings.Contains(rep.Reason, "commit aborted") {
		t.Fatalf("faulted round: %+v", rep)
	}
	if _, info, ok := tc.g.TopK(10); !ok || info.Epoch != 1 {
		t.Fatalf("previous view lost after commit fault: ok=%v info=%+v", ok, info)
	}

	// Panicking hook: the simulated crash unwinds out of Round; a fresh
	// round afterwards commits cleanly with no double-counting.
	deactivate = fault.Activate(fault.CoordCommit, func(int) error {
		panic("injected coordinator crash")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking commit hook did not propagate")
			}
		}()
		tc.g.Round(context.Background())
	}()
	deactivate()

	rep = tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round after simulated crash did not commit: %s", rep.Reason)
	}
	entries, _, _ := tc.g.TopK(100)
	if len(entries) != 50 {
		t.Fatalf("view holds %d items, want 50", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d after crash recovery, want 1", e.Item, e.Frequency)
		}
	}
}

func TestGatherPrefersFreshestReplica(t *testing.T) {
	tc := newTestCluster(t, 1, 2, BreakerConfig{}, fastPolicy())
	reps := tc.topo.ReplicaSites(0)
	ns := PartitionNamespace(0)
	// Replica 0 is a restarted node that missed a period of traffic;
	// replica 1 has the complete history.
	stale, fresh := tc.fakes[reps[0]].tracker(ns), tc.fakes[reps[1]].tracker(ns)
	for i := 1; i <= 10; i++ {
		stale.Insert(uint64(i))
		fresh.Insert(uint64(i))
	}
	stale.EndPeriod()
	fresh.EndPeriod()
	for i := 1; i <= 10; i++ {
		fresh.Insert(uint64(i))
	}
	fresh.EndPeriod()

	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != reps[1] {
		t.Fatalf("merged from %q, want the fresher replica %q", rep.Partitions[0].MergedFrom, reps[1])
	}
	entries, _, _ := tc.g.TopK(20)
	for _, e := range entries {
		if e.Frequency != 2 || e.Persistency != 2 {
			t.Fatalf("item %d = %+v, want the complete 2-period history", e.Item, e)
		}
	}
}

func TestGatherEmptyClusterCommitsEmptyView(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("empty-cluster round did not commit: %s", rep.Reason)
	}
	for _, pr := range rep.Partitions {
		if !pr.Quorum {
			t.Fatalf("partition %d missed quorum on a reachable empty cluster", pr.Partition)
		}
	}
	entries, _, ok := tc.g.TopK(10)
	if !ok || len(entries) != 0 {
		t.Fatalf("empty view: ok=%v entries=%v", ok, entries)
	}
}

func TestGatherResolvesNames(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{}, fastPolicy())
	item := uint64(42)
	p := tc.topo.Partition(item)
	ns := PartitionNamespace(p)
	for _, site := range tc.topo.ReplicaSites(p) {
		tc.fakes[site].tracker(ns).Insert(item)
		tc.fakes[site].names[ns] = map[uint64]string{item: "checkout-svc"}
	}
	// No site names this item: its key is the item in decimal.
	tc.insert(18446744073709551557, 2)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	entries, _, _ := tc.g.TopK(10)
	if len(entries) != 2 || entries[0].Key != "18446744073709551557" || entries[1].Key != "checkout-svc" {
		t.Fatalf("entries %+v, want item 18446744073709551557 keyed in decimal, then item 42 named checkout-svc", entries)
	}
}

func TestNewGathererValidation(t *testing.T) {
	if _, err := NewGatherer(GatherConfig{}); err == nil {
		t.Fatal("gatherer without topology accepted")
	}
	topo, err := NewTopology(testSites(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGatherer(GatherConfig{Topology: topo}); err == nil {
		t.Fatal("gatherer with missing site clients accepted")
	}
}

func TestGatherStatsSnapshot(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	tc.load(30)
	tc.g.Round(context.Background())
	tc.clock = tc.clock.Add(7 * time.Second)
	st := tc.g.Stats()
	if st.Rounds != 1 || st.Commits != 1 || st.StaleRounds != 0 {
		t.Fatalf("counters %+v", st)
	}
	if st.Sites != 3 || st.Partitions != 4 || st.PartitionsQuorum != 4 || st.SitesHealthy != 3 {
		t.Fatalf("topology gauges %+v", st)
	}
	if st.ViewEpoch != 1 || st.ViewAgeSeconds < 6.9 {
		t.Fatalf("view gauges %+v", st)
	}
	if st.Fetches == 0 {
		t.Fatal("no fetches counted")
	}
}

func TestGatherReportString(t *testing.T) {
	// The report must render per-site state compactly for logs.
	rep := RoundReport{
		Committed: true, Epoch: 3,
		Partitions: []PartitionReport{{Partition: 0, Quorum: true}},
		Sites:      []SiteReport{{Site: "a", Health: SiteHealthy}},
	}
	if rep.QuorumPartitions() != 1 || rep.HealthySites() != 1 {
		t.Fatal("report counters wrong")
	}
	if fmt.Sprintf("%v", rep.Sites[0].Health) != "healthy" {
		t.Fatal("health class does not render")
	}
}

// TestCoordinatorBeforeFirstCommit: a gatherer that has not committed a
// round serves no view.
func TestCoordinatorBeforeFirstCommit(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	if entries, _, ok := tc.g.TopK(5); ok || entries != nil {
		t.Fatalf("TopK before any round = %v, %v; want no view", entries, ok)
	}
	if _, ok := tc.g.ViewInfo(); ok {
		t.Fatal("ViewInfo reported a view before any round")
	}
}

func TestLastReportEmptyBeforeFirstRound(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	if _, ok := tc.g.LastRound(); ok {
		t.Fatal("LastRound reported a round before one ran")
	}
}

// TestRoundMergesSites runs one round per period: each round merges the
// sites' latest partition images, so the view accumulates frequency and
// persistency across periods and advances one epoch per round.
func TestRoundMergesSites(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	for p := 0; p < 3; p++ {
		tc.load(20)
		if rep := tc.g.Round(context.Background()); !rep.Committed {
			t.Fatalf("round %d did not commit: %s", p, rep.Reason)
		}
	}
	entries, info, ok := tc.g.TopK(100)
	if !ok || info.Epoch != 3 {
		t.Fatalf("view info %+v ok=%v, want epoch 3", info, ok)
	}
	if len(entries) != 20 {
		t.Fatalf("view holds %d items, want 20", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 3 || e.Persistency != 3 {
			t.Fatalf("item %d = %+v, want frequency and persistency 3", e.Item, e)
		}
	}
}

// TestGlobalRankingAcrossSites checks that the view ranks items across
// partitions hosted on different sites: one partition's runner-up
// outranks the other partition's leader, which no partition-local
// ranking can show.
func TestGlobalRankingAcrossSites(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{}, fastPolicy())
	lead, second, other := uint64(1), uint64(0), uint64(0)
	for item := uint64(2); second == 0 || other == 0; item++ {
		switch {
		case tc.topo.Partition(item) != tc.topo.Partition(lead):
			if other == 0 {
				other = item
			}
		case second == 0:
			second = item
		}
	}
	for p := 0; p < 2; p++ {
		tc.insert(lead, 50)   // its partition's #1
		tc.insert(second, 40) // its partition's #2, globally #3
		tc.insert(other, 45)  // the other partition's #1, globally #2
		tc.endPeriod()
	}
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	top, _, _ := tc.g.TopK(3)
	if len(top) != 3 || top[0].Item != lead || top[1].Item != other || top[2].Item != second {
		t.Fatalf("global ranking %+v, want items %d, %d, %d", top, lead, other, second)
	}
}

// referenceView builds the view the freshest-replica rule commits, from
// every replica's image as the site holds it now: for each partition,
// the replica with the most periods, then the most arrivals, the first
// in replica order on ties. A down site, a corrupt namespace and a
// missing namespace contribute no image. It returns every cell of the
// winning images as one selection ranks them, and each partition's
// winning site.
func (tc *testCluster) referenceView(t *testing.T) ([]sigstream.Entry, []string) {
	t.Helper()
	from := make([]string, tc.topo.Partitions())
	var winners []*sigstream.Sharded
	for p := range from {
		ns := PartitionNamespace(p)
		var best *sigstream.Sharded
		var bestSt sigstream.Stats
		for _, site := range tc.topo.ReplicaSites(p) {
			f := tc.fakes[site]
			f.mu.Lock()
			tr, ok := f.parts[ns]
			skip := f.down || f.corrupt[ns] || !ok
			var img []byte
			var err error
			if !skip {
				img, err = tr.MarshalBinary()
			}
			f.mu.Unlock()
			if skip {
				continue
			}
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
	return sigstream.TopKAcross(cells, winners...), from
}

// shipped sums the tracker images the fake sites have shipped.
func (tc *testCluster) shipped() int {
	n := 0
	for _, f := range tc.fakes {
		f.mu.Lock()
		n += f.shipped
		f.mu.Unlock()
	}
	return n
}

// TestGatherConditionalFetchKeepsSelection checks that asking later
// replicas with the first image's tag ships one image per partition when
// replicas agree and leaves the committed view exactly what the
// freshest-replica rule builds from every replica's image: the same
// winning site per partition and the same ranking, every cell included.
func TestGatherConditionalFetchKeepsSelection(t *testing.T) {
	const parts = 4
	cases := []struct {
		name string
		// diverge changes partition 0's replicas before the round, given
		// the partition's namespace, two items it owns and its replicas
		// in fetch order.
		diverge     func(tc *testCluster, ns string, a, b uint64, first, second *fakeSite)
		wantShipped int
		wantFrom    int // replica index whose image partition 0 merges
	}{
		{"identical", func(*testCluster, string, uint64, uint64, *fakeSite, *fakeSite) {}, parts, 0},
		{"second fresher by a period", func(_ *testCluster, ns string, a, _ uint64, _, second *fakeSite) {
			tr := second.tracker(ns)
			tr.Insert(a)
			tr.EndPeriod()
		}, parts + 1, 1},
		{"second behind on arrivals", func(_ *testCluster, ns string, a, _ uint64, first, _ *fakeSite) {
			first.tracker(ns).Insert(a)
		}, parts + 1, 0},
		{"same tag, different items", func(_ *testCluster, ns string, a, b uint64, first, second *fakeSite) {
			first.tracker(ns).Insert(a)
			second.tracker(ns).Insert(b)
		}, parts, 0},
		{"first corrupt", func(_ *testCluster, ns string, _, _ uint64, first, _ *fakeSite) {
			first.corrupt[ns] = true
		}, parts, 1},
		{"first unreachable", func(_ *testCluster, _ string, _, _ uint64, first, _ *fakeSite) {
			first.setDown(true)
		}, parts, 1},
		{"first empty", func(_ *testCluster, ns string, _, _ uint64, first, _ *fakeSite) {
			first.mu.Lock()
			delete(first.parts, ns)
			first.mu.Unlock()
		}, parts, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, parts, 2, BreakerConfig{}, fastPolicy())
			for period := 1; period <= 3; period++ {
				for i := 1; i <= 200; i++ {
					tc.insert(uint64(i), 1+i%(period+2))
				}
				tc.endPeriod()
			}
			var owned []uint64
			for item := uint64(1000); len(owned) < 2; item++ {
				if tc.topo.Partition(item) == 0 {
					owned = append(owned, item)
				}
			}
			reps := tc.topo.ReplicaSites(0)
			c.diverge(tc, PartitionNamespace(0), owned[0], owned[1], tc.fakes[reps[0]], tc.fakes[reps[1]])
			want, refFrom := tc.referenceView(t)

			calls := 0
			for _, f := range tc.fakes {
				calls += f.calls()
			}
			rep := tc.g.Round(context.Background())
			if !rep.Committed {
				t.Fatalf("round did not commit: %s", rep.Reason)
			}
			if got := tc.shipped(); got != c.wantShipped {
				t.Errorf("%d images shipped, want %d", got, c.wantShipped)
			}
			st := tc.g.Stats()
			for _, f := range tc.fakes {
				calls -= f.calls()
			}
			if -calls != int(st.Fetches) {
				t.Errorf("sites saw %d fetches, gatherer counted %d", -calls, st.Fetches)
			}
			if c.name == "identical" {
				if st.FetchesUnchanged != parts {
					t.Errorf("%d unchanged answers, want %d", st.FetchesUnchanged, parts)
				}
				// An unchanged answer is a report and a success.
				for _, pr := range rep.Partitions {
					if pr.Reported != 2 {
						t.Errorf("partition %d: %d replicas reported, want 2", pr.Partition, pr.Reported)
					}
				}
				for _, sr := range rep.Sites {
					if sr.Health != SiteHealthy || sr.LastEpoch != rep.Epoch {
						t.Errorf("site %+v, want healthy at epoch %d", sr, rep.Epoch)
					}
				}
			}
			if got := rep.Partitions[0].MergedFrom; got != reps[c.wantFrom] {
				t.Errorf("partition 0 merged from %q, want %q", got, reps[c.wantFrom])
			}
			for p, pr := range rep.Partitions {
				if pr.MergedFrom != refFrom[p] {
					t.Errorf("partition %d merged from %q, the rule picks %q", p, pr.MergedFrom, refFrom[p])
				}
			}
			got, _, _ := tc.g.TopK(len(want) + 1)
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

// shapeAll sets how every fake site builds a namespace's tracker.
func (tc *testCluster) shapeAll(shape func(ns string) *sigstream.Sharded) {
	for _, f := range tc.fakes {
		f.shape = shape
	}
}

// loadPartitions replays items into every partition's tracker on its
// first replica, perPeriod arrivals a period, closing the period on every
// partition together as stream.Replay does, and returns the trackers.
func (tc *testCluster) loadPartitions(items []uint64, perPeriod int) []*sigstream.Sharded {
	trackers := make([]*sigstream.Sharded, tc.topo.Partitions())
	for p := range trackers {
		trackers[p] = tc.fakes[tc.topo.ReplicaSites(p)[0]].tracker(PartitionNamespace(p))
	}
	batch := make([][]uint64, len(trackers))
	for start := 0; start < len(items); start += perPeriod {
		for _, it := range items[start:min(start+perPeriod, len(items))] {
			p := tc.topo.Partition(it)
			batch[p] = append(batch[p], it)
		}
		for p, tr := range trackers {
			tr.InsertBatch(batch[p])
			tr.EndPeriod()
			batch[p] = batch[p][:0]
		}
	}
	return trackers
}

// nameCalls counts the FetchNames calls so far, per namespace.
func (tc *testCluster) nameCalls() map[string]int {
	out := map[string]int{}
	for _, f := range tc.fakes {
		f.mu.Lock()
		for _, ns := range f.nameCalls {
			out[ns]++
		}
		f.mu.Unlock()
	}
	return out
}

// TestGatherViewKeepsEveryPartition gathers P = 8 partitions of 16 KiB
// over a Network-like trace. The view must rank every cell of every
// partition image as one selection does, and at k = 1000 it must be more
// precise against the exact oracle than the merge of the same images
// into one partition's geometry, which keeps 1/P of their cells.
func TestGatherViewKeepsEveryPartition(t *testing.T) {
	const parts, k = 8, 1000
	tc := newTestCluster(t, parts, 1, BreakerConfig{}, fastPolicy())
	tc.shapeAll(func(string) *sigstream.Sharded {
		return sigstream.NewSharded(sigstream.Config{MemoryBytes: 16 << 10, Weights: sigstream.Balanced}, 2)
	})
	tr := gen.NetworkLike(400_000, 1)
	trackers := tc.loadPartitions(tr.Items, tr.ItemsPerPeriod())
	exact := oracle.FromStream(tr, stream.Weights(sigstream.Balanced))
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}

	// The reference: every partition's cells, sorted in the module's order.
	var all []sigstream.Entry
	images := make([][]byte, parts)
	for p, s := range trackers {
		all = append(all, s.TopK(s.Cells())...)
		img, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		images[p] = img
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Significance != all[j].Significance {
			return all[i].Significance > all[j].Significance
		}
		return all[i].Item < all[j].Item
	})
	view, _, _ := tc.g.TopK(k)
	if len(view) != k {
		t.Fatalf("view answered %d entries, want %d", len(view), k)
	}
	got := make([]stream.Entry, k)
	for i, e := range view {
		w := all[i]
		if e.Item != w.Item || e.Frequency != w.Frequency || e.Persistency != w.Persistency || e.Significance != w.Significance {
			t.Fatalf("view entry %d = %+v, the selection has %+v", i, e, w)
		}
		got[i] = stream.Entry{Item: e.Item, Frequency: e.Frequency, Persistency: e.Persistency, Significance: e.Significance}
	}

	merged, err := sigstream.MergeShardedCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	var folded []stream.Entry
	for _, e := range merged.TopK(k) {
		folded = append(folded, stream.Entry{Item: e.Item, Frequency: e.Frequency, Persistency: e.Persistency, Significance: e.Significance})
	}
	truth := exact.TopK(k)
	sel, mer := metrics.Score(exact, truth, got, k), metrics.Score(exact, truth, folded, k)
	t.Logf("precision at k=%d: view %.3f (ARE %.4f), merge %.3f (ARE %.4f)", k, sel.Precision, sel.ARE, mer.Precision, mer.ARE)
	if sel.Precision <= mer.Precision {
		t.Fatalf("view precision %.3f, merge %.3f: the view must be more precise", sel.Precision, mer.Precision)
	}
}

// TestViewReadsAgreeAtEveryDepth: a view ranks its images once per depth
// and answers shallower reads from that ranking, so reads in any order of
// k must each equal a fresh selection at that k, and a caller editing its
// answer must not change the next one.
func TestViewReadsAgreeAtEveryDepth(t *testing.T) {
	tc := newTestCluster(t, 4, 1, BreakerConfig{}, fastPolicy())
	tc.shapeAll(func(string) *sigstream.Sharded {
		return sigstream.NewSharded(sigstream.Config{MemoryBytes: 16 << 10}, 2)
	})
	tr := gen.NetworkLike(100_000, 2)
	trackers := tc.loadPartitions(tr.Items, tr.ItemsPerPeriod())
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	cells := len(sigstream.TopKAcross(1<<20, trackers...))
	for _, k := range []int{10, 500, 50, 0, cells + 10, 2000, cells, 3} {
		got, _, _ := tc.g.TopK(k)
		want := sigstream.TopKAcross(k, trackers...)
		if len(got) != len(want) {
			t.Fatalf("k=%d: view answered %d entries, a fresh selection %d", k, len(got), len(want))
		}
		for i, w := range want {
			e := got[i]
			if e.Item != w.Item || e.Frequency != w.Frequency || e.Persistency != w.Persistency || e.Significance != w.Significance {
				t.Fatalf("k=%d: entry %d = %+v, a fresh selection has %+v", k, i, e, w)
			}
			got[i] = ViewEntry{}
		}
	}
}

// TestGatherMixedShardCounts commits a view over a 2-shard and a 4-shard
// partition: partitions hold disjoint items, so their images need not
// share a geometry.
func TestGatherMixedShardCounts(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{}, fastPolicy())
	tc.shapeAll(func(ns string) *sigstream.Sharded {
		shards := 2
		if ns == PartitionNamespace(1) {
			shards = 4
		}
		return sigstream.NewSharded(sigstream.Config{MemoryBytes: 32 << 10, Seed: 7}, shards)
	})
	for period := 0; period < 2; period++ {
		tc.load(100)
	}
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round over 2- and 4-shard partitions did not commit: %s", rep.Reason)
	}
	entries, info, _ := tc.g.TopK(200)
	if len(entries) != 100 {
		t.Fatalf("view holds %d items, want 100", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 2 || e.Persistency != 2 {
			t.Fatalf("item %d = %+v, want frequency and persistency 2", e.Item, e)
		}
	}
	if want := 2 * (32 << 10); info.MemoryBytes != want {
		t.Fatalf("view size %d bytes, want the two partitions' %d", info.MemoryBytes, want)
	}
}

// TestGatherWeightsMismatchDoesNotCommit: one selection cannot rank images
// that weigh frequency and persistency differently, so such a round
// commits nothing and says why.
func TestGatherWeightsMismatchDoesNotCommit(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{}, fastPolicy())
	tc.shapeAll(func(ns string) *sigstream.Sharded {
		w := sigstream.Balanced
		if ns == PartitionNamespace(1) {
			w = sigstream.Weights{Alpha: 1, Beta: 10}
		}
		return sigstream.NewSharded(sigstream.Config{MemoryBytes: 32 << 10, Weights: w}, 2)
	})
	tc.load(100)
	rep := tc.g.Round(context.Background())
	if rep.Committed {
		t.Fatal("a round over images of different weights committed")
	}
	if !strings.Contains(rep.Reason, "weights mismatch") || !strings.Contains(rep.Reason, "partition 1 ranks by α=1 β=10") {
		t.Fatalf("reason %q does not name the mismatch", rep.Reason)
	}
	if _, _, ok := tc.g.TopK(10); ok {
		t.Fatal("a view is served although no round committed")
	}
}

// TestGatherNamesFetchedOnlyWhenUnnamed: a name never changes, so a round
// asks a partition's replica for names only when the partition's top
// holds an item the previous view could not name.
func TestGatherNamesFetchedOnlyWhenUnnamed(t *testing.T) {
	const parts = 4
	tc := newTestCluster(t, parts, 2, BreakerConfig{}, fastPolicy())
	name := func(item uint64) {
		p := tc.topo.Partition(item)
		ns := PartitionNamespace(p)
		for _, site := range tc.topo.ReplicaSites(p) {
			f := tc.fakes[site]
			f.mu.Lock()
			if f.names[ns] == nil {
				f.names[ns] = map[uint64]string{}
			}
			f.names[ns][item] = fmt.Sprintf("key-%d", item)
			f.mu.Unlock()
		}
	}
	for i := uint64(1); i <= 40; i++ {
		name(i)
	}
	tc.load(40)
	round := func() {
		t.Helper()
		if rep := tc.g.Round(context.Background()); !rep.Committed {
			t.Fatalf("round did not commit: %s", rep.Reason)
		}
	}
	round()
	first := tc.nameCalls()
	for p := 0; p < parts; p++ {
		if n := first[PartitionNamespace(p)]; n != 1 {
			t.Fatalf("first round fetched names for %s %d times, want once: %v", PartitionNamespace(p), n, first)
		}
	}

	// Nothing changed: every top item is named by the previous view.
	tc.endPeriod()
	round()
	if got := tc.nameCalls(); !reflect.DeepEqual(got, first) {
		t.Fatalf("a round with every top item named fetched names: %v, before %v", got, first)
	}
	entries, _, _ := tc.g.TopK(100)
	for _, e := range entries {
		if e.Key != fmt.Sprintf("key-%d", e.Item) {
			t.Fatalf("item %d keyed %q after a round without fetches", e.Item, e.Key)
		}
	}

	// A new item reaches one partition's top: that partition alone asks.
	hot := uint64(1000)
	name(hot)
	tc.insert(hot, 5)
	round()
	first[PartitionNamespace(tc.topo.Partition(hot))]++
	if got := tc.nameCalls(); !reflect.DeepEqual(got, first) {
		t.Fatalf("name fetches %v, want %v: one more, for the hot item's partition", got, first)
	}
	if st := tc.g.Stats(); st.NameFetches != parts+1 {
		t.Fatalf("NameFetches = %d, want %d", st.NameFetches, parts+1)
	}
	top, _, _ := tc.g.TopK(1)
	if len(top) != 1 || top[0].Item != hot || top[0].Key != "key-1000" {
		t.Fatalf("top entry %+v, want item %d named key-1000", top, hot)
	}
}
