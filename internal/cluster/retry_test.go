package cluster

import (
	"context"
	"strings"
	"testing"
	"time"
)

// siteReport returns site's entry in rep.
func siteReport(t *testing.T, rep RoundReport, site string) SiteReport {
	t.Helper()
	for _, sr := range rep.Sites {
		if sr.Site == site {
			return sr
		}
	}
	t.Fatalf("no report for site %s: %+v", site, rep.Sites)
	return SiteReport{}
}

func assertSlept(t *testing.T, slept, want []time.Duration) {
	t.Helper()
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff step %d = %v, want %v (slept %v)", i, slept[i], want[i], slept)
		}
	}
}

// deadReplicaCluster is a one-partition, one-replica cluster whose only
// site is down, so every round runs the full retry schedule.
func deadReplicaCluster(t *testing.T, retry RetryPolicy) (*testCluster, string) {
	t.Helper()
	tc := newTestCluster(t, 1, 1, BreakerConfig{}, retry)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].setDown(true)
	return tc, site
}

// TestCollectFromRetriesTransientFailure: collecting a partition from a
// replica that times out twice retries it to success, backing off
// exponentially from BaseDelay.
func TestCollectFromRetriesTransientFailure(t *testing.T) {
	policy, slept := recordedPolicy(4, 50*time.Millisecond, time.Second)
	tc := newTestCluster(t, 1, 1, BreakerConfig{}, policy)
	tc.load(10)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].failFirst = 2 // two fetches time out, the third succeeds
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit after 2 transient failures: %s", rep.Reason)
	}
	if got := tc.fakes[site].calls(); got != 3 {
		t.Fatalf("site fetched %d times, want 3", got)
	}
	assertSlept(t, *slept, []time.Duration{50 * time.Millisecond, 100 * time.Millisecond})
}

func TestGatherExhaustsAttemptsWithCappedBackoff(t *testing.T) {
	policy, slept := recordedPolicy(5, 400*time.Millisecond, time.Second)
	tc, site := deadReplicaCluster(t, policy)
	rep := tc.g.Round(context.Background())
	if rep.Committed {
		t.Fatal("round committed without its only replica")
	}
	if got := tc.fakes[site].calls(); got != 5 {
		t.Fatalf("dead site fetched %d times, want 5", got)
	}
	// The skip names the attempt count and carries the last fetch error.
	skips := siteReport(t, rep, site).Skips
	if len(skips) != 1 || !strings.Contains(skips[0], "unreachable after 5 attempts") ||
		!strings.Contains(skips[0], "connection refused (fetch 5)") {
		t.Fatalf("skips %q, want one reason naming 5 attempts and the last error", skips)
	}
	// 400 doubles to 800, then the 1s cap holds.
	assertSlept(t, *slept, []time.Duration{400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second})
}

func TestGatherBackoffAppliesFullJitter(t *testing.T) {
	policy, slept := recordedPolicy(4, 100*time.Millisecond, time.Second)
	policy.rand = func() float64 { return 0.25 }
	tc, _ := deadReplicaCluster(t, policy)
	tc.g.Round(context.Background())
	// Full jitter scales each capped-exponential ceiling (100ms, 200ms,
	// 400ms) by the rand draw, here pinned to 0.25.
	assertSlept(t, *slept, []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond})
}

func TestGatherDefaultJitterStaysUnderCeiling(t *testing.T) {
	policy, slept := recordedPolicy(5, 80*time.Millisecond, 200*time.Millisecond)
	policy.rand = nil // the default source must be installed
	tc, _ := deadReplicaCluster(t, policy)
	tc.g.Round(context.Background())
	ceilings := []time.Duration{80 * time.Millisecond, 160 * time.Millisecond,
		200 * time.Millisecond, 200 * time.Millisecond}
	if len(*slept) != len(ceilings) {
		t.Fatalf("slept %v, want %d jittered waits", *slept, len(ceilings))
	}
	for i, d := range *slept {
		if d < 0 || d > ceilings[i] {
			t.Fatalf("jittered wait %d = %v outside [0, %v]", i, d, ceilings[i])
		}
	}
}

// TestCollectFromDoesNotRetryCorruptCheckpoint: a corrupt checkpoint is a
// deterministic failure, fetched once and never backed off from.
func TestCollectFromDoesNotRetryCorruptCheckpoint(t *testing.T) {
	policy, slept := recordedPolicy(4, time.Millisecond, time.Second)
	tc := newTestCluster(t, 1, 1, BreakerConfig{}, policy)
	tc.load(10)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].corrupt[PartitionNamespace(0)] = true
	rep := tc.g.Round(context.Background())
	if rep.Committed {
		t.Fatal("round committed a corrupt checkpoint")
	}
	if got := tc.fakes[site].calls(); got != 1 || len(*slept) != 0 {
		t.Fatalf("corrupt checkpoint fetched %d times with %d sleeps, want 1 and 0 (deterministic failures must not retry)",
			got, len(*slept))
	}
	skips := siteReport(t, rep, site).Skips
	if len(skips) != 1 || !strings.Contains(skips[0], "corrupt checkpoint") {
		t.Fatalf("skips %q, want one corrupt-checkpoint reason", skips)
	}
}

// TestGatherRoundMixedFailureModes runs one round over four kinds of
// replica at once: one that times out twice before answering (retried to
// success), one serving a corrupt checkpoint (deterministic, never
// retried), one on a dead site (retries exhausted), and a healthy one.
// The committed view must hold exactly the valid images.
func TestGatherRoundMixedFailureModes(t *testing.T) {
	policy, slept := recordedPolicy(3, time.Millisecond, time.Millisecond)
	tc := newTestCluster(t, 2, 2, BreakerConfig{}, policy)
	tc.load(40)
	// Two partitions at R=2 over three sites: one site holds a replica of
	// each partition, the other two hold one replica each.
	r0, r1 := tc.topo.ReplicaSites(0), tc.topo.ReplicaSites(1)
	var shared, dead, corrupt string
	for _, a := range r0 {
		for _, b := range r1 {
			if a == b {
				shared = a
			}
		}
	}
	for i := range r0 {
		if r0[i] != shared {
			dead = r0[i]
		}
		if r1[i] != shared {
			corrupt = r1[i]
		}
	}
	if shared == "" || dead == "" || corrupt == "" || dead == corrupt {
		t.Fatalf("replica layout %v / %v does not share exactly one site", r0, r1)
	}
	tc.fakes[shared].failFirst = 2 // partition 0 times out twice, partition 1 answers
	tc.fakes[dead].setDown(true)
	tc.fakes[corrupt].corrupt[PartitionNamespace(1)] = true

	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit with a valid replica per partition: %s", rep.Reason)
	}
	for site, want := range map[string]int{shared: 3 + 1, dead: 3, corrupt: 1} {
		if got := tc.fakes[site].calls(); got != want {
			t.Fatalf("site %s fetched %d times, want %d (transient and dead retry, corrupt does not)",
				site, got, want)
		}
	}
	// The timing-out replica slept twice at the (jitter-pinned) 1ms base;
	// the dead one adds its own two.
	if len(*slept) != 4 {
		t.Fatalf("observed %d sleeps (%v), want 4", len(*slept), *slept)
	}
	for _, pr := range rep.Partitions {
		if pr.MergedFrom != shared {
			t.Fatalf("partition %d merged from %q, want the valid replica %q", pr.Partition, pr.MergedFrom, shared)
		}
	}
	for _, site := range []string{dead, corrupt} {
		if sr := siteReport(t, rep, site); sr.Health != SiteDegraded || len(sr.Skips) != 1 {
			t.Fatalf("failed site %s reported %+v, want degraded with one skip", site, sr)
		}
	}
	entries, _, _ := tc.g.TopK(100)
	if len(entries) != 40 {
		t.Fatalf("view holds %d items, want 40", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1 (one image per partition)", e.Item, e.Frequency)
		}
	}
}

func TestGatherRoundAllDeadKeepsPreviousView(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{}, fastPolicy())
	tc.insert(9, 5)
	tc.endPeriod()
	if rep := tc.g.Round(context.Background()); !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("healthy round: %+v", rep)
	}
	for _, f := range tc.fakes {
		f.setDown(true)
	}
	rep := tc.g.Round(context.Background())
	if rep.Committed || rep.Epoch != 1 || !strings.Contains(rep.Reason, "quorum") {
		t.Fatalf("all-dead round: %+v, want uncommitted at epoch 1 for quorum loss", rep)
	}
	// Stale beats blank: the previous round's view still answers.
	entries, info, ok := tc.g.TopK(5)
	if !ok || len(entries) != 1 || entries[0].Item != 9 || entries[0].Frequency != 5 {
		t.Fatalf("previous view lost after an all-dead round: %+v ok=%v", entries, ok)
	}
	if !info.Stale {
		t.Fatal("view not marked stale after an all-dead round")
	}
}

// TestGatherCanceledRoundChargesNoSite runs rounds under a context that
// is already done. They must end uncommitted, naming the cancellation,
// and leave every site's breaker, skip count and health as they were: a
// caller that gives up says nothing about the sites.
func TestGatherCanceledRoundChargesNoSite(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{Trip: 2}, fastPolicy())
	tc.load(100)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		rep := tc.g.Round(canceled)
		if rep.Committed || !strings.Contains(rep.Reason, "canceled") {
			t.Fatalf("round %d under a canceled context: committed=%v reason %q", i, rep.Committed, rep.Reason)
		}
		for _, sr := range rep.Sites {
			if sr.Health != SiteHealthy || len(sr.Skips) != 0 {
				t.Fatalf("round %d charged %s for the cancellation: %+v", i, sr.Site, sr)
			}
		}
	}
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("healthy round after canceled ones did not commit: %s", rep.Reason)
	}
	st := tc.g.Stats()
	for site, state := range st.BreakerState {
		if state != BreakerClosed || st.SiteSkips[site] != 0 {
			t.Fatalf("site %s: breaker %v, %d skips after canceled rounds, want closed and 0",
				site, state, st.SiteSkips[site])
		}
	}

	// A readiness probe that fails only because the context is done must
	// not restart an open breaker's cooldown.
	site := tc.topo.Sites()[0]
	tc.fakes[site].setDown(true)
	tc.g.Round(context.Background())
	tc.g.Round(context.Background())
	if st := tc.g.Stats(); st.BreakerState[site] != BreakerOpen {
		t.Fatalf("breaker %v after 2 failed rounds, want open", st.BreakerState[site])
	}
	tc.fakes[site].setDown(false)
	tc.clock = tc.clock.Add(5 * time.Second) // the default cooldown
	tc.g.Round(canceled)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round after the cooldown did not commit: %s", rep.Reason)
	}
	if st := tc.g.Stats(); st.BreakerState[site] != BreakerClosed {
		t.Fatalf("breaker %v after the cooldown, want closed: the canceled probe restarted it",
			st.BreakerState[site])
	}
}

// TestGatherCancelInterruptsBackoff cancels a round while its only
// replica's fetch is in flight: once during a 10s backoff wait with the
// default sleep, once inside the last attempt's stalled fetch. The round
// must end promptly and charge the site nothing.
func TestGatherCancelInterruptsBackoff(t *testing.T) {
	for _, tt := range []struct {
		name     string
		attempts int
		stall    bool
	}{
		{"backoff", 4, false},
		{"last attempt", 1, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc, site := deadReplicaCluster(t, RetryPolicy{
				Attempts:  tt.attempts,
				BaseDelay: 10 * time.Second,
				MaxDelay:  10 * time.Second,
				rand:      func() float64 { return 1 },
			})
			tc.fakes[site].stall = tt.stall
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(100*time.Millisecond, cancel)
			start := time.Now()
			rep := tc.g.Round(ctx)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("canceled round took %v, want < 1s", elapsed)
			}
			if got := tc.fakes[site].calls(); got != 1 {
				t.Fatalf("site fetched %d times, want 1 (the cancel lands during the first)", got)
			}
			if rep.Committed || !strings.Contains(rep.Reason, "canceled") {
				t.Fatalf("canceled round: committed=%v reason %q", rep.Committed, rep.Reason)
			}
			if sr := siteReport(t, rep, site); sr.Health != SiteHealthy || sr.Failures != 0 || len(sr.Skips) != 0 {
				t.Fatalf("site charged for the cancellation: %+v", sr)
			}
		})
	}
}
