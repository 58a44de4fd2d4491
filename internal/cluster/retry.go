package cluster

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy bounds the capped exponential backoff applied when a
// site's checkpoint fetch fails. The zero value selects the defaults.
// Each wait is fully jittered: the sleep before attempt n is a uniform
// random fraction of the capped exponential delay min(BaseDelay·2ⁿ⁻¹,
// MaxDelay), so N clients retrying one flapped server spread their
// re-fetches out instead of hammering it again in lockstep.
type RetryPolicy struct {
	// Attempts is the total number of fetch tries per site (default 4).
	Attempts int
	// BaseDelay is the backoff ceiling after the first failure (default
	// 50ms); each further failure doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the doubling (default 1s), so a long outage costs a
	// bounded wait per attempt instead of an unbounded one.
	MaxDelay time.Duration

	// sleep waits out one backoff, returning early once ctx is done;
	// tests replace it to record the schedule.
	sleep func(ctx context.Context, d time.Duration)
	// rand replaces the jitter source in tests. It must return a value in
	// [0, 1]; the sleep before each retry is rand()·delay (full jitter), so
	// a source pinned to 1 recovers the deterministic un-jittered schedule.
	rand func() float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	if p.rand == nil {
		p.rand = rand.Float64
	}
	return p
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
