// Command sigcoord coordinates a fleet of sigserver nodes into one
// cluster-wide significance view.
//
// Usage:
//
//	sigcoord -addr :9090 -sites http://n1:8080,http://n2:8080,http://n3:8080 \
//	    -partitions 16 -replicas 2 -interval 2s
//
// Then:
//
//	curl -s 'localhost:9090/v1/topk?k=10'
//	curl -s localhost:9090/v1/cluster/status
//	curl -s localhost:9090/v1/stats
//	curl -s localhost:9090/metrics
//
// The coordinator owns no stream data. It derives the partition map from
// the member list (rendezvous hashing, so every process with the same
// -sites derives the same map), gathers each partition's checkpoint from
// its replica sites every -interval, keeps exactly one replica image per
// partition, and commits those images atomically as the cluster view,
// which /v1/topk ranks with one selection across every partition. Producers
// write the same keys to all replicas of a partition (siggen -cluster
// does this); replication is for availability, not weight, and counts are
// never inflated by R.
//
// Failure behavior: remote calls carry -fetch-timeout deadlines and
// retry transient failures with capped exponential backoff under full
// jitter; corrupt checkpoints are never retried. A site failing
// -breaker-trip consecutive rounds has its circuit breaker opened and
// costs nothing until a -breaker-cooldown readiness probe passes. A
// partition is healthy when at least ⌈R/2⌉ replicas report; when any
// partition loses quorum the round does not commit and the previous view
// keeps serving, marked stale with its age. A restarted node rejoins
// automatically on its next passed probe; a restarted coordinator
// rebuilds the view from the sites within one round.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sigstream/internal/cluster"
	"sigstream/internal/coord"
	"sigstream/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":9090", "listen address")
		sites        = flag.String("sites", "", "comma-separated sigserver base URLs (required)")
		partitions   = flag.Int("partitions", 16, "partition count P")
		replicas     = flag.Int("replicas", 2, "replication factor R (capped at the site count)")
		interval     = flag.Duration("interval", 2*time.Second, "gather cadence")
		fetchTimeout = flag.Duration("fetch-timeout", 2*time.Second, "deadline on every remote call")
		attempts     = flag.Int("retry-attempts", 4, "fetch tries per site per round")
		retryBase    = flag.Duration("retry-base", 50*time.Millisecond, "backoff ceiling after the first failure (doubles per failure)")
		retryMax     = flag.Duration("retry-max", time.Second, "backoff ceiling cap")
		breakerTrip  = flag.Int("breaker-trip", 3, "consecutive failed rounds before a site's breaker opens")
		breakerCool  = flag.Duration("breaker-cooldown", 5*time.Second, "wait before an open breaker probes the site's readiness")
		resolve      = flag.Int("resolve", 64, "top items per partition whose keys are resolved for display (negative disables)")
		closePeriods = flag.Bool("close-periods", false, "drive period boundaries: close every partition's period before each gather")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		slow         = flag.Duration("slow", 0, "slow-request log threshold (0 disables)")
	)
	flag.Parse()

	siteList := splitSites(*sites)
	if len(siteList) == 0 {
		log.Fatal("sigcoord: -sites is required (comma-separated sigserver base URLs)")
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("sigcoord: bad -log-level %q: %v", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	c, err := coord.New(coord.Config{
		Sites:        siteList,
		Partitions:   *partitions,
		Replicas:     *replicas,
		Interval:     *interval,
		FetchTimeout: *fetchTimeout,
		Retry: cluster.RetryPolicy{
			Attempts:  *attempts,
			BaseDelay: *retryBase,
			MaxDelay:  *retryMax,
		},
		Breaker: cluster.BreakerConfig{
			Trip:     *breakerTrip,
			Cooldown: *breakerCool,
		},
		ResolveNames: *resolve,
		ClosePeriods: *closePeriods,
		Logger:       logger,
	})
	if err != nil {
		log.Fatalf("sigcoord: %v", err)
	}

	topo := c.Topology()
	logger.Info("sigcoord starting",
		"addr", *addr,
		"sites", len(topo.Sites()),
		"partitions", topo.Partitions(),
		"replicas", topo.Replicas(),
		"quorum", topo.Quorum(),
		"interval", *interval,
		"close_periods", *closePeriods)

	c.Start()
	srv := &http.Server{
		Addr:    *addr,
		Handler: obs.LogRequests(logger, *slow, c),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("sigcoord: %v", err)
	case <-ctx.Done():
		stop()
		logger.Info("sigcoord shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("sigcoord: drain incomplete", "err", err)
		}
		if err := c.Close(); err != nil {
			logger.Error("sigcoord: close", "err", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("sigcoord: listener", "err", err)
		}
		logger.Info("sigcoord stopped")
	}
}

// splitSites parses the -sites list, trimming blanks so a trailing comma
// is harmless.
func splitSites(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(part); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
