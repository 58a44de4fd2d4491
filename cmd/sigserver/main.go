// Command sigserver serves a sigstream tracker over HTTP.
//
// Usage:
//
//	sigserver -addr :8080 -mem 1048576 -alpha 1 -beta 10
//
// Then:
//
//	printf 'alice\nbob\nalice\n' | curl -s --data-binary @- localhost:8080/v1/insert
//	curl -s -X POST localhost:8080/v1/period
//	curl -s 'localhost:8080/v1/top?k=5'
//	curl -s 'localhost:8080/v1/query?key=alice'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//
// Configuration: every flag below has a JSON key of the same name with
// dashes as underscores, loadable from a file with -config. Explicitly
// set flags take precedence over the file, the file over built-in
// defaults; the fully resolved configuration is logged at startup so an
// operator can see exactly what the process is running with:
//
//	sigserver -config /etc/sigserver.json -addr :9090
//
// Multi-tenant: every /v1/* route above also exists tenant-scoped as
// /v1/t/{ns}/* (insert, period, top, query, stats, checkpoint,
// restore), where {ns} is a namespace of [a-z0-9._-], 1-64 bytes,
// starting with a letter or digit.
// Inserting into an unknown namespace creates its tracker lazily; GET
// /v1/tenants lists namespaces, POST /v1/tenants creates one up front,
// and DELETE /v1/t/{ns} drops one. The legacy un-namespaced routes are
// aliases for the pinned "default" tenant. -tenant-mem sizes each
// tenant's tracker, -tenant-budget caps resident tenant memory overall
// (cold tenants spill to -snapshot-dir and revive on touch),
// -tenant-quota/-tenant-burst rate-limit per-tenant ingest (429 +
// Retry-After on breach), -tenant-idle spills tenants idle that long,
// and -tenant-max bounds the number of namespaces.
//
// Durability: -snapshot-dir enables crash-safe checkpoints — the tracker
// is recovered from the newest valid snapshot at startup, checkpointed
// every -snapshot-interval, and checkpointed once more on SIGINT/SIGTERM
// before the process exits. A kill -9 loses at most one interval of
// arrivals — unless -wal-dir is also set, which adds a per-tenant
// write-ahead log: each insert is acknowledged only after its record is
// fsynced, recovery replays the log tail over the newest snapshot, and
// nothing a client was told succeeded is ever lost. -wal-sync widens the
// group-commit window (0 fsyncs every insert inline); -wal-segment sets
// the segment rotation size. Run the WAL together with -snapshot-dir:
// snapshots are what truncate the log, so without them it grows without
// bound.
//
// Wire-speed ingest: -ingest-addr opens the framed binary ingest
// listener (length-prefixed, CRC32-trailered batches of (key, weight)
// records over persistent TCP; wire format in internal/ingest and the
// README), which skips HTTP and JSON entirely and decodes batches
// zero-copy into the tracker's native form. Batches are acked only
// after the WAL fsync when -wal-dir is set — the same durability
// contract as /v1/insert. -ingest-udp adds a fire-and-forget UDP
// listener for lossy telemetry (no acks; drops are counted in
// sigstream_ingest_udp_drops_total), and -ingest-max-frame caps frame
// payloads. siggen -ingest streams a workload straight at it.
//
// Robustness: request bodies are capped at -max-body (413 beyond it) and
// connections are bounded by -read-timeout/-write-timeout. Every insert
// is applied before it is acknowledged: a 200 (or a binary StatusOK)
// means the batch is applied, and with -wal-dir fsynced first. /healthz
// is the liveness probe, /readyz the readiness probe (503 during startup
// restore and while shutting down).
//
// Observability: every request is logged structurally (method, path,
// status, bytes, duration); requests slower than -slow log at WARN.
// -pprof mounts net/http/pprof under /debug/pprof for live CPU and heap
// profiling — leave it off unless the listener is trusted-network only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigstream/internal/obs"
	"sigstream/internal/server"
)

func main() {
	// Flags bind into a scratch Options so explicitly-set flags can be
	// overlaid onto a -config file afterwards (flags beat file, file
	// beats defaults).
	fo := server.DefaultOptions()
	configPath := flag.String("config", "", "JSON config file; explicitly set flags take precedence over it")

	flag.StringVar(&fo.Addr, "addr", fo.Addr, "listen address")
	flag.IntVar(&fo.MemoryBytes, "mem", fo.MemoryBytes, "tracker memory budget in bytes")
	flag.Float64Var(&fo.Alpha, "alpha", fo.Alpha, "frequency weight α")
	flag.Float64Var(&fo.Beta, "beta", fo.Beta, "persistency weight β")
	flag.IntVar(&fo.Shards, "shards", fo.Shards, "shard count (0 = GOMAXPROCS)")
	flag.Float64Var(&fo.Decay, "decay", fo.Decay, "per-period decay factor λ ∈ (0,1); 0 = all-history")
	flag.Var(&fo.Slow, "slow", "slow-request log threshold (0 disables)")
	flag.StringVar(&fo.LogLevel, "log-level", fo.LogLevel, "log level: debug, info, warn, error (debug logs every request)")
	flag.BoolVar(&fo.Pprof, "pprof", fo.Pprof, "mount /debug/pprof (opt-in; exposes profiling data)")
	flag.StringVar(&fo.SnapshotDir, "snapshot-dir", fo.SnapshotDir, "snapshot directory; empty disables crash-safe checkpoints")
	flag.Var(&fo.SnapshotInterval, "snapshot-interval", "periodic checkpoint cadence (0 = only the final snapshot on shutdown)")
	flag.IntVar(&fo.SnapshotRetain, "snapshot-retain", fo.SnapshotRetain, "snapshots to keep (0 = default)")
	flag.IntVar(&fo.TenantMem, "tenant-mem", fo.TenantMem, "per-tenant tracker memory budget in bytes (0 = same as -mem)")
	flag.Int64Var(&fo.TenantBudget, "tenant-budget", fo.TenantBudget, "total resident memory budget across tenants in bytes (0 = unlimited)")
	flag.Float64Var(&fo.TenantQuota, "tenant-quota", fo.TenantQuota, "per-tenant sustained ingest quota in keys/sec (0 = unlimited)")
	flag.IntVar(&fo.TenantBurst, "tenant-burst", fo.TenantBurst, "per-tenant ingest burst in keys (0 = quota-derived default)")
	flag.Var(&fo.TenantIdle, "tenant-idle", "spill tenants idle this long to disk (0 = never)")
	flag.IntVar(&fo.TenantMax, "tenant-max", fo.TenantMax, "maximum number of tenant namespaces (0 = unlimited)")
	flag.StringVar(&fo.WALDir, "wal-dir", fo.WALDir, "write-ahead log directory; empty disables the WAL")
	flag.Var(&fo.WALSync, "wal-sync", "WAL group-commit window; 0 fsyncs every insert inline")
	flag.Int64Var(&fo.WALSegment, "wal-segment", fo.WALSegment, "WAL segment rotation threshold in bytes (0 = default)")
	flag.StringVar(&fo.IngestAddr, "ingest-addr", fo.IngestAddr, "framed binary ingest TCP listen address; empty disables the listener")
	flag.StringVar(&fo.IngestUDP, "ingest-udp", fo.IngestUDP, "UDP fire-and-forget ingest listen address; empty disables it")
	flag.IntVar(&fo.IngestMaxFrame, "ingest-max-frame", fo.IngestMaxFrame, "binary ingest frame payload cap in bytes (0 = default 1 MiB)")
	flag.Int64Var(&fo.MaxBody, "max-body", fo.MaxBody, "request body cap in bytes (0 = default 32 MiB)")
	flag.Var(&fo.ReadTimeout, "read-timeout", "per-connection read deadline (0 disables)")
	flag.Var(&fo.WriteTimeout, "write-timeout", "per-connection write deadline (0 disables)")
	flag.Var(&fo.DrainTimeout, "drain-timeout", "graceful shutdown deadline for in-flight requests")
	flag.Parse()

	opts := fo
	if *configPath != "" {
		loaded, err := server.LoadOptions(*configPath)
		if err != nil {
			log.Fatalf("sigserver: %v", err)
		}
		opts = loaded
		// Re-apply every flag the operator set explicitly: flags beat the
		// config file field by field, not wholesale. ApplyFlag maps the
		// flag name to its Options field through the JSON tag, so every
		// flag bound above is covered without a parallel switch here
		// (-config itself has no Options field and is a no-op).
		flag.Visit(func(f *flag.Flag) {
			opts.ApplyFlag(f.Name, fo)
		})
	}
	if err := opts.Validate(); err != nil {
		log.Fatalf("sigserver: bad configuration: %v", err)
	}

	level, err := opts.Level()
	if err != nil {
		log.Fatalf("sigserver: bad -log-level %q: %v", opts.LogLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// The resolved configuration — defaults, file and flags merged — in
	// the same JSON shape -config accepts, so an operator can round-trip
	// the log line straight back into a config file.
	if resolved, err := json.Marshal(opts); err == nil {
		logger.Info("resolved configuration", "config", string(resolved))
	}
	if opts.WALDir != "" && opts.SnapshotDir == "" {
		logger.Warn("wal-dir set without snapshot-dir: only snapshots truncate the log, disk use is unbounded")
	}

	h := server.New(opts.ServerConfig(logger))
	if opts.SnapshotDir != "" {
		if err := h.StartSnapshots(opts.SnapshotOptions()); err != nil {
			log.Fatalf("sigserver: snapshots: %v", err)
		}
		logger.Info("snapshots enabled", "dir", opts.SnapshotDir, "interval", opts.SnapshotInterval)
	}
	if opts.IngestAddr != "" || opts.IngestUDP != "" {
		// After recovery: the first binary frame must land on replayed
		// state, not race it.
		if err := h.StartIngest(opts.IngestOptions()); err != nil {
			log.Fatalf("sigserver: ingest: %v", err)
		}
		ing := h.Ingest()
		logger.Info("binary ingest enabled", "tcp", ing.Addr(), "udp", ing.UDPAddr())
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	root := obs.LogRequests(logger, time.Duration(opts.Slow), mux)

	srv := &http.Server{
		Addr:         opts.Addr,
		Handler:      root,
		ReadTimeout:  time.Duration(opts.ReadTimeout),
		WriteTimeout: time.Duration(opts.WriteTimeout),
	}

	// Graceful shutdown: stop accepting, drain in-flight requests up to
	// the deadline, then take the final snapshot and close the logs.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	logger.Info("sigserver listening", "addr", opts.Addr, "mem_bytes", opts.MemoryBytes,
		"alpha", opts.Alpha, "beta", opts.Beta, "shards", opts.Shards, "pprof", opts.Pprof,
		"snapshot_dir", opts.SnapshotDir, "wal_dir", opts.WALDir)

	select {
	case err := <-errc:
		log.Fatalf("sigserver: %v", err)
	case <-ctx.Done():
		stop()
		logger.Info("sigserver shutting down", "drain_timeout", opts.DrainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(opts.DrainTimeout))
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("sigserver: drain incomplete", "err", err)
		}
		if err := h.Close(); err != nil {
			logger.Error("sigserver: close", "err", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("sigserver: listener", "err", err)
		}
		logger.Info("sigserver stopped")
	}
}
