# Convenience targets for the sigstream repository.

GO ?= go

.PHONY: all build test race vet staticcheck lint siglint siglint-escapes \
	cover bench bench-figures bench-core benchcmp bench-pipeline-smoke \
	bench-mc bench-ingest-smoke bench-gather eval eval-paper fuzz fuzz-smoke \
	chaos chaos-wal chaos-cluster examples clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when installed (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 \
		&& staticcheck ./... \
		|| echo "staticcheck not installed; skipping"

# The full lint surface: go vet, staticcheck (if installed), the
# repo-specific analyzers, the zero-alloc hot-path gate, and the
# suppression audit.
lint: vet staticcheck siglint siglint-escapes siglint-suppressions

# Repo-specific analyzers (see DESIGN.md "Static analysis").
siglint:
	$(GO) run ./cmd/siglint ./...

# Verify every //sig:noalloc function compiles without heap escapes.
siglint-escapes:
	$(GO) run ./cmd/siglint -escapes ./...

# Audit every //siglint:ignore; stale suppressions fail the build.
siglint-suppressions:
	$(GO) run ./cmd/siglint -suppressions

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Micro-benchmarks of every structure.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# One benchmark per paper figure (quick scale).
bench-figures:
	$(GO) test -bench=Fig -benchtime=1x -run=^$$ .

# Hot-path benchmarks (LTC core, read path + pipeline), 10 samples each, recorded so
# benchcmp can diff them against a baseline.
bench-core:
	$(GO) test -run=^$$ -bench='InsertLTC|InsertBatchLTC|TopKLTC|MergeShardedCheckpoints|Pipeline' \
		-benchmem -count=10 . | tee results/bench_head.txt

# One coordinator gather round against three loopback nodes (P = 8,
# R = 2, 64 KiB partitions): ns/op, plus the checkpoint images, KiB and
# top-name requests per round; then the committed view's TopK(1000) over
# 8 partition images of 64 KiB (what CI's read-path smoke step runs).
bench-gather:
	$(GO) test -run=^$$ -bench=GatherRound -benchtime=10x -benchmem ./internal/coord/
	$(GO) test -run=^$$ -bench=ViewTopK -benchmem ./internal/cluster/

# Compare the current hot-path numbers against the recorded PR 2 baseline.
# Uses benchstat when installed (go install
# golang.org/x/perf/cmd/benchstat@latest); otherwise the raw samples are
# still written to results/bench_head.txt.
benchcmp: bench-core
	@command -v benchstat >/dev/null 2>&1 \
		&& benchstat results/bench_pr2_ltc.txt results/bench_head.txt \
		|| echo "benchstat not installed; skipping (raw numbers in results/bench_head.txt)"

# Fast sanity run of the pipeline benchmarks (what CI runs on every push).
bench-pipeline-smoke:
	$(GO) test -run=^$$ -bench=Pipeline -benchtime=100x .

# The wire-ingestion comparison behind BENCH_8.json: the sigbench rig
# prices text-HTTP vs binary TCP vs pipelined binary over a batch-size
# sweep on live loopback servers, then the micro-benchmarks pin the
# per-frame decode and per-transport costs. On a multi-core host, see
# EXPERIMENTS.md "Multi-core ingest procedure" for the scaling run.
bench-mc:
	$(GO) run ./cmd/sigbench -fig ingest
	$(GO) test -run=^$$ -bench='DecodeBatch|IngestBinaryTCP' -benchmem ./internal/ingest/
	$(GO) test -run=^$$ -bench='InsertHTTP' -benchmem ./internal/server/

# Fast sanity run of the ingest benchmarks (what CI runs on every push),
# the tenant's unique-key ingest (names held, bytes per arrival) included.
bench-ingest-smoke:
	$(GO) test -run=^$$ -bench='DecodeBatch|IngestBinaryTCP' -benchtime=100x ./internal/ingest/
	$(GO) test -run=^$$ -bench='InsertHTTP' -benchtime=100x ./internal/server/
	$(GO) test -run=^$$ -bench='IngestWireUniqueKeys' -benchtime=100x -benchmem ./internal/tenant/

# Regenerate the full evaluation (quick scale) into results/.
eval:
	$(GO) run ./cmd/sigbench -fig all -out results > results/quick_all.txt

# Paper-scale evaluation (slow: 10M-item workloads).
eval-paper:
	$(GO) run ./cmd/sigbench -fig all -scale paper -out results-paper

fuzz:
	$(GO) test -fuzz=FuzzOps -fuzztime=30s ./internal/ltc/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=30s ./internal/ltc/
	$(GO) test -fuzz=FuzzFastmod -fuzztime=30s ./internal/ltc/
	$(GO) test -fuzz=FuzzReadText -fuzztime=30s ./internal/traceio/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=30s ./internal/traceio/
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/snapshot/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=30s ./internal/wal/
	$(GO) test -fuzz=FuzzIngestDecode -fuzztime=30s ./internal/ingest/

# The quick fuzz pass CI runs on every push (10s per target).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzOps$$' -fuzztime=10s ./internal/ltc/
	$(GO) test -run=^$$ -fuzz='^FuzzCheckpoint$$' -fuzztime=10s ./internal/ltc/
	$(GO) test -run=^$$ -fuzz='^FuzzFastmod$$' -fuzztime=10s ./internal/ltc/
	$(GO) test -run=^$$ -fuzz='^FuzzReadText$$' -fuzztime=10s ./internal/traceio/
	$(GO) test -run=^$$ -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/traceio/
	$(GO) test -run=^$$ -fuzz='^FuzzSnapshotDecode$$' -fuzztime=10s ./internal/snapshot/
	$(GO) test -run=^$$ -fuzz='^FuzzWALDecode$$' -fuzztime=10s ./internal/wal/
	$(GO) test -run=^$$ -fuzz='^FuzzIngestDecode$$' -fuzztime=10s ./internal/ingest/

# The fault-injection suite under race: in the library pipeline a tracker
# panic poisons the pipeline and a slow shard backs up its ring; torn
# snapshots, binary ingest crashes, and the server's kill -9 recovery
# round-trips.
chaos:
	$(GO) test -race -run '^TestChaos' ./internal/snapshot/ ./internal/server/ .

# The WAL durability suite under race: kill -9 at every wal/* fault point
# must recover bit-identically to the acknowledged prefix, per tenant,
# with bounded disk across snapshot/truncate cycles.
chaos-wal:
	$(GO) test -race -run '^TestChaosWAL' ./internal/server/
	$(GO) test -race -run '^TestWAL' ./internal/tenant/
	$(GO) test -race ./internal/wal/

# The networked-cluster chaos matrix under race: real sigserver and
# sigcoord processes over real TCP, kill -9 of each node in turn at R=2
# (the view stays available within the accuracy gate, the dead site shows
# in /v1/cluster/status, the restarted node rejoins automatically), plus a
# coordinator kill/restart. The fine-grained fault-point suites (torn
# checkpoints, commit crashes, breaker trips, quorum loss) live in
# internal/cluster and internal/coord and run here under race too.
chaos-cluster:
	$(GO) test -race -run '^TestChaosCluster' -v ./cmd/sigcoord/
	$(GO) test -race ./internal/cluster/ ./internal/coord/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ddos
	$(GO) run ./examples/website
	$(GO) run ./examples/congestion
	$(GO) run ./examples/distributed
	$(GO) run ./examples/trending

clean:
	rm -f cover.out
