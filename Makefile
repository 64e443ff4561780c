# structix — build/test/bench entry points.

GO ?= go

.PHONY: all build vet test test-short race stress serve-stress serve-smoke repl-smoke crash-test cover bench bench-batch bench-shard bench-scale bench-repl bench-smoke fuzz examples experiments loc ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Repeated race-enabled runs of the concurrency surface: lock-free readers
# against DB writers over both index families — batches, per-edge updates,
# subtree round trips, the A(k) oracle stream and pinned snapshots — one
# writer per shard of a multi-shard DB, frozen graph views read while
# one writer runs every graph mutator, and refinement rounds keyed on
# one and on four workers.
stress:
	$(GO) test -race -count=3 -run 'TestDBRace|TestDBAkOracle|TestSnapshot|TestPinnedSnapshot|TestShardedConcurrentWriters' .
	$(GO) test -race -count=3 -run 'TestFrozen' ./internal/graph/
	$(GO) test -race -count=3 -run 'TestRefineTouchedOnly' ./internal/partition/

# Race-enabled stress of the serving layer: readers against the
# group-commit loop, graceful shutdown under load, admission control,
# and the sharded scatter-gather/routing surface.
serve-stress:
	$(GO) test -race -count=2 -run 'TestServer|TestCommitter|TestSharded|TestCommitMetrics' ./internal/server/

# End-to-end smoke of xsiserve on an ephemeral port: client round-trip
# (health, query, atomic update, typed rejection, stats), graceful
# shutdown sealing the durable store, reopen + recovery check.
serve-smoke:
	$(GO) run ./cmd/xsiserve -smoke

# Replication smoke: a durable leader plus two read replicas bootstrapped
# over HTTP, a leader write read back from each replica under min_epoch,
# typed not-leader redirects, and the ReplicaSet round-robin client.
repl-smoke:
	$(GO) run ./cmd/xsiserve -smoke-repl

# Crash-recovery gates: journal-replay bit-identity, crash-injection
# property tests (random tail damage recovers a commit prefix, never a
# partial batch; on a sharded store, every shard its own prefix), the
# kill -9 re-exec test (zero acked commits lost under fsync=always),
# and the subtree-frame replay-equivalence pin.
crash-test:
	$(GO) test -race -count=1 -run 'TestCrash|TestShardedCrash|TestKill9|TestRecovery|TestSubgraphFrame|TestDeleteSubtreeSurvives|TestTornSegment|TestSnapshotFallback|TestOpenFailsOnJournalGap' .

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Batched (ApplyBatch) vs per-edge maintenance.
bench-batch:
	$(GO) test -bench=Batch -benchmem .

# Sharded write scale-out: throughput vs shard count (1/2/4/8) plus the
# 90/10 scatter-gather mix; see BENCH_shard.json for the committed run
# and DESIGN.md §9 for the partitioning scheme.
bench-shard:
	$(GO) run ./cmd/xsibench -exp shard -json BENCH_shard.json

# Extent-storage scale experiment: dense vs compressed codec on a 50×
# XMark graph (~13M dnodes) — extent bytes/node, freeze time, compiled
# query latency per codec; see BENCH_scale.json for the committed run
# and DESIGN.md §10 for the block encoding.
bench-scale:
	$(GO) run ./cmd/xsibench -exp scale -factor 50 -json BENCH_scale.json

# Read-replica scale-out: aggregate read QPS vs replica count (leader
# only, 1, 3) plus the min_epoch staleness distribution after leader
# acks; see BENCH_repl.json for the committed run and DESIGN.md §11 for
# the stream protocol and the single-core measurement mode.
bench-repl:
	$(GO) run ./cmd/xsibench -exp repl -json BENCH_repl.json

# One-iteration pass over every benchmark in the module: keeps them
# compiling and running without paying for stable timings (CI runs this).
# Includes internal/server's BenchmarkUpdateClosedLoop/writers={1,2,8,32},
# the commit pipeline's concurrency table (DESIGN.md §6); for its real
# numbers: go test -run '^$$' -bench UpdateClosedLoop -benchtime 3s ./internal/server
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Short fuzzing pass over every fuzz target (seed corpora always run as
# part of `make test`).
fuzz:
	$(GO) test -fuzz=FuzzMaintenance -fuzztime=20s ./internal/oneindex/
	$(GO) test -fuzz=FuzzMaintenance -fuzztime=20s ./internal/akindex/
	$(GO) test -fuzz=FuzzBatchOps -fuzztime=20s ./internal/oneindex/
	$(GO) test -fuzz=FuzzBatchOps -fuzztime=20s ./internal/akindex/
	$(GO) test -fuzz=FuzzPublish -fuzztime=10s ./internal/snap/
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/xmlload/
	$(GO) test -fuzz=FuzzLoaderMultiDoc -fuzztime=10s ./internal/xmlload/
	$(GO) test -fuzz=FuzzDecodeQuery -fuzztime=10s ./internal/server/
	$(GO) test -fuzz=FuzzDecodeUpdate -fuzztime=10s ./internal/server/
	$(GO) test -fuzz=FuzzWriteRecord -fuzztime=10s .
	$(GO) test -fuzz=FuzzLoadDatabase -fuzztime=10s ./internal/persist/
	$(GO) test -fuzz=FuzzFootprint -fuzztime=10s ./internal/qcache/
	$(GO) test -fuzz=FuzzDecodeExtent -fuzztime=10s ./internal/extent/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzParsePath -fuzztime=10s ./internal/query/
	$(GO) test -fuzz=FuzzRefine -fuzztime=10s ./internal/partition/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/auction
	$(GO) run ./examples/movies
	$(GO) run ./examples/akdemo
	$(GO) run ./examples/summaries
	$(GO) run ./examples/server
	$(GO) run ./examples/adaptive

# Regenerate the paper's evaluation at a laptop-friendly scale; see
# EXPERIMENTS.md for the -scale trade-off.
experiments:
	$(GO) run ./cmd/xsibench -exp all -scale 16

# Non-test Go lines per package — the root package, internal/* and cmd/* —
# and their total, bench/ excluded: the figure ROADMAP's design items
# report before and after.
loc:
	@for d in . internal/* cmd/*; do \
		n=$$(cat $$(ls $$d/*.go 2>/dev/null | grep -v _test.go) /dev/null | wc -l); \
		printf '%7d %s\n' $$n $$d; \
	done | awk '{t += $$1; print} END {printf "%7d total\n", t}'

# What CI runs — the same steps, in the same order, as
# .github/workflows/ci.yml; change both together. Build, vet, the gofmt
# gate (no file may differ from its gofmt form), race-enabled
# tests (which already cover the sharded-equivalence, crash-recovery,
# replication and cache-footprint suites once — `make crash-test` etc.
# re-run them alone), the concurrent-stress and server-stress passes
# (-count>1), the publication-scaling gate (bytes a commit's snapshot
# publication allocates must follow what it dirtied, not the graph; not
# race-enabled), every example program end to end (`make examples`), the
# xsiserve smoke (which covers a 4-shard boot), the replication smoke
# (leader + 2 replicas, min_epoch read-back), short path-parser,
# extent-decoder, frame-reader (a decoded payload re-encodes byte for
# byte) and refinement-engine (FuzzRefine) fuzz
# passes, the maintenance fuzz passes (FuzzMaintenance and FuzzBatchOps
# over both index families), the publication fuzz pass (FuzzPublish: any
# interleaving of writes, stale predecessors, reference freezes and codec
# switches publishes what a fresh Freeze does), the update-decoder fuzz
# pass (FuzzDecodeUpdate: any /v1/update body leaves the store with a
# live root and a clean Validate), the write-record fuzz pass
# (FuzzWriteRecord: on any write stream the leader, a follower fed its
# records and recovery from its journal publish equal snapshots, and the
# two journals are byte-identical), the snapshot-loader fuzz pass
# (FuzzLoadDatabase: any database stream of either format version, gzip'd
# or not, is an error or a database whose graph and 1-index validate,
# with bounded allocation), the result-cache footprint fuzz pass
# (FuzzFootprint: the sparse slot bitmap's intersection test equals a
# sorted-list merge, its slot count round-trips and its bytes stay within
# 12 per non-zero 64-slot word), the shard-, repl- and
# scale-bench smokes, and a one-iteration smoke pass over every benchmark
# in the module.
ci: build vet
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestDBRace|TestDBAkOracle|TestSnapshot|TestPinnedSnapshot' .
	$(GO) test -race -count=3 -run 'TestFrozen' ./internal/graph/
	$(GO) test -race -count=2 -run 'TestServer|TestCommitter|TestSharded|TestCommitMetrics' ./internal/server/
	$(GO) test -count=1 -run 'TestPublicationScaling' .
	$(MAKE) examples
	$(GO) run ./cmd/xsiserve -smoke
	$(GO) run ./cmd/xsiserve -smoke-repl
	$(GO) test -fuzz=FuzzParsePath -fuzztime=10s ./internal/query/
	$(GO) run ./cmd/xsibench -exp shard -scale 64
	$(GO) run ./cmd/xsibench -exp repl
	$(GO) test -fuzz=FuzzDecodeExtent -fuzztime=10s ./internal/extent/
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wal/
	$(GO) test -fuzz=FuzzRefine -fuzztime=10s ./internal/partition/
	$(GO) test -fuzz=FuzzMaintenance -fuzztime=10s ./internal/oneindex/
	$(GO) test -fuzz=FuzzMaintenance -fuzztime=10s ./internal/akindex/
	$(GO) test -fuzz=FuzzBatchOps -fuzztime=10s ./internal/oneindex/
	$(GO) test -fuzz=FuzzBatchOps -fuzztime=10s ./internal/akindex/
	$(GO) test -fuzz=FuzzPublish -fuzztime=10s ./internal/snap/
	$(GO) test -fuzz=FuzzDecodeUpdate -fuzztime=10s ./internal/server/
	$(GO) test -fuzz=FuzzWriteRecord -fuzztime=10s .
	$(GO) test -fuzz=FuzzLoadDatabase -fuzztime=10s ./internal/persist/
	$(GO) test -fuzz=FuzzFootprint -fuzztime=10s ./internal/qcache/
	$(GO) run ./cmd/xsibench -exp scale -factor 2
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

clean:
	$(GO) clean ./...
