# BENCH_JSON is where `make bench` drops its machine-readable results;
# CI uploads it as an artifact so the perf trajectory is recorded per PR.
# BENCH_BASELINE is what `make bench-compare` diffs against.
BENCH_JSON ?= BENCH_PR23.json
BENCH_BASELINE ?= BENCH_PR10.json

.PHONY: build test race crash replication-crash cover hypo hypo-full bench bench-compare

build:
	go build ./...

test: build
	go test ./...

race:
	go test -race ./...

# crash runs the power-cut trials and the recovery tests: the WAL's
# restart watermark and parallel RecoverWAL against its record-at-a-time
# oracle (the latter is race-checked by `make race`).
crash:
	go test -run 'Crash|Trial|Recover' -count=5 ./internal/wal/ ./internal/crashprop/ ./qbets/

# replication-crash repeats the replicated-serving fault trials (leader
# power cut, partition-and-heal, epoch-fenced failover, snapshot
# catch-up, three-follower fan-out, K-of-N commit quorum, and a torn
# mid-chunk snapshot transfer) race-enabled: timing-rich code, so
# -count=5 -race is the tier that shakes out interleavings a single run
# would miss.
replication-crash:
	go test -count=5 -race ./internal/repl/
	go test -run 'Crash|Repl' -count=5 -race ./internal/crashprop/

# cover writes a per-package coverage profile and prints the function
# summary; CI uploads both as the coverage artifact.
cover:
	go test -cover -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -1

# hypo runs the hypothesis smoke grid (the CI tier: H-Coverage, H-Trim,
# H-Durability, H-FollowerConsistency, H-SLOSizing on a small
# representative grid). hypo-full is the nightly
# grid — every queue, (q,C) pair, and policy combination — run twice with
# byte-identical verdicts enforced. See docs/TESTING.md.
hypo:
	go run ./cmd/qbets-hypo run -grid smoke

hypo-full:
	go run ./cmd/qbets-hypo run -grid full -out verdict-full.json
	go run ./cmd/qbets-hypo run -grid full -out verdict-full-2.json
	cmp verdict-full.json verdict-full-2.json
	@echo "full grid deterministic and green: verdict-full.json"

# bench runs the key hot-path benchmarks (prediction latency, service
# observe with and without a WAL, the batched HTTP ingest path, and the
# lock-free read plane against its RWMutex baselines) and emits
# $(BENCH_JSON): one entry per benchmark with ns/op, B/op, allocs/op,
# cpus, and any custom metrics such as records/s. The read-plane benches
# run at -cpu 1,4 so contention behaviour is on record alongside the
# single-threaded numbers. The replication set records the shipping
# plane: ShipThroughput fans out to 1/2/4/8 followers (aggregate
# records/s proves frame-once/ship-many), and SnapshotCatchup times a
# chunked 4 MiB catch-up one-shot-style at -benchtime=20x. RecoverWAL
# times a restart's log replay (10k streams x 100 interleaved records) and
# reports records/s at -cpu 1,2: replay applies on every core, so both
# the single-core and the parallel figure are on record; its SiteKeys
# twin replays the same log with forecast-shaped 26-28 byte keys.
# ApplyReplicated decodes and applies one shipped 256-record batch at
# forecast's shape, as a duplicate (re-sent) and as a fresh batch.
# ShardCoreCodec encodes and decodes one 256-stream catch-up chunk, the
# document shard files and snapshot chunks share. Every other gated
# set — PredictionLatency, the write paths (ServiceObserve,
# ServerObserveBatch), ShipThroughput, the BMBP state codec and the
# scheduler kernel — runs pinned at -cpu 1, so its entries keep one name
# on hosts with any core count and match the 1-CPU baseline instead of
# reporting as new. The scale benches (million-stream registry,
# stream-creation churn) are sized one-shot runs, so they go at
# -benchtime=1x; their custom metrics (create-ns/stream, heapB/stream,
# read-p50/p99-ns) land in "metrics". The what-if set (kernel replay,
# typed run heap, 64-scenario grid) records the simulation plane: the
# grid entry doubles as the "64 scenarios under a second" acceptance
# record.
bench:
	@set -e; \
	out=$$(mktemp); \
	go test -run '^$$' -bench PredictionLatency -cpu 1 -count=3 -benchmem . >> $$out; \
	go test -run '^$$' -bench 'ServiceObserve|ServerObserveBatch' -cpu 1 -count=3 -benchmem ./qbets/ >> $$out; \
	go test -run '^$$' -bench 'ServiceForecast|ServiceProfile|ServiceReadWhileIngest|ServerForecast|FollowerForecast' -cpu 1,4 -benchmem ./qbets/ >> $$out; \
	go test -run '^$$' -bench 'RecoverWAL' -cpu 1,2 -benchtime=5x -count=3 -benchmem ./qbets/ >> $$out; \
	go test -run '^$$' -bench 'ShardCoreCodec' -cpu 1 -count=3 -benchmem ./qbets/ >> $$out; \
	go test -run '^$$' -bench 'ApplyReplicated' -cpu 1 -count=3 -benchmem ./qbets/ >> $$out; \
	go test -run '^$$' -bench 'ShipThroughput' -cpu 1 -count=3 -benchmem ./internal/repl/ >> $$out; \
	go test -run '^$$' -bench 'SnapshotCatchup' -benchtime=20x -benchmem ./internal/repl/ >> $$out; \
	go test -run '^$$' -bench 'BMBPCodec' -cpu 1 -count=3 -benchmem ./internal/core/ >> $$out; \
	go test -run '^$$' -bench 'SchedulerRun|RunHeap' -cpu 1 -count=3 -benchmem ./internal/scheduler/ >> $$out; \
	go test -run '^$$' -bench 'WhatifGrid' -benchmem ./internal/whatif/ >> $$out; \
	go test -run '^$$' -bench 'MillionStreams|StreamCreationChurn' -benchtime=1x -timeout 30m ./qbets/ >> $$out; \
	go run ./cmd/benchjson < $$out > $(BENCH_JSON); \
	rm -f $$out; \
	echo "wrote $(BENCH_JSON)"

# bench-compare diffs the fresh results against the recorded baseline and
# fails if an allowlisted benchmark (the write paths, PredictionLatency,
# RecoverWAL, the BMBP codec and the warm scheduler kernel) regressed more
# than 25%. A gated benchmark the baseline lacks reports as new.
# Read benches with sub-20ns baselines and the one-shot scale benches are
# reported but advisory — they are too noisy to gate on.
bench-compare:
	go run ./cmd/benchjson -compare $(BENCH_BASELINE) $(BENCH_JSON)
