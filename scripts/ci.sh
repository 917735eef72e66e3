#!/usr/bin/env sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. The race run matters here — the par layer fans work out across
# goroutines in most pipeline stages, and the determinism tests exercise
# those paths at several worker counts.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== tvdp-lint (invariant gate) =="
# The in-tree analyzers guard what vet and -race cannot: the store's
# six-lock acquisition order, the pipeline determinism contract, the
# WAL-frames-go-through-the-committer rule, discarded Close/Sync errors
# in the durability layers, the request-lifecycle context contract, the
# guardedby/requires lock annotations, goroutine join paths, the
# temp+rename+dir-fsync install discipline, and that every function
# under internal/ is reached by non-test code. A failure here means a
# load-bearing invariant broke — read the finding's fix hint, don't
# reach for nolint.
if ! go run ./cmd/tvdp-lint ./...; then
    echo "tvdp-lint: a platform invariant broke (lock order / determinism / WAL path / error discard / ctx flow / guarded fields / goroutine lifecycle / fsync order / reach)" >&2
    exit 1
fi
# The analyzers themselves must still detect violations: each fixture
# package is a known-bad corpus, so a clean exit on one means the
# analyzer went blind.
for fixture in lockorder determinism walpath errdiscard ctxflow nolint sqrtscan guardedby golifecycle fsyncorder reach; do
    if go run ./cmd/tvdp-lint "./internal/lint/testdata/$fixture" >/dev/null 2>&1; then
        echo "tvdp-lint: fixture $fixture produced no findings — analyzer regression" >&2
        exit 1
    fi
done

echo "== go build =="
go build ./...

echo "== examples =="
# The paper's case studies back rows of EXPERIMENTS.md's reproduction
# checklist; each program must still run to completion (all seven take
# about a second together).
ex_dir=$(mktemp -d)
for ex in examples/*/; do
    name=$(basename "$ex")
    go build -o "$ex_dir/$name" "./$ex"
    if ! "$ex_dir/$name" >"$ex_dir/$name.log" 2>&1; then
        echo "example $name exited non-zero" >&2
        cat "$ex_dir/$name.log" >&2
        exit 1
    fi
done
rm -rf "$ex_dir"

# race_gate RUN [FLAGS...] PKG...: run the named tests under the race
# detector. Every name in RUN's |-alternation must prefix a test that
# `go test -list` reports for the packages, so a renamed or deleted test
# fails the gate instead of silently dropping out of it.
race_gate() {
    gate_run=$1
    shift
    gate_listed=$(go test -list '.*' "$@")
    for gate_name in $(printf '%s\n' "$gate_run" | tr '|' ' '); do
        if ! printf '%s\n' "$gate_listed" | grep -q "^$gate_name"; then
            echo "race gate: -run names $gate_name, but no test in $* matches it" >&2
            exit 1
        fi
    done
    go test -race -run "$gate_run" "$@"
}

echo "== end-to-end benchmark module =="
# bench/ is its own module (bench/go.mod), so the root build and tests
# never compile it. Its tests include a smoke run of all four workloads
# against a real tvdp-server child, checked for shape, zero failed
# operations and a clean oracle.
(cd bench && go vet ./... && go test ./...)

echo "== concurrent serving gate (race) =="
# The decomposed-lock store and group-commit WAL are only correct if the
# mixed-workload and HTTP stress tests are race-clean: a failure here
# should read as "serving concurrency broke", not as a generic suite
# failure.
race_gate 'TestConcurrentMixedWorkload|TestGroupCommitBatching|TestImageIDsSortedAcrossDeletesAndReplay|TestGetImageMutationIsolation|TestCloseUnblocksAndFailsMutations' ./internal/store
race_gate 'TestConcurrentServingStress' ./internal/api

echo "== read-path cache + admission gate (race) =="
# The result cache's singleflight and generation-stamped invalidation,
# and the token-bucket admission filter, are shared mutable state on the
# hottest path: their tests must stay race-clean, and a failure here
# should read as "read-path caching broke", not as a generic suite
# failure.
race_gate 'TestCache|TestCanonicalKey' ./internal/query
race_gate 'TestAdmission|TestSearchDimMismatchIs400' ./internal/api

echo "== shard fan-out gate (race) =="
# The scatter-gather coordinator is shared mutable state on every search:
# per-shard context slicing, cancel-on-error, deterministic top-k merge,
# and the global ID allocator must stay race-clean and shard-count
# invariant. A failure here should read as "sharding broke", not as a
# generic suite failure.
race_gate 'TestShardCountInvariance|TestFanOutShardError|TestFanOutCancelNoLeak|TestShardCountMismatch|TestClassificationReplication|TestGenerationComposes' ./internal/shard

echo "== batched filters, label index, temporal index gate (race) =="
# FilterIDs reads three subsystems under their read locks and, over
# shards, splits and re-interleaves candidates; the label index must link
# an image once however often it is annotated; and the temporal index
# sorts lazily under the store's read lock, so concurrent first range
# queries must neither race nor lose hits. Repeated runs give the race
# detector more interleavings of the concurrent first queries.
race_gate 'TestFilterIDs|TestDuplicateAnnotation|TestFirstTimeRangeQueriesConcurrent' -count=5 ./internal/store ./internal/shard
race_gate 'TestFilterEquivalence|TestFilterDeletedCandidate' ./internal/query

echo "== segment engine gate (race) =="
# The segmented storage engine's moving parts — freeze-swap flush,
# background compaction, WAL-tail recovery, the refusal of a retired
# snapshot-engine layout, and query-surface equivalence with a
# memory-only store — must stay race-clean. The exhaustive
# kill-at-every-byte sweeps run in the crash-recovery gate below; this
# gate is the fast, named subset so a failure here reads as "segment
# engine broke", not as a generic suite failure.
race_gate 'TestSegmentFlushRecoverRoundtrip|TestSegmentCompaction|TestSegmentTombstones|TestSegmentWALTailRecovery|TestSegmentBackgroundFlush|TestLegacyLayoutRefused|TestEngineEquivalence|TestGenerationMovesOnEveryWrite|TestWALSyncModesRoundTrip' ./internal/store

echo "== crash-recovery property tests (race) =="
# Torn-write recovery is its own gate: the kill-at-every-offset sweeps
# over the live segment-engine log (alone and above a flushed segment),
# the stale-log-after-flush interleaving, bit flips, torn tails and the
# reopen-cycle regression must pass under the race detector on every
# build, and a failure here should read as "durability broke", not as a
# generic suite failure.
race_gate 'TestKillAtEveryOffset|TestSnapshotPlusWALOffsetSweep|TestSnapshotCrashDiscardsStaleWAL|TestReopenMutateCycles|TestFaultInjectedTornWrites|TestBitFlipSurfacesCorruption|TestTornWALTailIsTolerated' ./internal/store

echo "== ingest pipeline gate (race) =="
# The streaming ingestion tier is staged concurrency end to end:
# partitioned consumer-group workers, slot-token admission that sheds
# before persist, ack-at-WAL-commit, and the recovery sweep that
# re-drives the crash window between persist-ack and index insert. All
# of it must stay race-clean, and a failure here should read as
# "ingestion pipeline broke", not as a generic suite failure.
race_gate 'TestAckPrecedesExtraction|TestBackpressureShedsBeforePersist|TestPerSourceOrderingPreserved|TestFailedExtractionTrackedAndSweepRedrives|TestRefreshHookFiresOffPath|TestCloseIsIdempotentAndDrainsQueue|TestPipelineOverShardCoordinator' ./internal/ingest
race_gate 'TestStreamEndpointAcksPerRecord|TestUploadBusySheds429WithRetryAfter|TestUploadSyncErrorCarriesAssignedID|TestVideoSyncPartialFrameFailure' ./internal/api
race_gate 'TestCrashBetweenAckAndIndexSweepRedrives|TestReopenAfterCleanCloseSweepsNothing' ./internal/core

echo "== graceful shutdown gate (race) =="
# The request-lifecycle contract under the race detector: Serve must stop
# accepting on cancellation, drain in-flight uploads, and leave the store
# reopenable with every acknowledged write intact. Shutdown races the
# drain against live handlers and the committer quiesce, so this gate is
# race-enabled and should read as "graceful shutdown broke" on failure.
race_gate 'TestServeStopsOnCancel|TestServeGracefulShutdownDrainsInFlight' ./internal/core

echo "== SIGTERM drain smoke =="
# The real-process twin of the gate above: SIGTERM a loaded tvdp-server
# -dir, require exit 0 with the shutdown epilogue logged, then reopen the
# same directory and require the full corpus back (the post-drain flush
# makes the reopen replay-free). In-flight drain is covered by the race
# test; this smoke pins the process wiring (signal → drain → flush →
# close → exit code).
drain_dir=$(mktemp -d)
drain_port=$((20000 + $$ % 10000))
go build -o "$drain_dir/tvdp-server" ./cmd/tvdp-server
mkdir -p "$drain_dir/data"
"$drain_dir/tvdp-server" -addr "127.0.0.1:$drain_port" -dir "$drain_dir/data" -demo 24 -seed 7 >"$drain_dir/run1.log" 2>&1 &
srv_pid=$!
ready=0
i=0
while [ "$i" -lt 300 ]; do
    if grep -q "listening on" "$drain_dir/run1.log"; then ready=1; break; fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ready" -ne 1 ]; then
    echo "tvdp-server never became ready" >&2
    cat "$drain_dir/run1.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$srv_pid"
if ! wait "$srv_pid"; then
    echo "tvdp-server did not exit 0 on SIGTERM" >&2
    cat "$drain_dir/run1.log" >&2
    exit 1
fi
grep -q "shutdown complete" "$drain_dir/run1.log" || {
    echo "tvdp-server exited without the graceful-shutdown epilogue" >&2
    cat "$drain_dir/run1.log" >&2
    exit 1
}
# Reopen: the seeded corpus must be back in full, from the flushed
# segments alone.
"$drain_dir/tvdp-server" -addr "127.0.0.1:$drain_port" -dir "$drain_dir/data" >"$drain_dir/run2.log" 2>&1 &
srv_pid=$!
ready=0
i=0
while [ "$i" -lt 300 ]; do
    if grep -q "listening on" "$drain_dir/run2.log"; then ready=1; break; fi
    i=$((i + 1))
    sleep 0.2
done
if [ "$ready" -ne 1 ]; then
    echo "tvdp-server failed to reopen after graceful shutdown" >&2
    cat "$drain_dir/run2.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
fi
grep -q "platform ready: 24 images" "$drain_dir/run2.log" || {
    echo "reopened store lost data across graceful shutdown" >&2
    cat "$drain_dir/run2.log" >&2
    kill "$srv_pid" 2>/dev/null || true
    exit 1
}
kill -TERM "$srv_pid"
wait "$srv_pid" || { echo "reopened tvdp-server did not exit 0 on SIGTERM" >&2; exit 1; }
rm -rf "$drain_dir"

echo "== go test -race =="
go test -race ./...

echo "== tvdp-bench CLI smoke =="
# tvdp-bench regenerates only the paper's figures; store, query and
# ingest speed are measured by bench/ above. Fig. 8 needs no corpus, so
# it checks the table path in about a second; an unknown figure, an
# unknown scale and a removed flag must all fail with the usage exit
# code 2, before any work.
cli_dir=$(mktemp -d)
go build -o "$cli_dir/tvdp-bench" ./cmd/tvdp-bench
if ! "$cli_dir/tvdp-bench" -fig 8 >"$cli_dir/fig8.txt" 2>&1 || ! grep -q "^Fig. 8 — Mean inference time" "$cli_dir/fig8.txt"; then
    echo "tvdp-bench -fig 8 did not print the Fig. 8 table" >&2
    cat "$cli_dir/fig8.txt" >&2
    exit 1
fi
for args in "-fig 9" "-fig 8 -scale bogus" "-figure serving"; do
    code=0
    "$cli_dir/tvdp-bench" $args >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "tvdp-bench $args exited $code, want 2" >&2
        exit 1
    fi
done
rm -rf "$cli_dir"

echo "CI OK"
