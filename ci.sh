#!/bin/sh
# Tier-1 verification loop: format gate, build, vet, test, then test
# again under the race detector. Run from the repository root; any
# failure aborts.
#
# A note on the race pass: the seed tree was already race-clean when
# -race joined this loop, so a failure here means a regression, not
# pre-existing debt.
set -eux

# Formatting is a hard gate: any file gofmt would rewrite fails the
# run, with the offenders listed.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

# Smoke outputs are build products, not sources: they land in
# $ARTIFACTS_DIR (CI sets it and uploads the directory; locally it
# defaults to a temp dir so nothing litters the working tree).
# Created before the first go test: tests that write artifacts expect
# the directory to exist, and a fresh checkout does not have it.
ARTIFACTS=${ARTIFACTS_DIR:-$(mktemp -d)}
mkdir -p "$ARTIFACTS"

go build ./...
go vet ./...
go test ./...
go test -race ./...
# Repeated race probe of the resident history and its handoff: a parked
# log moves between two daemons' goroutines, and one -race pass samples
# that interleaving only once. The monitor states ride on that log, so
# the probe includes the monitor tour against replay and the engine's
# flat-in-history check of the kept states. The log is a proof.Store,
# whose signature index concurrent carries and grants write and read
# under the store's lock, so the probe includes the store's own tests.
go test -race -count=10 -run 'TestResident|TestHandoff|TestResidentMonitorTourMatchesReplay|TestPrefixEvalFlatInHistory' ./internal/server ./internal/core
go test -race -count=10 -run TestStore ./internal/proof
# Repeated race probe of the stage ledger: connection goroutines write
# each access's ledger while scrapes read the exemplars' stage vectors
# and the stage family, and a sampled context's span tree is rendered
# from the same marks.
go test -race -count=10 -run 'TestStageLedgerReconciles|TestUntracedAccessRecordsNoSpans|TestSampledAccessRendersSpanTree' ./internal/server
# Repeated race probe of the agent interpreter under both placements:
# parallel branches decide one at a time on one carried history, and
# the sibling-ceiling row only fails when a clone misses a sibling's
# proof, an interleaving one pass may not hit.
go test -race -count=10 -run 'TestRuntimesAgree|TestRemoteRuntime' ./internal/agent
# Repeated race probe of the decision log: every served decision
# appends to the recorder ring that /debug/journal tails and stacctl
# watch read, so a tail and the decision path race on it constantly.
# The same append writes the WAL under the recorder's lock alone, so
# the probe includes the WAL-order check across concurrent servers and
# the readiness checks that read the WAL's state.
go test -race -count=5 -run 'TestJournal|TestWatch|TestFleetTourTopAndWatch|TestWALOrder|TestReadyz' ./internal/server ./cmd/stacctl
# Repeated race probe of the wire codec at both ends: each connection
# decodes requests and encodes replies in buffers it reuses from one
# request to the next, and each Client encodes requests and decodes
# replies in buffers it reuses from one round trip to the next, so a
# request, reply or proof that kept pointing into them would race the
# next read. The daemon's codec, read buffer and stage ledger belong to
# a connection worker, which serves one connection after another: each
# new connection crosses to it over the hand-off channel, so the worker
# tests race that hand-off and Close's drain of the parked workers too.
# A failed Accept is retried after a backoff that Close must cut short,
# so the accept-retry test races the accept loop's wait against Close.
go test -race -count=5 -run 'TestTCP|TestHostile|TestAcceptRetriesFailedAccept|TestResident|TestConnectionWorker|TestDaemonCloseDrainsIdleWorkers|TestClientRepliesTakeFastPath|TestWireClientRequestsTakeFastPath|TestWireReusedBuffersDoNotAlias' ./internal/server
# Repeated race probe of declared programs: clients on two daemons
# intern one program in the coalition's cache at once, and concurrent
# decisions of one object share one memoised static check. The program
# cache, the static memo and the dedup window are one obs.Window type
# (a ring of entries that its map indexes) under three different locks,
# so the probe includes the window's own tests and each cache's bound.
# The dedup replay test rides along: one connection's goroutine writes
# the retry records that the next connection's goroutine reads.
go test -race -count=10 -run 'TestTCPProgramInterned|TestStaticMemoConcurrentDecisions|TestWindow|TestDedupRingEviction|TestDedupReplayMatchesOriginalReply|TestProgramCacheBounded|TestStaticMemoBounded' ./internal/server ./internal/core ./internal/obs
# Repeated race probe of the engine's read side: budget rows are read
# off the activation clocks under each object's lock, and the policy
# digest is memoised under two policy generations, while decisions run
# on every shard and, in the digest test, while the policy changes.
go test -race -count=10 -run 'TestShardedContentionReconciliation|TestPolicyDigestMemoTracksEveryMutation' ./internal/core
# Repeated race probe of the user registry: one map holds every
# registered user and its roles, a user without a role as a nil list,
# under the lock that session creation, role activation and the
# resolved views also take.
go test -race -count=10 -run 'TestUserRoleRelationMatchesReference|TestConcurrentSessions|TestViewNeverStaleUnderConcurrency' ./internal/rbac
# The repository benchmark is its own module (stac/bench, replacing stac
# with this tree), so ./... above never reaches it. It drives the
# engine and srac APIs directly, so vet and test it here, or an API
# change could break the benchmark silently.
(cd bench && go vet ./... && go test ./... && go test -race ./...)
# Fuzz smoke: a couple of seconds per target, so a crasher in any
# parser/decoder surfaces in CI without a dedicated fuzzing job. The
# seed corpora also run as plain tests in the passes above; this adds
# a short randomised probe on top.
go test -run '^$' -fuzz '^FuzzRecordDecode$' -fuzztime 2s ./internal/obs/record
go test -run '^$' -fuzz '^FuzzLoadPolicy$' -fuzztime 2s ./internal/core
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 2s ./internal/srac
go test -run '^$' -fuzz '^FuzzPrefixAgreement$' -fuzztime 2s ./internal/srac
go test -run '^$' -fuzz '^FuzzMonitorAgreement$' -fuzztime 2s ./internal/srac
go test -run '^$' -fuzz '^FuzzTemporalAgreement$' -fuzztime 2s ./internal/core
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 2s ./internal/sral
go test -run '^$' -fuzz '^FuzzParseRegular$' -fuzztime 2s ./internal/sral
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime 2s ./internal/obs/journal
go test -run '^$' -fuzz '^FuzzWireCodec$' -fuzztime 2s ./internal/server

# Benchmark smoke: one iteration each, so a broken benchmark (or a
# regression that panics only on the bench path) fails CI without
# paying for a real measurement run. The sweep includes the E14
# contention benchmarks (root package), so the sharded-engine parallel
# path runs under CI every time. The output lands in a file first
# (a pipe would mask go test's exit status under set -e), then
# `benchdiff -distill` turns it into the BENCH.json artifact — ns/op,
# allocs/op and the host fingerprint benchdiff uses to flag
# cross-machine comparisons.
go test -bench . -benchtime=1x -benchmem -run '^$' ./... >"$ARTIFACTS/bench_smoke.txt"
go run ./cmd/benchdiff -distill "$ARTIFACTS/bench_smoke.txt" >"$ARTIFACTS/BENCH.json"
# Compare against the committed baseline of the same name. Regressions
# beyond 25% (ns/op or allocs/op) surface as CI warnings (benchdiff
# exits 0 on warnings — a 1x smoke run is too noisy to gate on).
# -distill drops go test's GOMAXPROCS name suffix (BenchmarkX-2), so
# the rows match the baseline's at any CPU count; a diff that compares
# nothing means the names drifted apart again, and fails.
go run ./cmd/benchdiff BENCH.json "$ARTIFACTS/BENCH.json" >"$ARTIFACTS/bench_diff.txt"
cat "$ARTIFACTS/bench_diff.txt"
if grep -q '^# 0 compared' "$ARTIFACTS/bench_diff.txt"; then
    echo "bench smoke compared no benchmark against BENCH.json" >&2
    exit 1
fi

# Contention profiles: rerun the E14 contention benchmarks with
# mutex/block profiling on and render each profile's top frames with
# the toolchain's own pprof next to the bench numbers, so a regression
# hunt starts from "which lock got hot" instead of a raw pprof blob.
# These runtime mutex and block listings are the only contention
# signal: the engine's locks are plain sync locks with no telemetry of
# their own. The step makes artifacts and gates nothing. At this
# iteration count the mutex listing is typically EMPTY; longer runs
# name the engine's hybrid logical clock (EXPERIMENTS E29) but never a
# shard or policy lock — a shard or policy frame appearing there is
# exactly the regression signal this exists to catch; the block
# listing always names the scheduler-wait frames.
go test -bench 'E14_ContentionScaling' -benchtime=1000x -run '^$' \
    -o "$ARTIFACTS/stac.test" \
    -mutexprofilefraction 16 -mutexprofile "$ARTIFACTS/mutex_smoke.pb.gz" \
    -blockprofile "$ARTIFACTS/block_smoke.pb.gz" . >/dev/null
go tool pprof -top -nodecount=10 "$ARTIFACTS/mutex_smoke.pb.gz" >"$ARTIFACTS/PROFILE_mutex.txt"
go tool pprof -top -nodecount=10 "$ARTIFACTS/block_smoke.pb.gz" >"$ARTIFACTS/PROFILE_block.txt"

# Load smoke: a short scenario-matrix run over real TCP — the churn,
# hostile, large-policy and long-history scenarios against the
# coordinated engine and the RBAC floor, time boxes capped to keep the
# whole smoke near fifteen seconds. proofheavy drives the carried
# history path (delta cursors against the daemon's resident log) on
# every run. The summary diffs against the committed LOAD.json
# baseline:
# drift warns at 50%, and a throughput collapse beyond 90% fails the
# build (cross-machine load numbers are noisy, order-of-magnitude
# slips are not).
go run ./cmd/stacload -scenarios scenarios -systems stac,rbac \
    -only churn,hostile,policysize,proofheavy -trials 1 -duration-cap 1s -out "$ARTIFACTS/LOAD.json"
go run ./cmd/benchdiff -threshold 50 -fail-over 90 LOAD.json "$ARTIFACTS/LOAD.json"

# Timeline smoke: the PR 9 acceptance e2e — three TCP daemons, one
# clock skewed −5 s, a roaming itinerary — re-run with the artifact
# dir set so it writes TIMELINE.json, then gate on the merged
# stream being causally clean. (The test itself asserts much more;
# the grep is the cheap tamper-check that the artifact says so too.)
ARTIFACTS_DIR="$ARTIFACTS" go test -run '^TestTimelineMergesSkewedCoalition$' -count=1 .
grep -q '"causality_violations": 0' "$ARTIFACTS/TIMELINE.json"

# Cost-profile smoke: the PR 10 fixed workload re-run with the
# artifact dir set so it writes COST.json (the per-clause
# evaluation-cost report), then diffed against the committed baseline
# with benchdiff's cost format. Per-clause ns/eval drift warns at 50%;
# only an order-of-magnitude blow-up (a clause suddenly far costlier
# per evaluation) fails the build — raw nanoseconds are too
# machine-noisy to gate tighter on a shared runner.
ARTIFACTS_DIR="$ARTIFACTS" go test -run '^TestCostBaselineArtifact$' -count=1 .
go run ./cmd/benchdiff -threshold 50 -fail-over 900 COST.json "$ARTIFACTS/COST.json"
echo "smoke artifacts in $ARTIFACTS"
