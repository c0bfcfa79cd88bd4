#!/usr/bin/env bash
# Tier-1 verification gate: build → fast tests → slow tests → TSan → UBSan
# → ASan+LSan → lint.
#
# - The primary build runs with OSQ_WERROR=ON: the warning floor in
#   CMakeLists.txt (-Wall -Wextra -Wshadow -Wextra-semi -Wnon-virtual-dtor
#   -Wconversion) is a build error here, not advice.
# - The ctest run is split by the `slow` label: fast suite first (quick
#   signal), then the slow randomized/differential/stress suites.  Every
#   ctest -j takes an explicit count: with ctest 3.25 a bare -j swallows
#   the option after it, so `-j -LE slow` would silently run everything.
#   Every `cmake --build -j` takes "$(nproc)" too: with the Makefile
#   generator a bare -j starts an unlimited number of compile jobs.
# - TSan (OSQ_SANITIZE=thread) re-runs the concurrency tests so data races
#   in the parallel pipelines and serving layer fail the gate.
# - UBSan (OSQ_SANITIZE=undefined) runs the whole suite, slow tests
#   included, against overflow/alignment/bounds UB.
# - ASan+LSan (OSQ_SANITIZE=address, detect_leaks=1) runs the whole suite
#   against heap misuse and leaks (ThreadPool shutdown, QueryService
#   snapshot lifetimes).  The slow differential suites grow the graph
#   between queries on one thread, so per-thread query scratch sized for
#   an older graph meets a larger one; ASan is what catches an index past
#   a stale size.
# - lint (scripts/lint.sh) runs osq_lint + clang-tidy-with-baseline +
#   clang-format --check; see DESIGN.md §10.
# - OSQ_BENCH_CHECK=1 adds an opt-in bench regression stage: one
#   bench_micro_match run checked against BENCH_match.json (including live
#   signature rejections on both worlds),
#   one bench_load run checked against BENCH_load.json (including the
#   >=11.2x rebuild-vs-snapshot-load cold-start floor), and one bench_shard
#   run checked against BENCH_shard.json (including the structural sharding
#   floor: 4-shard scatter overhead <= 25% vs the 1-shard coordinator at
#   threads=1), all via scripts/bench_check.py.
#
# Usage: [OSQ_BENCH_CHECK=1] scripts/tier1.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build (OSQ_WERROR=ON) + ctest (fast suite) =="
cmake -B build -S . -DOSQ_WERROR=ON "$@"
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" -LE slow

echo "== tier-1: ctest (slow suite: differential + stress) =="
ctest --test-dir build --output-on-failure -j "$(nproc)" -L slow

echo "== tier-1: concurrency tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DOSQ_SANITIZE=thread -DOSQ_WERROR=ON \
  -DOSQ_BUILD_BENCHMARKS=OFF -DOSQ_BUILD_EXAMPLES=OFF "$@"
cmake --build build-tsan -j "$(nproc)" --target thread_pool_test \
  parallel_determinism_test filter_maintenance_test \
  query_service_stress_test deadline_stress_test shard_stress_test \
  ingest_pipeline_test ingest_differential_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'ThreadPoolTest|ResolveNumThreadsTest|ParallelDeterminismTest|FilterMaintenanceTest|QueryServiceStressTest|DeadlineStressTest|ShardStressTest|IngestPipelineTest|IngestDifferentialTest'

echo "== tier-1: full suite under UndefinedBehaviorSanitizer =="
cmake -B build-ubsan -S . -DOSQ_SANITIZE=undefined -DOSQ_WERROR=ON \
  -DOSQ_BUILD_BENCHMARKS=OFF -DOSQ_BUILD_EXAMPLES=OFF "$@"
cmake --build build-ubsan -j "$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"

echo "== tier-1: full suite under AddressSanitizer + LeakSanitizer =="
cmake -B build-asan -S . -DOSQ_SANITIZE=address -DOSQ_WERROR=ON \
  -DOSQ_BUILD_BENCHMARKS=OFF -DOSQ_BUILD_EXAMPLES=OFF "$@"
cmake --build build-asan -j "$(nproc)"
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:check_initialization_order=1" \
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo "== tier-1: lint (osq_lint + clang-tidy + format) =="
scripts/lint.sh build

# Opt-in bench regression gate (off by default: benchmark timings on shared
# runners are too noisy to block every run).  Runs the matcher microbench
# once at --threads 1 and checks the rows against the committed baseline,
# including that the signature test still rejects candidates on both
# worlds.
if [[ "${OSQ_BENCH_CHECK:-0}" == "1" ]]; then
  echo "== tier-1 (opt-in): bench regression check vs BENCH_match.json =="
  cmake --build build -j "$(nproc)" --target bench_micro_match bench_load
  build/bench/bench_micro_match --threads 1 --json build/bench_fresh.json
  python3 scripts/bench_check.py build/bench_fresh.json \
    --baseline BENCH_match.json \
    --min-extra BM_GviewFilter,sig_node_rejections,1 \
    --min-extra BM_GviewFilterHighDegree,sig_node_rejections,1

  echo "== tier-1 (opt-in): cold-start check vs BENCH_load.json =="
  build/bench/bench_load --json build/bench_load_fresh.json
  # rebuild/load >= 11.2 = 10 x (2256.7 ms rebuild / 2021.6 ms text-format
  # load in the baseline): the same bar on a v2 load as the former >= 10x
  # floor against the retired text format.
  python3 scripts/bench_check.py build/bench_load_fresh.json \
    --baseline BENCH_load.json \
    --min-ratio BM_BuildFromScratch,BM_LoadSnapshotV2Binary,11.2

  echo "== tier-1 (opt-in): sharding-overhead check vs BENCH_shard.json =="
  cmake --build build -j "$(nproc)" --target bench_shard
  build/bench/bench_shard --threads 1 --json build/bench_shard_fresh.json
  # ms(N=1)/ms(N=4) >= 0.8  <=>  4-shard scatter overhead <= 25% vs N=1.
  python3 scripts/bench_check.py build/bench_shard_fresh.json \
    --baseline BENCH_shard.json \
    --min-ratio BM_ShardServeShards1,BM_ShardServeShards4,0.8

  echo "== tier-1 (opt-in): live-ingest check vs BENCH_ingest.json =="
  cmake --build build -j "$(nproc)" --target bench_ingest
  build/bench/bench_ingest --json build/bench_ingest_fresh.json
  # recompute/online >= 50  <=>  one online batch <= 2% of a full engine
  # rebuild — the paper's incremental-maintenance claim, measured under
  # concurrent read traffic.
  python3 scripts/bench_check.py build/bench_ingest_fresh.json \
    --baseline BENCH_ingest.json \
    --min-ratio BM_IngestRecompute,BM_IngestOnline,50
fi

echo "tier-1 OK"
