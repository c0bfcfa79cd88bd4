#!/usr/bin/env bash
# Static-analysis gate: osq_lint (custom invariants, including the
# flow-aware lock-discipline rules of DESIGN.md §15) + clang
# -Wthread-safety cross-check (when clang is installed) + clang-tidy
# (generic C++ traps, diffed against a tracked baseline) + clang-format
# --check.
#
#   scripts/lint.sh [build-dir]         default build dir: ./build
#   scripts/lint.sh --json [build-dir]  emit osq_lint's machine-readable
#                                       findings JSON on stdout and exit
#                                       with its status (CI consumers;
#                                       the other stages are not run)
#
# Exit 0 only when every stage passes.  Stages whose tool is not installed
# (clang++ / clang-tidy / clang-format) are reported SKIPPED and do not
# fail the gate; osq_lint is built from this repo and always runs.
#
# clang-tidy baseline policy: scripts/lint_baseline.txt holds the
# "file [check]" pairs that predate the gate.  The run fails on any finding
# not in the baseline; shrink the baseline as findings are fixed (never grow
# it — new code must be clean).  See DESIGN.md §10.
set -euo pipefail
cd "$(dirname "$0")/.."

JSON_MODE=0
if [[ "${1:-}" == "--json" ]]; then
  JSON_MODE=1
  shift
fi

BUILD_DIR="${1:-build}"
fail=0

if [[ $JSON_MODE -eq 1 ]]; then
  if [[ ! -x "$BUILD_DIR/tools/osq_lint" ]]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target osq_lint > /dev/null
  fi
  exec "$BUILD_DIR/tools/osq_lint" --json --root .
fi

# --- stage 1: osq_lint over src/ + fixture self-test ----------------------
echo "== lint: osq_lint (custom invariant checker) =="
if [[ ! -x "$BUILD_DIR/tools/osq_lint" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target osq_lint > /dev/null
fi
# Per-rule finding counts go to stderr in text mode; show them in the
# tier-1 log so a regression names the rule family at a glance.
if "$BUILD_DIR/tools/osq_lint" --root . 2>&1; then
  echo "osq_lint: OK"
else
  echo "osq_lint: VIOLATIONS (see above, with per-rule counts)"
  fail=1
fi

# Self-test: the checker must still reject its bad fixtures — a checker
# that passes everything would otherwise make this gate silently green.
bad_missed=0
for f in tests/lint_fixtures/bad_*; do
  if "$BUILD_DIR/tools/osq_lint" "$f" > /dev/null 2>&1; then
    echo "osq_lint self-test: $f should have failed and did not"
    bad_missed=1
  fi
done
for f in tests/lint_fixtures/clean_*; do
  if ! "$BUILD_DIR/tools/osq_lint" "$f" > /dev/null 2>&1; then
    echo "osq_lint self-test: $f should have passed and did not"
    bad_missed=1
  fi
done
if [[ $bad_missed -eq 0 ]]; then
  echo "osq_lint self-test: OK (bad fixtures rejected, clean accepted)"
else
  fail=1
fi

# --- stage 2: clang -Wthread-safety cross-check ---------------------------
# The OSQ_* macros (src/common/annotations.h) expand to Clang's native
# thread-safety attributes, so a clang syntax-only pass over the
# concurrency TUs re-verifies the same lock contracts osq_lint enforces.
# -Wno-thread-safety-attributes: std::mutex is not a Clang "capability"
# type, so attribute-placement pedantry is expected; the analysis
# warnings themselves (-Werror=thread-safety-*) still fail the stage.
echo "== lint: clang++ -Wthread-safety =="
if ! command -v clang++ > /dev/null 2>&1; then
  echo "clang++ -Wthread-safety: SKIPPED (clang not installed)"
else
  # serve_stats_test.cc instantiates the serving core (a header-only
  # template) over both backends, ServingCore<EngineBackend> and
  # ServingCore<ShardSet>, through Query and the Write path (its typed
  # LiveServeStatsTest); -Itests finds its test_util.h, and the gtest
  # headers come from the system include path.
  tsa_files=(
    src/common/thread_pool.cc
    src/serve/result_cache.cc
    tests/serve_stats_test.cc
    src/shard/sharded_query_service.cc
    src/ingest/ingest_pipeline.cc
    src/ingest/update_sink.cc
  )
  if clang++ -std=c++20 -fsyntax-only -Isrc -Itests \
      -Wthread-safety -Werror=thread-safety-analysis \
      -Wno-thread-safety-attributes "${tsa_files[@]}"; then
    echo "clang++ -Wthread-safety: OK (${#tsa_files[@]} TU(s))"
  else
    echo "clang++ -Wthread-safety: VIOLATIONS (see above)"
    fail=1
  fi
fi

# --- stage 3: clang-tidy against the tracked baseline ---------------------
echo "== lint: clang-tidy =="
if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "clang-tidy: SKIPPED (not installed)"
elif [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "clang-tidy: SKIPPED (no $BUILD_DIR/compile_commands.json; configure" \
       "with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
else
  mapfile -t tidy_files < <(git ls-files 'src/*.cc' 'tools/*.cc')
  tidy_out="$(mktemp)"
  clang-tidy -p "$BUILD_DIR" --quiet "${tidy_files[@]}" \
    > "$tidy_out" 2> /dev/null || true
  # Normalize findings to "relative-file [check]" so line drift doesn't
  # churn the baseline, then fail on anything the baseline doesn't cover.
  findings="$(mktemp)"
  sed -n 's|^.*/\(\(src\|tools\)/[^:]*\):[0-9]*:[0-9]*: warning: .*\(\[[a-z0-9.,-]*\]\)$|\1 \3|p' \
    "$tidy_out" | sort -u > "$findings"
  new="$(comm -23 "$findings" <(sort -u scripts/lint_baseline.txt) || true)"
  if [[ -n "$new" ]]; then
    echo "clang-tidy: NEW findings not in scripts/lint_baseline.txt:"
    echo "$new"
    grep -F -f <(echo "$new" | cut -d' ' -f1) "$tidy_out" | head -50 || true
    fail=1
  else
    echo "clang-tidy: OK ($(wc -l < "$findings") finding(s), all baselined)"
  fi
  rm -f "$tidy_out" "$findings"
fi

# --- stage 4: formatting --------------------------------------------------
echo "== lint: clang-format --check =="
if ! scripts/format.sh --check; then
  fail=1
fi

if [[ $fail -ne 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
