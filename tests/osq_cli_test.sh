#!/usr/bin/env bash
# End-to-end check of osq_cli's query paths (ctest: OsqCliTest.QueryPaths).
#
#   tests/osq_cli_test.sh <path to osq_cli>
#
# Works in a fresh temporary directory: generates a small CrossDomain-like
# dataset, saves a snapshot, and checks that
#   * `query --snapshot` and plain `query` print the same match lines;
#   * a pattern that is not weakly connected exits 2 with "weakly
#     connected" on stderr, as QueryEngine::Query rejects it.
set -euo pipefail

cli="$(realpath "$1")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" generate --type crossdomain --scale 500 --seed 7 \
  --graph g.txt --ontology o.txt > /dev/null
"$cli" snapshot --graph g.txt --ontology o.txt --out engine.snp > /dev/null

pattern='(a:person)-[related_to]->(b:person)'
"$cli" query --snapshot engine.snp --pattern "$pattern" --theta 0.8 --k 5 \
  > snapshot.out
"$cli" query --graph g.txt --ontology o.txt --pattern "$pattern" \
  --theta 0.8 --k 5 > text.out
grep '^  score' snapshot.out > snapshot.matches ||
  fail "query --snapshot printed no matches"
grep '^  score' text.out > text.matches || fail "query printed no matches"
diff snapshot.matches text.matches ||
  fail "query --snapshot and query print different matches"

rc=0
"$cli" query --graph g.txt --ontology o.txt \
  --pattern '(a:person_c0_t0), (b:org_c0_t0)' > disconnected.out \
  2> disconnected.err || rc=$?
[[ $rc -eq 2 ]] || fail "disconnected pattern exited $rc, want 2"
grep -q "weakly connected" disconnected.err ||
  fail "disconnected pattern: no 'weakly connected' on stderr"

echo "osq_cli query paths: OK"
