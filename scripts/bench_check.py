#!/usr/bin/env python3
"""Check a fresh bench JSON report against the committed baseline.

Rows are keyed by (name, threads).  Two kinds of checks:

  1. Regression: every fresh row that also exists in the baseline must
     satisfy  fresh_ms <= baseline_ms * (1 + tolerance).  Benchmarks on a
     loaded single-core runner are noisy, so the default tolerance is a
     generous 0.5 (i.e. flag only >1.5x slowdowns); tighten with
     --tolerance for quieter machines.
  2. Ratio floors: --min-ratio NUM,DEN,RATIO[,THREADS] (repeatable)
     requires  ms(NUM) / ms(DEN) >= RATIO  at the given thread count
     (default 1).  This is how a speedup claim stays machine-checked —
     e.g. loading a snapshot against rebuilding the index:
         --min-ratio BM_BuildFromScratch,BM_LoadSnapshot,RATIO
  3. Extra floors: --min-extra NAME,KEY,FLOOR[,THREADS] (repeatable)
     requires the fresh row NAME to carry a numeric extra KEY >= FLOOR.
     This keeps effectiveness counters alive, not just timings — e.g. the
     node-level signature rejections of the high-degree filter shape:
         --min-extra BM_GviewFilterHighDegree,sig_node_rejections,1
  4. Extra ceilings: --max-extra NAME,KEY,CEIL[,THREADS] (repeatable)
     requires the fresh row NAME to carry a numeric extra KEY <= CEIL.
     This holds a work counter down — e.g. the candidates the high-degree
     filter shape admits only to prune them again:
         --max-extra BM_GviewFilterHighDegree,pruned_nodes,CEIL

Baseline rows with no counterpart in the fresh report are listed but not
failed (the baseline aggregates several bench binaries; a single run covers
a subset).  It is an error if the fresh report matches nothing.

Exit codes: 0 = all checks passed, 1 = regression or ratio failure,
2 = bad usage / unreadable input.

Standalone:
    build/bench/bench_micro_match --json /tmp/fresh.json --threads 1
    scripts/bench_check.py /tmp/fresh.json
Tier-1: exported as an opt-in stage via OSQ_BENCH_CHECK=1 scripts/tier1.sh.
"""

import argparse
import json
import sys


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_check: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(rows, list):
        print(f"bench_check: {path}: expected a JSON array of rows",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for row in rows:
        if not isinstance(row, dict) or "name" not in row:
            print(f"bench_check: {path}: malformed row {row!r}",
                  file=sys.stderr)
            sys.exit(2)
        key = (row["name"], int(row.get("threads", 1)))
        out[key] = row
    return out


def parse_min_ratio(spec):
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        print(f"bench_check: bad --min-ratio {spec!r} "
              "(want NUM,DEN,RATIO[,THREADS])", file=sys.stderr)
        sys.exit(2)
    threads = int(parts[3]) if len(parts) == 4 else 1
    try:
        ratio = float(parts[2])
    except ValueError:
        print(f"bench_check: bad ratio in --min-ratio {spec!r}",
              file=sys.stderr)
        sys.exit(2)
    return parts[0], parts[1], ratio, threads


def parse_extra(spec, flag):
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        print(f"bench_check: bad {flag} {spec!r} "
              "(want NAME,KEY,BOUND[,THREADS])", file=sys.stderr)
        sys.exit(2)
    threads = int(parts[3]) if len(parts) == 4 else 1
    try:
        bound = float(parts[2])
    except ValueError:
        print(f"bench_check: bad bound in {flag} {spec!r}", file=sys.stderr)
        sys.exit(2)
    return parts[0], parts[1], bound, threads


def main():
    ap = argparse.ArgumentParser(
        description="Compare a fresh bench JSON against the baseline.")
    ap.add_argument("fresh", help="fresh bench JSON (from --json)")
    ap.add_argument("--baseline", default="BENCH_match.json",
                    help="committed baseline JSON (default: %(default)s)")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed relative slowdown vs baseline "
                         "(default: %(default)s)")
    ap.add_argument("--min-ratio", action="append", default=[],
                    metavar="NUM,DEN,RATIO[,THREADS]",
                    help="require ms(NUM)/ms(DEN) >= RATIO in the fresh "
                         "report (repeatable)")
    ap.add_argument("--min-extra", action="append", default=[],
                    metavar="NAME,KEY,FLOOR[,THREADS]",
                    help="require the fresh row NAME to carry extra "
                         "KEY >= FLOOR (repeatable)")
    ap.add_argument("--max-extra", action="append", default=[],
                    metavar="NAME,KEY,CEIL[,THREADS]",
                    help="require the fresh row NAME to carry extra "
                         "KEY <= CEIL (repeatable)")
    args = ap.parse_args()

    fresh = load_rows(args.fresh)
    baseline = load_rows(args.baseline)

    failures = []
    compared = 0
    for key, row in sorted(fresh.items()):
        name, threads = key
        fresh_ms = float(row["ms_per_query"])
        if key not in baseline:
            print(f"  new     {name} (threads={threads}): "
                  f"{fresh_ms:.6f} ms (no baseline row)")
            continue
        compared += 1
        base_ms = float(baseline[key]["ms_per_query"])
        limit = base_ms * (1.0 + args.tolerance)
        verdict = "ok" if fresh_ms <= limit else "REGRESSED"
        print(f"  {verdict:<7} {name} (threads={threads}): "
              f"{fresh_ms:.6f} ms vs baseline {base_ms:.6f} ms "
              f"(limit {limit:.6f})")
        if fresh_ms > limit:
            failures.append(
                f"{name} (threads={threads}) regressed: {fresh_ms:.6f} ms "
                f"> {limit:.6f} ms (baseline {base_ms:.6f} * "
                f"{1.0 + args.tolerance:g})")
    for key in sorted(baseline.keys() - fresh.keys()):
        print(f"  skipped {key[0]} (threads={key[1]}): not in fresh report")
    if (compared == 0 and not args.min_ratio and not args.min_extra
            and not args.max_extra):
        print("bench_check: fresh report shares no rows with the baseline",
              file=sys.stderr)
        sys.exit(2)

    for spec in args.min_ratio:
        num, den, ratio, threads = parse_min_ratio(spec)
        num_key, den_key = (num, threads), (den, threads)
        if num_key not in fresh or den_key not in fresh:
            missing = num if num_key not in fresh else den
            failures.append(
                f"min-ratio {spec}: row {missing} (threads={threads}) "
                "missing from fresh report")
            continue
        den_ms = float(fresh[den_key]["ms_per_query"])
        if den_ms <= 0.0:
            failures.append(f"min-ratio {spec}: denominator {den} is zero")
            continue
        got = float(fresh[num_key]["ms_per_query"]) / den_ms
        verdict = "ok" if got >= ratio else "FAILED"
        print(f"  {verdict:<7} ratio {num}/{den} (threads={threads}): "
              f"{got:.2f}x (floor {ratio:g}x)")
        if got < ratio:
            failures.append(
                f"ratio {num}/{den} (threads={threads}) = {got:.2f}x "
                f"below floor {ratio:g}x")

    extra_checks = ([("--min-extra", spec) for spec in args.min_extra] +
                    [("--max-extra", spec) for spec in args.max_extra])
    for flag, spec in extra_checks:
        name, extra_key, bound, threads = parse_extra(spec, flag)
        is_floor = flag == "--min-extra"
        row_key = (name, threads)
        if row_key not in fresh:
            failures.append(f"{flag} {spec}: row {name} "
                            f"(threads={threads}) missing from fresh report")
            continue
        value = fresh[row_key].get(extra_key)
        if not isinstance(value, (int, float)):
            failures.append(f"{flag} {spec}: row {name} "
                            f"(threads={threads}) has no numeric {extra_key}")
            continue
        ok = value >= bound if is_floor else value <= bound
        kind = "floor" if is_floor else "ceiling"
        verdict = "ok" if ok else "FAILED"
        print(f"  {verdict:<7} extra {name}.{extra_key} (threads={threads}): "
              f"{value:g} ({kind} {bound:g})")
        if not ok:
            side = "below floor" if is_floor else "above ceiling"
            failures.append(
                f"extra {name}.{extra_key} (threads={threads}) = {value:g} "
                f"{side} {bound:g}")

    if failures:
        print("bench_check: FAILED", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("bench_check: OK")


if __name__ == "__main__":
    main()
