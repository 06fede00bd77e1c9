#!/usr/bin/env python3
"""Compare fresh bench_micro_* results against the committed baseline.

Usage:
    compare_bench.py BENCH_PR12.json fresh1.json [fresh2.json ...]

The baseline file holds ns/iteration numbers under a "post" key (see
BENCH_PR12.json); the fresh files are Google Benchmark --benchmark_format=json
outputs. Absolute times are machine-dependent, so the report shows the
current/baseline ratio per benchmark and flags entries slower than
--threshold (default 1.5x). Exits 1 if anything is flagged — the CI
microbench job runs this blockingly with --threshold 2.5, so a flag there
fails the build; locally the tighter default catches smaller regressions
early.
"""

import argparse
import json
import sys


def load_benchmark_json(path):
    with open(path) as f:
        doc = json.load(f)
    # A benchmark that skipped (e.g. a BM_Kernel*/level row on a machine
    # without that ISA) emits an entry with error_occurred and no real_time;
    # treat it as unmeasured so the baseline's MISSING check reports it.
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if "real_time" in b and not b.get("error_occurred")}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed baseline (BENCH_PR12.json)")
    ap.add_argument("fresh", nargs="+", help="Google Benchmark JSON outputs")
    ap.add_argument("--threshold", type=float, default=1.5,
                    help="flag benchmarks slower than this ratio (default 1.5)")
    args = ap.parse_args()

    # A missing or mangled baseline must fail loudly: a comparison against
    # nothing would pass vacuously and hide real regressions.
    try:
        with open(args.baseline) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read baseline {args.baseline}: {e}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: baseline {args.baseline} is not valid JSON: {e}",
              file=sys.stderr)
        return 2
    base = doc.get("post")
    if not isinstance(base, dict) or not base:
        print(f"error: baseline {args.baseline} has no non-empty 'post' "
              f"table of ns/iter numbers", file=sys.stderr)
        return 2

    fresh = {}
    for path in args.fresh:
        try:
            fresh.update(load_benchmark_json(path))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            print(f"error: cannot parse benchmark output {path}: {e}",
                  file=sys.stderr)
            return 2

    flagged = []
    print(f"{'benchmark':35s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}")
    for name, ref in sorted(base.items()):
        if name not in fresh:
            # A guarded hot loop that stopped being measured is itself a
            # regression in coverage — flag it, don't just print it.
            print(f"{name:35s} {ref:10.2f} {'MISSING':>10s}")
            flagged.append(name)
            continue
        cur = fresh[name]
        ratio = cur / ref
        mark = ""
        if ratio > args.threshold:
            mark = f"  <-- slower than {args.threshold:.2f}x baseline"
            flagged.append(name)
        print(f"{name:35s} {ref:10.2f} {cur:10.2f} {ratio:6.2f}x{mark}")

    for name in sorted(set(fresh) - set(base)):
        print(f"{name:35s} {'new':>10s} {fresh[name]:10.2f}")

    if flagged:
        print(f"\n{len(flagged)} benchmark(s) regressed past "
              f"{args.threshold:.2f}x or went missing: {', '.join(flagged)}")
        return 1
    print("\nNo hot-path regressions past the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
