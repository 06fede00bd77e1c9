#!/usr/bin/env python3
"""Same-session A/B benchmark of two git revisions.

    python3 scripts/ab_bench.py --pre HEAD~1 --post HEAD \\
        --workload paper-grid --pairs 10 --out BENCH_PRn.json
    python3 scripts/ab_bench.py --pre HEAD~1 --post WORKTREE --micro 3 \\
        --overlay bench/bench_micro_llc.cc --out BENCH_PRn.json

Run from the root of a checkout. Each revision is exported with `git
archive` into its own temporary directory (WORKTREE exports the working
tree's tracked and untracked, non-ignored files instead), so both sides
build from clean sources on the same machine in the same session.

--workload W runs `perfbench/run.py --workload W --seed S --trace T` on
each side --pairs times, each run as long as BENCHMARK.json's run_seconds. Pair i runs pre first when i is even and post first when it
is odd, so a drift in machine speed falls on both sides alike. Per side and
per end-to-end metric the output records the median, the quartiles and
every value, plus the fraction of pairs post won, judged by the `better`
direction that BENCHMARK.json declares. Results land under "end_to_end"
(--trace 0) or "traced" (--trace 1, the per-layer metrics), keyed
"<workload> seed <S>".

--micro K builds every Google Benchmark program under bench/ on each side
and runs them K times, alternating sides, keeping the median ns/iteration
per benchmark as the "pre" and "post" tables scripts/compare_bench.py reads.
--overlay copies a path from the post tree into the pre tree first, so a
bench added by the change is measured on the old code too.

The output file is updated in place: workloads measured by an earlier call
stay unless measured again.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MICRO_BENCHES = ("bench_micro_dram", "bench_micro_llc", "bench_micro_compressor",
                 "bench_micro_system", "bench_lossless")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def export(rev, dest):
    """Write the files of `rev` (or of the working tree) into `dest`."""
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").decode().split("\0")
        for rel in filter(None, files):
            src = os.path.join(ROOT, rel)
            if os.path.isfile(src):  # deleted but still in the index
                os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, rel))
        head = git("rev-parse", "HEAD").decode().strip()
        return f"WORKTREE on {head}"
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest)
    return sha


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def run_perfbench(tree, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    if p.returncode or not last.startswith("{"):
        raise SystemExit(f"perfbench failed in {tree} (exit {p.returncode})")
    out = json.loads(last)
    return out, {k: v["value"] for k, v in out["metrics"].items()}


def ab_workload(trees, args):
    with open(os.path.join(trees["post"], "BENCHMARK.json")) as f:
        declared = json.load(f)
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    values = {"pre": [], "post": []}
    correct = {"pre": True, "post": True}
    failed = {"pre": 0, "post": 0}
    for i in range(args.pairs):
        for side in ("pre", "post") if i % 2 == 0 else ("post", "pre"):
            out, metrics = run_perfbench(trees[side], args, seconds)
            correct[side] &= out["correct"]
            failed[side] += out["failed"]
            values[side].append(metrics)
            wall = metrics.get("wall_s", metrics.get("traced_wall_s", 0.0))
            log(f"[{args.workload} pair {i + 1}/{args.pairs}] {side}: "
                f"wall {wall:.3f} s, correct {out['correct']}")
    result = {"pairs": args.pairs, "seconds": seconds,
              "correct": correct, "failed_points": failed, "pre": {}, "post": {},
              "win_fraction": {}}
    for name in values["pre"][0]:
        pre = [m[name] for m in values["pre"]]
        post = [m[name] for m in values["post"]]
        result["pre"][name] = summary(pre)
        result["post"][name] = summary(post)
        if name in better:
            sign = -1 if better[name] == "lower" else 1
            wins = sum(sign * (b - a) > 0 for a, b in zip(pre, post))
            result["win_fraction"][name] = wins / len(pre)
    return result


def build_micro(tree):
    build = os.path.join(tree, "build-micro")
    steps = [["cmake", "-S", tree, "-B", build, "-DCMAKE_BUILD_TYPE=Release",
              "-DAVR_BUILD_TESTS=OFF", "-DAVR_BUILD_EXAMPLES=OFF",
              "-DAVR_BUILD_TOOLS=OFF"],
             ["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1)),
              "--target", *MICRO_BENCHES]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("build failed: " + " ".join(cmd))
    return build


def run_micro(build):
    times = {}
    for name in MICRO_BENCHES:
        p = subprocess.run([os.path.join(build, name), "--benchmark_format=json",
                            "--benchmark_min_time=0.5"],  # as CI runs them
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, check=True)
        for b in json.loads(p.stdout)["benchmarks"]:
            if "real_time" in b and not b.get("error_occurred"):
                times[b["name"]] = b["real_time"]  # ns: the default time unit
    return times


def ab_micro(trees, args):
    builds = {side: build_micro(tree) for side, tree in trees.items()}
    runs = {"pre": [], "post": []}
    for i in range(args.micro):
        for side in ("pre", "post") if i % 2 == 0 else ("post", "pre"):
            log(f"[micro rep {i + 1}/{args.micro}] {side}")
            runs[side].append(run_micro(builds[side]))
    return {side: {name: round(statistics.median(r[name] for r in reps), 2)
                   for name in sorted(reps[0])}
            for side, reps in runs.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pre", required=True, help="git revision, or WORKTREE")
    ap.add_argument("--post", required=True, help="git revision, or WORKTREE")
    ap.add_argument("--out", required=True, help="BENCH_*.json to create or update")
    ap.add_argument("--workload", help="perfbench workload to A/B")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--micro", type=int, default=0, metavar="K",
                    help="A/B the micro benches with K repeats per side")
    ap.add_argument("--overlay", action="append", default=[],
                    help="path copied from the post tree into the pre tree")
    ap.add_argument("--workdir", help="where to export the trees (default: a "
                    "new temporary directory, removed afterwards)")
    args = ap.parse_args()
    if not args.workload and not args.micro:
        ap.error("nothing to do: give --workload and/or --micro")
    if args.workload and args.pairs < 1:
        ap.error("--pairs must be at least 1")

    work = tempfile.mkdtemp(prefix="ab_bench.", dir=args.workdir)
    try:
        trees = {side: os.path.join(work, side) for side in ("pre", "post")}
        revs = {side: export(getattr(args, side), trees[side]) for side in trees}
        for rel in args.overlay:
            src, dst = os.path.join(trees["post"], rel), os.path.join(trees["pre"], rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
        log(f"pre {revs['pre']}, post {revs['post']}, trees in {work}")

        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc.setdefault("unit", "ns/iter")
        doc["revisions"] = revs
        if args.overlay:
            doc["overlay"] = args.overlay
        if args.micro:
            doc.update(ab_micro(trees, args))
            doc["micro_reps"] = args.micro
        if args.workload:
            section = "traced" if args.trace else "end_to_end"
            key = f"{args.workload} seed {args.seed}"
            doc.setdefault(section, {})[key] = ab_workload(trees, args)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
