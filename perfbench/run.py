#!/usr/bin/env python3
"""Benchmark of the AVR simulator: host time, memory and paper fidelity.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Builds perfbench_sim and avr_sweep into
.bench_build/ (Release), runs the workload from an empty result cache, checks
every simulated point against the pinned reference, prints one line per
metric and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
--pin writes the run's points as the pinned reference instead of checking
against it. README.md documents the workloads and the metric map.
"""
import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SIM = os.path.join(BUILD, "perfbench_sim")
SWEEP = os.path.join(BUILD, "avr", "avr_sweep")
REFERENCE = os.path.join(HERE, "reference")
PAPER_ROWS = os.path.join(HERE, "data", "paper_rows.csv")

DESIGNS = ("baseline", "dganger", "truncate", "ZeroAVR", "AVR")
TRACE_PATTERNS = ("chase", "zipf", "walk", "mixed")
# Seeds with a pinned claim-churn reference: DEV_SEED is the one tuned on,
# HELDOUT_SEED is kept for checking later claims on unseen traces.
DEV_SEED = 1
HELDOUT_SEED = 2
# Set-up is repeated at least SETUP_REPS times and for SETUP_SECONDS.
SETUP_REPS = 3
SETUP_SECONDS = 2.5
CLAIM_WORKERS = 3
CHILD_TIMEOUT_S = 170

# Why each workload exists is in README.md ("Workloads").
WORKLOADS = {
    "paper-grid": ["--designs", ",".join(DESIGNS)],
    "avr-grid": ["--designs", "AVR", "--t1", "4,7", "--methods", "avr,avr+bdi"],
    "claim-churn": [
        "--workloads", ",".join(f"trace:{p}.trace" for p in TRACE_PATTERNS),
        "--designs", ",".join(DESIGNS),
        "--t1", "2,5,8,11,14,17,20,22",
        "--methods", "avr,avr+bdi",
    ],
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "sim_mips": "MIPS", "peak_rss_mb": "MB",
    "paper_traffic_err": "ratio", "paper_exectime_err": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def hermetic_env():
    """Environment for every child: no inherited cache, fault schedule or
    profile sidecar, and the committed seed costs named explicitly."""
    env = dict(os.environ)
    for var in ("AVR_RESULT_CACHE", "AVR_FAULTS", "AVR_PROFILE_OUT"):
        env.pop(var, None)
    env["AVR_SEED_COSTS"] = os.path.join(ROOT, "data", "seed_costs.csv")
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no simulator sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_sim", "avr_sweep"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


class Child:
    """A child process whose stdout goes to a file; reaped with wait4 so its
    peak RSS is known."""

    def __init__(self, cmd, cwd, env, out_path):
        self.cmd = cmd
        self.out_path = out_path
        with open(out_path, "wb") as out:
            self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out)
        self.code = None
        self.rss_mb = 0.0
        self.end = None

    def reap(self, deadline):
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                os.wait4(self.proc.pid, 0)
                self.code = self.proc.returncode = -9
                raise BenchError("timed out: " + " ".join(self.cmd))
            time.sleep(0.005)
        self.end = time.monotonic()
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.rss_mb = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    def json(self):
        with open(self.out_path) as f:
            lines = f.read().strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"exit {self.code}: " + " ".join(self.cmd))
        return json.loads(lines[-1])


class Run:
    def __init__(self, args):
        self.args = args
        self.grid = WORKLOADS[args.workload]
        self.env = hermetic_env()
        self.dir = os.path.join(BUILD, f"run-{os.getpid()}")
        self.children = []

    def spawn(self, cmd):
        c = Child(cmd, self.dir, self.env,
                  os.path.join(self.dir, f"out{len(self.children)}.json"))
        self.children.append(c)
        return c

    def stop_children(self):
        """Kills and reaps any child still running (error paths only)."""
        for c in self.children:
            if c.code is None and c.proc.poll() is None:
                c.proc.kill()
                c.proc.wait()

    def sim(self, *args):
        c = self.spawn([SIM, *args])
        c.reap(time.monotonic() + CHILD_TIMEOUT_S)
        return c.json()

    def cache(self, name):
        return os.path.join(self.dir, name + ".csv")

    # ---- untraced passes ---------------------------------------------------

    def grid_pass(self, i):
        c = self.spawn([SIM, "grid", *self.grid, "--cache", self.cache(f"pass{i}")])
        c.reap(time.monotonic() + CHILD_TIMEOUT_S)
        out = c.json()
        return {"wall_s": out["wall_s"], "rss_mb": c.rss_mb,
                "points": out["points"], "failures": out["failures"]}

    def claim_pass(self, i):
        cache = self.cache(f"pass{i}")
        t0 = time.monotonic()
        workers = [self.spawn([SWEEP, "--claim", "--jobs", "1", "--quiet",
                               "--owner", f"w{w}", "--cache", cache,
                               "--profile-out", "", *self.grid])
                   for w in range(CLAIM_WORKERS)]
        deadline = t0 + CHILD_TIMEOUT_S
        for w in workers:
            w.reap(deadline)
        failures = [{"key": f"worker w{n}", "why": f"exited with code {w.code}"}
                    for n, w in enumerate(workers) if w.code != 0]
        out = self.sim("collect", *self.grid, "--cache", cache)
        return {"wall_s": max(w.end for w in workers) - t0,
                "rss_mb": max(w.rss_mb for w in workers),
                "points": out["points"], "failures": failures + out["failures"]}

    def untraced(self):
        setup = self.sim("setup", *self.grid, "--cache", self.cache("setup"),
                            "--reps", str(SETUP_REPS),
                            "--seconds", str(SETUP_SECONDS))["setup_s"]
        one_pass = self.claim_pass if self.args.workload == "claim-churn" else self.grid_pass
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(one_pass(len(passes)))
            elapsed = time.monotonic() - t0
            # Start another pass only if it should end within --seconds.
            if elapsed + elapsed / len(passes) > self.args.seconds:
                break
        return setup, passes

    # ---- traced run --------------------------------------------------------

    def traced(self):
        cache = self.cache("traced")
        if self.args.workload == "claim-churn":
            procs = [self.spawn([SIM, "traced", *self.grid, "--cache", cache,
                                 "--claim", "--owner", f"w{w}"])
                     for w in range(CLAIM_WORKERS)]
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            for p in procs:
                p.reap(deadline)
            outs = [p.json() for p in procs]
        else:
            outs = [self.sim("traced", *self.grid, "--cache", cache)]
        merged = {"wall_s": 0.0, "layers": {}, "points": {}, "selfcheck": [],
                  "failures": []}
        for o in outs:
            merged["wall_s"] += o["wall_s"]
            for k, v in o["layers"].items():
                merged["layers"][k] = merged["layers"].get(k, 0) + v
            merged["points"].update(o["points"])
            merged["selfcheck"] += o["selfcheck"]
            merged["failures"] += o["failures"]
        merged["cache_bytes"] = os.path.getsize(cache) if os.path.exists(cache) else 0
        return merged

    # ---- reference ---------------------------------------------------------

    def reference_path(self):
        name = self.args.workload
        if name == "claim-churn":
            name += f"-seed{self.args.seed}"
        return os.path.join(REFERENCE, name + ".json")

    def reference(self):
        """Pinned points; for a claim-churn seed without a pinned file, the
        same grid simulated in-process with no cache, so the claim workers'
        results are still checked against an independent run."""
        path = self.reference_path()
        if os.path.exists(path):
            with open(path) as f:
                return json.load(f)["points"], "pinned"
        if self.args.workload != "claim-churn":
            raise BenchError(f"no pinned reference {path}")
        return self.sim("grid", *self.grid, "--cache", "")["points"], "in-process"

    def pin(self, points):
        os.makedirs(REFERENCE, exist_ok=True)
        doc = {"workload": self.args.workload, "points": points}
        if self.args.workload == "claim-churn":
            doc["seed"] = self.args.seed
        with open(self.reference_path(), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"pinned {len(points)} points to {self.reference_path()}")


def check_points(points, failures, ref):
    """Keys of the failed points: thrown, missing, or differing from `ref`."""
    failed = {f["key"]: f["why"] for f in failures}
    for key, want in ref.items():
        got = points.get(key)
        if got is None:
            failed.setdefault(key, "missing")
        elif got != want:
            fields = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            failed.setdefault(key, "differs from reference in " + ", ".join(fields))
    for key in points:
        if key not in ref:
            failed.setdefault(key, "not in reference")
    return failed


def paper_errors(points):
    """Mean |AVR / baseline - paper| over the Fig. 11 (DRAM bytes) and
    Fig. 9 (cycles) AVR rows, default configuration."""
    rows = {}
    with open(PAPER_ROWS) as f:
        for row in csv.DictReader(line for line in f if not line.startswith("#")):
            rows.setdefault(row["metric"], []).append(row)
    errs = {}
    for metric, name in (("dram_bytes", "paper_traffic_err"), ("cycles", "paper_exectime_err")):
        diffs = []
        for row in rows[metric]:
            def get(design):
                return points[f"{row['workload']}|{design}|t1=-1|methods=default"][metric]
            diffs.append(abs(get(row["design"]) / get("baseline") - float(row["value"])))
        errs[name] = sum(diffs) / len(diffs)
    return errs


def end_to_end(run, setup, passes, ref):
    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    instructions = sum(m["instructions"] for m in passes[0]["points"].values())
    if run.args.workload == "paper-grid":
        # A point the run lost (already counted as failed) falls back to
        # the reference, so the figure is still defined.
        fidelity, source = {**ref, **passes[0]["points"]}, "this run's points"
    else:
        # These grids simulate no default-config AVR/baseline pair; the
        # figures are those of the pinned paper-grid reference.
        with open(os.path.join(REFERENCE, "paper-grid.json")) as f:
            fidelity, source = json.load(f)["points"], "pinned paper-grid reference"
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "sim_mips": instructions / wall / 1e6,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        **paper_errors(fidelity),
    }
    log(f"passes: {len(passes)}, wall_s each: " + ", ".join(f"{w:.3f}" for w in walls))
    log(f"setup_s each: " + ", ".join(f"{s:.4f}" for s in setup))
    log(f"paper_*_err from {source}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(traced):
    L = traced["layers"]
    wall = traced["wall_s"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for k in ("workloads.run_s", "workloads.make_s", "trace.load_s", "runtime.ctor_s",
              "harness.load_s", "harness.append_s", "harness.claim_s"):
        put(k, L[k], "s")
    for k in ("workloads.accesses", "trace.records", "cpu.accesses",
              "dram.activations", "harness.claim_attempts", "harness.claim_errors"):
        put(k, L[k], "count")
    put("dram.bytes", L["dram.bytes"], "bytes")
    llc_access_s = llc_drain_s = llc_self_s = 0.0
    compressor_s = attempts = successes = bdi = 0
    for d in DESIGNS:
        p = f"llc.{d}."
        request_s, drain_s = L[p + "request_s"], L[p + "drain_s"]
        writeback_s = L[p + "access_writeback_s"] + L[p + "drain_writeback_s"]
        put(p + "request_s", request_s, "s")
        put(p + "writeback_s", writeback_s, "s")
        put(p + "drain_s", drain_s, "s")
        put(p + "requests", L[p + "requests"], "count")
        put(p + "miss_ratio", ratio(L[p + "misses"], L[p + "requests"]), "ratio")
        llc_access_s += request_s + L[p + "access_writeback_s"]
        llc_drain_s += L[p + "drain_writeback_s"] + drain_s
        llc_self_s += request_s + writeback_s + drain_s - L[p + "compressor_s"]
        compressor_s += L[p + "compressor_s"]
        attempts += L[p + "compress_attempts"]
        successes += L[p + "compress_successes"]
        bdi += L[p + "bdi_blocks"]
    # IntervalCore::access self time: the traced Workload::run minus the
    # workload's own time (its hooked golden run) minus the LLC spans.
    workload_self_s = L["workloads.self_s"]
    cpu_s = L["workloads.traced_run_s"] - workload_self_s - llc_access_s
    put("cpu.access_s", cpu_s, "s")
    put("cache.l1_hit_ratio", ratio(L["cache.l1_hits"], L["cache.l1_accesses"]), "ratio")
    put("cache.l2_hit_ratio", ratio(L["cache.l2_hits"], L["cache.l2_accesses"]), "ratio")
    cache_drain_s = L["cache.drain_total_s"] - llc_drain_s
    put("cache.drain_s", cache_drain_s, "s")
    put("compressor.s", compressor_s, "s")
    put("compressor.attempts", attempts, "count")
    put("compressor.success_ratio", ratio(successes, attempts), "ratio")
    put("lossless.bdi_blocks", bdi, "count")
    harness_s = L["harness.load_s"] + L["harness.append_s"] + L["harness.claim_s"]
    put("harness.claim_win_ratio", ratio(L["harness.claim_wins"], L["harness.claim_attempts"]), "ratio")
    put("harness.cache_bytes", traced["cache_bytes"], "bytes")
    put("workloads.self_s", workload_self_s, "s")

    accounted = (L["workloads.make_s"] + L["trace.load_s"] + L["runtime.ctor_s"]
                 + L["workloads.run_s"] + workload_self_s + cpu_s + cache_drain_s
                 + llc_self_s + compressor_s + harness_s)
    put("traced_wall_s", wall, "s")
    put("trace_residual_frac", ratio(wall - accounted, wall), "ratio")
    put("trace_overhead_frac",
        ratio(L["traced_points_s"] - L["untraced_points_s"], L["untraced_points_s"]), "ratio")
    dganger_s = (m["llc.dganger.request_s"]["value"] + m["llc.dganger.writeback_s"]["value"]
                 + m["llc.dganger.drain_s"]["value"])
    put("llc.dganger.share", ratio(dganger_s, wall), "ratio")
    put("compressor.share", ratio(compressor_s, wall), "ratio")
    put("harness.share", ratio(harness_s, wall), "ratio")
    mismatches = [c for c in traced["selfcheck"] if not c["match"]]
    put("selfcheck.mismatches", len(mismatches), "count")
    for c in mismatches:
        log(f"traced/untraced mismatch on {c['key']}: {c['diff']}")
    checked = sorted({c["design"] for c in traced["selfcheck"]})
    log(f"self-check: traced stack vs untraced on {len(traced['selfcheck'])} points "
        f"({', '.join(checked)}), {len(mismatches)} mismatch(es)")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write this run's points as the pinned reference")
    args = ap.parse_args()

    build()
    run = Run(args)
    shutil.rmtree(run.dir, ignore_errors=True)
    os.makedirs(run.dir)
    try:
        info = run.sim("info")
        log(f"machine: {info['cpu_model']}, nproc {info['nproc']}, simd {info['simd']}")
        if args.workload == "claim-churn":
            run.sim("gen-traces", "--seed", str(args.seed), "--dir", run.dir,
                       "--patterns", ",".join(TRACE_PATTERNS))

        if args.trace:
            traced = run.traced()
            passes = [{"points": traced["points"], "failures": traced["failures"]}]
        else:
            setup, passes = run.untraced()

        if args.pin:
            run.pin(passes[0]["points"])
        ref, ref_source = run.reference()
        failed = {}
        for n, p in enumerate(passes):
            for key, why in check_points(p["points"], p["failures"], ref).items():
                failed[f"pass {n}: {key}"] = why
        attempted = len(ref) * len(passes)
        for key, why in sorted(failed.items()):
            log(f"FAILED {key}: {why}")
        log(f"reference: {ref_source}, {len(ref)} points; "
            f"failed_frac {len(failed) / attempted:.6f} ({len(failed)}/{attempted})")

        metrics = per_layer(traced) if args.trace else end_to_end(run, setup, passes, ref)
    finally:
        run.stop_children()
        shutil.rmtree(run.dir, ignore_errors=True)

    # Numbers taken on different machines are never comparable: the stamp
    # names the machine and kernel dispatch level the run measured.
    print(f"stamp: cpu {info['cpu_model']!r}, nproc {info['nproc']}, simd {info['simd']}")
    print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)} of {attempted} points)")
    for name, v in metrics.items():
        print(f"{name:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    # SIGTERM unwinds through main's cleanup, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
