"""aggnet benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload wireline-k5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run repeats untraced passes of the workload,
after any warm-up passes, for about ``--seconds`` in all, and reports
medians over passes of the end-to-end metrics.  A pass's cost,
``wall_ref``, is its wall time in units of a reference kernel timed while
it runs (see ``refclock.py``), so that it does not swing with the load on
the host's other cores.  With ``--trace 1`` it alternates an untraced and
a traced pass, reports the layer metrics of the traced passes, the
tracing overhead, and fails if a simulated count differs between the
two.  Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is the median of several set-ups (import aggnet, build the
fixtures): this process's own plus fresh child processes.  Files go under
``.perfbench_out/`` in the checkout: the run record, spans of the last
traced pass, and a scratch directory for sweep output that is removed at
exit.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("wireline-k5", "wireless-k5", "capacity-analysis")
SETUP_CHILDREN = 4

# Printed by every end-to-end run and reported again as layer metrics.
# They are 0 on the workloads they do not apply to, so they are not
# end-to-end metrics of the result line; nor is the error rate, which the
# result line carries as `failed` over `attempted`.
RATE_UNITS = {"events_per_s": "1/s", "slots_per_s": "1/s", "rounds_per_s": "1/s"}
LAYER_UNITS = {
    "flows.optimal_sss.s": "s",
    "flows.optimal_sss.calls": "count",
    "flows.optimal_sss.dense_bytes": "computed_bytes",
    "flows.enumerate_aggregation_trees.s": "s",
    "flows.trees": "count",
    "flows.tree_packing_lp.s": "s",
    "flows.tree_packing_lp.calls": "count",
    "flows.min_mincut.s": "s",
    "flows.max_flow.s": "s",
    "flows.max_flow.calls": "count",
    "wireline.run.s": "s",
    "wireline.events": "count",
    "wireline.completed": "count",
    "wireline.max_in_flight": "count",
    "wireline.reestablished": "count",
    "wireless.run.s": "s",
    "wireless.slots": "count",
    "wireless.completed": "count",
    "wireless.maxweight_schedule.s": "s",
    "wireless.maxweight_schedule.calls": "count",
    "wireless.greedy_tree_load.s": "s",
    "wireless.greedy_tree_load.calls": "count",
    "wireless.tree_count": "count",
    "wireless.max_backlog": "count",
    "wireless.served_over_offered": "ratio",
    "fmux.combine.s": "s",
    "fmux.combine.calls": "count",
    "fmux.direct.calls": "count",
    "harness.sweep.s": "s",
    "harness.run_point.s": "s",
    "harness.detect_stability.s": "s",
    "harness.write_csv.s": "s",
    "harness.csv_bytes": "bytes",
    "trace.overhead": "ratio",
    **RATE_UNITS,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(name, seed, scratch):
    """Import aggnet and build the fixtures; returns (module, fixtures, seconds)."""
    t0 = time.perf_counter()
    import workloads
    fx = workloads.WORKLOADS[name].build(seed, str(scratch))
    return workloads, fx, time.perf_counter() - t0


def setup_in_child(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repeat(budget, one):
    """Call `one` until the next call would end past `budget` seconds (at least once)."""
    t0 = time.perf_counter()
    samples, durations = [], []
    while True:
        t = time.perf_counter()
        samples.append(one())
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) > budget:
            return samples


class WallClock:
    """Times a `with` block by wall clock alone (the traced passes)."""

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        return False


class Bench:
    """Passes of one workload, with every outcome checked and counted."""

    def __init__(self, wl_module, name, fx):
        self.module = wl_module
        self.wl = wl_module.WORKLOADS[name]
        self.fx = fx
        self.expected = self.wl.reference(fx)
        self.attempted = 0
        self.failures = []
        self.mismatches = []
        self.tracer = None
        self.ref_samples = []

    def run_pass(self, clock):
        """One pass timed by `clock`, plus its checks: the pass's counts."""
        gc.collect()
        with clock:
            raw = self.wl.run(self.fx)
        outcomes, counts = self.wl.check(self.fx, self.expected, raw)
        self.attempted += len(outcomes)
        self.failures += [o for o in outcomes if not o.ok]
        return counts

    def untraced(self):
        """A pass timed against the reference kernel sampled during it."""
        clock = refclock.RefClock()
        counts = self.run_pass(clock)
        self.ref_samples += clock.samples
        sample = {"wall_s": clock.own, "ref_samples": len(clock.samples)}
        return {**sample, **rates(clock.own, counts)}, counts

    def traced_pair(self):
        """An untraced pass, then a traced one; their exact counts must agree."""
        import spans
        plain, plain_counts = self.untraced()
        tracer = spans.Tracer()
        layer = {}
        self.module.trace_layers(tracer, layer)
        clock = WallClock()
        try:
            counts = self.run_pass(clock)
        finally:
            tracer.restore()
        self.tracer = tracer
        for name, s in tracer.summary().items():
            layer[f"{name}.s"] = s["self_s"]
            layer[f"{name}.calls"] = s["calls"]
        counts["fmux.direct.calls"] = layer.get("fmux.direct.calls", 0)
        self.mismatches += [
            f"{k}: untraced {plain_counts[k]}, traced {counts[k]}"
            for k in self.module.EXACT_COUNTS if plain_counts[k] != counts[k]
        ]
        layer.update(counts)
        layer.update({k: plain[k] for k in RATE_UNITS})
        layer["trace.overhead"] = clock.wall / plain["wall_s"] - 1.0
        return layer


def rates(wall, counts):
    rounds = counts["wireline.completed"] + counts["wireless.completed"]
    return {
        "events_per_s": counts["wireline.events"] / wall,
        "slots_per_s": counts["wireless.slots"] / wall,
        "rounds_per_s": rounds / wall,
    }


def medians(samples, units):
    return {
        k: {"value": statistics.median(float(s.get(k, 0.0)) for s in samples), "unit": u}
        for k, u in units.items()
    }


def run_one(args):
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    try:
        wl_module, fx, own_setup = setup(args.workload, args.seed, scratch)
        setup_s = [own_setup] + [setup_in_child(args.workload, args.seed)
                                 for _ in range(SETUP_CHILDREN)]
        bench = Bench(wl_module, args.workload, fx)
        t0 = time.perf_counter()
        for _ in range(bench.wl.warmup_passes):
            bench.run_pass(WallClock())
        budget = args.seconds - (time.perf_counter() - t0)
        if args.trace:
            samples = repeat(budget, bench.traced_pair)
            metrics = shown = medians(samples, LAYER_UNITS)
        else:
            samples = [s for s, _ in repeat(budget, bench.untraced)]
            wall = statistics.median(s["wall_s"] for s in samples)
            metrics = {"wall_ref": {"value": refclock.cost(wall, bench.ref_samples),
                                    "unit": "ref"}}
            metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"}
            shown = dict(metrics, **medians(samples, {"wall_s": "s", **RATE_UNITS}))
            shown["ref_ms"] = {"value": statistics.fmean(bench.ref_samples) * 1e3,
                               "unit": "ms"}
            shown["error_rate"] = {"value": len(bench.failures) / bench.attempted,
                                   "unit": "ratio"}
        for k, m in shown.items():
            print(f"metric {k} {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = not bench.failures and not bench.mismatches
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "passes": len(samples), "setup_s_samples": setup_s, "samples": samples,
        "ref_s_samples": bench.ref_samples,
        "failures": [vars(o) for o in bench.failures[:20]],
        "count_mismatches": bench.mismatches, "metrics": metrics,
    }
    stem = OUT / f"{args.workload}{'-trace' if args.trace else ''}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if bench.tracer is not None:
        bench.tracer.write(f"{stem}.spans.npz")
    for o in bench.failures[:20]:
        print(f"FAILED {o.name}: {o.detail}")
    for line in bench.mismatches:
        print(f"COUNT MISMATCH {line}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aggnet" / "__init__.py").is_file():
        print(f"perfbench: no aggnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _, _, seconds = setup(args.workload, args.seed, OUT / "probe")
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
