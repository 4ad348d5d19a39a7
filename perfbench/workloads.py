"""The benchmark's workloads, their correctness gate and their layer spans.

Each workload has four parts:

* ``build(seed, out_dir)`` makes the fixtures (graphs, schedule sets,
  sweep configs).  Importing this module imports aggnet, so the import
  plus ``build`` is what the benchmark reports as set-up time.
* ``reference(fx)`` computes the expected results, untimed.  Expected
  verdicts come from the analytic capacity in packets, never from
  ``summary.json``'s ``lambda_star``: for wireless runs that field
  divides a packets-per-slot rate by log2 of the output range.
* ``run(fx)`` makes the workload's public calls (``harness.sweep`` or
  ``flows.*``) and returns their raw results; only this part is timed.
* ``check(fx, expected, raw)`` turns the raw results into one outcome per
  operation (a sweep point or an analysis check) plus the counts.

``warmup_passes`` passes run, and are checked, before any pass is timed.

Every sweep runs with ``workers=1``, so each number is single-core cost
and every span is recorded in this process.
"""
from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, replace

from aggnet import flows, fmux, graph, harness, wireless, wireline

KTH = {"name": "kth", "k": 2, "alphabet_size": 16}
TOL = 1e-6

# Counts that must be identical between an untraced and a traced pass of
# the same seed; a difference means tracing changed the program.
EXACT_COUNTS = ("wireline.events", "wireline.completed", "wireless.slots",
                "wireless.completed", "fmux.direct.calls")


@dataclass
class Point:
    """One sweep point, run as its own ``harness.sweep`` call."""

    label: str
    lam: float
    config: harness.ExperimentConfig
    capacity: object  # () -> analytic capacity in packets per time unit


@dataclass
class Outcome:
    name: str
    ok: bool
    detail: str


def _failed(name, exc):
    return Outcome(name, False, "".join(
        traceback.format_exception_only(type(exc), exc)).strip())


class PointLog:
    """Keeps what ``harness.run_point`` returns for each sweep point.

    Installed for the whole run, traced or not, so both kinds of pass see
    the same simulator metrics; it costs one extra call per point.
    """

    def __init__(self):
        self.points = []
        original = harness.run_point

        def run_point(cfg, lam, seed):
            verdict, metrics = original(cfg, lam, seed)
            self.points.append((cfg, lam, verdict, metrics))
            return verdict, metrics

        harness.run_point = run_point


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

def _k5():
    return graph.generate("complete", n=5, capacity=1.0)


def _one_link_schedules(g):
    return flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))


def _point(label, lam, capacity, seed, out_dir, **config):
    cfg = harness.ExperimentConfig(lambdas=[lam], seeds=[seed], workers=1,
                                   output_dir=out_dir, **config)
    return Point(label, lam, cfg, capacity)


# Simulated time and load per sweep point.  Growth above capacity shows
# within a few thousand time units.  A stable verdict needs more: on K5 at
# 0.9x of capacity the wireless greedy point came out inconclusive on one
# seed in thirty at horizon 8k, and the wireline point on one seed in
# twenty at 20k and within 13% of the slope threshold at 40k.  So wireline
# checks stability at 0.8x.  At the horizons below, the largest slope of
# each stable point over 120 to 240 seeds stayed under a third of its
# threshold.
def _wireline_points(seed, out_dir):
    k5 = _k5()

    def cut():
        return flows.min_mincut(k5, k5.capacity)[0]

    return [_point("k5", lam, cut, seed, out_dir, model="wireline", graph=k5,
                   horizon=20_000.0)
            for lam in (3.2, 4.4)]


def _wireless_points(seed, out_dir):
    k5 = _k5()
    wired = flows.wireline_schedule_set(k5)
    star = flows.AggregationTree.from_parent_map({1: 0, 2: 0, 3: 0, 4: 0})
    g3 = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
    shared = _one_link_schedules(g3)

    def k5_cut():
        return flows.min_mincut(k5, k5.capacity)[0]

    def star_packing():
        # One tree: its capacity is what the tree alone can pack.
        return flows.tree_packing_lp(k5, k5.capacity, [star]).total

    def shared_split():
        return flows.optimal_sss(g3, shared)[2]

    def point(label, lam, capacity, g, schedules, policy, horizon, trees="all"):
        return _point(label, lam, capacity, seed, out_dir, model="wireless", graph=g,
                      schedules=schedules, policy=policy, trees=trees, function=KTH,
                      horizon=horizon)

    return [
        point("k5 greedy", 3.6, k5_cut, k5, wired, "greedy-maxweight", 20_000),
        point("k5 greedy", 4.4, k5_cut, k5, wired, "greedy-maxweight", 8_000),
        *(point("k5 single-tree", lam, star_packing, k5, wired, "single-tree", 16_000,
                trees=[star.parent_map]) for lam in (0.9, 1.1)),
        point("k5 static-sss", 3.6, k5_cut, k5, wired, "static-sss", 8_000),
        *(point("channel3 greedy", lam, shared_split, g3, shared, "greedy-maxweight",
                40_000) for lam in (0.45, 0.55)),
    ]


class SimulationWorkload:
    # Passes of 10 s and more show no first-pass cost worth a pass.
    warmup_passes = 0

    def __init__(self, make_points):
        self.make_points = make_points

    def build(self, seed, out_dir):
        return {"points": self.make_points(seed, out_dir), "log": PointLog()}

    def reference(self, fx):
        """Expected verdict per point, from the analytic capacity."""
        return ["stable" if p.lam < p.capacity() else "unstable" for p in fx["points"]]

    def run(self, fx):
        fx["log"].points.clear()
        results = []
        for p in fx["points"]:
            try:
                results.append(harness.sweep(p.config))
            except Exception as exc:  # counted as a failed point, not fatal
                results.append(exc)
        return results

    def check(self, fx, expected, results):
        outcomes = []
        counts = dict.fromkeys(EXACT_COUNTS, 0)
        counts.update({"wireline.max_in_flight": 0, "wireline.reestablished": 0,
                       "wireless.tree_count": 0, "wireless.max_backlog": 0,
                       "harness.csv_bytes": 0})
        for p, want, result in zip(fx["points"], expected, results):
            name = f"{p.label} lam={p.lam:g}"
            if isinstance(result, Exception):
                outcomes.append(_failed(name, result))
                continue
            got = result.verdicts[(p.lam, p.config.seeds[0])].verdict
            csv = result.csv_paths[(p.lam, p.config.seeds[0])]
            written = os.path.isfile(csv)
            outcomes.append(Outcome(name, got == want and written,
                                    f"verdict {got}, expected {want}, csv written {written}"))
            if written:
                counts["harness.csv_bytes"] += os.path.getsize(csv)
        served = offered = 0.0
        for cfg, lam, verdict, m in fx["log"].points:
            if cfg.model == "wireline":
                counts["wireline.events"] += m.events
                counts["wireline.completed"] += m.completed
                counts["wireline.reestablished"] += m.reestablished
                counts["wireline.max_in_flight"] = max(
                    counts["wireline.max_in_flight"], m.max_in_flight)
            else:
                g = cfg.load_graph()
                schedules = cfg.load_schedules(g).schedules
                counts["wireless.slots"] += m.horizon
                counts["wireless.completed"] += m.completed
                counts["wireless.tree_count"] = max(counts["wireless.tree_count"],
                                                    m.tree_count)
                counts["wireless.max_backlog"] = max(counts["wireless.max_backlog"],
                                                     m.max_backlog)
                # Each completed round crossed n-1 tree links; rounds still
                # in flight are ignored, so this is a lower bound.
                served += m.completed * (g.n - 1)
                offered += sum(n * sum(schedules[k].rates.values())
                               for k, n in m.schedule_counts.items())
            # Every completed round is checked once by the function's oracle.
            counts["fmux.direct.calls"] += m.completed
        counts["wireless.served_over_offered"] = served / offered if offered else 0.0
        return outcomes, counts


# ---------------------------------------------------------------------------
# Capacity analysis
# ---------------------------------------------------------------------------

class CapacityWorkload:
    """flows only: packing against min-mincut, service split against its bound."""

    # The first pass in a process runs 1.2-1.4x slower than later ones.
    warmup_passes = 1

    def build(self, seed, out_dir):
        packing = [(f"digraph {seed * 1000 + i}", harness.random_digraph(seed * 1000 + i))
                   for i in range(50)]
        packing.append(("K7", graph.generate("complete", n=7, capacity=1.0)))
        packing.append(("grid9", graph.generate("grid", n=9)))
        grids = {n: graph.generate("grid", n=n) for n in (25, 36, 49)}
        return {
            "packing": packing,
            "sss_wired": [(f"grid{n} wired", g, flows.wireline_schedule_set(g))
                          for n, g in grids.items()],
            "sss_one_link": [(f"grid{n} one-link", grids[n], _one_link_schedules(grids[n]))
                             for n in (25, 36)],
        }

    def reference(self, fx):
        """Expected service-split value per instance.

        With the wired set the split must reach the min-mincut.  With one
        link at a time, each sensor's out-links must carry lam and those
        link sets are disjoint, so lam <= 1/(n-1); one spanning tree's
        links at 1/(n-1) each reach it.
        """
        expected = {label: flows.min_mincut(g, g.capacity)[0]
                    for label, g, _ in fx["sss_wired"]}
        expected.update({label: 1.0 / (g.n - 1) for label, g, _ in fx["sss_one_link"]})
        return expected

    def run(self, fx):
        packings, splits = [], []
        for label, g in fx["packing"]:
            try:
                cut, _ = flows.min_mincut(g, g.capacity)
                trees = flows.enumerate_aggregation_trees(g)
                packings.append((label, g, cut, flows.tree_packing_lp(g, g.capacity, trees)))
            except Exception as exc:  # counted as a failed check, not fatal
                packings.append((label, g, None, exc))
        for label, g, schedules in fx["sss_wired"] + fx["sss_one_link"]:
            try:
                splits.append((label, flows.optimal_sss(g, schedules)[2]))
            except Exception as exc:
                splits.append((label, exc))
        return packings, splits

    def check(self, fx, expected, results):
        packings, splits = results
        outcomes = []
        for label, g, cut, packing in packings:
            if isinstance(packing, Exception):
                outcomes.append(_failed(label, packing))
                continue
            ok = abs(packing.total - cut) <= TOL and packing.max_violation(g) <= 1e-9
            outcomes.append(Outcome(label, ok, f"packing {packing.total!r}, min-mincut {cut!r}"))
        for label, lam in splits:
            if isinstance(lam, Exception):
                outcomes.append(_failed(label, lam))
                continue
            ok = abs(lam - expected[label]) <= TOL
            outcomes.append(Outcome(label, ok, f"split {lam!r}, expected {expected[label]!r}"))
        return outcomes, dict.fromkeys(EXACT_COUNTS, 0)


WORKLOADS = {
    "wireline-k5": SimulationWorkload(_wireline_points),
    "wireless-k5": SimulationWorkload(_wireless_points),
    "capacity-analysis": CapacityWorkload(),
}


# ---------------------------------------------------------------------------
# Layer spans
# ---------------------------------------------------------------------------

def _lp_dense_bytes(g, schedule_set):
    """Bytes of optimal_sss's dense constraint matrices, from its layout."""
    n_sens, n_links = g.n - 1, len(g.links)
    n_var = len(schedule_set) + n_sens * n_links + 1
    rows = 1 + n_sens * (g.n - 1) + n_sens * n_links
    return 8 * rows * n_var


def trace_layers(tracer, counts):
    """Wrap the public calls of every layer; fill `counts` as they return."""
    counts.update({"flows.trees": 0, "flows.optimal_sss.dense_bytes": 0})

    def count_trees(args, kwargs, trees):
        counts["flows.trees"] += len(trees)

    def dense_bytes(args, kwargs, result):
        counts["flows.optimal_sss.dense_bytes"] = max(
            counts["flows.optimal_sss.dense_bytes"], _lp_dense_bytes(*args[:2]))

    for attr in ("max_flow", "min_mincut", "tree_packing_lp"):
        tracer.patch(flows, attr, f"flows.{attr}")
    tracer.patch(flows, "enumerate_aggregation_trees",
                 "flows.enumerate_aggregation_trees", count_trees)
    tracer.patch(flows, "optimal_sss", "flows.optimal_sss", dense_bytes)
    tracer.patch(wireline, "run", "wireline.run")
    tracer.patch(wireless.WirelessSimulator, "run", "wireless.run")
    tracer.patch(wireless, "maxweight_schedule", "wireless.maxweight_schedule")
    tracer.patch(wireless, "greedy_tree_load", "wireless.greedy_tree_load")
    for attr in ("sweep", "run_point", "detect_stability"):
        tracer.patch(harness, attr, f"harness.{attr}")
    for attr in ("write_wireline_csv", "write_wireless_csv"):
        tracer.patch(harness, attr, "harness.write_csv")

    # combine and direct are fields of each function object, so trace the
    # objects the config factory hands to the simulators.
    make = fmux.function_from_config

    def function_from_config(cfg):
        f = make(cfg)
        return replace(f, combine=tracer.traced(f.combine, "fmux.combine"),
                       direct=tracer.traced(f.direct, "fmux.direct"))

    tracer.replace(fmux, "function_from_config", function_from_config)
