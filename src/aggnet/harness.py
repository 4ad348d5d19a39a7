"""Experiment orchestration: sweeps, stability verdicts, verification batteries.

A simulation run produces a backlog time series; the detector turns it
into a stable / unstable / inconclusive verdict from the least-squares
slope of the post-burn-in span (with per-window slopes as diagnostics)
and a backlog cap, both scaled to the arrival rate.  Sweeps run a
(lambda, seed) grid, persist per-run CSVs plus a JSON summary, and report
the empirical critical rate next to the analytic one from the flow layer.
"""
from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import flows, fmux, graph as graphmod, wireless, wireline
from .errors import AggNetError, BadParams, SeriesTooShort

POLICIES = ("greedy-maxweight", "static-sss", "single-tree", "fixed-split")


# ---------------------------------------------------------------------------
# Stability detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorParams:
    burn_in_frac: float = 0.2
    windows: int = 5                  # per-window slopes kept as diagnostics
    eps_stable_factor: float = 0.01   # slope threshold, times lambda
    eps_unstable_factor: float = 0.05
    q_cap_factor: float = 150.0       # backlog cap, times lambda * N
    q_cap_floor: float = 4000.0       # random forwarding has heavy stationary mass

    @staticmethod
    def from_dict(d: dict) -> "DetectorParams":
        return DetectorParams(**d) if d else DetectorParams()


@dataclass
class StabilityVerdict:
    lam: float
    seed: int
    slope: float                      # regression over the post-burn-in span
    max_queue: float
    verdict: str                      # stable | unstable | inconclusive
    eps_stable: float
    eps_unstable: float
    q_cap: float
    window_slopes: list = field(default_factory=list)


def _ls_slope(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def detect_stability(times, series, lam, n_nodes,
                     params: DetectorParams = DetectorParams(),
                     seed: int = -1) -> StabilityVerdict:
    """Classify a backlog trajectory.

    Discards the first burn-in fraction and regresses the backlog on time
    over the remaining span (per-window slopes are reported alongside).
    Stable requires both a flat trend and a bounded maximum; a clearly
    positive trend is unstable; anything between is inconclusive.
    """
    required = params.windows * 10
    if len(series) < required:
        raise SeriesTooShort(len(series), required)
    start = int(len(series) * params.burn_in_frac)
    ts = list(times[start:])
    qs = list(series[start:])
    slope = _ls_slope(ts, qs)
    span = len(qs) // params.windows
    window_slopes = []
    for w in range(params.windows):
        lo = w * span
        hi = (w + 1) * span if w < params.windows - 1 else len(qs)
        window_slopes.append(_ls_slope(ts[lo:hi], qs[lo:hi]))

    eps_s = params.eps_stable_factor * lam
    eps_u = params.eps_unstable_factor * lam
    q_cap = max(params.q_cap_factor * lam * n_nodes, params.q_cap_floor)
    peak = max(qs)
    if slope <= eps_s and peak <= q_cap:
        verdict = "stable"
    elif slope >= eps_u:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(lam, seed, slope, peak, verdict, eps_s, eps_u, q_cap,
                            window_slopes)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    model: str                       # wireline | wireless
    lambdas: list
    seeds: list
    horizon: float
    graph: object = None             # NetworkGraph or path
    function: dict = field(default_factory=lambda: {"name": "parity"})
    policy: str = "greedy-maxweight"
    schedules: object = None         # ScheduleSet or path; wireless only
    trees: object = "all"            # "all" | path | list of parent maps
    tree_limit: int = 100_000
    sample_every: float = None
    arrival_law: str = "poisson"
    split_weights: list = None
    detector: dict = field(default_factory=dict)
    output_dir: str = None
    workers: int = 1
    debug: bool = False

    def __post_init__(self):
        if self.model not in ("wireline", "wireless"):
            raise BadParams(f"unknown model {self.model!r}")
        if self.policy not in POLICIES:
            raise BadParams(f"unknown policy {self.policy!r}")
        if not self.seeds:
            raise BadParams("need at least one seed")

    @staticmethod
    def from_json(path, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return ExperimentConfig(**doc)

    def load_graph(self) -> graphmod.NetworkGraph:
        if isinstance(self.graph, graphmod.NetworkGraph):
            return self.graph
        if isinstance(self.graph, str):
            return graphmod.load_graph(self.graph)
        raise BadParams("config has no graph")

    def load_function(self) -> fmux.FmuxFunction:
        return fmux.function_from_config(self.function)

    def load_schedules(self, g) -> flows.ScheduleSet:
        if isinstance(self.schedules, flows.ScheduleSet):
            return self.schedules
        if isinstance(self.schedules, str):
            return flows.load_schedule_set(self.schedules)
        # Wired-as-wireless default: one schedule firing every link.
        return flows.wireline_schedule_set(g)

    def load_trees(self, g):
        if self.trees == "all" or self.trees is None:
            return flows.enumerate_aggregation_trees(g, self.tree_limit)
        if isinstance(self.trees, str):
            with open(self.trees) as fh:
                doc = json.load(fh)
            entries = doc["trees"] if isinstance(doc, dict) else doc
        else:
            entries = self.trees
        out = []
        for entry in entries:
            if isinstance(entry, flows.AggregationTree):
                out.append(entry)
            else:
                out.append(flows.AggregationTree.from_parent_map(
                    {int(k): int(v) for k, v in entry.items()}
                ))
        return out


# ---------------------------------------------------------------------------
# Single runs and sweeps
# ---------------------------------------------------------------------------

def _wireless_policy_setup(cfg: ExperimentConfig, g, schedule_set, trees):
    """Resolve routing/scheduling plus any derived weights for the policy."""
    if cfg.policy == "greedy-maxweight":
        return dict(routing="greedy", scheduling="maxweight")
    if cfg.policy == "single-tree":
        return dict(routing="single_tree", scheduling="maxweight")
    if cfg.policy == "fixed-split":
        weights = cfg.split_weights or [1.0] * len(trees)
        return dict(routing="fixed_split", scheduling="maxweight", split_weights=weights)
    # static-sss: best service split from the LP, rounds split by the
    # optimal packing of the induced rates.
    rule, induced, _ = flows.optimal_sss(g, schedule_set)
    packing = flows.tree_packing_lp(g, induced, trees)
    weights = [max(w, 0.0) for w in packing.weights]
    if sum(weights) <= 0:
        raise BadParams("optimal packing is empty; cannot split rounds")
    return dict(routing="fixed_split", scheduling="static_sss",
                split_weights=weights, sss_rule=rule)


def run_point(cfg: ExperimentConfig, lam: float, seed: int):
    """Run one (lambda, seed) simulation and return (verdict, metrics)."""
    g = cfg.load_graph()
    func = cfg.load_function()
    params = DetectorParams.from_dict(cfg.detector)
    if cfg.model == "wireline":
        metrics = wireline.run(
            g, lam, func, seed, cfg.horizon,
            sample_every=cfg.sample_every, debug=cfg.debug,
        )
        series = metrics.in_flight
        times = metrics.times
    else:
        schedule_set = cfg.load_schedules(g)
        trees = cfg.load_trees(g)
        setup = _wireless_policy_setup(cfg, g, schedule_set, trees)
        sim = wireless.WirelessSimulator(
            g, schedule_set, trees, func,
            wireless.ArrivalProcess(cfg.arrival_law, lam), seed,
            debug=cfg.debug, **setup,
        )
        metrics = sim.run(int(cfg.horizon), sample_every=(
            int(cfg.sample_every) if cfg.sample_every else None))
        series = metrics.backlog_series
        times = metrics.slots
    verdict = detect_stability(times, series, lam, g.n, params, seed=seed)
    return verdict, metrics


def _run_point_job(args):
    cfg, lam, seed = args
    verdict, metrics = run_point(cfg, lam, seed)
    return lam, seed, verdict, metrics


@dataclass
class SweepResult:
    config: ExperimentConfig
    verdicts: dict                  # (lam, seed) -> StabilityVerdict
    lambda_hat: float
    analytic: dict
    monotonic: bool
    csv_paths: dict = field(default_factory=dict)

    def summary(self) -> dict:
        grid = []
        for lam in self.config.lambdas:
            per_seed = {
                str(seed): self.verdicts[(lam, seed)].verdict
                for seed in self.config.seeds
            }
            grid.append({
                "lambda": lam,
                "verdicts": per_seed,
                "stable_all": all(v == "stable" for v in per_seed.values()),
            })
        return {
            "model": self.config.model,
            "policy": self.config.policy,
            "lambda_hat": self.lambda_hat,
            "monotonic": self.monotonic,
            "definitive": len(self.config.seeds) >= 3,
            **self.analytic,
            "grid": grid,
        }


def sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run the full (lambda, seed) grid and aggregate stability verdicts."""
    g = cfg.load_graph()
    func = cfg.load_function()

    analytic = {}
    if cfg.model == "wireless":
        # The bottleneck node is the one under the split's induced rates,
        # as in `aggnet analyze`, not under the wired capacities.
        _, induced, delta_star = flows.optimal_sss(g, cfg.load_schedules(g))
        _, argmin_node = flows.min_mincut(g, induced)
    else:
        delta_star, argmin_node = flows.min_mincut(g, g.capacity)
    analytic["delta_star"] = delta_star
    analytic["argmin_node"] = argmin_node
    analytic["lambda_star"] = flows.max_refresh_rate(delta_star, func)

    jobs = [(lam, seed) for lam in cfg.lambdas for seed in cfg.seeds]
    results = {}
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for lam, seed, verdict, metrics in pool.map(
                _run_point_job, [(cfg, lam, seed) for lam, seed in jobs]
            ):
                results[(lam, seed)] = (verdict, metrics)
    else:
        for lam, seed in jobs:
            results[(lam, seed)] = run_point(cfg, lam, seed)

    verdicts = {key: v for key, (v, _) in results.items()}
    lambda_hat = 0.0
    for lam in sorted(cfg.lambdas):
        if all(verdicts[(lam, s)].verdict == "stable" for s in cfg.seeds):
            lambda_hat = max(lambda_hat, lam)

    # Sanity: the stable region should be a prefix of the lambda grid.
    rank = {"stable": 2, "inconclusive": 1, "unstable": 0}
    per_lam = [
        min(rank[verdicts[(lam, s)].verdict] for s in cfg.seeds)
        for lam in sorted(cfg.lambdas)
    ]
    monotonic = all(a >= b for a, b in zip(per_lam, per_lam[1:]))

    result = SweepResult(cfg, verdicts, lambda_hat, analytic, monotonic)
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        for (lam, seed), (_, metrics) in sorted(results.items()):
            name = f"{cfg.model}_{cfg.policy}_lam{lam:g}_seed{seed}.csv"
            path = os.path.join(cfg.output_dir, name)
            if cfg.model == "wireline":
                write_wireline_csv(metrics, path)
            else:
                write_wireless_csv(metrics, path)
            result.csv_paths[(lam, seed)] = path
        with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
            json.dump(result.summary(), fh, indent=2)
            fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_wireline_csv(metrics: wireline.WirelineMetrics, path):
    with open(path, "w") as fh:
        fh.write("time,rounds_in_flight,completed,mean_latency\n")
        for t, q, c, ml in metrics.csv_rows():
            fh.write(f"{t:.6f},{q},{c},{ml:.6f}\n")


def write_wireless_csv(metrics: wireless.WirelessMetrics, path):
    with open(path, "w") as fh:
        tree_cols = ",".join(f"tree_{k}" for k in range(metrics.tree_count))
        fh.write(f"slot,total_useful,total_nonuseful,V,completed,mean_latency,{tree_cols}\n")
        for row in metrics.csv_rows():
            slot, useful, nonuseful, v, completed, ml, *loads = row
            loads_txt = ",".join(str(x) for x in loads)
            fh.write(f"{slot},{useful},{nonuseful},{v:.1f},{completed},{ml:.6f},{loads_txt}\n")


# ---------------------------------------------------------------------------
# Verification batteries
# ---------------------------------------------------------------------------

def random_digraph(seed: int, n_max: int = 7):
    """Seeded random digraph with integer capacities 1..4, aggregator 0.

    Any node that cannot reach the aggregator gets a direct link, so the
    instance is always valid; cycles are allowed.
    """
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    links = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                links.add((u, v))
    caps = {l: float(rng.randint(1, 4)) for l in links}
    # Patch reachability by walking backwards from the aggregator.
    while True:
        reach = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for (x, y) in links:
                if y == v and x not in reach:
                    reach.add(x)
                    frontier.append(x)
        missing = [u for u in range(n) if u not in reach]
        if not missing:
            break
        u = missing[0]
        links.add((u, 0))
        caps[(u, 0)] = float(rng.randint(1, 4))
    return graphmod.build_graph(n, 0, sorted(links), caps)


def _check(name, fn):
    try:
        detail = fn()
        return {"name": name, "passed": True, "detail": detail or "ok"}
    except AssertionError as exc:
        return {"name": name, "passed": False, "detail": str(exc)}
    except AggNetError as exc:
        return {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}


def _verify_flows():
    checks = []

    def edmonds():
        worst = 0.0
        for seed in range(50):
            g = random_digraph(seed)
            cut, _ = flows.min_mincut(g, g.capacity)
            trees = flows.enumerate_aggregation_trees(g)
            packing = flows.tree_packing_lp(g, g.capacity, trees)
            worst = max(worst, abs(packing.total - cut))
            assert abs(packing.total - cut) <= 1e-6, \
                f"packing {packing.total} != min-mincut {cut} (seed {seed})"
            assert packing.max_violation(g) <= 1e-9
        return f"50 digraphs, max |gap| {worst:.2e}"

    def duality():
        from itertools import combinations
        for seed in range(5):
            g = random_digraph(seed + 100, n_max=5)
            for s in g.sensors:
                value, _ = flows.max_flow(g, g.capacity, s, g.aggregator)
                rest = [v for v in range(g.n) if v not in (s, g.aggregator)]
                best = min(
                    sum(c for (u, v), c in g.capacity.items()
                        if u in part and v not in part)
                    for k in range(len(rest) + 1)
                    for extra in combinations(rest, k)
                    for part in [{s, *extra}]
                )
                assert abs(value - best) <= 1e-9, f"flow {value} != cut {best}"
        return "flow equals enumerated min cut on 5 digraphs"

    checks.append(_check("edmonds_equality", edmonds))
    checks.append(_check("maxflow_mincut_duality", duality))
    return checks


def _verify_fmux():
    checks = []

    def properties():
        rng = random.Random(7)
        funcs = [fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 8)]
        for f in funcs:
            for _ in range(200):
                values = [rng.randrange(f.alphabet_size) for _ in range(rng.randint(1, 8))]
                p1 = fmux.lift_and_combine(f, values)
                shuffled = values[:]
                rng.shuffle(shuffled)
                assert fmux.lift_and_combine(f, shuffled) == p1, f.name
                assert len(f.encode_payload(p1)) == len(f.encode_payload(f.lift(values[0])))
            for _ in range(200):
                n = rng.randint(2, 8)
                values = [rng.randrange(f.alphabet_size) for _ in range(n)]
                if f.k and n < f.k:
                    continue
                idx = list(range(n))
                rng.shuffle(idx)
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)) or [])
                parts, prev = [], 0
                for c in cuts + [n]:
                    parts.append(idx[prev:c])
                    prev = c
                parts = [p for p in parts if p]
                assert fmux.check_divisible(f, parts, values), f.name
        return "permutation + divisibility checks on 3 functions"

    checks.append(_check("fmux_properties", properties))
    return checks


def _verify_wireline():
    checks = []

    def triangle_invariants():
        g = graphmod.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
        sim = wireline.WirelineSimulator(g, 0.8, fmux.make_parity(), seed=1, debug=True)
        m = sim.run(16_000.0)
        assert m.completed >= 10_000, f"only {m.completed} rounds"
        return f"{m.events} events, {m.completed} rounds, assert-clean"

    def counting_lemma():
        g = graphmod.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
        masks = wireline.valid_footprint_masks(g)
        rng = random.Random(3)
        for alpha in (0.1, 1.0, 10.0):
            for _ in range(200):
                x = {m: rng.random() for m in masks}
                assert wireline.verify_counting_lemma(g, x, alpha)
        return "600 random counter vectors"

    checks.append(_check("triangle_invariants", triangle_invariants))
    checks.append(_check("counting_lemma", counting_lemma))
    return checks


def _verify_wireless():
    checks = []

    def shared_channel():
        g = graphmod.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
        ss = flows.ScheduleSet(tuple(
            flows.Schedule((l,), {l: 1.0}) for l in g.links
        ))
        trees = flows.enumerate_aggregation_trees(g)
        m = wireless.run(g, ss, trees, fmux.make_max(16), lam=0.4, seed=5,
                         horizon=5000, debug=True)
        assert m.completed >= 1000
        return f"{m.completed} rounds, Type-AT and flow conservation clean"

    checks.append(_check("shared_channel_invariants", shared_channel))
    return checks


def verify(suite: str = "all") -> dict:
    """Run the invariant batteries; report is machine readable."""
    suites = {
        "flows": _verify_flows,
        "fmux": _verify_fmux,
        "wireline": _verify_wireline,
        "wireless": _verify_wireless,
    }
    if suite != "all" and suite not in suites:
        raise BadParams(f"unknown suite {suite!r}")
    selected = suites if suite == "all" else {suite: suites[suite]}
    report = {"suites": {}, "passed": True}
    for name, fn in selected.items():
        checks = fn()
        report["suites"][name] = checks
        if any(not c["passed"] for c in checks):
            report["passed"] = False
    return report
