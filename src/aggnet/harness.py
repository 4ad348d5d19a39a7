"""Experiment orchestration: sweeps and stability verdicts.

A simulation run returns its simulator's run record, whose ``times`` and
``backlog`` series the detector turns into a stable / unstable /
inconclusive verdict from the least-squares slope of the post-burn-in
span (with per-window slopes as diagnostics) and a backlog cap, both
scaled to the arrival rate.  Sweeps run a (lambda, seed) grid, have each
run record write its own CSV, persist a JSON summary, and report the
empirical critical rate next to the analytic one from the flow layer.
"""
from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import flows, fmux, graph as graphmod, wireless, wireline
from .errors import BadParams, MultiTreeConfig, SeriesTooShort

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
        # A field the run would never read is refused, not silently ignored.
        if self.model == "wireline" and self.policy != "greedy-maxweight":
            raise BadParams("wireline runs one policy, 'greedy-maxweight'; "
                            f"got {self.policy!r}")
        if self.split_weights is not None and self.policy != "fixed-split":
            raise BadParams("split_weights are read only by policy 'fixed-split', "
                            f"got {self.policy!r}")
        if self.sample_every is not None:
            if self.sample_every <= 0:
                raise BadParams(f"sample_every must be positive, got {self.sample_every}")
            if self.model == "wireless" and self.sample_every < 1:
                raise BadParams(f"wireless sample_every must be at least one slot, "
                                f"got {self.sample_every}")
        if self.model == "wireless":
            # The slot loop would drop a fraction of a slot without a word.
            for name in ("horizon", "sample_every"):
                value = getattr(self, name)
                if value is not None and value % 1:
                    raise BadParams(f"wireless {name} must be a whole number of slots, "
                                    f"got {value}")

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
        return flows.load_trees(g, self.trees, self.tree_limit)

    @cached_property
    def analysis(self) -> flows.Analysis:
        """The analysis every point of a sweep reads; only static-sss packs."""
        g = self.load_graph()
        if self.model == "wireline":
            return flows.analyze(g)
        trees = self.load_trees(g) if self.policy == "static-sss" else None
        return flows.analyze(g, self.load_schedules(g), trees)


# ---------------------------------------------------------------------------
# Single runs and sweeps
# ---------------------------------------------------------------------------

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
    else:
        # Each policy is a choice of the simulator's inputs: the trees, the
        # split weights and the SSS rule.
        rule = weights = None
        if cfg.policy == "static-sss":
            # Best service split, rounds split by the optimal packing of the
            # induced rates.
            rule, packing = cfg.analysis.sss_rule, cfg.analysis.packing
            trees, weights = packing.trees, packing.weights
        else:
            trees = cfg.load_trees(g)
            if cfg.policy == "fixed-split":
                weights = cfg.split_weights or [1.0] * len(trees)
            elif cfg.policy == "single-tree" and len(trees) != 1:
                raise MultiTreeConfig(
                    f"single-tree requires exactly one tree, got {len(trees)}")
        metrics = wireless.run(
            g, cfg.load_schedules(g), trees, func, lam, seed, int(cfg.horizon),
            split_weights=weights, sss_rule=rule, arrival_law=cfg.arrival_law,
            sample_every=int(cfg.sample_every) if cfg.sample_every else None,
            debug=cfg.debug,
        )
    verdict = detect_stability(metrics.times, metrics.backlog, lam, g.n, params, seed=seed)
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
    analysis: flows.Analysis
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
            "delta_star": self.analysis.delta_star,
            "argmin_node": self.analysis.argmin_node,
            # Both simulators move one fixed-size packet per round per transfer,
            # at rates in packets per time unit, so the critical refresh rate in
            # rounds is the bottleneck itself; max_refresh_rate is for bits.
            "lambda_star": self.analysis.delta_star,
            "cut": [list(l) for l in self.analysis.cut],
            "grid": grid,
        }


def sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run the full (lambda, seed) grid and aggregate stability verdicts."""
    # Every point shares one copy of the inputs and of their analysis.
    g = cfg.load_graph()
    cfg.load_function()  # reject a bad function config before any run starts
    if cfg.model == "wireline":
        cfg = replace(cfg, graph=g)
    else:
        cfg = replace(cfg, graph=g, schedules=cfg.load_schedules(g),
                      trees=cfg.load_trees(g))
    analysis = cfg.analysis

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

    result = SweepResult(cfg, verdicts, lambda_hat, analysis, monotonic)
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        for (lam, seed), (_, metrics) in sorted(results.items()):
            name = f"{cfg.model}_{cfg.policy}_lam{lam:g}_seed{seed}.csv"
            path = os.path.join(cfg.output_dir, name)
            metrics.write_csv(path)
            result.csv_paths[(lam, seed)] = path
        with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
            json.dump(result.summary(), fh, indent=2)
            fh.write("\n")
    return result


# The benchmark's traced pass (perfbench/workloads.py) times CSV writing by
# wrapping these two names; they stay until it wraps the records' write_csv.
write_wireline_csv = wireline.WirelineMetrics.write_csv
write_wireless_csv = wireless.WirelessMetrics.write_csv


# ---------------------------------------------------------------------------
# Random instances
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
