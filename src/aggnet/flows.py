"""Capacity analysis for in-network aggregation.

Everything a policy needs to know about a topology lives here: s-t max
flow with cut extraction, the min-mincut bottleneck (the smallest sensor
to aggregator cut), enumeration of spanning aggregation trees (every
non-aggregator node picks a parent and all parent chains end at the
aggregator), the tree-packing linear program whose optimum equals the
min-mincut, and the service-split LP that picks the best time-sharing
over a wireless schedule set.

Rates are packets per time unit throughout; the single bits-to-rounds
conversion lives in max_refresh_rate.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import BadParams, LPNumericalFailure, TooManyTrees
from .graph import Link, NetworkGraph

FEAS_TOL = 1e-9
OPT_TOL = 1e-8

RateVector = dict  # Link -> nonnegative rate


def validate_rates(g: NetworkGraph, rates: RateVector):
    if set(rates) != set(g.links):
        raise BadParams("rate vector keys must be exactly the graph's links")
    for link, r in rates.items():
        if r < 0:
            raise BadParams(f"negative rate {r} on link {link}")


# ---------------------------------------------------------------------------
# Schedules and service-split rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """One admissible transmission set: which links fire, at what rates."""

    links: tuple[Link, ...]
    rates: dict[Link, float] = field(default=None)

    def __post_init__(self):
        if self.rates is None:
            object.__setattr__(self, "rates", {l: 1.0 for l in self.links})
        extra = set(self.rates) - set(self.links)
        if extra:
            raise BadParams(f"rates assigned outside the schedule's links: {extra}")
        for l, r in self.rates.items():
            if r < 0:
                raise BadParams(f"negative rate {r} on link {l}")


@dataclass(frozen=True)
class ScheduleSet:
    """The finite family of admissible schedules (the rate region's corners)."""

    schedules: tuple[Schedule, ...]

    def __post_init__(self):
        if not self.schedules:
            raise BadParams("schedule set must be nonempty")

    def __len__(self):
        return len(self.schedules)

    def __iter__(self):
        return iter(self.schedules)

    @property
    def c_max(self) -> float:
        return max((r for s in self.schedules for r in s.rates.values()), default=0.0)

    def validate_links(self, g: NetworkGraph):
        for s in self.schedules:
            for l in s.links:
                if l not in g.capacity:
                    raise BadParams(f"schedule references unknown link {l}")


def wireline_schedule_set(g: NetworkGraph) -> ScheduleSet:
    """Degenerate set with one schedule firing every link at its capacity."""
    return ScheduleSet((Schedule(tuple(g.links), dict(g.capacity)),))


def load_schedule_set(path) -> ScheduleSet:
    with open(path) as fh:
        doc = json.load(fh)
    schedules = []
    for idx, entry in enumerate(doc["schedules"]):
        links = tuple((int(u), int(v)) for u, v in entry["links"])
        if "rates" not in entry:
            raise BadParams(f"schedule {idx} has no rates")
        if len(entry["rates"]) != len(links):
            raise BadParams(f"schedule {idx} lists {len(links)} links but "
                            f"{len(entry['rates'])} rates")
        rates = {l: float(r) for l, r in zip(links, entry["rates"])}
        schedules.append(Schedule(links, rates))
    return ScheduleSet(tuple(schedules))


def save_schedule_set(ss: ScheduleSet, path):
    doc = {
        "schedules": [
            {"links": [list(l) for l in s.links], "rates": [s.rates[l] for l in s.links]}
            for s in ss.schedules
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class SSSRule:
    """Static service split: probability weights over schedule indices."""

    weights: dict[int, float]

    def __post_init__(self):
        total = sum(self.weights.values())
        if any(w < -1e-12 for w in self.weights.values()):
            raise BadParams("SSS weights must be nonnegative")
        if abs(total - 1.0) > 1e-9:
            raise BadParams(f"SSS weights sum to {total}, expected 1")

    def induced_rates(self, ss: ScheduleSet) -> RateVector:
        rates = {}
        for idx, w in self.weights.items():
            for l, r in ss.schedules[idx].rates.items():
                rates[l] = rates.get(l, 0.0) + w * r
        return rates


# ---------------------------------------------------------------------------
# Max flow / min cut
# ---------------------------------------------------------------------------

_EPS = 1e-12


def max_flow(g: NetworkGraph, caps: RateVector, s: int, t: int):
    """Edmonds-Karp max flow from s to t under `caps`.

    Returns (value, cut) where cut is the set of nodes reachable from s in
    the final residual graph; its outgoing capacity equals the flow value
    (exactly for integer capacities, within 1e-9 for fractional ones).
    """
    if s == t:
        raise BadParams("source and sink must differ")
    residual = [dict() for _ in range(g.n)]
    for (u, v), c in caps.items():
        residual[u][v] = residual[u].get(v, 0.0) + c
        residual[v].setdefault(u, 0.0)
    # Sort adjacency once for a deterministic BFS order.
    adj = [sorted(residual[u]) for u in range(g.n)]

    value = 0.0
    while True:
        parent = [-1] * g.n
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v in adj[u]:
                if parent[v] < 0 and residual[u][v] > _EPS:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            break
        bottleneck = float("inf")
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        value += bottleneck

    cut = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in cut and residual[u][v] > _EPS:
                cut.add(v)
                queue.append(v)
    return value, frozenset(cut)


def min_mincut(g: NetworkGraph, caps: RateVector):
    """Smallest sensor-to-aggregator max flow, with its minimizing node.

    Ties are broken by the smallest node id.
    """
    validate_rates(g, caps)
    best_value = None
    best_node = None
    for i in g.sensors:
        value, _ = max_flow(g, caps, i, g.aggregator)
        if best_value is None or value < best_value - _EPS:
            best_value = value
            best_node = i
    return best_value, best_node


# ---------------------------------------------------------------------------
# Aggregation trees and packings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregationTree:
    """Spanning tree oriented toward the aggregator: each sensor has a parent."""

    parent: tuple[tuple[int, int], ...]  # sorted (node, parent) pairs

    @staticmethod
    def from_parent_map(parent_map: dict) -> "AggregationTree":
        return AggregationTree(tuple(sorted((int(i), int(p)) for i, p in parent_map.items())))

    @property
    def parent_map(self) -> dict:
        return dict(self.parent)

    @property
    def tree_links(self) -> tuple[Link, ...]:
        return tuple((i, p) for i, p in self.parent)

    def children_map(self, g: NetworkGraph) -> dict:
        children = {i: [] for i in range(g.n)}
        for i, p in self.parent:
            children[p].append(i)
        return children

    def validate(self, g: NetworkGraph):
        pm = self.parent_map
        if sorted(pm) != g.sensors:
            raise BadParams("tree must assign a parent to every non-aggregator node")
        for i, p in pm.items():
            if (i, p) not in g.capacity:
                raise BadParams(f"tree link ({i},{p}) not in graph")
        for i in pm:
            hops = 0
            v = i
            while v != g.aggregator:
                v = pm[v]
                hops += 1
                if hops >= g.n:
                    raise BadParams("parent chain does not terminate at the aggregator")


def enumerate_aggregation_trees(g: NetworkGraph, limit: int = 100_000):
    """All spanning trees rooted at the aggregator, edges oriented toward it.

    Deterministic order: lexicographic in the parent choice of each sensor
    (sensors and candidate parents both ascending).  Raises TooManyTrees if
    the count would exceed `limit`.
    """
    if limit <= 0:
        raise BadParams("limit must be positive")
    sensors = g.sensors
    a = g.aggregator
    trees = []
    parent = {}

    def chain_ok(start):
        # Following assigned parents from `start` must not loop back into
        # the chain; hitting the aggregator or an unassigned node is fine.
        seen = set()
        v = start
        while v in parent:
            if v in seen:
                return False
            seen.add(v)
            v = parent[v]
        return True

    def assign(idx):
        if idx == len(sensors):
            if len(trees) >= limit:
                raise TooManyTrees(limit)
            trees.append(AggregationTree.from_parent_map(parent))
            return
        i = sensors[idx]
        for p in g.out_neighbors[i]:
            parent[i] = p
            if chain_ok(i):
                assign(idx + 1)
            del parent[i]

    assign(0)
    return trees


@dataclass(frozen=True)
class TreePacking:
    """Nonnegative weights on aggregation trees, feasible for link capacities."""

    trees: tuple[AggregationTree, ...]
    weights: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.weights)

    def link_load(self) -> dict:
        load = {}
        for tree, w in zip(self.trees, self.weights):
            for l in tree.tree_links:
                load[l] = load.get(l, 0.0) + w
        return load

    def max_violation(self, g: NetworkGraph) -> float:
        """Largest capacity overshoot across links (negative means slack)."""
        return max(
            (load - g.capacity[l] for l, load in self.link_load().items()),
            default=float("-inf"),
        )

    def nonzero(self, tol=1e-12) -> "TreePacking":
        kept = [(t, w) for t, w in zip(self.trees, self.weights) if w > tol]
        if not kept:
            return TreePacking((), ())
        ts, ws = zip(*kept)
        return TreePacking(ts, ws)


def tree_packing_lp(g: NetworkGraph, caps: RateVector, trees) -> TreePacking:
    """Maximize the total weight over the given trees subject to link capacities.

    When `trees` is the full set of aggregation trees the optimum equals the
    min-mincut.  The floating-point solution is re-verified: primal
    feasibility within 1e-9 and dual optimality (complementary slackness)
    within 1e-8, else LPNumericalFailure.
    """
    trees = list(trees)
    if not trees:
        raise BadParams("need at least one tree")
    for t in trees:
        t.validate(g)
    validate_rates(g, caps)

    links = list(g.links)
    link_idx = {l: k for k, l in enumerate(links)}
    n_trees = len(trees)
    a_ub = np.zeros((len(links), n_trees))
    for j, tree in enumerate(trees):
        for l in tree.tree_links:
            a_ub[link_idx[l], j] = 1.0
    b_ub = np.array([caps[l] for l in links])
    c = -np.ones(n_trees)

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise LPNumericalFailure(f"tree packing LP failed: {res.message}")
    x = np.maximum(res.x, 0.0)

    scale = max(1.0, float(np.max(b_ub)))
    primal_viol = float(np.max(a_ub @ x - b_ub, initial=0.0))
    duals = -np.asarray(res.ineqlin.marginals)  # prices on the capacity rows
    dual_feas = float(np.min(a_ub.T @ duals - 1.0, initial=0.0))
    comp_slack = float(np.max(np.abs(x * (a_ub.T @ duals - 1.0)), initial=0.0))
    gap = abs(float(x.sum()) - float(duals @ b_ub))
    residuals = {
        "primal_violation": primal_viol,
        "dual_infeasibility": -min(dual_feas, 0.0),
        "complementary_slackness": comp_slack,
        "duality_gap": gap,
    }
    if (
        primal_viol > FEAS_TOL * scale
        or dual_feas < -OPT_TOL * scale
        or comp_slack > OPT_TOL * scale
        or gap > OPT_TOL * scale * max(1.0, n_trees)
    ):
        raise LPNumericalFailure("tree packing LP residual check failed", residuals)

    return TreePacking(tuple(trees), tuple(float(v) for v in x))


# ---------------------------------------------------------------------------
# Optimal static service split
# ---------------------------------------------------------------------------

def _coo(triples, shape):
    """Sparse matrix from (row, col, value) triples."""
    t = np.array(triples, dtype=float).reshape(-1, 3)
    return sp.coo_array((t[:, 2], (t[:, 0].astype(int), t[:, 1].astype(int))), shape=shape)


def optimal_sss(g: NetworkGraph, schedule_set: ScheduleSet):
    """Best time-sharing over schedules: maximizes the induced min-mincut.

    Solves for weights pi over the schedule set and, per sensor, a flow of
    common value lam from that sensor to the aggregator under the induced
    rate vector.  Each sensor's flow sees the full induced capacity (cuts
    bound sensors separately).  Returns (SSSRule, induced RateVector, lam).
    """
    schedule_set.validate_links(g)
    schedules = list(schedule_set.schedules)
    n_sched = len(schedules)
    links = list(g.links)
    n_links = len(links)
    link_idx = {l: k for k, l in enumerate(links)}
    sensors = g.sensors  # every node but the aggregator
    sensor_idx = {v: si for si, v in enumerate(sensors)}
    n_sens = len(sensors)
    n_flows = n_sens * n_links

    # Variable layout: [pi (n_sched)] [flows f^i_e (n_sens * n_links)] [lam].
    # Flow conservation at every non-aggregator node, one block per sensor:
    # +1 where a link leaves the node, -1 where it enters, and -lam at the
    # sensor's own row, since its flow leaves it with value lam.
    incidence = _coo([(sensor_idx[v], li, sign)
                      for li, (x, y) in enumerate(links)
                      for v, sign in ((x, 1.0), (y, -1.0)) if v != g.aggregator],
                     (n_sens, n_links))
    lam_out = _coo([(si * n_sens + si, 0, -1.0) for si in range(n_sens)],
                   (n_sens * n_sens, 1))
    a_eq = sp.vstack([
        sp.hstack([np.ones((1, n_sched)), sp.coo_array((1, n_flows + 1))]),
        sp.hstack([sp.coo_array((n_sens * n_sens, n_sched)),
                   sp.kron(sp.identity(n_sens), incidence), lam_out]),
    ])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0

    # Capacity: each sensor's flow on a link stays within the induced rate,
    # f^i_l - sum_k pi_k rate_k(l) <= 0.
    rate = _coo([(link_idx[l], k, -r) for k, s in enumerate(schedules)
                 for l, r in s.rates.items() if r],
                (n_links, n_sched))
    a_ub = sp.hstack([sp.vstack([rate] * n_sens), sp.identity(n_flows),
                      sp.coo_array((n_flows, 1))])

    c = np.zeros(a_eq.shape[1])
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n_flows),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise LPNumericalFailure(f"service split LP failed: {res.message}")

    pi = {k: float(max(res.x[k], 0.0)) + 0.0 for k in range(n_sched)}
    total = sum(pi.values())
    if abs(total - 1.0) > 1e-7:
        raise LPNumericalFailure(
            "service split LP returned weights off the simplex",
            {"weight_sum": total},
        )
    pi = {k: w / total for k, w in pi.items()}
    rule = SSSRule(pi)
    induced = {l: 0.0 for l in links}
    for k, w in pi.items():
        for l, r in schedules[k].rates.items():
            induced[l] += w * r
    lam = float(res.x[-1])

    # The returned lam must equal the min-mincut under the induced rates.
    check, _ = min_mincut(g, induced)
    if abs(check - lam) > 1e-6 * max(1.0, abs(lam)):
        raise LPNumericalFailure(
            "service split optimum disagrees with the induced min-mincut",
            {"lp_value": lam, "min_mincut": check},
        )
    return rule, induced, lam


def max_refresh_rate(delta_star_bits: float, f=None, log2_range: float = None) -> float:
    """Convert a bits-per-time-unit bottleneck into rounds per time unit.

    Divides by log2 of the function's output range size; `log2_range` may be
    given explicitly to override the function's own accounting.
    """
    if log2_range is None:
        if f is None:
            raise BadParams("need a function or an explicit log2_range")
        if f.range_size < 2:
            raise BadParams("function range must have at least two values")
        log2_range = f.log2_range
    if log2_range <= 0:
        raise BadParams("log2_range must be positive")
    return delta_star_bits / log2_range
