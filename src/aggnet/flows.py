"""Capacity analysis for in-network aggregation.

Everything a policy needs to know about a topology lives here: s-t max
flow with cut extraction, the min-mincut bottleneck (the smallest sensor
to aggregator cut), enumeration of spanning aggregation trees (every
non-aggregator node picks a parent and all parent chains end at the
aggregator), the tree-packing linear program whose optimum equals the
min-mincut, and the service-split LP that picks the best time-sharing
over a wireless schedule set.  `analyze` chains them into one Analysis
record: the bottleneck, its node and cut, the split and the packing.

Enumeration assigns parents sensor by sensor; choosing parent p for
sensor i closes a cycle exactly when the chain of parents already
assigned from p stops at i, so that choice is skipped.  The packing LP
is built from one link-by-tree incidence matrix: every tree's parent
tuple is stacked into one array, checked there against the rules of
AggregationTree.validate, and mapped to link rows in one step.

Rates are packets per time unit throughout; the single bits-to-rounds
conversion lives in max_refresh_rate.

Both LPs go to HiGHS through one entry point, _solve_lp, the only caller
of linprog: it hands small constraint matrices over dense, which skips
part of the wrapper's per-call cost, and names the LP in the error when
the solver fails.  An LP whose answer is forced is not solved: a packing
of one tree is that tree's smallest link capacity, and a split over one
schedule is the min-mincut of its rates.

numpy and scipy are imported only inside the functions that build or
solve an LP: _solve_lp, _tree_incidence, _coo, and tree_packing_lp and
optimal_sss past their one-tree and one-schedule returns.  Max flow, the
min-mincut, enumeration and both simulators are pure Python, so a
process that solves no LP (a wireline sweep, analyze without trees or
with one, and with at most one schedule, a greedy or single-tree
wireless sweep on one schedule) never loads them, and starts in about a
sixth of the time and a quarter of the memory.  The first LP call in a
process pays the import once.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

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
        if not math.isfinite(r):
            raise BadParams(f"rate {r} on link {link} is not finite")


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
    if "schedules" not in doc:
        raise BadParams("schedule file has no 'schedules'")
    schedules = []
    for idx, entry in enumerate(doc["schedules"]):
        if "links" not in entry:
            raise BadParams(f"schedule {idx} has no links")
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


# ---------------------------------------------------------------------------
# The LP entry point
# ---------------------------------------------------------------------------

# Constraint matrices with at most this many entries, rows times columns
# over A_ub and A_eq together, go to HiGHS dense.  linprog converts a dense
# matrix to the same CSC layout as a sparse one (ours hold no explicit
# zeros), so the model and its solution are the same; it only skips the
# wrapper's sparse handling.  Per linprog call, LPs under 10k entries run
# 0.1-0.4 ms faster dense, K6's split (31.9k) and packing (38.9k) tie,
# grid9's one-link split (55.8k) is 0.2 ms slower and grid16's (727k)
# twice as slow.
_DENSE_LP_ENTRIES = 1 << 15


def _solve_lp(label, c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Minimize c @ x over x >= 0, a_ub @ x <= b_ub, a_eq @ x == b_eq, by HiGHS.

    The matrices are scipy sparse.  This is the package's one call to
    linprog, looked up at each call.  Raises LPNumericalFailure, named by
    `label`, when the solver reports no optimum.
    """
    from scipy.optimize import linprog

    entries = sum(a.shape[0] * a.shape[1] for a in (a_ub, a_eq) if a is not None)
    if entries <= _DENSE_LP_ENTRIES:
        a_ub = a_ub.toarray()
        a_eq = None if a_eq is None else a_eq.toarray()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise LPNumericalFailure(f"{label} LP failed: {res.message}")
    return res


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

    def validate(self, g: NetworkGraph):
        pm = self.parent_map
        if len(self.parent) != len(pm) or tuple(sorted(pm)) != g.sensors:
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
    trees = []
    parent = [-1] * g.n  # -1 while unassigned, and always at the aggregator
    pairs = []  # (sensor, parent) so far, ascending by sensor

    def assign(idx):
        if idx == len(sensors):
            if len(trees) >= limit:
                raise TooManyTrees(limit)
            trees.append(AggregationTree(tuple(pairs)))
            return
        i = sensors[idx]
        for p in g.out_neighbors[i]:
            # i -> p closes a cycle exactly when p's chain of assigned
            # parents stops at i, the one unassigned node it must not reach.
            v = p
            while parent[v] >= 0:
                v = parent[v]
            if v == i:
                continue
            parent[i] = p
            pairs.append((i, p))
            assign(idx + 1)
            pairs.pop()
            parent[i] = -1

    assign(0)
    return trees


def load_trees(g: NetworkGraph, spec="all", limit: int = 100_000):
    """Aggregation trees from a tree spec.

    "all" (or None) enumerates every tree, up to `limit`; a path names a
    JSON file holding a list of parent maps, bare or under "trees"; a list
    holds parent maps or AggregationTrees.
    """
    if spec == "all" or spec is None:
        return enumerate_aggregation_trees(g, limit)
    if isinstance(spec, str):
        with open(spec) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "trees" not in doc:
            raise BadParams("tree file has no 'trees'")
        spec = doc["trees"] if isinstance(doc, dict) else doc
    return [
        entry if isinstance(entry, AggregationTree)
        else AggregationTree.from_parent_map({int(i): int(p) for i, p in entry.items()})
        for entry in spec
    ]


@dataclass(frozen=True)
class TreePacking:
    """Nonnegative weights on aggregation trees, feasible for link capacities."""

    trees: tuple[AggregationTree, ...]
    weights: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.weights)

    def link_load(self) -> dict:
        """Total weight per link, over the trees that carry weight."""
        load = {}
        for tree, w in zip(self.trees, self.weights):
            if w <= 0:
                continue
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


def _raise_first_invalid(g: NetworkGraph, trees):
    """Raise the BadParams of the first of `trees` that fails validate()."""
    for t in trees:
        t.validate(g)
    raise BadParams("aggregation tree failed validation")


def _tree_incidence(g: NetworkGraph, trees):
    """Link-by-tree 0/1 CSC matrix, every tree checked as AggregationTree.validate does.

    All parent tuples are stacked into one (tree, sensor, pair) array.  A
    tree is valid when its nodes are exactly the sensors, every (node,
    parent) pair is a link, and every parent chain reaches the aggregator:
    k squarings of the next-hop array follow each chain for 2**k hops.  The
    first invalid tree raises its own validate() error.
    """
    import numpy as np
    import scipy.sparse as sp

    n, a, m = g.n, g.aggregator, len(g.sensors)
    if any(len(t.parent) != m for t in trees):
        _raise_first_invalid(g, trees)
    # Read as floats, so that no non-integer id is truncated into a valid one.
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(t.parent for t in trees)),
                      dtype=float, count=2 * m * len(trees)).reshape(len(trees), m, 2)
    pairs = ids.astype(np.intp)
    nodes, parents = pairs[..., 0], pairs[..., 1]
    ok = (pairs == ids).all(axis=(1, 2)) & (np.sort(nodes, axis=1) == g.sensors).all(axis=1)

    nodes = np.where(ok[:, None], nodes, g.sensors)  # in range from here on
    inside = (parents >= 0) & (parents < n)
    link_of = np.full((n, n), -1)
    link_of[tuple(np.array(g.links).T)] = np.arange(len(g.links))
    link = np.where(inside, link_of[nodes, np.where(inside, parents, a)], -1)
    ok &= (link >= 0).all(axis=1)

    hop = np.full((len(trees), n), a)
    np.put_along_axis(hop, nodes, np.where(ok[:, None], parents, a), axis=1)
    for _ in range(n.bit_length()):
        hop = np.take_along_axis(hop, hop, axis=1)
    ok &= (hop == a).all(axis=1)
    if not ok.all():
        _raise_first_invalid(g, [trees[j] for j in np.flatnonzero(~ok)])

    # One column per tree, its m links in ascending row order: the layout
    # that converting the dense matrix to CSC gives.
    return sp.csc_array((np.ones(link.size), np.sort(link, axis=1).ravel(),
                         np.arange(0, link.size + 1, m)),
                        shape=(len(g.links), len(trees)))


def tree_packing_lp(g: NetworkGraph, caps: RateVector, trees) -> TreePacking:
    """Maximize the total weight over the given trees subject to link capacities.

    When `trees` is the full set of aggregation trees the optimum equals the
    min-mincut.  One tree needs no LP: it is checked and gets weight equal
    to its smallest link capacity, without numpy or scipy.  With more, the
    floating-point solution is re-verified: primal feasibility within 1e-9
    and dual optimality (complementary slackness) within 1e-8, else
    LPNumericalFailure.
    """
    trees = list(trees)
    if not trees:
        raise BadParams("need at least one tree")
    if len(trees) == 1:
        (tree,) = trees
        tree.validate(g)
        validate_rates(g, caps)
        return TreePacking((tree,), (float(min(caps[l] for l in tree.tree_links)),))

    import numpy as np

    a_ub = _tree_incidence(g, trees)
    validate_rates(g, caps)

    n_trees = len(trees)
    b_ub = np.array([caps[l] for l in g.links])
    res = _solve_lp("tree packing", -np.ones(n_trees), a_ub, b_ub)
    x = np.maximum(res.x, 0.0)

    scale = max(1.0, float(np.max(b_ub)))
    primal_viol = float(np.max(a_ub @ x - b_ub, initial=0.0))
    duals = -np.asarray(res.ineqlin.marginals)  # prices on the capacity rows
    reduced = a_ub.T @ duals - 1.0  # each tree's price minus its unit profit
    dual_feas = float(np.min(reduced, initial=0.0))
    comp_slack = float(np.max(np.abs(x * reduced), initial=0.0))
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

    return TreePacking(tuple(trees), tuple(x.tolist()))


# ---------------------------------------------------------------------------
# Optimal static service split
# ---------------------------------------------------------------------------

def _coo(triples, shape):
    """Sparse matrix from (row, col, value) triples."""
    import numpy as np
    import scipy.sparse as sp

    t = np.array(triples, dtype=float).reshape(-1, 3)
    return sp.coo_array((t[:, 2], (t[:, 0].astype(int), t[:, 1].astype(int))), shape=shape)


def _induced_rates(g: NetworkGraph, schedules, pi) -> RateVector:
    """The rate vector a split induces: each link's rates weighted by pi."""
    induced = {l: 0.0 for l in g.links}
    for k, w in pi.items():
        for l, r in schedules[k].rates.items():
            induced[l] += w * r
    return induced


def optimal_sss(g: NetworkGraph, schedule_set: ScheduleSet):
    """Best time-sharing over schedules: maximizes the induced min-mincut.

    Returns (SSSRule, induced RateVector, lam, node): node is the argmin
    node of the min-mincut under the induced rates.  One schedule leaves
    nothing to split: it gets weight 1, and (lam, node) is the min-mincut
    of its rates, found without numpy or scipy.  With more, an LP solves
    for weights pi over the schedule set and, per sensor, a flow of
    common value lam from that sensor to the aggregator under the induced
    rate vector.  Each sensor's flow sees the full induced capacity (cuts
    bound sensors separately), and the min-mincut cross-checks lam.
    """
    schedule_set.validate_links(g)
    schedules = schedule_set.schedules
    if len(schedules) == 1:
        induced = _induced_rates(g, schedules, {0: 1.0})
        return (SSSRule({0: 1.0}), induced, *min_mincut(g, induced))

    import numpy as np
    import scipy.sparse as sp

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
    res = _solve_lp("service split", c, a_ub, np.zeros(n_flows), a_eq, b_eq)

    pi = {k: float(max(res.x[k], 0.0)) + 0.0 for k in range(n_sched)}
    total = sum(pi.values())
    if abs(total - 1.0) > 1e-7:
        raise LPNumericalFailure(
            "service split LP returned weights off the simplex",
            {"weight_sum": total},
        )
    pi = {k: w / total for k, w in pi.items()}
    rule = SSSRule(pi)
    induced = _induced_rates(g, schedules, pi)
    lam = float(res.x[-1])

    # The returned lam must equal the min-mincut under the induced rates.
    check, node = min_mincut(g, induced)
    if abs(check - lam) > 1e-6 * max(1.0, abs(lam)):
        raise LPNumericalFailure(
            "service split optimum disagrees with the induced min-mincut",
            {"lp_value": lam, "min_mincut": check},
        )
    return rule, induced, lam, node


# ---------------------------------------------------------------------------
# The analysis of one topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """Bottleneck, its node and cut, and the split and packing that reach it.

    ``cut`` is the sorted links leaving the argmin node's side of its min
    cut.  ``sss_rule`` is None when wired, ``packing`` None without trees.
    """

    delta_star: float
    argmin_node: int
    cut: tuple[Link, ...]
    sss_rule: SSSRule | None
    packing: TreePacking | None


def analyze(g: NetworkGraph, schedule_set: ScheduleSet = None, trees=None) -> Analysis:
    """The Analysis of one topology, all of it under one rate vector.

    The rates are the wired capacities or, with a schedule set, those its
    optimal split induces; delta_star is then the split's value.
    """
    if schedule_set is None:
        rule, rates = None, g.capacity
        delta_star, node = min_mincut(g, rates)
    else:
        rule, rates, delta_star, node = optimal_sss(g, schedule_set)
    _, side = max_flow(g, rates, node, g.aggregator)
    cut = tuple(sorted(l for l in g.links if l[0] in side and l[1] not in side))
    packing = None if trees is None else tree_packing_lp(g, rates, trees)
    return Analysis(delta_star, node, cut, rule, packing)


def max_refresh_rate(delta_star_bits: float, f) -> float:
    """Convert a bits-per-time-unit bottleneck into rounds per time unit.

    Divides by log2 of the function's output range size.
    """
    if f.range_size < 2:
        raise BadParams("function range must have at least two values")
    return delta_star_bits / f.log2_range
