"""Invariant and proof checks, run by ``aggnet verify`` and the acceptance tests.

Each check function asserts one claim on concrete instances and returns a
one-line detail: the capacity result (tree packing reaches the min-mincut,
max flow equals the enumerated min cut), the function properties
aggregation relies on, the runtime invariants both simulators assert in
debug mode, and the footprint counting inequalities of the wireline drift
argument, with the fluid Lyapunov diagnostic they bound.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import flows, fmux, graph as graphmod, wireless, wireline
from .errors import AggNetError, BadParams
from .graph import NetworkGraph
from .harness import random_digraph


# ---------------------------------------------------------------------------
# Footprint counters and the drift argument
# ---------------------------------------------------------------------------

def valid_footprint_masks(g: NetworkGraph) -> list[int]:
    """All valid footprint sets as bitmasks (graphs up to 12 nodes)."""
    if g.n > 12:
        raise BadParams("footprint-set enumeration is limited to 12 nodes")
    return [m for m in range(1 << g.n) if wireline.footprint_is_valid(g, m)]


def _mask_of(nodes) -> int:
    if isinstance(nodes, int):
        return nodes
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def _counters(g: NetworkGraph, x, num=float):
    """The valid footprint masks of `g` and `x` as a map over all of them.

    `x` maps valid footprint sets (frozensets or masks) to nonnegative
    reals; sets it leaves out count zero.  Values are converted with `num`.
    """
    masks = valid_footprint_masks(g)
    xm = dict.fromkeys(masks, num(0))
    for key, value in x.items():
        m = _mask_of(key)
        if m not in xm:
            raise BadParams(f"{key} is not a valid footprint set")
        if value < 0:
            raise BadParams("counter values must be nonnegative")
        xm[m] = num(value)
    return masks, xm


def verify_counting_lemma(g: NetworkGraph, x, alpha: float, _betas=None) -> bool:
    """Check the footprint-counter inequalities used by the drift argument.

    `x` maps valid footprint sets (frozensets or masks) to nonnegative
    reals.  With beta_i = (1 + 1/alpha)^(i-1) the two implications hold for
    every nonnegative x; `_betas` lets tests corrupt the sequence to show
    the choice matters.

    For a set S, x_out(S) sums x over footprints not contained in S.  The
    first implication compares x_out(S) with the mass entering S through a
    single outside node u (all classes T+u with T inside S); the second
    bounds any single outside class against the total useful mass across an
    edge.  Checks run in floats; a failure within float noise of the
    threshold is re-decided exactly with rationals.
    """
    if alpha <= 0:
        raise BadParams("alpha must be positive")
    violations = _counting_lemma_violations(g, x, float(alpha), _betas)
    if not violations:
        return True
    # Near-tie failures get an exact recheck before we call them real.
    exact = _counting_lemma_violations(g, x, Fraction(alpha), _betas, exact=True)
    return not exact


def _counting_lemma_violations(g, x, alpha, _betas, exact=False):
    num = Fraction if exact else float
    masks, xm = _counters(g, x, num)

    if _betas is None:
        ratio = 1 + 1 / alpha
        betas = {i: ratio ** (i - 1) for i in range(1, g.n + 1)}
    else:
        betas = {i: num(b) for i, b in enumerate(_betas, start=1)}
    inv = 1 / (1 + alpha)

    size = {m: m.bit_count() for m in masks}
    x_out = cache(lambda s: sum(xm[m] for m in masks if m & ~s))

    violations = []
    # Implication 1: small entering mass through u forces the next level up.
    for s in masks:
        for u in range(g.n):
            ub = 1 << u
            if s & ub:
                continue
            entering = sum(xm[m] for m in masks if m & ub and not (m & ~ub) & ~s)
            if entering < inv * x_out(s):
                su = s | ub
                if not betas[size[s] + 1] * x_out(su) > betas[size[s]] * x_out(s):
                    violations.append(("enter", s, u))

    # Implication 2: per edge (u,v) into S with enough useful mass, no single
    # outside class may dominate without a larger set beating S.
    for s in masks:
        for (u, v) in g.links:
            ub, vb = 1 << u, 1 << v
            if not s & vb or s & ub:
                continue
            xp = sum(
                xm[m | ub]
                for m in masks
                if m & vb and not m & ub and (m | ub) in xm
            )
            if xp < inv * x_out(s):
                continue
            axp = alpha * xp
            for sp in masks:
                if not sp & ~s:  # sp contained in s
                    continue
                if not sp & vb or sp & ub:
                    continue
                if (sp | ub) in xm and xm[sp | ub] > axp:
                    union = s | sp
                    if not betas[size[union]] * x_out(union) > betas[size[s]] * x_out(s):
                        violations.append(("edge", s, (u, v), sp))
    return violations


def fluid_lyapunov(g: NetworkGraph, x, alpha: float) -> float:
    """max over valid sets S of beta_|S| times the mass outside S."""
    if alpha <= 0:
        raise BadParams("alpha must be positive")
    masks, xm = _counters(g, x)
    ratio = 1.0 + 1.0 / alpha
    best = 0.0
    for s in masks:
        out = sum(xm[m] for m in masks if m & ~s)
        best = max(best, ratio ** (s.bit_count() - 1) * out)
    return best


# ---------------------------------------------------------------------------
# Check functions
# ---------------------------------------------------------------------------

def lift_and_combine(f: fmux.FmuxFunction, values) -> object:
    """Fold combine over lifted values; order independent by construction."""
    values = list(values)
    if not values:
        raise BadParams("need at least one value")
    payload = f.lift(f.check_value(values[0]))
    for x in values[1:]:
        payload = f.combine(payload, f.lift(f.check_value(x)))
    return payload


def offline_evaluate(f: fmux.FmuxFunction, all_sensed) -> object:
    """Ground-truth evaluation on the full sensed vector.

    This goes through the function's direct whole-vector path, not through
    combine, so it is the oracle that check_divisible compares against.
    """
    values = list(all_sensed)
    for x in values:
        f.check_value(x)
    return f.direct(values)


def check_divisible(f: fmux.FmuxFunction, partition, values) -> bool:
    """True iff evaluating per part, combining, then finalizing matches the oracle.

    `partition` is a list of index lists partitioning range(len(values)).
    """
    values = list(values)
    idx = sorted(i for part in partition for i in part)
    if idx != list(range(len(values))):
        raise BadParams("partition does not cover the value indices exactly")
    payload = None
    for part in partition:
        part_payload = lift_and_combine(f, [values[i] for i in part])
        payload = part_payload if payload is None else f.combine(payload, part_payload)
    return f.finalize(payload) == offline_evaluate(f, values)


def _require(claim, detail):
    """Fail the running check with `detail`; unlike assert, kept under python -O."""
    if not claim:
        raise AssertionError(detail)


def _triangle():
    return graphmod.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)


def edmonds_equality():
    """Tree packing over every aggregation tree reaches the min-mincut."""
    seeds = [*range(50), *range(200, 220)]
    worst = 0.0
    for seed in seeds:
        g = random_digraph(seed, n_max=7)
        cut, _ = flows.min_mincut(g, g.capacity)
        trees = flows.enumerate_aggregation_trees(g)
        packing = flows.tree_packing_lp(g, g.capacity, trees)
        gap = abs(packing.total - cut)
        worst = max(worst, gap)
        _require(gap <= 1e-6, f"seed {seed}: packing {packing.total} vs cut {cut}")
        over = packing.max_violation(g)
        _require(over <= 1e-9, f"seed {seed}: packing exceeds a capacity by {over}")
    return f"{len(seeds)} digraphs N<=7, max |gap| = {worst:.2e}"


def enumerated_min_cut(g: NetworkGraph, caps, s: int, t: int) -> float:
    """Brute-force s-t min cut: the cheapest node set holding s and not t."""
    rest = [v for v in range(g.n) if v not in (s, t)]
    return min(
        sum(c for (u, v), c in caps.items() if u in part and v not in part)
        for k in range(len(rest) + 1)
        for extra in combinations(rest, k)
        for part in [{s, *extra}]
    )


def maxflow_mincut_duality():
    """Each sensor's max flow equals its enumerated min cut and its own cut."""
    graphs = [random_digraph(seed, n_max=6) for seed in range(15)]
    graphs += [random_digraph(seed + 100, n_max=5) for seed in range(5)]
    for g in graphs:
        for s in g.sensors:
            value, cut = flows.max_flow(g, g.capacity, s, g.aggregator)
            best = enumerated_min_cut(g, g.capacity, s, g.aggregator)
            _require(value == best, f"flow {value} != cut {best}")
            cut_cap = sum(c for (u, v), c in g.capacity.items()
                          if u in cut and v not in cut)
            _require(abs(cut_cap - value) <= 1e-9, f"returned cut {cut_cap} != {value}")
    return f"flow equals enumerated min cut on {len(graphs)} digraphs"


def fmux_properties():
    """Combining is order-free, fixed-size and divisible for every function."""
    rng = random.Random(7)
    funcs = [fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 8)]
    for f in funcs:
        for _ in range(200):
            values = [rng.randrange(f.alphabet_size) for _ in range(rng.randint(1, 8))]
            p1 = lift_and_combine(f, values)
            shuffled = values[:]
            rng.shuffle(shuffled)
            _require(lift_and_combine(f, shuffled) == p1, f.name)
            _require(len(f.encode_payload(p1)) == len(f.encode_payload(f.lift(values[0]))),
                     f"{f.name}: merged payload changed size")
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
            _require(check_divisible(f, parts, values), f.name)
    return "permutation + divisibility checks on 3 functions"


def wireline_invariants():
    """Debug wireline runs stay assert-clean on the triangle and on K5."""
    tri = wireline.run(_triangle(), 0.8, fmux.make_parity(), seed=1, horizon=16_000.0,
                       debug=True)
    _require(tri.completed >= 10_000, f"only {tri.completed} triangle rounds")
    _require(tri.events >= 10_000, f"only {tri.events} triangle events")
    k5 = graphmod.generate("complete", n=5, capacity=1.0)
    m_k5 = wireline.run(k5, 3.0, fmux.make_parity(), seed=32, horizon=700.0, debug=True)
    _require(m_k5.events >= 10_000, f"only {m_k5.events} K5 events")
    return (f"{tri.events + m_k5.events} wireline events assert-clean "
            f"({tri.completed} triangle rounds)")


def counting_lemma():
    """The counting inequalities hold on random counter vectors."""
    tri = _triangle()
    masks = valid_footprint_masks(tri)
    rng = random.Random(33)
    checked = 0
    for _ in range(10_000):
        x = {m: rng.random() for m in masks}
        for alpha in (0.1, 1.0, 10.0):
            _require(verify_counting_lemma(tri, x, alpha), (x, alpha))
            checked += 1
    return f"counting inequalities hold on {checked} vector/alpha cases"


def shared_channel_invariants():
    """Debug MaxWeight on the 3-node shared channel stays assert-clean."""
    g = _triangle()
    ss = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    trees = flows.enumerate_aggregation_trees(g)
    m = wireless.run(g, ss, trees, fmux.make_max(16), lam=0.45, seed=41,
                     horizon=24_000, debug=True)
    _require(m.completed >= 10_000, f"only {m.completed} rounds")
    return (f"{m.completed} wireless rounds with per-tree flow conservation "
            "assert-clean")


SUITES = {
    "flows": (edmonds_equality, maxflow_mincut_duality),
    "fmux": (fmux_properties,),
    "wireline": (wireline_invariants, counting_lemma),
    "wireless": (shared_channel_invariants,),
}


def _check(fn):
    try:
        return {"name": fn.__name__, "passed": True, "detail": fn()}
    except AssertionError as exc:
        return {"name": fn.__name__, "passed": False, "detail": str(exc)}
    except AggNetError as exc:
        return {"name": fn.__name__, "passed": False,
                "detail": f"{type(exc).__name__}: {exc}"}


def verify(suite: str = "all") -> dict:
    """Run one suite of checks, or all of them; the report is machine readable."""
    if suite != "all" and suite not in SUITES:
        raise BadParams(f"unknown suite {suite!r}")
    selected = SUITES if suite == "all" else {suite: SUITES[suite]}
    suites = {name: [_check(fn) for fn in fns] for name, fns in selected.items()}
    passed = all(c["passed"] for checks in suites.values() for c in checks)
    return {"suites": suites, "passed": passed}
