import hashlib
import json
import random
import subprocess
import sys
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from aggnet import checks, flows, fmux, graph
from aggnet.errors import BadParams, LPNumericalFailure, TooManyTrees
from aggnet.harness import random_digraph


def arborescence_count(g):
    """Directed matrix-tree count of spanning trees oriented toward the root."""
    n = g.n
    adj = np.zeros((n, n))
    for u, v in g.links:
        adj[u, v] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    keep = [i for i in range(n) if i != g.aggregator]
    minor = lap[np.ix_(keep, keep)]
    return int(round(np.linalg.det(minor)))


# ---------------------------------------------------------------------------
# max flow / min-mincut
# ---------------------------------------------------------------------------

def test_max_flow_triangle_matches_cut_enumeration(triangle):
    caps = triangle.capacity
    value, cut = flows.max_flow(triangle, caps, 2, 0)
    assert value == checks.enumerated_min_cut(triangle, caps, 2, 0) == 2
    assert cut == frozenset({2})
    value, _ = flows.max_flow(triangle, caps, 1, 0)
    assert value == checks.enumerated_min_cut(triangle, caps, 1, 0) == 1


def test_max_flow_zero_caps(triangle):
    caps = {l: 0.0 for l in triangle.links}
    value, _ = flows.max_flow(triangle, caps, 2, 0)
    assert value == 0.0


def test_max_flow_duality_random_digraphs():
    checks.maxflow_mincut_duality()


def test_min_mincut_triangle(triangle):
    value, node = flows.min_mincut(triangle, triangle.capacity)
    assert value == 1.0
    assert node == 1


def test_min_mincut_k5(k5):
    value, node = flows.min_mincut(k5, k5.capacity)
    assert value == 4.0
    assert node == 1  # four-way tie broken by smallest id


def test_min_mincut_line_bottleneck():
    g = graph.build_graph(3, 0, [(1, 0), (2, 1)], {(1, 0): 2.0, (2, 1): 1.0})
    value, node = flows.min_mincut(g, g.capacity)
    assert value == 1.0 and node == 2


# ---------------------------------------------------------------------------
# tree enumeration
# ---------------------------------------------------------------------------

def test_enumerate_line_single_tree(line3):
    trees = flows.enumerate_aggregation_trees(line3)
    assert len(trees) == 1
    assert trees[0].parent_map == {1: 0, 2: 1}


def test_enumerate_triangle(triangle):
    trees = flows.enumerate_aggregation_trees(triangle)
    assert [t.parent_map for t in trees] == [{1: 0, 2: 0}, {1: 0, 2: 1}]


def test_enumerate_counts_match_matrix_tree(k5):
    assert len(flows.enumerate_aggregation_trees(k5)) == arborescence_count(k5) == 125
    for seed in range(8):
        g = random_digraph(seed + 50, n_max=5)
        assert len(flows.enumerate_aggregation_trees(g)) == arborescence_count(g)


def test_enumerate_limit(k5):
    with pytest.raises(TooManyTrees):
        flows.enumerate_aggregation_trees(k5, limit=10)


def brute_force_trees(g):
    """Every parent choice per sensor, in lexicographic order, kept when all
    parent chains reach the aggregator."""
    trees = []
    for choice in product(*(g.out_neighbors[i] for i in g.sensors)):
        parent = dict(zip(g.sensors, choice))

        def reaches(v):
            for _ in range(g.n):
                if v == g.aggregator:
                    return True
                v = parent[v]
            return False

        if all(reaches(i) for i in g.sensors):
            trees.append(tuple(zip(g.sensors, choice)))
    return trees


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_enumeration_matches_brute_force(seed):
    g = random_digraph(seed, n_max=6)
    trees = flows.enumerate_aggregation_trees(g)
    assert [t.parent for t in trees] == brute_force_trees(g)


def test_tree_validation(triangle):
    with pytest.raises(BadParams):
        flows.AggregationTree.from_parent_map({1: 0}).validate(triangle)
    with pytest.raises(BadParams):
        flows.AggregationTree.from_parent_map({1: 2, 2: 1}).validate(triangle)


@pytest.mark.parametrize("pairs, message", [
    (((1, 0), (2, 0), (3, 0)), "every non-aggregator node"),
    (((0, 1), (1, 0), (2, 0), (3, 0), (4, 0)), "every non-aggregator node"),
    (((1, 0), (1, 2), (2, 0), (3, 0), (4, 0)), "every non-aggregator node"),
    (((2, 2), (1, 0), (3, 0), (4, 0)), r"tree link \(2,2\) not in graph"),
    (((1, 0), (2, 5), (3, 0), (4, 0)), r"tree link \(2,5\) not in graph"),
    (((1, 0), (2, -1), (3, 0), (4, 0)), r"tree link \(2,-1\) not in graph"),
    (((1, 2), (2, 1), (3, 0), (4, 0)), "does not terminate at the aggregator"),
    (((1, 2), (2, 3), (3, 1), (4, 0)), "does not terminate at the aggregator"),
], ids=["missing-parent", "parent-of-aggregator", "two-parents", "self-link",
        "parent-too-large", "parent-negative", "two-cycle", "three-cycle"])
def test_packing_rejects_invalid_tree_among_valid(k5, pairs, message):
    bad = flows.AggregationTree(pairs)
    with pytest.raises(BadParams, match=message) as direct:
        bad.validate(k5)
    trees = flows.enumerate_aggregation_trees(k5)
    with pytest.raises(BadParams) as packed:
        flows.tree_packing_lp(k5, k5.capacity, trees[:60] + [bad] + trees[60:])
    assert str(packed.value) == str(direct.value)
    # Alone it solves no LP, and is still checked before the rates.
    for caps in (k5.capacity, {}):
        with pytest.raises(BadParams) as alone:
            flows.tree_packing_lp(k5, caps, [bad])
        assert str(alone.value) == str(direct.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_packing_rejects_non_finite_rates(triangle, bad):
    # One tree takes its smallest capacity, which a nan would make depend
    # on the link order; the LP refused such bounds with a bare ValueError.
    trees = flows.enumerate_aggregation_trees(triangle)
    caps = dict(triangle.capacity)
    caps[(2, 0)] = bad
    for packed in ([trees[0]], trees):
        with pytest.raises(BadParams, match="not finite"):
            flows.tree_packing_lp(triangle, caps, packed)
    with pytest.raises(BadParams, match="not finite"):
        flows.min_mincut(triangle, caps)


def test_packing_reports_first_invalid_tree(k5):
    trees = flows.enumerate_aggregation_trees(k5)
    cycle = flows.AggregationTree(((1, 2), (2, 1), (3, 0), (4, 0)))
    outside = flows.AggregationTree(((1, 0), (2, 7), (3, 0), (4, 0)))
    with pytest.raises(BadParams, match="does not terminate"):
        flows.tree_packing_lp(k5, k5.capacity, trees[:10] + [cycle] + trees[10:20]
                              + [outside])


def test_packing_accepts_unsorted_pairs(k5):
    trees = flows.enumerate_aggregation_trees(k5)
    shuffled = [flows.AggregationTree(t.parent[::-1]) for t in trees]
    assert (flows.tree_packing_lp(k5, k5.capacity, shuffled).weights
            == flows.tree_packing_lp(k5, k5.capacity, trees).weights)


# ---------------------------------------------------------------------------
# tree packing LP
# ---------------------------------------------------------------------------

def test_packing_k5_reaches_min_mincut(k5):
    trees = flows.enumerate_aggregation_trees(k5)
    packing = flows.tree_packing_lp(k5, k5.capacity, trees)
    assert abs(packing.total - 4.0) <= 1e-6
    assert packing.max_violation(k5) <= 1e-9


def test_link_load_sums_only_weighted_trees(k5):
    # Zero-weight trees add nothing: a packing's loads equal those of its
    # nonzero part, and a link that only zero-weight trees use carries none.
    trees = flows.enumerate_aggregation_trees(k5)
    dead = dict(k5.capacity)
    dead[(4, 1)] = 0.0
    for caps in (k5.capacity, dead):
        packing = flows.tree_packing_lp(k5, caps, trees)
        assert packing.link_load() == packing.nonzero().link_load()
    assert (4, 1) not in packing.link_load()


def test_packing_line_bottleneck():
    g = graph.build_graph(3, 0, [(1, 0), (2, 1)], {(1, 0): 2.0, (2, 1): 1.0})
    trees = flows.enumerate_aggregation_trees(g)
    packing = flows.tree_packing_lp(g, g.capacity, trees)
    assert abs(packing.total - 1.0) <= 1e-6


def test_packing_equals_min_mincut_on_random_digraphs():
    for seed in range(20):
        g = random_digraph(seed + 200)
        cut, _ = flows.min_mincut(g, g.capacity)
        trees = flows.enumerate_aggregation_trees(g)
        packing = flows.tree_packing_lp(g, g.capacity, trees)
        assert abs(packing.total - cut) <= 1e-6, f"seed {seed}"
        assert packing.max_violation(g) <= 1e-9


@st.composite
def digraph_tree_caps(draw):
    g = random_digraph(draw(st.integers(0, 10_000)), n_max=6)
    tree = draw(st.sampled_from(flows.enumerate_aggregation_trees(g)))
    kind = draw(st.sampled_from(["int", "eighths", "zero", "float"]))
    value = {"int": st.integers(0, 5), "eighths": st.integers(0, 40).map(lambda k: k / 8),
             "zero": st.just(0), "float": st.floats(0.0, 100.0)}[kind]
    return g, {l: draw(value) for l in g.links}, tree, kind


@settings(max_examples=200, deadline=None)
@given(digraph_tree_caps())
def test_one_tree_packing_is_the_lp_answer(instance):
    # One tree solves no LP: its weight is its smallest link capacity, as a
    # float, and on integer and eighth capacities the very float the LP
    # returns.  On arbitrary floats HiGHS may stop anywhere within its
    # primal feasibility tolerance (1e-7) of that capacity, for instance at
    # a nearly tied one, or above a zero when another is below 1e-7.
    g, caps, tree, kind = instance
    links = set(tree.tree_links)
    res = linprog([-1.0], A_ub=np.array([[float(l in links)] for l in g.links]),
                  b_ub=[caps[l] for l in g.links], bounds=(0, None), method="highs")
    assert res.success
    lp = float(np.maximum(res.x, 0.0)[0])
    (weight,) = flows.tree_packing_lp(g, caps, [tree]).weights
    assert type(weight) is float
    assert weight == min(caps[l] for l in links)
    if kind == "float":
        assert abs(weight - lp) <= 1e-7 * max(1.0, weight)
    else:
        assert repr(weight) == repr(lp)


def test_example5_witness_packing(k5):
    trees = [
        flows.AggregationTree.from_parent_map(
            {i: 0, **{j: i for j in range(1, 5) if j != i}}
        )
        for i in range(1, 5)
    ]
    packing = flows.TreePacking(tuple(trees), (1.0, 1.0, 1.0, 1.0))
    assert packing.total == 4.0
    assert packing.max_violation(k5) <= 0.0


# ---------------------------------------------------------------------------
# recorded enumeration order and packing weights
# ---------------------------------------------------------------------------

# Recorded from the tree-by-tree enumeration and packing before they moved
# to arrays: (tree count, sha256 prefix of the parent tuples in order,
# {tree index: repr(weight)} for every weight that is not 0.0).
PACKING_GOLDEN = {
    "K5": (125, "2a938cfa372ec917", {
        21: "0.19999999999999996", 26: "0.20000000000000007", 44: "0.6",
        57: "0.19999999999999996", 60: "0.6", 74: "0.20000000000000007", 86: "0.4",
        94: "0.6", 109: "0.20000000000000007", 113: "0.19999999999999996", 117: "0.4",
        121: "0.19999999999999996"}),
    "K7": (16807, "e8ea12f91796ae44", {
        1522: "0.07692307692307815", 2332: "0.27912087912088096",
        2368: "0.14505494505494376", 3284: "0.33186813186813263",
        4605: "0.1670329670329675", 5468: "0.34505494505494455",
        6098: "0.05714285714285661", 6511: "0.33186813186813185",
        6681: "0.1758241758241764", 6964: "0.09010989010988879",
        7886: "0.06813186813186818", 8019: "0.12307692307692275",
        8107: "0.336263736263736", 8300: "0.17362637362637276",
        8389: "0.04395604395604463", 8742: "0.006593406593405238",
        9587: "0.24835164835164925", 10348: "0.18241758241758263",
        11457: "0.4351648351648346", 11473: "0.23076923076923073",
        11562: "0.15164835164835205", 12309: "0.19120879120879208",
        12669: "0.34505494505494444", 12984: "0.2813186813186805",
        14025: "0.006593406593406237", 14142: "0.17582417582417625",
        14601: "0.050549450549450536", 15537: "0.30109890109890103",
        16033: "0.32967032967033016", 16630: "0.31868131868131816"}),
    "grid9": (192, "73c4b56bc17e5b02", {
        24: "0.33333333333333337", 28: "0.33333333333333337", 72: "0.3333333333333333",
        111: "0.6666666666666667", 130: "0.3333333333333333"}),
    "digraph0": (12, "a08f3524df868ba1", {4: "2.0", 11: "1.0"}),
    "digraph1": (1, "7e19b48a27a56e1e", {0: "1.0"}),
    "digraph2": (1, "8eb8a9db3c2c4712", {0: "1.0"}),
    "digraph3": (1, "de2510d605c16b45", {0: "2.0"}),
    "digraph4": (4, "17afc85a4df11fed", {0: "2.0", 1: "1.0"}),
    "digraph5": (135, "f68fe2222bc4bf71", {12: "1.0", 59: "1.0", 133: "1.0"}),
    "digraph6": (10, "c0bd44b2cc42a81a", {0: "1.0"}),
    "digraph7": (6, "641c19910a5e2450", {2: "1.0", 4: "2.0"}),
    "digraph8": (4, "17afc85a4df11fed", {0: "1.0", 1: "2.0"}),
    "digraph9": (2, "26fd1bb314687028", {0: "2.0"}),
    "digraph10": (7, "85eabdfdc0f1c6b1", {6: "1.0"}),
    "digraph11": (5, "5df28e0e891519cf", {2: "1.0", 4: "1.0"}),
    "digraph12": (4, "9687d35a602cd500", {0: "1.0"}),
    "digraph13": (4, "32253987b71bee70", {3: "2.0"}),
    "digraph14": (1, "8eb8a9db3c2c4712", {0: "3.0"}),
    "digraph15": (4, "aa1a41d7ab168abd", {0: "2.0", 3: "1.0"}),
    "digraph16": (4, "00d0b5ce3321f103", {0: "1.0", 2: "2.0"}),
    "digraph17": (24, "ad8223909468d4a3", {17: "1.0"}),
    "digraph18": (2, "80992dd73e1c391d", {1: "2.0"}),
    "digraph19": (1, "8eb8a9db3c2c4712", {0: "2.0"}),
}

# Every tree's parents in sensor order, one digit per sensor.
TREE_ORDER = {
    "K5": """
    0000 0001 0002 0003 0010 0011 0012 0013 0020 0021 0022 0023 0040 0041 0042 0100
    0101 0102 0103 0110 0111 0112 0113 0120 0121 0122 0123 0140 0141 0142 0300 0301
    0302 0303 0310 0311 0312 0313 0340 0341 0400 0401 0403 0410 0411 0413 0420 0421
    0440 0441 2000 2001 2002 2003 2010 2011 2012 2013 2020 2021 2022 2023 2040 2041
    2042 2300 2301 2302 2303 2340 2400 2403 2410 2420 2440 3000 3001 3002 3003 3020
    3021 3022 3023 3040 3042 3100 3101 3102 3103 3140 3300 3301 3302 3303 3340 3400
    3401 3403 3420 3440 4000 4002 4003 4010 4012 4020 4022 4023 4040 4042 4100 4103
    4110 4120 4140 4300 4302 4303 4310 4340 4400 4403 4410 4420 4440
    """,
    "grid9": """
    12504345 12504347 12504365 12504367 12504385 12504745 12504747 12504785 12508347
    12508747 12544345 12544347 12544365 12544367 12544385 12544745 12544747 12544785
    12548347 12548367 12548747 12564745 12564747 12564785 12568747 14102345 14102347
    14102365 14102367 14102385 14102745 14102747 14102785 14104345 14104347 14104365
    14104367 14104385 14104745 14104747 14104785 14108347 14108367 14108747 14142345
    14142347 14142365 14142367 14142385 14142745 14142747 14142785 14144345 14144347
    14144365 14144367 14144385 14144745 14144747 14144785 14148347 14148367 14148747
    14162745 14162747 14162785 14164745 14164747 14164785 14168747 14504345 14504347
    14504365 14504367 14504385 14504745 14504747 14504785 14508347 14508367 14508747
    14544345 14544347 14544365 14544367 14544385 14544745 14544747 14544785 14548347
    14548367 14548747 14564745 14564747 14564785 14568747 30142345 30142347 30142365
    30142367 30142385 30142745 30142747 30142785 30144345 30144347 30144365 30144367
    30144385 30144745 30144747 30144785 30148347 30148367 30148747 30162745 30162747
    30164745 30164747 30164785 30168747 30544345 30544347 30544365 30544367 30544385
    30544745 30544747 30544785 30548347 30548367 30548747 30564745 30564747 30564785
    30568747 32544345 32544347 32544365 32544367 32544385 32544745 32544747 32544785
    32548347 32548367 32548747 32564745 32564747 32564785 32568747 34142345 34142347
    34142365 34142367 34142385 34142745 34142747 34142785 34144345 34144347 34144365
    34144367 34144385 34144745 34144747 34144785 34148347 34148367 34148747 34162745
    34162747 34162785 34164745 34164747 34164785 34168747 34544345 34544347 34544365
    34544367 34544385 34544745 34544747 34544785 34548347 34548367 34548747 34564745
    34564747 34564785 34568747
    """,
}


def _packing_graph(name):
    if name == "K5":
        return graph.generate("complete", n=5, capacity=1.0)
    if name == "K7":
        return graph.generate("complete", n=7, capacity=1.0)
    if name == "grid9":
        return graph.generate("grid", n=9)
    return random_digraph(int(name.removeprefix("digraph")))


@pytest.mark.parametrize("name", list(PACKING_GOLDEN))
def test_packing_matches_recorded_output(name):
    g = _packing_graph(name)
    count, order_digest, nonzero = PACKING_GOLDEN[name]
    trees = flows.enumerate_aggregation_trees(g)
    parents = [t.parent for t in trees]
    assert len(trees) == count
    assert hashlib.sha256(repr(parents).encode()).hexdigest()[:16] == order_digest
    if name in TREE_ORDER:
        assert parents == [tuple(zip(g.sensors, map(int, digits)))
                           for digits in TREE_ORDER[name].split()]
    packing = flows.tree_packing_lp(g, g.capacity, trees)
    assert packing.trees == tuple(trees)
    assert [repr(w) for w in packing.weights] == [nonzero.get(j, "0.0")
                                                  for j in range(count)]


# ---------------------------------------------------------------------------
# optimal service split
# ---------------------------------------------------------------------------

def test_optimal_sss_shared_channel(triangle, shared_channel, grid_search_sss):
    rule, rates, value, _ = flows.optimal_sss(triangle, shared_channel)
    assert abs(value - 0.5) <= 1e-6
    # weight on the schedule carrying (1, 0) must be one half
    idx_10 = [k for k, s in enumerate(shared_channel.schedules) if s.links == ((1, 0),)][0]
    assert abs(rule.weights[idx_10] - 0.5) <= 1e-6
    assert abs(grid_search_sss(triangle, shared_channel) - value) <= 0.02


def test_optimal_sss_degenerate_reduces_to_min_mincut(k5):
    ss = flows.wireline_schedule_set(k5)
    _, rates, value, _ = flows.optimal_sss(k5, ss)
    cut, _ = flows.min_mincut(k5, k5.capacity)
    assert abs(value - cut) <= 1e-6
    assert all(abs(rates[l] - k5.capacity[l]) <= 1e-9 for l in k5.links)


def test_optimal_sss_dead_link_gives_zero(triangle):
    # Node 1 can only exit through (1, 0); rate 0 everywhere for it.
    schedules = (
        flows.Schedule(((1, 0),), {(1, 0): 0.0}),
        flows.Schedule(((2, 0),), {(2, 0): 1.0}),
        flows.Schedule(((2, 1),), {(2, 1): 1.0}),
    )
    _, _, value, _ = flows.optimal_sss(triangle, flows.ScheduleSet(schedules))
    assert abs(value) <= 1e-9


def test_optimal_sss_monotone_in_schedules(triangle, shared_channel):
    rng = random.Random(5)
    base = list(shared_channel.schedules)
    _, _, before, _ = flows.optimal_sss(triangle, flows.ScheduleSet(tuple(base)))
    for _ in range(5):
        links = tuple(l for l in triangle.links if rng.random() < 0.7) or (triangle.links[0],)
        extra = flows.Schedule(links, {l: rng.randint(1, 3) * 0.5 for l in links})
        _, _, after, _ = flows.optimal_sss(triangle,
                                           flows.ScheduleSet(tuple(base + [extra])))
        assert after >= before - 1e-9
        base.append(extra)
        before = after


def cut_form_sss(g, schedule_set):
    """Independent oracle: the split's value in cut form, by a dense LP.

    Maximizes lam over weights pi on the simplex, subject to lam being at
    most the induced capacity out of every node set that holds a sensor
    but not the aggregator.
    """
    schedules = schedule_set.schedules
    rows = []
    for k in range(1, len(g.sensors) + 1):
        for part in combinations(g.sensors, k):
            out = [(u, v) for u, v in g.links if u in part and v not in part]
            rows.append([-sum(s.rates.get(l, 0.0) for l in out) for s in schedules] + [1.0])
    c = np.zeros(len(schedules) + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                  A_eq=np.array([[1.0] * len(schedules) + [0.0]]), b_eq=[1.0],
                  bounds=(0, None), method="highs")
    assert res.success
    return -res.fun


@st.composite
def digraph_with_schedules(draw):
    g = random_digraph(draw(st.integers(0, 10_000)), n_max=6)
    schedules = []
    for _ in range(draw(st.integers(1, 4))):
        links = draw(st.lists(st.sampled_from(g.links), min_size=1, unique=True))
        rates = draw(st.lists(st.integers(0, 8), min_size=len(links), max_size=len(links)))
        schedules.append(flows.Schedule(tuple(links),
                                        {l: r / 2 for l, r in zip(links, rates)}))
    return g, flows.ScheduleSet(tuple(schedules))


@settings(max_examples=60, deadline=None)
@given(digraph_with_schedules())
def test_optimal_sss_matches_cut_form_oracle(instance):
    g, ss = instance
    rule, induced, lam, _ = flows.optimal_sss(g, ss)
    assert abs(lam - cut_form_sss(g, ss)) <= 1e-6
    assert all(w >= 0.0 for w in rule.weights.values())
    assert abs(sum(rule.weights.values()) - 1.0) <= 1e-9
    assert abs(flows.min_mincut(g, induced)[0] - lam) <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_optimal_sss_one_schedule_is_its_min_mincut(seed, monkeypatch):
    # One schedule leaves nothing to split: weight 1, its rates zero-filled
    # over the links, and exactly the min-mincut of those rates, no LP.
    def no_lp(*args, **kwargs):
        raise AssertionError("a one-schedule split solved an LP")

    monkeypatch.setattr("scipy.optimize.linprog", no_lp)
    g = random_digraph(seed)
    rng = random.Random(seed)
    links = rng.sample(g.links, len(g.links))
    assert len(links) >= 3
    rates = {l: g.capacity[l] * rng.choice((0.5, 1.5, 2.5)) for l in links[2:]}
    rates[links[1]] = 0.0  # links[0] is left out
    schedule = flows.Schedule(tuple(rates), rates)
    rule, induced, lam, node = flows.optimal_sss(g, flows.ScheduleSet((schedule,)))
    assert rule.weights == {0: 1.0}
    assert list(induced) == list(g.links)
    assert induced == {l: rates.get(l, 0.0) for l in g.links}
    assert induced[links[0]] == induced[links[1]] == 0.0
    assert (lam, node) == flows.min_mincut(g, induced)


def test_optimal_sss_at_scale():
    # Sizes the service-split LP only reaches when built sparse.
    g81 = graph.generate("grid", n=81)
    _, _, lam, _ = flows.optimal_sss(g81, flows.wireline_schedule_set(g81))
    assert abs(lam - 2.0) <= 1e-6
    g49 = graph.generate("grid", n=49)
    one_link = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g49.links))
    _, _, lam, _ = flows.optimal_sss(g49, one_link)
    assert abs(lam - 1.0 / 48) <= 1e-6


# Recorded from the split LP with sparse constraint matrices: (number of
# schedules, {schedule index: repr(weight)} for every weight that is not
# 0.0, repr(lam), node).  The triangle's LP is small, grid16's is not.
SPLIT_GOLDEN = {
    "triangle": (3, {0: "0.5", 2: "0.5"}, "0.5", 1),
    "grid16": (48, {k: "0.06666666666666668" for k in (2, 5, 9, 16, 19, 26, 29, 31, 33,
                                                       37, 43, 45, 47)}
               | {6: "0.06666666666666667", 15: "0.06666666666666667"},
               "0.06666666666666667", 0),
}


@pytest.mark.parametrize("name", list(SPLIT_GOLDEN))
def test_optimal_sss_matches_recorded_output(name):
    g = (graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0) if name == "triangle"
         else graph.generate("grid", n=16))
    one_link = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    count, nonzero, lam, node = SPLIT_GOLDEN[name]
    rule, _, got_lam, got_node = flows.optimal_sss(g, one_link)
    assert [repr(w) for w in rule.weights.values()] == [nonzero.get(k, "0.0")
                                                       for k in range(count)]
    assert list(rule.weights) == list(range(count))
    assert (repr(got_lam), got_node) == (lam, node)


def test_flows_determinism(triangle, shared_channel):
    a = flows.optimal_sss(triangle, shared_channel)
    b = flows.optimal_sss(triangle, shared_channel)
    assert a[0].weights == b[0].weights and a[2] == b[2]
    trees = flows.enumerate_aggregation_trees(triangle)
    p1 = flows.tree_packing_lp(triangle, triangle.capacity, trees)
    p2 = flows.tree_packing_lp(triangle, triangle.capacity, trees)
    assert p1.weights == p2.weights


# ---------------------------------------------------------------------------
# refresh-rate conversion
# ---------------------------------------------------------------------------

def test_max_refresh_rate(parity, max16):
    assert flows.max_refresh_rate(4.0, parity) == 4.0
    assert flows.max_refresh_rate(4.0, max16) == 1.0
    assert flows.max_refresh_rate(0.0, parity) == 0.0
    with pytest.raises(BadParams):
        flows.max_refresh_rate(1.0, fmux.make_max(1))  # log2 of the range is 0


def test_schedule_set_json_round_trip(tmp_path, shared_channel):
    path = tmp_path / "s.json"
    flows.save_schedule_set(shared_channel, path)
    loaded = flows.load_schedule_set(path)
    assert loaded.schedules == shared_channel.schedules
    doc = json.loads(path.read_text())
    assert "schedules" in doc and "links" in doc["schedules"][0]


def test_schedule_validation(triangle):
    with pytest.raises(BadParams):
        flows.Schedule(((1, 0),), {(2, 0): 1.0})
    with pytest.raises(BadParams):
        flows.SSSRule({0: 0.5, 1: 0.4})
    ss = flows.ScheduleSet((flows.Schedule(((9, 0),), {(9, 0): 1.0}),))
    with pytest.raises(BadParams):
        ss.validate_links(triangle)


@pytest.mark.parametrize("entry", [
    {"links": [[1, 0], [2, 0]], "rates": [1.0]},
    {"links": [[1, 0]], "rates": [1.0, 2.0]},
    {"links": [[1, 0]]},
], ids=["short-rates", "long-rates", "missing-rates"])
def test_load_schedule_set_rejects_malformed_entry(tmp_path, entry):
    path = tmp_path / "s.json"
    good = {"links": [[2, 1]], "rates": [1.0]}
    path.write_text(json.dumps({"schedules": [good, entry]}))
    with pytest.raises(BadParams, match="schedule 1"):
        flows.load_schedule_set(path)


@pytest.mark.parametrize("doc, message", [
    ({"links": [[1, 0]]}, "schedule file has no 'schedules'"),
    ({"schedules": [{"rates": [1.0]}]}, "schedule 0 has no links"),
], ids=["schedules", "links"])
def test_load_schedule_set_names_missing_field(tmp_path, doc, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BadParams, match=message):
        flows.load_schedule_set(path)


def test_load_trees_specs(tmp_path, triangle):
    assert flows.load_trees(triangle) == flows.enumerate_aggregation_trees(triangle)
    star = flows.AggregationTree.from_parent_map({1: 0, 2: 0})
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([{"1": 0, "2": 0}]))
    assert flows.load_trees(triangle, str(bare)) == [star]
    assert flows.load_trees(triangle, [{1: 0, 2: 0}, star]) == [star, star]
    keyless = tmp_path / "keyless.json"
    keyless.write_text(json.dumps({"tree": [{"1": 0, "2": 0}]}))
    with pytest.raises(BadParams, match="tree file has no 'trees'"):
        flows.load_trees(triangle, str(keyless))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, split", [*((s, False) for s in range(20)), (4, True)])
def test_analysis_cut_separates_argmin_node(seed, split):
    # The cut is exactly the boundary of a node set holding the argmin node
    # and not the aggregator, and its capacity under the analysed rates is
    # the bottleneck.
    g = random_digraph(seed)
    one_link = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    a = flows.analyze(g, one_link if split else None)
    rates = flows.optimal_sss(g, one_link)[1] if split else g.capacity
    side, frontier = {a.argmin_node}, [a.argmin_node]
    while frontier:
        u = frontier.pop()
        for v in g.out_neighbors[u]:
            if (u, v) not in a.cut and v not in side:
                side.add(v)
                frontier.append(v)
    assert g.aggregator not in side
    assert all(u in side and v not in side for u, v in a.cut)
    assert list(a.cut) == sorted(a.cut)
    assert abs(sum(rates[l] for l in a.cut) - a.delta_star) <= 1e-6
    assert a.packing is None and (a.sss_rule is None) != split


@pytest.mark.parametrize("name", ["k5", "channel3", "grid9"])
def test_analyze_reuses_the_split_check_argmin(name, monkeypatch):
    # With a schedule set, the argmin node comes from optimal_sss's own
    # min-mincut check: the Analysis equals one built with a second
    # min_mincut under the induced rates, at n-1 fewer max flows.
    if name == "k5":
        g = graph.generate("complete", n=5, capacity=1.0)
        ss = flows.wireline_schedule_set(g)
    else:
        g = (graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0) if name == "channel3"
             else graph.generate("grid", n=9, capacity=1.0))
        ss = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    rule, rates, lam, split_node = flows.optimal_sss(g, ss)
    _, node = flows.min_mincut(g, rates)
    assert split_node == node
    _, side = flows.max_flow(g, rates, node, g.aggregator)
    cut = tuple(sorted(l for l in g.links if l[0] in side and l[1] not in side))

    calls = []
    max_flow = flows.max_flow
    monkeypatch.setattr(flows, "max_flow", lambda *a: calls.append(a) or max_flow(*a))
    assert flows.analyze(g, ss) == flows.Analysis(lam, node, cut, rule, None)
    assert len(calls) == len(g.sensors) + 1


# ---------------------------------------------------------------------------
# numpy and scipy load at the first LP
# ---------------------------------------------------------------------------

LAZY_SOLVER_SCRIPT = """\
import json, sys
import aggnet, aggnet.cli
from aggnet import flows, graph, harness

k5 = graph.generate("complete", n=5, capacity=1.0)
assert flows.analyze(k5).delta_star == 4.0
star = flows.AggregationTree.from_parent_map({i: 0 for i in k5.sensors})
assert flows.analyze(k5, trees=[star]).packing.weights == (1.0,)
harness.sweep(harness.ExperimentConfig(model="wireline", graph=k5, lambdas=[2.0], seeds=[1],
                                       horizon=200, workers=1, output_dir=sys.argv[1]))
cfg = harness.ExperimentConfig(model="wireless", graph=k5, lambdas=[1.0], seeds=[1],
                               horizon=200, policy="greedy-maxweight")
harness.run_point(cfg, 1.0, 1)
harness.sweep(harness.ExperimentConfig(model="wireless", graph=k5, lambdas=[1.0], seeds=[1],
                                       horizon=200, workers=1))
assert flows.analyze(k5, flows.wireline_schedule_set(k5)).delta_star == 4.0
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("numpy", "scipy", "multiprocessing"))))
tri = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
packing = flows.tree_packing_lp(tri, tri.capacity, flows.enumerate_aggregation_trees(tri))
print(json.dumps([packing.total, flows.min_mincut(tri, tri.capacity)[0],
                  "scipy.optimize" in sys.modules]))
"""


def test_wireline_work_loads_no_solver(tmp_path, src_env):
    # A fresh interpreter runs the CLI import, a wired analysis, a one-tree
    # packing, a wireline sweep, a greedy wireless point and sweep on the
    # wired schedule set and that set's service split without numpy, scipy
    # or multiprocessing; the first packing LP then loads numpy and scipy
    # and still reaches the min-mincut.
    out = subprocess.run([sys.executable, "-c", LAZY_SOLVER_SCRIPT, str(tmp_path)],
                         env=src_env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded, solved = map(json.loads, out.stdout.splitlines())
    assert loaded == []
    total, cut, scipy_loaded = solved
    assert cut == 1.0 and abs(total - cut) <= 1e-6
    assert scipy_loaded
    assert (tmp_path / "summary.json").is_file()


def test_packing_residual_check_still_raises(triangle, monkeypatch):
    # The solver is looked up at each call, so an answer that overshoots
    # the capacity rows still trips the residual check.
    def overshoot(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.x = res.x + 1.0
        return res

    monkeypatch.setattr("scipy.optimize.linprog", overshoot)
    with pytest.raises(LPNumericalFailure, match="residual check failed") as exc:
        flows.tree_packing_lp(triangle, triangle.capacity,
                              flows.enumerate_aggregation_trees(triangle))
    assert exc.value.residuals["primal_violation"] > 1.0


def test_split_cross_check_still_raises(triangle, shared_channel, monkeypatch):
    mincut = flows.min_mincut

    def off_by_one(g, caps):
        value, node = mincut(g, caps)
        return value + 1.0, node

    monkeypatch.setattr(flows, "min_mincut", off_by_one)
    with pytest.raises(LPNumericalFailure, match="disagrees") as exc:
        flows.optimal_sss(triangle, shared_channel)
    assert exc.value.residuals["min_mincut"] == exc.value.residuals["lp_value"] + 1.0
