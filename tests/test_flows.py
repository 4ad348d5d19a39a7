import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from aggnet import flows, graph
from aggnet.errors import BadParams, TooManyTrees
from aggnet.harness import random_digraph


def enumerate_cut_value(g, caps, s, t):
    """Brute-force s-t min cut: every node subset containing s, not t."""
    rest = [v for v in range(g.n) if v not in (s, t)]
    best = None
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            part = {s, *extra}
            value = sum(c for (u, v), c in caps.items() if u in part and v not in part)
            if best is None or value < best:
                best = value
    return best


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
    assert value == enumerate_cut_value(triangle, caps, 2, 0) == 2
    assert cut == frozenset({2})
    value, _ = flows.max_flow(triangle, caps, 1, 0)
    assert value == enumerate_cut_value(triangle, caps, 1, 0) == 1


def test_max_flow_zero_caps(triangle):
    caps = {l: 0.0 for l in triangle.links}
    value, _ = flows.max_flow(triangle, caps, 2, 0)
    assert value == 0.0


def test_max_flow_duality_random_digraphs():
    for seed in range(15):
        g = random_digraph(seed, n_max=6)
        for s in g.sensors:
            value, cut = flows.max_flow(g, g.capacity, s, g.aggregator)
            assert value == enumerate_cut_value(g, g.capacity, s, g.aggregator)
            # the returned cut certifies the value
            cut_cap = sum(
                c for (u, v), c in g.capacity.items() if u in cut and v not in cut
            )
            assert abs(cut_cap - value) <= 1e-9


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


def test_tree_validation(triangle):
    with pytest.raises(BadParams):
        flows.AggregationTree.from_parent_map({1: 0}).validate(triangle)
    with pytest.raises(BadParams):
        flows.AggregationTree.from_parent_map({1: 2, 2: 1}).validate(triangle)


# ---------------------------------------------------------------------------
# tree packing LP
# ---------------------------------------------------------------------------

def test_packing_k5_reaches_min_mincut(k5):
    trees = flows.enumerate_aggregation_trees(k5)
    packing = flows.tree_packing_lp(k5, k5.capacity, trees)
    assert abs(packing.total - 4.0) <= 1e-6
    assert packing.max_violation(k5) <= 1e-9


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
# optimal service split
# ---------------------------------------------------------------------------

def grid_search_sss(g, schedule_set, step=0.02):
    """Independent check: scan the probability simplex for the best split."""
    best = 0.0
    ticks = int(round(1.0 / step))
    schedules = schedule_set.schedules
    for i in range(ticks + 1):
        for j in range(ticks + 1 - i):
            w = (i * step, j * step, 1.0 - (i + j) * step)
            rates = {l: 0.0 for l in g.links}
            for wk, sched in zip(w, schedules):
                for l, r in sched.rates.items():
                    rates[l] += wk * r
            value, _ = flows.min_mincut(g, rates)
            best = max(best, value)
    return best


def test_optimal_sss_shared_channel(triangle, shared_channel):
    rule, rates, value = flows.optimal_sss(triangle, shared_channel)
    assert abs(value - 0.5) <= 1e-6
    # weight on the schedule carrying (1, 0) must be one half
    idx_10 = [k for k, s in enumerate(shared_channel.schedules) if s.links == ((1, 0),)][0]
    assert abs(rule.weights[idx_10] - 0.5) <= 1e-6
    assert abs(grid_search_sss(triangle, shared_channel) - value) <= 0.02


def test_optimal_sss_degenerate_reduces_to_min_mincut(k5):
    ss = flows.wireline_schedule_set(k5)
    _, rates, value = flows.optimal_sss(k5, ss)
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
    _, _, value = flows.optimal_sss(triangle, flows.ScheduleSet(schedules))
    assert abs(value) <= 1e-9


def test_optimal_sss_monotone_in_schedules(triangle, shared_channel):
    rng = random.Random(5)
    base = list(shared_channel.schedules)
    _, _, before = flows.optimal_sss(triangle, flows.ScheduleSet(tuple(base)))
    for _ in range(5):
        links = tuple(l for l in triangle.links if rng.random() < 0.7) or (triangle.links[0],)
        extra = flows.Schedule(links, {l: rng.randint(1, 3) * 0.5 for l in links})
        _, _, after = flows.optimal_sss(triangle, flows.ScheduleSet(tuple(base + [extra])))
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
    rule, induced, lam = flows.optimal_sss(g, ss)
    assert abs(lam - cut_form_sss(g, ss)) <= 1e-6
    assert all(w >= 0.0 for w in rule.weights.values())
    assert abs(sum(rule.weights.values()) - 1.0) <= 1e-9
    assert abs(flows.min_mincut(g, induced)[0] - lam) <= 1e-6


def test_optimal_sss_at_scale():
    # Sizes the service-split LP only reaches when built sparse.
    g81 = graph.generate("grid", n=81)
    _, _, lam = flows.optimal_sss(g81, flows.wireline_schedule_set(g81))
    assert abs(lam - 2.0) <= 1e-6
    g49 = graph.generate("grid", n=49)
    one_link = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g49.links))
    _, _, lam = flows.optimal_sss(g49, one_link)
    assert abs(lam - 1.0 / 48) <= 1e-6


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
    assert flows.max_refresh_rate(4.0, log2_range=2.0) == 2.0
    with pytest.raises(BadParams):
        flows.max_refresh_rate(1.0)


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
