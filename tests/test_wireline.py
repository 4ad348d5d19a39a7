import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from aggnet import flows, fmux, graph, harness, wireline
from aggnet.errors import BadParams
from aggnet.wireline import WirelineSimulator


def make_sim(g, lam=0.5, func=None, seed=0, debug=False):
    return WirelineSimulator(g, lam, func or fmux.make_parity(), seed, debug=debug)


# ---------------------------------------------------------------------------
# usefulness
# ---------------------------------------------------------------------------

def test_useful_conditions_on_relay_net(relay_net):
    # One round whose packet at node 1 has already been forwarded on.
    sim = make_sim(relay_net)
    rid = sim.seed_round(values={1: 0, 2: 1, 3: 1}, footprint=[0, 2, 3])
    # receiver 1 holds no packet of the round
    assert not sim.is_useful(rid, (2, 1))
    # sending 3 -> 0 would leave node 2 with no footprint out-neighbor
    assert not sim.is_useful(rid, (3, 0))
    # 2 -> 3 aggregates and isolates nobody
    assert sim.is_useful(rid, (2, 3))


def test_useful_needs_both_endpoints(triangle):
    sim = make_sim(triangle)
    rid = sim.seed_round(footprint=[0, 2])
    assert not sim.is_useful(rid, (2, 1))  # 1 holds nothing
    assert sim.is_useful(rid, (2, 0))


def test_full_footprint_all_sender_links_useful(triangle):
    sim = make_sim(triangle)
    rid = sim.seed_round()
    for link in triangle.links:
        assert sim.is_useful(rid, link)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), dead=st.integers(0, 3))
def test_useful_links_match_per_link_rule(seed, dead):
    # The per-footprint link sets, checked against the usefulness rule
    # stated link by link, on every valid footprint of a random digraph
    # (cycles allowed) whose first `dead` links have rate 0.
    base = harness.random_digraph(seed, n_max=6)
    caps = dict(base.capacity)
    for link in sorted(caps)[:dead]:
        caps[link] = 0.0
    g = graph.build_graph(base.n, base.aggregator, list(base.links), caps)
    a = g.aggregator
    sim = make_sim(g)

    def holds(fp, node):
        return bool(fp >> node & 1)

    for fp in wireline.valid_footprint_masks(g):
        want = [
            i for i, (u, v) in enumerate(g.links)
            if u != a and caps[(u, v)] > 0 and holds(fp, u) and holds(fp, v)
            and not any(
                w != a and holds(fp, w)
                and sum(holds(fp, x) for x in g.out_neighbors[w]) < 2
                for w in g.in_neighbors[u]
            )
            and wireline.footprint_is_valid(g, fp & ~(1 << u))
        ]
        links, mask = sim._useful(fp)
        assert list(links) == want
        assert mask == sum(1 << i for i in want)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_single_candidate(triangle):
    sim = make_sim(triangle)
    rid = sim.seed_round()
    assert sim.select_packet((1, 0)) == rid
    assert sim.busy[sim.links.index((1, 0))] is not None


def test_select_none_when_nothing_useful(triangle):
    sim = make_sim(triangle)
    sim.seed_round(footprint=[0, 2])
    assert sim.select_packet((1, 0)) is None
    assert sim.busy[sim.links.index((1, 0))] is None


def test_select_uniform_over_idle_and_active(triangle):
    # Three idle rounds plus one active round (transmitting on (1, 0), so
    # still eligible from node 2): each should win 1/4 of selections.
    sim = make_sim(triangle, seed=9)
    active = sim.seed_round()
    assert sim.select_packet((1, 0)) == active  # the only round present
    idle = [sim.seed_round() for _ in range(3)]
    counts = {rid: 0 for rid in idle + [active]}
    trials = 100_000
    for _ in range(trials):
        counts[sim.peek_select((2, 0))] += 1
    stat, p = chisquare(list(counts.values()))
    assert p > 0.01, counts


# ---------------------------------------------------------------------------
# completion dynamics
# ---------------------------------------------------------------------------

def test_two_node_round_completes():
    g = graph.build_graph(2, 0, [(1, 0)], 1.0)
    f = fmux.make_parity()
    sim = make_sim(g, func=f, debug=True)
    sim.seed_round(values={1: 1})
    assert sim.select_packet((1, 0)) is not None
    sim.complete_transfer(sim.links.index((1, 0)))
    assert sim.metrics.completed == 1
    assert sim.in_flight == 0


def test_triangle_merge_hand_trace(triangle):
    f = fmux.make_parity()
    sim = make_sim(triangle, func=f, debug=True)
    rid = sim.seed_round(values={1: 1, 2: 1})
    assert sim.select_packet((2, 1)) == rid
    r = sim.active[rid]
    li = sim.links.index((2, 1))
    out = sim.complete_transfer(li)
    assert out is r
    assert r.fp == 0b011  # footprint {0, 1}
    assert r.payloads[1] == 0  # 1 xor 1 merged at node 1
    assert not r.edges


def test_concurrent_edges_shrink_independently(triangle):
    sim = make_sim(triangle, debug=True)
    rid = sim.seed_round()
    assert sim.select_packet((1, 0)) == rid
    assert sim.select_packet((2, 0)) == rid  # distinct origin, allowed
    r = sim.active[rid]
    assert len(r.edges) == 2
    sim.complete_transfer(sim.links.index((2, 0)))
    assert len(r.edges) == 1
    assert sim.busy[sim.links.index((1, 0))] is r


def test_commitment_holds_block_racing_transfers(triangle):
    sim = make_sim(triangle)
    rid = sim.seed_round()
    assert sim.select_packet((2, 1)) == rid
    # 1 is the destination of an in-flight merge: it must hold the round.
    assert not sim.is_useful(rid, (1, 0))
    # and nobody may transmit toward the origin node 2
    assert not sim.is_useful(rid, (2, 0))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_requires_positive_rate(triangle):
    with pytest.raises(BadParams):
        WirelineSimulator(triangle, 0.0, fmux.make_parity(), 0)


def test_order_statistic_needs_enough_sensors(triangle):
    with pytest.raises(BadParams):
        WirelineSimulator(triangle, 0.5, fmux.make_kth(3, 16), 0)


def test_zero_capacity_link_stays_idle():
    # A dead link never carries a transfer; traffic routes around it.
    g = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)],
                          {(1, 0): 1.0, (2, 0): 1.0, (2, 1): 0.0})
    m = wireline.run(g, 0.5, fmux.make_parity(), seed=6, horizon=1000.0, debug=True)
    assert m.completed > 300


def test_run_almost_no_arrivals(triangle):
    m = wireline.run(triangle, 1e-6, fmux.make_parity(), seed=4, horizon=1000.0)
    assert m.max_in_flight <= 1
    assert all(q <= 1 for q in m.in_flight)


def test_run_deterministic(triangle):
    a = wireline.run(triangle, 0.7, fmux.make_parity(), seed=11, horizon=500.0)
    b = wireline.run(triangle, 0.7, fmux.make_parity(), seed=11, horizon=500.0)
    assert a.in_flight == b.in_flight
    assert a.completed == b.completed
    assert a.times == b.times


def test_run_debug_invariants_clean(triangle):
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=2, horizon=1500.0, debug=True)
    assert m.completed > 500
    assert m.reestablished == 0


def test_run_all_functions_oracle(triangle):
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 16)):
        m = wireline.run(triangle, 0.6, f, seed=8, horizon=800.0, debug=True)
        assert m.completed > 200  # every completion is oracle-checked inside


def test_run_on_cyclic_graph(k5):
    m = wireline.run(k5, 1.0, fmux.make_max(16), seed=5, horizon=300.0, debug=True)
    assert m.completed > 100
    assert m.reestablished == 0


# Exact outputs of seeded runs. The per-footprint usefulness memo and the
# per-link index of idle classes only speed up the draw: they must change
# neither which packets are drawn nor the order of RNG calls.
GOLDEN = {
    "k5-3.2": (47874, 9487, "236373.97066462584", 157, [
        72, 80, 84, 85, 83, 83, 83, 87, 83, 83, 79, 81, 84, 85, 82, 86, 93, 95, 99,
        100, 97, 102, 102, 102, 101, 97, 98, 99, 102, 103, 102, 101, 101, 96, 96, 97,
        101, 98, 99, 98, 100, 104, 105, 105, 108, 107, 113, 115, 116, 116]),
    "k5-4.4": (61374, 9279, "3505734.9632249656", 3914, [
        3820, 3822, 3825, 3828, 3830, 3832, 3835, 3836, 3840, 3843, 3841, 3841, 3842,
        3846, 3847, 3845, 3843, 3844, 3845, 3845, 3839, 3843, 3854, 3855, 3856, 3860,
        3862, 3861, 3860, 3862, 3866, 3871, 3871, 3873, 3873, 3876, 3879, 3881, 3880,
        3884, 3886, 3894, 3892, 3895, 3900, 3904, 3907, 3907, 3911, 3911]),
    "dag12": (86366, 6391, "190018.64560598382", 912, [
        898, 903, 904, 909, 911, 909, 911, 909, 909, 907, 908, 911, 908, 905, 904, 901,
        897, 898, 896, 895, 896, 903, 903, 902, 901, 901, 902, 899, 901, 902, 903, 905,
        904, 903, 906, 905, 901, 902, 901, 901, 904, 900, 903, 902, 902, 901, 900, 899,
        900, 900]),
    "zero-cap": (1554, 518, "1768.3272020191785", 10, [
        0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 4, 3, 3, 4,
        4, 4, 6, 5, 5, 5, 5, 5, 5, 4, 4, 4, 3, 3, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0]),
    "k5-kth": (53977, 10514, "742252.484894857", 376, [
        362, 363, 360, 356, 355, 358, 353, 353, 348, 353, 350, 347, 348, 348, 351, 348,
        349, 348, 349, 354, 350, 354, 357, 363, 368, 366, 370, 369, 373, 369, 369, 370,
        371, 369, 365, 366, 363, 367, 367, 368, 364, 362, 355, 354, 354, 350, 351, 350,
        354, 365]),
}


def _golden_run(name):
    k5 = graph.generate("complete", n=5, capacity=1.0)
    if name == "k5-3.2":
        return wireline.run(k5, 3.2, fmux.make_parity(), seed=1, horizon=3000.0)
    if name == "k5-4.4":
        return wireline.run(k5, 4.4, fmux.make_parity(), seed=1, horizon=3000.0)
    if name == "dag12":
        dag = graph.generate("random_dag", n=12, seed=1)
        cut, _ = flows.min_mincut(dag, dag.capacity)
        assert cut == 3.0
        return wireline.run(dag, 0.8 * cut, fmux.make_parity(), seed=1, horizon=3000.0)
    if name == "zero-cap":
        g = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)],
                              {(1, 0): 1.0, (2, 0): 1.0, (2, 1): 0.0})
        return wireline.run(g, 0.5, fmux.make_parity(), seed=6, horizon=1000.0)
    return wireline.run(k5, 3.6, fmux.make_kth(2, 16), seed=2, horizon=3000.0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_runs_match_recorded_output(name):
    m = _golden_run(name)
    got = (m.events, m.completed, repr(m.latency_sum), m.max_in_flight, m.in_flight[-50:])
    assert got == GOLDEN[name]


class _IndexChecked(WirelineSimulator):
    """Checks the per-link index of idle classes between every two events.

    An activity pass starts after an event has changed one round and before
    any idle class moves, so at that point the index must match `idle`.
    The run itself is not in debug mode: concurrent departures of one round
    can still leave its footprint invalid on a DAG, which debug mode
    rejects, and the index must stay exact through that too.
    """

    def _activity_pass(self, changed, freed):
        self._assert_idle_index()
        super()._activity_pass(changed, freed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 10_000), lo=st.sampled_from([0, 1]),
       load=st.floats(0.5, 0.9))
def test_idle_index_matches_idle_classes_on_random_dag(n, seed, lo, load):
    # A zero low end of the capacity range gives some links rate 0.
    g = graph.generate("random_dag", n=n, seed=seed, cap_range=(lo, 4))
    cut, _ = flows.min_mincut(g, g.capacity)
    assume(cut > 0)
    sim = _IndexChecked(g, load * cut, fmux.make_parity(), seed)
    m = sim.run(100.0)
    sim._assert_idle_index()
    assert m.events > 0


def test_footprint_class_sampling(triangle):
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=3, horizon=400.0,
                     sample_every=10.0, sample_footprint_classes=True)
    assert len(m.footprint_class_series) == len(m.times)
    full = (1 << 3) - 1
    assert any(full in counts for counts in m.footprint_class_series if counts)


# ---------------------------------------------------------------------------
# footprint sets, counting lemma, fluid diagnostic
# ---------------------------------------------------------------------------

def test_valid_footprint_masks_triangle(triangle):
    masks = wireline.valid_footprint_masks(triangle)
    assert set(masks) == {0b001, 0b011, 0b101, 0b111}


def test_valid_footprint_masks_relay(relay_net):
    masks = set(wireline.valid_footprint_masks(relay_net))
    assert 0b0101 not in masks  # {0, 2}: node 2 has no exit inside the set
    assert 0b1101 in masks      # {0, 2, 3}
    assert 0b0001 in masks


def test_counting_lemma_zero_vector(triangle):
    masks = wireline.valid_footprint_masks(triangle)
    assert wireline.verify_counting_lemma(triangle, {m: 0.0 for m in masks}, 1.0)


def test_counting_lemma_random_vectors(triangle, diamond):
    rng = random.Random(17)
    for g in (triangle, diamond):
        masks = wireline.valid_footprint_masks(g)
        for alpha in (0.1, 1.0, 10.0):
            for _ in range(300):
                x = {m: rng.random() for m in masks}
                assert wireline.verify_counting_lemma(g, x, alpha)


def test_counting_lemma_accepts_frozenset_keys(triangle):
    x = {frozenset({0, 1}): 1.0, frozenset({0}): 0.5}
    assert wireline.verify_counting_lemma(triangle, x, 1.0)
    with pytest.raises(BadParams):
        wireline.verify_counting_lemma(triangle, {frozenset({1, 2}): 1.0}, 1.0)


def test_counting_lemma_flat_betas_violated(triangle):
    # The geometric growth of the level weights is necessary: a flat
    # sequence admits counterexamples.
    masks = wireline.valid_footprint_masks(triangle)
    flat = [1.0] * triangle.n
    rng = random.Random(23)
    violated = False
    for _ in range(200):
        x = {m: rng.random() for m in masks}
        if not wireline.verify_counting_lemma(triangle, x, 1.0, _betas=flat):
            violated = True
            break
    assert violated


def test_fluid_lyapunov_values(triangle):
    masks = wireline.valid_footprint_masks(triangle)
    zero = {m: 0.0 for m in masks}
    assert wireline.fluid_lyapunov(triangle, zero, 1.0) == 0.0
    # one round spanning all nodes: the maximand is beta_2 for the 2-sets
    full = (1 << 3) - 1
    single = dict(zero)
    single[full] = 1.0
    alpha = 1.0
    expected = (1 + 1 / alpha) ** 1  # |S| = 2 maximizes beta among S != full
    assert wireline.fluid_lyapunov(triangle, single, alpha) == pytest.approx(expected)


def test_fluid_lyapunov_over_sampled_trajectory(triangle):
    # The sampled footprint-class counters plug straight into the fluid
    # diagnostic; under a stable load it stays bounded.
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=19, horizon=2000.0,
                     sample_every=20.0, sample_footprint_classes=True)
    values = [
        wireline.fluid_lyapunov(triangle, counts, 1.0)
        for counts in m.footprint_class_series
    ]
    assert values and max(values) < 500
    assert any(v > 0 for v in values)


def test_fluid_lyapunov_monotone(triangle):
    masks = wireline.valid_footprint_masks(triangle)
    rng = random.Random(5)
    for _ in range(50):
        x = {m: rng.random() for m in masks}
        before = wireline.fluid_lyapunov(triangle, x, 0.5)
        grow = dict(x)
        grow[rng.choice(masks)] += 1.0
        assert wireline.fluid_lyapunov(triangle, grow, 0.5) >= before
