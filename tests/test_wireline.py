from heapq import heappush
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from aggnet import checks, flows, fmux, graph, harness, wireline
from aggnet.errors import BadParams
from aggnet.wireless import WirelessSimulator
from aggnet.wireline import WirelineSimulator


def make_sim(g, lam=0.5, seed=0, debug=False):
    return WirelineSimulator(g, lam, fmux.make_parity(), seed, debug=debug)


def link_bit(sim, link):
    return 1 << sim.links.index(link)


def on(sim, link):
    """The round transmitting on `link`, or None."""
    return sim.busy[sim.links.index(link)]


def useful(sim, footprint):
    """The useful links of an idle round holding `footprint`, as a bitmask."""
    return sim._useful_memo[sum(1 << v for v in footprint)][1]


# ---------------------------------------------------------------------------
# usefulness
# ---------------------------------------------------------------------------

def test_useful_conditions_on_relay_net(relay_net):
    # One round whose packet at node 1 has already been forwarded on.
    sim = make_sim(relay_net)
    avail = useful(sim, [0, 2, 3])
    # receiver 1 holds no packet of the round
    assert not avail & link_bit(sim, (2, 1))
    # sending 3 -> 0 would leave node 2 with no footprint out-neighbor
    assert not avail & link_bit(sim, (3, 0))
    # 2 -> 3 aggregates and isolates nobody
    assert avail & link_bit(sim, (2, 3))


def test_useful_needs_both_endpoints(triangle):
    sim = make_sim(triangle)
    avail = useful(sim, [0, 2])
    assert not avail & link_bit(sim, (2, 1))  # 1 holds nothing
    assert avail & link_bit(sim, (2, 0))


def test_full_footprint_all_sender_links_useful(triangle):
    sim = make_sim(triangle)
    avail = useful(sim, range(triangle.n))
    for link in triangle.links:
        assert avail & link_bit(sim, link)


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

    for fp in checks.valid_footprint_masks(g):
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
        links, mask = sim._useful_memo[fp]
        assert list(links) == want
        assert mask == sum(1 << i for i in want)


# ---------------------------------------------------------------------------
# driven states, run by the event loop with every debug check armed
# ---------------------------------------------------------------------------

def new_round(sim, footprint=None, park=False):
    """A round as an arrival makes it, parked idle if `park`; given
    `footprint`, as if every node outside it had sent its packet to the
    aggregator."""
    r, a = sim._make_round(), sim.a
    for i in set(range(sim.g.n)) - set(footprint or range(sim.g.n)):
        r.payloads[a] = sim.func.combine(r.payloads[a], r.payloads[i])
        r.contrib[a] |= r.contrib.pop(i)
        r.fp ^= 1 << i
    r.avail = sim._useful_memo[r.fp][1]
    if park:
        sim._park(r)
    return r


def start(sim, r, link, t):
    """Start round `r` on idle `link` by the loop's start rule, landing at `t`."""
    li = sim.links.index(link)
    sim.active[r.rid] = r
    r.origins |= 1 << link[0]
    r.edges |= 1 << li
    r.waiting |= sim._out_links[link[1]]
    r.avail = sim._useful_memo[r.fp & ~r.origins][1] & ~r.waiting
    sim.busy[li] = r
    sim.busy_mask |= 1 << li
    sim._seq += 1
    heappush(sim._heap, (t, sim._seq, li))


def step(sim):
    """Check the state, then run the next event: a completion, the draw on
    its link and the starts."""
    sim._assert_activity_condition()
    sim._loop(sim._heap[0][0])


def stub_rng(sim, bits):
    """Make `sim.rng` hand out `bits` in order from `getrandbits` and take
    ln 2 / rate per transit; returns the list of widths drawn."""
    widths, bits = [], list(bits)
    sim.rng = SimpleNamespace(random=lambda: 0.5,
                              getrandbits=lambda k: widths.append(k) or bits.pop(0))
    return widths


def test_two_node_round_completes():
    g = graph.build_graph(2, 0, [(1, 0)], 1.0)
    sim = make_sim(g, debug=True)
    start(sim, new_round(sim), (1, 0), 1.0)
    step(sim)
    assert sim.metrics.completed == 1
    assert sim.in_flight == 0
    assert not sim.active and not sim.idle and not sim._heap


def test_select_single_candidate():
    g = graph.build_graph(2, 0, [(1, 0)], 1.0)
    sim = make_sim(g, debug=True)
    start(sim, new_round(sim), (1, 0), 1.0)
    r = new_round(sim, park=True)
    step(sim)
    assert sim.metrics.completed == 1
    assert on(sim, (1, 0)) is r and not sim.idle


def test_select_none_when_nothing_useful(triangle):
    sim = make_sim(triangle, debug=True)
    r = new_round(sim, footprint=[0, 2], park=True)  # useful on (2, 0) only
    start(sim, new_round(sim, footprint=[0, 1]), (1, 0), 1.0)
    start(sim, new_round(sim, footprint=[0, 2]), (2, 0), 2.0)
    step(sim)
    assert sim.metrics.completed == 1
    assert on(sim, (1, 0)) is None
    assert sim.idle == {r.fp: [r]}


def draw_state(g, seed):
    """The triangle with every link busy and, once (2, 0) lands, four packets
    useful on it: three idle rounds, then the round on (1, 0).  Returns the
    simulator and these candidates in the draw's order."""
    sim = make_sim(g, seed=seed, debug=True)
    a = new_round(sim)
    start(sim, a, (1, 0), 2.0)
    start(sim, new_round(sim), (2, 0), 1.0)
    start(sim, new_round(sim), (2, 1), 3.0)
    idle = [new_round(sim, park=True) for _ in range(3)]
    return sim, idle + [a]


def test_select_uniform_over_idle_and_active(triangle):
    # Exactly: draws of 0-3 pick the candidates in order, and a draw of 4 or
    # more is drawn again.
    for bits, pick in ([0], 0), ([1], 1), ([2], 2), ([3], 3), ([4, 2], 2), ([7, 5, 1], 1):
        sim, candidates = draw_state(triangle, seed=0)
        widths = stub_rng(sim, bits)
        step(sim)
        assert on(sim, (2, 0)) is candidates[pick] and widths == [3] * len(bits)
    # Statistically: each candidate wins 1/4 of the draws.  Every trial
    # draws once from a freshly built state (checked above), seeded by its
    # index.
    counts = [0] * 4
    for trial in range(100_000, 180_000):
        sim, candidates = draw_state(triangle, seed=trial)
        sim._loop(1.0)
        counts[candidates.index(on(sim, (2, 0)))] += 1
    assert all(counts)
    stat, p = chisquare(counts)
    assert p > 0.01, counts


def test_triangle_merge_hand_trace(triangle):
    sim = make_sim(triangle, debug=True)
    r = new_round(sim)
    start(sim, r, (2, 1), 1.0)
    step(sim)
    assert r.fp == 0b011  # footprint {0, 1}
    assert r.payloads[1] == r.sensed[0] ^ r.sensed[1]  # merged at node 1
    # (2, 1) has landed and nothing is useful on it; node 1 forwards at once.
    assert r.edges == link_bit(sim, (1, 0))
    assert on(sim, (1, 0)) is r
    assert on(sim, (2, 1)) is None


def test_concurrent_edges_shrink_independently(triangle):
    # The state an arrival into the empty triangle leaves: one round on
    # (1, 0) and (2, 0), from distinct origins.
    sim = make_sim(triangle, debug=True)
    r = new_round(sim)
    start(sim, r, (1, 0), 1.0)
    start(sim, r, (2, 0), 2.0)
    step(sim)
    # The first landing leaves the other transfer running and starts nothing.
    assert r.edges == link_bit(sim, (2, 0))
    assert on(sim, (2, 0)) is r
    assert on(sim, (1, 0)) is None


def test_commitment_holds_block_racing_transfers(triangle):
    sim = make_sim(triangle, debug=True)
    r = new_round(sim, park=True)
    start(sim, new_round(sim, footprint=[0, 1]), (1, 0), 5.0)
    start(sim, new_round(sim), (2, 1), 1.0)
    start(sim, new_round(sim, footprint=[0, 2]), (2, 0), 1.1)
    stub_rng(sim, [0])
    step(sim)
    # (2, 1) is freed and `r`, its one candidate, starts there.  Node 1
    # awaits the merge and node 2 is already sending: both hold the round.
    assert on(sim, (2, 1)) is r
    assert not r.avail & (link_bit(sim, (1, 0)) | link_bit(sim, (2, 0)))
    step(sim)
    # So the landing on (2, 0) leaves it idle, though node 2 holds `r`.
    assert on(sim, (2, 0)) is None and r.fp >> 2 & 1


def bypassed_hold(g):
    """Round `r` on (2, 1) and, bypassing the hold, on (1, 0), which lands
    first; returns the simulator and `r`."""
    sim = make_sim(g, debug=True)
    r = new_round(sim)
    start(sim, r, (2, 1), 2.0)
    start(sim, r, (1, 0), 1.0)
    return sim, r


def test_activity_check_catches_a_bypassed_hold(triangle):
    # Node 1 sends the round while the merge into it is in flight.
    sim, _ = bypassed_hold(triangle)
    with pytest.raises(AssertionError, match="round 0: in-flight receiver 1 does not hold"):
        step(sim)


def test_completion_checks_the_receiver_held_the_round(triangle, monkeypatch):
    # Node 1 leaves the footprint before (2, 1) lands.  The state check
    # would stop the run at the bypass itself (above), so it is off here:
    # the landing's own check must catch the bypass too.
    sim, r = bypassed_hold(triangle)
    monkeypatch.setattr(sim, "_assert_activity_condition", lambda: None)
    step(sim)
    assert not r.fp >> 1 & 1
    with pytest.raises(AssertionError, match="receiver 1 left the footprint"):
        step(sim)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [WirelineSimulator, WirelessSimulator])
def test_simulators_are_driven_only_by_run(cls):
    assert [n for n in dir(cls) if n[0] != "_" and callable(getattr(cls, n))] == ["run"]


def test_run_requires_positive_rate(triangle):
    with pytest.raises(BadParams):
        WirelineSimulator(triangle, 0.0, fmux.make_parity(), 0)


@pytest.mark.parametrize("every", [0.0, -1.0])
def test_run_rejects_nonpositive_sample_every(triangle, every):
    # A sample step that never advances would loop forever.
    with pytest.raises(BadParams):
        wireline.run(triangle, 0.5, fmux.make_parity(), seed=1, horizon=10.0,
                     sample_every=every)


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
    assert all(q <= 1 for q in m.backlog)


def test_run_deterministic(triangle):
    a = wireline.run(triangle, 0.7, fmux.make_parity(), seed=11, horizon=500.0)
    b = wireline.run(triangle, 0.7, fmux.make_parity(), seed=11, horizon=500.0)
    assert a.backlog == b.backlog
    assert a.completed == b.completed
    assert a.times == b.times


def test_run_debug_invariants_clean(triangle):
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=2, horizon=1500.0, debug=True)
    assert m.completed > 500


def test_run_all_functions_oracle(triangle):
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 16)):
        m = wireline.run(triangle, 0.6, f, seed=8, horizon=800.0, debug=True)
        assert m.completed > 200  # every completion is oracle-checked inside


def test_run_on_cyclic_graph(k5):
    m = wireline.run(k5, 1.0, fmux.make_max(16), seed=5, horizon=300.0, debug=True)
    assert m.completed > 100


@pytest.mark.parametrize("n, horizon", [(4, 2000.0), (9, 2000.0), (16, 500.0)])
def test_debug_runs_clean_on_grids(n, horizon):
    # Concurrent transfers of one round must not strand a node: two sends
    # that are each safe against the footprint can leave a node with no
    # footprint out-neighbor once both have left (footprint 110 on grid4).
    g = graph.generate("grid", n=n)
    m = wireline.run(g, 1.0, fmux.make_parity(), seed=1, horizon=horizon, debug=True)
    assert m.completed > 0.8 * horizon


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), load=st.floats(0.3, 1.2))
def test_debug_runs_clean_on_random_digraphs(seed, load):
    # Cycles allowed: every event's footprints stay valid and every
    # completed round matches the oracle.
    g = harness.random_digraph(seed, n_max=6)
    cut, _ = flows.min_mincut(g, g.capacity)
    assume(cut > 0)
    m = wireline.run(g, load * cut, fmux.make_parity(), seed=seed, horizon=100.0,
                     debug=True)
    assert m.events > 0


# Exact outputs of seeded runs. The per-footprint usefulness memo, the
# per-link index of idle classes and the per-round eligibility mask only
# speed up the draw: they must change neither which packets are drawn nor
# the order of RNG calls. "dag12" was recorded after concurrent transfers
# of a round became eligible against the footprint left once they land
# (before, about 900 of its rounds ended stranded in invalid footprints).
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
    "dag12": (85615, 7075, "180334.52635651157", 138, [
        53, 56, 60, 56, 57, 60, 58, 62, 64, 64, 61, 62, 64, 64, 62, 63, 64, 60, 59, 56,
        58, 57, 53, 55, 55, 57, 55, 58, 60, 61, 63, 63, 63, 66, 66, 63, 60, 56, 61, 62,
        61, 58, 57, 65, 65, 66, 68, 69, 70, 73]),
    "zero-cap": (1554, 518, "1768.3272020191785", 10, [
        0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 4, 3, 3, 4,
        4, 4, 6, 5, 5, 5, 5, 5, 5, 4, 4, 4, 3, 3, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0]),
    "k5-kth": (53977, 10514, "742252.484894857", 376, [
        362, 363, 360, 356, 355, 358, 353, 353, 348, 353, 350, 347, 348, 348, 351, 348,
        349, 348, 349, 354, 350, 354, 357, 363, 368, 366, 370, 369, 373, 369, 369, 370,
        371, 369, 365, 366, 363, 367, 367, 368, 364, 362, 355, 354, 354, 350, 351, 350,
        354, 365]),
    # Sensor draws by randrange (alphabet 10) and with no draw (alphabet 1).
    "k5-max10": (32338, 6376, "106044.5125222413", 147, [
        128, 125, 129, 128, 133, 132, 130, 127, 132, 132, 136, 137, 138, 141, 142, 146,
        144, 141, 146, 142, 143, 141, 139, 140, 142, 143, 145, 142, 140, 139, 139, 143,
        142, 145, 145, 144, 143, 139, 140, 137, 132, 129, 127, 125, 123, 120, 118, 114,
        118, 118]),
    "k5-max1": (35437, 6843, "336598.1061330659", 356, [
        327, 326, 322, 318, 319, 314, 310, 310, 314, 316, 311, 308, 310, 311, 314, 314,
        314, 315, 315, 315, 314, 313, 317, 319, 318, 320, 321, 319, 320, 320, 319, 315,
        317, 314, 309, 306, 305, 310, 310, 310, 311, 310, 314, 312, 314, 309, 310, 312,
        313, 314]),
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
    if name == "k5-max10":
        return wireline.run(k5, 3.2, fmux.make_max(10), seed=3, horizon=2000.0)
    if name == "k5-max1":
        return wireline.run(k5, 3.6, fmux.make_max(1), seed=4, horizon=2000.0)
    return wireline.run(k5, 3.6, fmux.make_kth(2, 16), seed=2, horizon=3000.0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_runs_match_recorded_output(name):
    m = _golden_run(name)
    got = (m.events, m.completed, repr(m.latency_sum), m.max_in_flight, m.backlog[-50:])
    assert got == GOLDEN[name]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 10_000), lo=st.sampled_from([0, 1]),
       load=st.floats(0.5, 0.9))
def test_idle_index_matches_idle_classes_on_random_dag(n, seed, lo, load):
    # Debug mode checks the per-link index of idle classes against `idle`
    # between every event and its draw, before any idle class moves, and
    # again after every event.  A zero low end of the capacity range gives
    # some links rate 0.
    g = graph.generate("random_dag", n=n, seed=seed, cap_range=(lo, 4))
    cut, _ = flows.min_mincut(g, g.capacity)
    assume(cut > 0)
    sim = WirelineSimulator(g, load * cut, fmux.make_parity(), seed, debug=True)
    m = sim.run(100.0)
    sim._assert_idle_index()
    assert m.events > 0


def test_footprint_class_sampling(triangle):
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=3, horizon=400.0,
                     sample_every=10.0, sample_footprint_classes=True)
    assert len(m.footprint_class_series) == len(m.times)
    full = (1 << 3) - 1
    assert any(full in counts for counts in m.footprint_class_series if counts)
