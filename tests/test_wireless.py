import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnet import flows, fmux, graph, harness, wireless
from aggnet.errors import BadParams
from aggnet.wireless import ArrivalProcess, TreeIndex, WirelessSimulator


def star_tree():
    return flows.AggregationTree.from_parent_map({1: 0, 2: 0, 3: 0, 4: 0})


def example5_trees():
    return [
        flows.AggregationTree.from_parent_map(
            {i: 0, **{j: i for j in range(1, 5) if j != i}}
        )
        for i in range(1, 5)
    ]


def make_sim(g, schedule_set, trees, lam=0.5, seed=0, **kw):
    func = kw.pop("func", fmux.make_max(16))
    return WirelessSimulator(
        g, schedule_set, trees, func, ArrivalProcess("poisson", lam), seed, **kw
    )


def step(sim, slots=1):
    """Run `slots` slots."""
    sim._loop(slots)


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def test_greedy_argmin():
    rng = random.Random(0)
    assert wireless.greedy_tree_load((5, 3, 9), rng) == 1


def test_greedy_symmetric_tie_splits_evenly():
    rng = random.Random(1)
    picks = [wireless.greedy_tree_load((0, 0), rng) for _ in range(4000)]
    share = picks.count(0) / len(picks)
    assert 0.45 < share < 0.55


def test_greedy_balances_example5_trees(k5):
    # Arrivals routed greedily over the four edge-disjoint depth-2 trees
    # settle at an even quarter of the load each.
    ss = flows.wireline_schedule_set(k5)
    m = wireless.run(k5, ss, example5_trees(), fmux.make_parity(), lam=3.9,
                     seed=2, horizon=30_000)
    shares = [a / sum(m.assigned_totals) for a in m.assigned_totals]
    for s in shares:
        assert abs(s - 0.25) <= 0.05 * 0.25 + 0.01, shares


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def link_counts(tix, per_tree):
    """Per-link columns from per-(tree, node) useful counts."""
    return [[per_tree[t][link[0]] for t in taus] for link, taus in tix.trees_on_link.items()]


def link_maxima(counts):
    """Each column's largest count and how often it occurs, by recount."""
    maxima = list(map(max, counts))
    return maxima, [col.count(w) for col, w in zip(counts, maxima)]


def maxweight(schedule_set, tix, counts, rng):
    """`maxweight_schedule` with its maximizing trees keyed by link."""
    weighing, _ = wireless._schedule_positions(tix, schedule_set)
    idx, best = wireless.maxweight_schedule(weighing, tix, counts, *link_maxima(counts), rng)
    return idx, {link: t for link, t in zip(tix.trees_on_link, best) if t is not None}


def test_maxweight_zero_queues(triangle, shared_channel):
    tix = TreeIndex(triangle, flows.enumerate_aggregation_trees(triangle))
    counts = link_counts(tix, [[0] * 3 for _ in range(len(tix))])
    rng = random.Random(3)
    idx, best_tree = maxweight(shared_channel, tix, counts, rng)
    assert best_tree == {}
    assert 0 <= idx < len(shared_channel)


def test_maxweight_picks_heaviest_link(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)  # [star, line]
    tix = TreeIndex(triangle, trees)
    per_tree = [[0] * 3 for _ in range(2)]
    per_tree[1][2] = 7   # line tree: 7 useful at node 2 -> weight on (2, 1)
    per_tree[0][1] = 3   # star tree: 3 useful at node 1 -> weight on (1, 0)
    rng = random.Random(4)
    idx, best_tree = maxweight(shared_channel, tix, link_counts(tix, per_tree), rng)
    assert shared_channel.schedules[idx].links == ((2, 1),)
    assert best_tree[(2, 1)] == 1


def test_maxweight_dominates_every_schedule(triangle, shared_channel):
    # Brute-force check: the chosen schedule's weight is maximal.
    trees = flows.enumerate_aggregation_trees(triangle)
    tix = TreeIndex(triangle, trees)
    rng = random.Random(5)
    for _ in range(200):
        per_tree = [[rng.randrange(6) for _ in range(3)] for _ in range(2)]
        idx, _ = maxweight(shared_channel, tix, link_counts(tix, per_tree), rng)

        def weight(k):
            total = 0
            for l in shared_channel.schedules[k].links:
                p = max(
                    (per_tree[t][l[0]] for t in tix.trees_on_link.get(l, [])),
                    default=0,
                )
                total += p * shared_channel.schedules[k].rates[l]
            return total

        assert weight(idx) == max(weight(k) for k in range(len(shared_channel)))


def test_maxweight_on_one_tree(k5):
    ss = flows.wireline_schedule_set(k5)
    rng = random.Random(20)
    tix = TreeIndex(k5, [star_tree()])
    idx, best_tree = maxweight(ss, tix, link_counts(tix, [[0, 4, 0, 0, 0]]), rng)
    assert idx == 0 and best_tree == {(1, 0): 0}


def test_policy_pieces_called_through_module(monkeypatch, k5):
    # The benchmark times MaxWeight and greedy routing by patching these
    # module attributes, so each slot must look them up there.
    calls = {"maxweight_schedule": 0, "greedy_tree_load": 0}
    for name in calls:
        original = getattr(wireless, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(wireless, name, counted)
    m = wireless.run(k5, flows.wireline_schedule_set(k5),
                     flows.enumerate_aggregation_trees(k5), fmux.make_parity(),
                     lam=1.0, seed=3, horizon=50, arrival_law="deterministic")
    assert m.completed > 0
    assert calls == {"maxweight_schedule": 50, "greedy_tree_load": 50}


def test_lyapunov_value():
    assert wireless.lyapunov_value([[0, 0], [0, 0]]) == 0.0
    assert wireless.lyapunov_value([[2], [3]]) == 13.0


# ---------------------------------------------------------------------------
# slot dynamics
# ---------------------------------------------------------------------------

def test_line_round_takes_two_slots(line3):
    ss = flows.wireline_schedule_set(line3)
    trees = flows.enumerate_aggregation_trees(line3)
    sim = make_sim(line3, ss, trees, func=fmux.make_parity(), debug=True)
    sim.arrivals = ArrivalProcess("deterministic", 1.0)
    step(sim)  # arrival + leaf transmission (2 -> 1); node 1 must wait
    assert sim.metrics.completed == 0
    sim.arrivals = ArrivalProcess("deterministic", 0.0)
    step(sim)  # node 1 aggregated at the slot edge, now forwards
    assert sim.metrics.completed == 1
    assert sim.metrics.latency_sum == 2.0


def test_min_rule_moves_only_queue_length():
    g = graph.build_graph(2, 0, [(1, 0)], 3.0)
    ss = flows.wireline_schedule_set(g)  # rate 3 on the single link
    trees = flows.enumerate_aggregation_trees(g)
    sim = make_sim(g, ss, trees, debug=True)
    sim.arrivals = ArrivalProcess("deterministic", 1.0)
    step(sim)
    assert sim.metrics.completed == 1  # only one packet existed, min(3, 1) = 1
    assert sim.u_total == 0


def test_empty_schedule_leaves_queues(triangle):
    ss = flows.ScheduleSet((flows.Schedule((), {}),))
    trees = flows.enumerate_aggregation_trees(triangle)
    sim = make_sim(triangle, ss, trees)
    sim.arrivals = ArrivalProcess("deterministic", 1.0)
    step(sim, 2)
    assert sim.metrics.completed == 0
    assert sim.u_total + sim.nu_total > 0


def test_fractional_rates_rejected(triangle):
    # Schedule files come from outside: a rate that is not a whole number
    # of packets per slot is refused, naming its link.
    for rate in (0.5, 1.5):
        ss = flows.ScheduleSet((flows.Schedule(((1, 0),), {(1, 0): rate}),))
        with pytest.raises(BadParams, match=rf"rate {rate} on link \(1, 0\)"):
            make_sim(triangle, ss, flows.enumerate_aggregation_trees(triangle))


@pytest.mark.parametrize("every", [0, -1, 0.5])
def test_run_rejects_sample_every_below_one_slot(triangle, shared_channel, every):
    with pytest.raises(BadParams):
        wireless.run(triangle, shared_channel, flows.enumerate_aggregation_trees(triangle),
                     fmux.make_parity(), lam=0.4, seed=1, horizon=10, sample_every=every)


def test_empty_alphabet_rejected(k5):
    # No value can be sensed; the sensor draw would never end.
    with pytest.raises(BadParams, match="alphabet size"):
        make_sim(k5, flows.wireline_schedule_set(k5), [star_tree()], func=fmux.make_max(0))


# ---------------------------------------------------------------------------
# static service split
# ---------------------------------------------------------------------------

def test_static_degenerate_rule_fires_one_schedule(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    rule = flows.SSSRule({0: 1.0})
    sim = make_sim(triangle, shared_channel, trees, lam=0.2, seed=6,
                   split_weights=[1.0, 1.0], sss_rule=rule)
    m = sim.run(2000)
    assert set(m.schedule_counts) == {0}


def test_fixed_split_shares_follow_weights(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    m = wireless.run(triangle, shared_channel, trees, fmux.make_parity(), lam=1.0,
                     seed=21, horizon=8000, split_weights=[0.25, 0.75],
                     arrival_law="deterministic")
    assert sum(m.assigned_totals) == 8000
    assert 0.22 < m.assigned_totals[0] / 8000 < 0.28


def test_split_weights_need_one_per_tree(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    with pytest.raises(BadParams, match="one weight per tree"):
        make_sim(triangle, shared_channel, trees, split_weights=[1.0])


def test_static_schedule_frequencies(triangle, shared_channel):
    from scipy.stats import chisquare
    trees = flows.enumerate_aggregation_trees(triangle)
    rule = flows.SSSRule({0: 0.5, 1: 0.25, 2: 0.25})
    sim = make_sim(triangle, shared_channel, trees, lam=0.3, seed=7,
                   split_weights=[0.5, 0.5], sss_rule=rule)
    m = sim.run(20_000)
    observed = [m.schedule_counts.get(k, 0) for k in range(3)]
    _, p = chisquare(observed, [20_000 * w for w in (0.5, 0.25, 0.25)])
    assert p > 0.01


# ---------------------------------------------------------------------------
# runs and invariants
# ---------------------------------------------------------------------------

def test_debug_run_type_at_and_conservation(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    m = wireless.run(triangle, shared_channel, trees, fmux.make_parity(),
                     lam=0.4, seed=8, horizon=8000, debug=True)
    assert m.completed > 2000
    assert m.final_backlog < 200


def test_all_functions_oracle(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 16)):
        m = wireless.run(triangle, shared_channel, trees, f,
                         lam=0.4, seed=9, horizon=3000, debug=True)
        assert m.completed > 800


def test_run_deterministic(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    a = wireless.run(triangle, shared_channel, trees, fmux.make_parity(),
                     lam=0.4, seed=10, horizon=3000)
    b = wireless.run(triangle, shared_channel, trees, fmux.make_parity(),
                     lam=0.4, seed=10, horizon=3000)
    assert a.backlog_series == b.backlog_series
    assert a.completed == b.completed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_debug_runs_clean_on_random_digraphs(seed, data):
    # Debug mode checks every slot's queues and counts, and every round's
    # links and value; any tree subset, policy and schedule set must pass.
    g = harness.random_digraph(seed, n_max=5)
    trees = flows.enumerate_aggregation_trees(g)
    chosen = sorted(data.draw(st.sets(st.integers(0, len(trees) - 1), min_size=1)))
    # Split weights select fixed-split routing, and a rule static
    # scheduling; without them the run is greedy (one tree: always tree 0)
    # with MaxWeight.
    weights = (data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(chosen),
                                  max_size=len(chosen)))
               if data.draw(st.booleans()) else None)
    if data.draw(st.booleans()):
        ss = flows.wireline_schedule_set(g)
    else:
        ss = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: g.capacity[l]})
                                     for l in g.links))
    rule = None
    if data.draw(st.booleans()):
        w = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(ss), max_size=len(ss)))
        rule = flows.SSSRule({k: x / sum(w) for k, x in enumerate(w)})
    func = data.draw(st.sampled_from([fmux.make_parity(), fmux.make_max(16),
                                      fmux.make_kth(2, 16)]))
    lam = data.draw(st.floats(0.1, 3.0))
    sim = make_sim(g, ss, [trees[t] for t in chosen], lam=lam, seed=seed, func=func,
                   split_weights=weights, sss_rule=rule, debug=True)
    m = sim.run(120)
    assert len(sim.rounds) == sum(m.assigned_totals) - m.completed


def test_debug_catches_a_stale_link_maximum(k5):
    # Arrivals fill the leaves while the one schedule moves nothing; then a
    # slot with no arrivals leaves every queue as it was, so only the debug
    # recount can notice a link maximum that no longer matches its column.
    idle = flows.ScheduleSet((flows.Schedule((), {}),))
    sim = make_sim(k5, idle, flows.enumerate_aggregation_trees(k5), lam=3.6, seed=1,
                   debug=True)
    step(sim, 5)
    sim.arrivals = ArrivalProcess("deterministic", 0.0)
    step(sim)
    pos = next(p for p, col in enumerate(sim.link_counts) if max(col) and 0 in col)
    sim._maxima[pos] = 0
    with pytest.raises(AssertionError, match="link maxima"):
        step(sim)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_maintained_link_maxima_give_the_recount_schedule(seed, data):
    # Capacities 1-4 make multi-packet sends, which rescan a column.  At
    # every slot, MaxWeight fed the simulator's maintained maxima and ties
    # or a recount picks the same schedule and trees and draws the same bits.
    g = harness.random_digraph(seed, n_max=5)
    if data.draw(st.booleans()):
        ss = flows.wireline_schedule_set(g)
    else:
        ss = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: g.capacity[l]})
                                     for l in g.links))
    sim = make_sim(g, ss, flows.enumerate_aggregation_trees(g),
                   lam=data.draw(st.floats(0.5, 4.0)), seed=seed)
    for _ in range(60):
        step(sim)
        picks = []
        for maxima, ties in ((sim._maxima, sim._ties), link_maxima(sim.link_counts)):
            rng = random.Random()
            rng.setstate(sim.rng.getstate())
            picks.append((wireless.maxweight_schedule(sim._weighing, sim.tix, sim.link_counts,
                                                      maxima, ties, rng),
                          rng.getstate()))
        assert picks[0] == picks[1]


def test_single_star_tree_on_k5(k5):
    # One aggregation tree caps the rate at the per-link capacity 1.
    ss = flows.wireline_schedule_set(k5)
    stable = wireless.run(k5, ss, [star_tree()], fmux.make_parity(), lam=0.9,
                          seed=11, horizon=30_000)
    assert stable.final_backlog < 100
    swamped = wireless.run(k5, ss, [star_tree()], fmux.make_parity(), lam=1.5,
                           seed=11, horizon=30_000)
    assert swamped.final_backlog > 10_000


def test_line_below_bottleneck_is_stable(line3):
    ss = flows.wireline_schedule_set(line3)
    trees = flows.enumerate_aggregation_trees(line3)
    m = wireless.run(line3, ss, trees, fmux.make_parity(), lam=0.9,
                     seed=12, horizon=30_000)
    assert m.final_backlog < 150


def test_static_split_k5_wired_as_wireless(k5):
    # The static construction: optimal split of the single all-links
    # schedule plus packing-proportional tree assignment carries 0.9 of the
    # bottleneck rate.
    ss = flows.wireline_schedule_set(k5)
    rule, induced, value, _ = flows.optimal_sss(k5, ss)
    assert value == pytest.approx(4.0, abs=1e-6)
    trees = flows.enumerate_aggregation_trees(k5)
    packing = flows.tree_packing_lp(k5, induced, trees)
    m = wireless.run(k5, ss, trees, fmux.make_parity(), lam=3.6, seed=13,
                     horizon=30_000,
                     split_weights=[max(w, 0.0) for w in packing.weights],
                     sss_rule=rule)
    assert m.completed > 100_000
    assert m.final_backlog < 1500


def test_lyapunov_drift_signature(triangle, shared_channel):
    # Below the critical rate the quadratic diagnostic stays bounded; above
    # it the diagnostic grows without bound.
    trees = flows.enumerate_aggregation_trees(triangle)
    calm = wireless.run(triangle, shared_channel, trees, fmux.make_parity(),
                        lam=0.4, seed=14, horizon=40_000, sample_every=100)
    hot = wireless.run(triangle, shared_channel, trees, fmux.make_parity(),
                       lam=0.6, seed=14, horizon=40_000, sample_every=100)
    n = len(calm.lyapunov)
    assert max(calm.lyapunov) < 5_000
    # quadratic signature: doubling the horizon much more than doubles V
    assert hot.lyapunov[-1] > 3 * hot.lyapunov[n // 2] > 0


def slot_arrivals(sim, slots):
    """Rounds placed in each of the next `slots` slots."""
    counts = []
    for _ in range(slots):
        before = sum(sim.assigned)
        step(sim)
        counts.append(sum(sim.assigned) - before)
    return counts


def test_arrival_processes():
    with pytest.raises(BadParams):
        ArrivalProcess("bernoulli_batch", 2.0, batch=1)
    with pytest.raises(BadParams):
        ArrivalProcess("uniform", 1.0)
    # One sensor on a rate-3 link: every round completes in its slot.
    g = graph.build_graph(2, 0, [(1, 0)], 3.0)
    sim = make_sim(g, flows.wireline_schedule_set(g), flows.enumerate_aggregation_trees(g),
                   lam=2.0, seed=13)
    draws = slot_arrivals(sim, 20_000)
    mean = sum(draws) / len(draws)
    variance = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
    assert abs(mean - 2.0) < 0.05
    assert abs(variance - 2.0) < 0.1  # Poisson: variance = mean


def test_deterministic_arrivals_accumulate_fraction(triangle, shared_channel):
    trees = flows.enumerate_aggregation_trees(triangle)
    sim = make_sim(triangle, shared_channel, trees, lam=0.5)
    sim.arrivals = ArrivalProcess("deterministic", 0.5)
    assert slot_arrivals(sim, 10) == [0, 1] * 5


# Exact outputs of seeded runs: any change to the per-slot bookkeeping must
# leave which rounds move, and the order of RNG calls, as they were.
GOLDEN = {"k5-greedy-3.6": (10527, "795846.0", 706, 489, [(0, 3000)],
                   [9, 17, 22, 16, 20, 23, 14, 31, 5, 28, 31, 21, 11, 33, 35, 10, 19,
                    24, 19, 30, 168, 178, 155, 19, 152, 163, 142, 34, 134, 143, 11, 19,
                    20, 25, 28, 181, 121, 150, 25, 160, 9, 11, 20, 32, 150, 111, 23,
                    153, 26, 115, 16, 26, 28, 27, 31, 158, 177, 109, 24, 159, 159, 161,
                    23, 136, 167, 32, 130, 154, 136, 111, 29, 148, 136, 172, 122, 11,
                    23, 31, 18, 26, 136, 155, 135, 40, 140, 35, 167, 154, 137, 144, 29,
                    154, 149, 179, 163, 23, 124, 168, 112, 165, 4, 31, 18, 7, 113, 32,
                    140, 148, 33, 145, 35, 161, 126, 148, 140, 19, 122, 168, 123, 168,
                    23, 141, 184, 147, 177],
                   [544, 556, 548, 548, 540, 528, 525, 530, 529, 536, 528, 526, 532,
                    538, 540, 538, 539, 529, 535, 533, 531, 534, 540, 538, 543, 540,
                    541, 542, 548, 541, 546, 551, 563, 559, 548, 541, 526, 530, 519,
                    507, 504, 493, 490, 484, 470, 463, 467, 474, 476, 489],
                   [823, 859, 850, 859, 849, 843, 836, 872, 869, 875, 861, 846, 866,
                    882, 900, 881, 880, 863, 867, 854, 853, 838, 855, 833, 849, 834,
                    836, 835, 848, 831, 851, 854, 905, 886, 862, 849, 838, 859, 836,
                    830, 836, 823, 835, 820, 812, 816, 843, 836, 819, 846]),
 "k5-greedy-4.4": (10877, "2673284.0", 4762, 4718, [(0, 3000)],
                   [11, 25, 21, 24, 19, 19, 23, 27, 24, 29, 24, 35, 17, 32, 20, 16, 32,
                    21, 22, 29, 215, 217, 195, 29, 203, 156, 172, 32, 209, 138, 17, 23,
                    36, 31, 26, 184, 153, 192, 41, 168, 19, 39, 23, 24, 176, 159, 31,
                    146, 28, 190, 25, 22, 19, 38, 28, 172, 190, 150, 28, 218, 210, 200,
                    23, 150, 196, 23, 175, 210, 202, 150, 21, 145, 156, 204, 162, 19,
                    26, 29, 18, 31, 148, 195, 185, 31, 181, 34, 189, 160, 177, 179, 33,
                    186, 182, 217, 176, 20, 151, 212, 160, 182, 15, 21, 33, 28, 168, 24,
                    177, 166, 25, 185, 25, 131, 192, 166, 169, 33, 162, 187, 156, 167,
                    29, 202, 222, 168, 249],
                   [4750, 4750, 4750, 4762, 4758, 4746, 4754, 4746, 4758, 4746, 4742,
                    4742, 4730, 4718, 4726, 4726, 4710, 4714, 4718, 4730, 4730, 4734,
                    4738, 4734, 4726, 4734, 4734, 4734, 4726, 4726, 4734, 4738, 4742,
                    4734, 4734, 4730, 4742, 4738, 4738, 4730, 4730, 4718, 4714, 4710,
                    4710, 4718, 4718, 4722, 4726, 4718],
                   [24148, 24145, 24160, 24225, 24165, 24125, 24111, 24034, 24054,
                    24001, 23989, 24009, 23989, 23990, 24072, 24115, 24031, 24060,
                    24150, 24248, 24232, 24190, 24193, 24111, 24067, 24202, 24221,
                    24207, 24168, 24250, 24279, 24292, 24247, 24236, 24288, 24311,
                    24394, 24365, 24371, 24329, 24385, 24336, 24352, 24338, 24329,
                    24307, 24356, 24389, 24432, 24368]),
 "k5-star-1.1": (2997, "397366.0", 1232, 1228, [(0, 3000)], [3304],
                 [1216, 1220, 1216, 1216, 1220, 1220, 1220, 1224, 1220, 1216, 1212,
                  1212, 1212, 1216, 1216, 1212, 1212, 1216, 1216, 1216, 1212, 1212,
                  1212, 1216, 1212, 1212, 1212, 1208, 1208, 1208, 1208, 1208, 1208,
                  1208, 1212, 1216, 1220, 1224, 1232, 1228, 1224, 1224, 1224, 1224,
                  1224, 1224, 1224, 1224, 1228, 1228],
                 [369664, 372100, 369664, 369664, 372100, 372100, 372100, 374544,
                  372100, 369664, 367236, 367236, 367236, 369664, 369664, 367236,
                  367236, 369664, 369664, 369664, 367236, 367236, 367236, 369664,
                  367236, 367236, 367236, 364816, 364816, 364816, 364816, 364816,
                  364816, 364816, 367236, 369664, 372100, 374544, 379456, 376996,
                  374544, 374544, 374544, 374544, 374544, 374544, 374544, 374544,
                  376996, 376996]),
 "k5-static-3.6": (10698, "148292.0", 289, 52, [(0, 3000)],
                   [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 518,
                    0, 0, 0, 0, 534, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    1661, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512, 0, 0, 1677, 0, 0, 0,
                    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 542, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    1065, 0, 0, 0, 0, 0, 0, 0, 1600, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 509, 0, 0, 0, 511, 0, 0, 0, 1057, 0, 0, 0, 532, 0, 0, 0],
                   [27, 25, 35, 33, 44, 44, 47, 56, 61, 51, 42, 35, 40, 34, 43, 39, 41,
                    40, 54, 52, 57, 66, 67, 67, 88, 85, 81, 77, 89, 81, 69, 76, 64, 61,
                    60, 57, 74, 63, 57, 51, 41, 35, 25, 24, 28, 48, 50, 44, 56, 52],
                   [27, 22, 31, 26, 34, 38, 45, 45, 47, 39, 34, 32, 41, 43, 88, 65, 46,
                    34, 48, 38, 42, 46, 51, 49, 73, 83, 77, 73, 113, 103, 91, 98, 73,
                    80, 69, 67, 80, 63, 53, 46, 39, 29, 18, 17, 22, 61, 105, 87, 138,
                    112]),
 "channel3-greedy-0.55": (2947, "559155.0", 435, 430, [(0, 2958), (1, 1474), (2, 1568)],
                          [1556, 1649],
                          [415, 412, 409, 406, 409, 412, 413, 410, 411, 414, 415, 412,
                           411, 412, 411, 410, 413, 410, 411, 414, 411, 412, 411, 412,
                           415, 412, 409, 414, 417, 420, 419, 426, 425, 424, 425, 426,
                           425, 422, 419, 422, 425, 424, 427, 426, 431, 434, 433, 432,
                           431, 430],
                          [27556, 27226, 26733, 26407, 26898, 27226, 27391, 26896,
                           27061, 27228, 27556, 27226, 27061, 27226, 27061, 26896,
                           27393, 26896, 27061, 27558, 27061, 27226, 27061, 27226,
                           27558, 27226, 26898, 27391, 27723, 28224, 28057, 29073,
                           28900, 28902, 28900, 29244, 28900, 28562, 28226, 28562,
                           28900, 28902, 29242, 29071, 29759, 30103, 30103, 29930,
                           29757, 29584]),
 "k5-greedy-deterministic-3.6": (10609, "538118.0", 393, 341,
                                 [(0, 3000)],
                                 [10, 10, 17, 12, 12, 33, 35, 8, 18, 36, 11, 52, 11, 29,
                                  31, 11, 17, 20, 32, 20, 139, 156, 149, 19, 157, 147,
                                  114, 32, 161, 128, 10, 28, 27, 26, 23, 152, 140, 161,
                                  35, 135, 15, 11, 19, 26, 173, 157, 10, 133, 21, 125,
                                  14, 37, 11, 23, 8, 156, 160, 140, 19, 168, 153, 153,
                                  18, 147, 178, 24, 135, 154, 150, 138, 29, 134, 124,
                                  162, 176, 10, 11, 27, 25, 23, 134, 141, 166, 6, 128,
                                  34, 151, 145, 168, 144, 18, 180, 146, 172, 150, 3,
                                  152, 157, 140, 155, 15, 19, 21, 10, 137, 28, 145, 149,
                                  18, 134, 30, 156, 169, 147, 162, 26, 121, 151, 130,
                                  155, 30, 123, 138, 161, 174],
                                 [324, 326, 322, 322, 322, 319, 321, 320, 324, 328, 326,
                                  328, 325, 329, 332, 330, 331, 328, 329, 330, 327, 328,
                                  326, 328, 331, 329, 331, 329, 330, 332, 330, 333, 331,
                                  335, 337, 336, 337, 334, 336, 338, 336, 338, 337, 337,
                                  340, 338, 339, 336, 339, 341],
                                 [294.0, 301.0, 305.0, 325.0, 319.0, 316.0, 340.0,
                                  326.0, 316.0, 327.0, 318.0, 322.0, 312.0, 319.0,
                                  320.0, 316.0, 310.0, 305.0, 307.0, 295.0, 300.0,
                                  306.0, 293.0, 307.0, 309.0, 304.0, 307.0, 306.0,
                                  311.0, 327.0, 314.0, 318.0, 310.0, 312.0, 328.0,
                                  316.0, 328.0, 321.0, 322.0, 321.0, 320.0, 313.0,
                                  308.0, 307.0, 306.0, 305.0, 304.0, 311.0, 327.0,
                                  313.0]),
 "channel3-bernoulli2-greedy-0.45": (1316, "16369.0", 34, 20,
                                     [(0, 1424), (1, 762), (2, 814)],
                                     [642, 686],
                                     [1, 4, 3, 2, 5, 8, 7, 6, 5, 8, 7, 6, 5, 4, 3, 2, 5,
                                      4, 3, 2, 5, 8, 7, 6, 5, 4, 3, 6, 9, 8, 11, 14, 13,
                                      16, 15, 14, 17, 16, 15, 14, 17, 16, 15, 18, 17,
                                      20, 19, 22, 21, 20],
                                     [1.0, 6.0, 3.0, 2.0, 4.0, 10.0, 7.0, 7.0, 4.0,
                                      10.0, 12.0, 7.0, 4.0, 3.0, 2.0, 1.0, 6.0, 3.0,
                                      2.0, 2.0, 9.0, 10.0, 10.0, 7.0, 4.0, 3.0, 5.0,
                                      12.0, 18.0, 13.0, 21.0, 38.0, 31.0, 43.0, 36.0,
                                      31.0, 50.0, 43.0, 36.0, 38.0, 61.0, 52.0, 45.0,
                                      59.0, 50.0, 75.0, 66.0, 82.0, 73.0, 64.0]),
 "k5-debug-4.0": (2625, "206387.0", 959, 895, [(0, 800)],
                  [5, 5, 5, 4, 9, 8, 13, 16, 14, 22, 15, 9, 7, 10, 8, 8, 13, 18, 10, 12,
                   50, 25, 37, 16, 50, 45, 34, 12, 31, 29, 11, 10, 10, 8, 6, 36, 37, 43,
                   13, 39, 6, 9, 14, 14, 57, 34, 8, 28, 14, 39, 7, 6, 15, 8, 8, 37, 53,
                   31, 9, 35, 48, 37, 7, 36, 27, 7, 44, 45, 37, 33, 6, 46, 25, 40, 49,
                   6, 13, 13, 14, 9, 25, 56, 43, 17, 32, 13, 41, 36, 39, 30, 18, 40, 44,
                   45, 40, 11, 41, 50, 30, 48, 6, 12, 12, 13, 24, 8, 56, 48, 13, 38, 6,
                   39, 52, 46, 39, 14, 29, 32, 31, 47, 16, 31, 47, 30, 43],
                  [947, 947, 947, 939, 931, 935, 944, 944, 940, 940, 932, 936, 945, 937,
                   941, 957, 945, 934, 939, 931, 924, 929, 931, 931, 931, 923, 923, 916,
                   916, 913, 898, 891, 880, 876, 869, 873, 881, 881, 873, 886, 891, 907,
                   895, 895, 888, 885, 874, 882, 899, 895],
                  [2042, 2043, 2050, 2059, 2043, 2062, 2040, 2046, 2025, 2042, 2035,
                   2050, 2083, 2047, 2108, 2272, 2238, 2202, 2236, 2217, 2205, 2227,
                   2237, 2262, 2310, 2292, 2296, 2286, 2308, 2282, 2269, 2255, 2251,
                   2274, 2281, 2340, 2331, 2317, 2288, 2367, 2368, 2512, 2472, 2458,
                   2434, 2427, 2383, 2437, 2494, 2470]),
 "k5-split-maxweight-3.6": (10773, "152360.0", 283, 102, [(0, 3000)],
                            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             0, 542, 0, 0, 0, 0, 540, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             0, 0, 0, 0, 0, 0, 1658, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             514, 0, 0, 1618, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             546, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1044, 0, 0, 0, 0, 0,
                             0, 0, 1628, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 561,
                             0, 0, 0, 549, 0, 0, 0, 1098, 0, 0, 0, 517, 0, 0, 0],
                            [79, 79, 80, 82, 73, 69, 63, 72, 82, 81, 86, 89, 90, 84, 90,
                             93, 103, 110, 111, 100, 102, 106, 103, 101, 106, 92, 81,
                             86, 94, 91, 83, 87, 79, 83, 93, 83, 92, 97, 103, 97, 84,
                             82, 89, 78, 85, 80, 76, 92, 97, 102],
                            [77.0, 74.0, 77.0, 80.0, 69.0, 63.0, 60.0, 65.0, 86.0, 90.0,
                             97.0, 89.0, 93.0, 86.0, 90.0, 99.0, 123.0, 138.0, 120.0,
                             88.0, 101.0, 106.0, 103.0, 104.0, 102.0, 82.0, 82.0, 89.0,
                             96.0, 97.0, 87.0, 85.0, 88.0, 92.0, 94.0, 78.0, 84.0, 97.0,
                             138.0, 119.0, 106.0, 87.0, 90.0, 70.0, 81.0, 68.0, 72.0,
                             91.0, 95.0, 92.0]),
 "k4cap2-greedy-5.4": (16077, "281898.0", 272, 93, [(0, 3000)],
                       [117, 278, 275, 317, 1887, 1419, 247, 1479, 277, 1467, 1947,
                        1397, 286, 1377, 1446, 1922],
                       [141, 144, 146, 142, 139, 140, 130, 131, 136, 130, 125, 132, 128,
                        125, 129, 117, 114, 120, 122, 109, 122, 119, 115, 127, 120, 118,
                        121, 114, 108, 106, 107, 113, 107, 106, 109, 105, 107, 106, 100,
                        101, 104, 101, 102, 94, 98, 105, 99, 106, 101, 93],
                       [464.0, 435.0, 415.0, 407.0, 409.0, 420.0, 384.0, 396.0, 445.0,
                        378.0, 375.0, 438.0, 382.0, 360.0, 371.0, 328.0, 328.0, 327.0,
                        339.0, 306.0, 339.0, 321.0, 289.0, 393.0, 326.0, 287.0, 317.0,
                        274.0, 258.0, 265.0, 246.0, 243.0, 228.0, 242.0, 222.0, 206.0,
                        231.0, 208.0, 216.0, 204.0, 179.0, 207.0, 205.0, 194.0, 227.0,
                        307.0, 269.0, 300.0, 279.0, 239.0]),
 "k4cap2-static-5.4": (16209, "75391.0", 125, 41, [(0, 3000)],
                       [0, 0, 0, 0, 5412, 0, 0, 0, 0, 0, 0, 5342, 0, 5474, 0, 0],
                       [36, 39, 33, 25, 24, 28, 18, 12, 19, 34, 32, 29, 29, 23, 15, 15,
                        10, 14, 15, 19, 17, 11, 18, 20, 36, 40, 39, 35, 40, 35, 26, 24,
                        21, 30, 22, 27, 32, 25, 40, 41, 33, 28, 23, 26, 23, 21, 34, 36,
                        46, 41],
                       [67.0, 74.0, 77.0, 45.0, 35.0, 29.0, 21.0, 14.0, 25.0, 44.0,
                        38.0, 33.0, 33.0, 24.0, 19.0, 16.0, 13.0, 16.0, 19.0, 29.0,
                        17.0, 11.0, 19.0, 24.0, 61.0, 74.0, 74.0, 57.0, 77.0, 74.0,
                        52.0, 36.0, 43.0, 50.0, 35.0, 28.0, 46.0, 38.0, 61.0, 77.0,
                        50.0, 34.0, 26.0, 30.0, 26.0, 23.0, 51.0, 60.0, 75.0, 57.0]),
 "k4cap2-static-even-4.0": (11918, "492625.0", 348, 220, [(0, 3000)],
                            [744, 786, 766, 748, 755, 781, 766, 702, 742, 754, 757, 805,
                             744, 775, 724, 735],
                            [231, 226, 224, 226, 225, 229, 226, 225, 222, 227, 219, 220,
                             228, 233, 230, 223, 225, 224, 224, 219, 219, 218, 213, 224,
                             234, 237, 241, 239, 232, 230, 226, 228, 221, 225, 226, 226,
                             223, 230, 235, 231, 222, 221, 217, 214, 208, 218, 223, 223,
                             223, 220],
                            [2736.0, 2703.0, 2612.0, 2669.0, 2667.0, 2637.0, 2635.0,
                             2571.0, 2533.0, 2583.0, 2551.0, 2490.0, 2497.0, 2517.0,
                             2550.0, 2504.0, 2524.0, 2529.0, 2440.0, 2403.0, 2381.0,
                             2370.0, 2253.0, 2233.0, 2363.0, 2365.0, 2461.0, 2541.0,
                             2519.0, 2571.0, 2592.0, 2583.0, 2530.0, 2496.0, 2531.0,
                             2538.0, 2491.0, 2412.0, 2541.0, 2562.0, 2478.0, 2513.0,
                             2449.0, 2386.0, 2288.0, 2352.0, 2425.0, 2439.0, 2463.0,
                             2517.0])}


def _golden_run(name):
    k5 = graph.generate("complete", n=5, capacity=1.0)
    wired = flows.wireline_schedule_set(k5)
    kth = fmux.make_kth(2, 16)
    if name in ("k5-greedy-3.6", "k5-greedy-4.4"):
        lam = 3.6 if name.endswith("3.6") else 4.4
        return wireless.run(k5, wired, flows.enumerate_aggregation_trees(k5), kth,
                            lam=lam, seed=1, horizon=3000)
    if name == "k5-greedy-deterministic-3.6":
        return wireless.run(k5, wired, flows.enumerate_aggregation_trees(k5), kth,
                            lam=3.6, seed=10, horizon=3000, arrival_law="deterministic")
    if name == "k5-star-1.1":
        star = flows.AggregationTree.from_parent_map({1: 0, 2: 0, 3: 0, 4: 0})
        return wireless.run(k5, wired, [star], kth, lam=1.1, seed=2, horizon=3000)
    if name == "k5-static-3.6":
        rule, induced, _, _ = flows.optimal_sss(k5, wired)
        trees = flows.enumerate_aggregation_trees(k5)
        packing = flows.tree_packing_lp(k5, induced, trees)
        return wireless.run(k5, wired, trees, kth, lam=3.6, seed=3, horizon=3000,
                            split_weights=[max(w, 0.0) for w in packing.weights],
                            sss_rule=rule)
    if name == "k5-split-maxweight-3.6":
        _, induced, _, _ = flows.optimal_sss(k5, wired)
        trees = flows.enumerate_aggregation_trees(k5)
        packing = flows.tree_packing_lp(k5, induced, trees)
        return wireless.run(k5, wired, trees, kth, lam=3.6, seed=6, horizon=3000,
                            split_weights=[max(w, 0.0) for w in packing.weights])
    if name.startswith("k4cap2"):
        # Rate-2 links: one slot moves several packets per link, across trees.
        k4 = graph.generate("complete", n=4, capacity=2.0)
        wired4 = flows.wireline_schedule_set(k4)
        trees4 = flows.enumerate_aggregation_trees(k4)
        if name == "k4cap2-greedy-5.4":
            return wireless.run(k4, wired4, trees4, kth, lam=5.4, seed=7, horizon=3000)
        if name == "k4cap2-static-even-4.0":
            # Every tree carries rounds, so trees share each link's FIFO.
            rule, _, _, _ = flows.optimal_sss(k4, wired4)
            return wireless.run(k4, wired4, trees4, kth, lam=4.0, seed=9, horizon=3000,
                                split_weights=[1.0] * len(trees4), sss_rule=rule)
        rule, induced, _, _ = flows.optimal_sss(k4, wired4)
        packing = flows.tree_packing_lp(k4, induced, trees4)
        return wireless.run(k4, wired4, trees4, kth, lam=5.4, seed=8, horizon=3000,
                            split_weights=[max(w, 0.0) for w in packing.weights],
                            sss_rule=rule)
    g3 = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
    shared = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g3.links))
    trees3 = flows.enumerate_aggregation_trees(g3)
    if name == "channel3-greedy-0.55":
        return wireless.run(g3, shared, trees3, fmux.make_parity(), lam=0.55, seed=4,
                            horizon=6000)
    if name == "channel3-bernoulli2-greedy-0.45":
        # Two rounds arrive together with probability 0.225 per slot.
        return WirelessSimulator(g3, shared, trees3, fmux.make_parity(),
                                 ArrivalProcess("bernoulli_batch", 0.45, batch=2),
                                 seed=11).run(3000)
    # debug: every slot checks the queue bookkeeping and each round's links
    return wireless.run(k5, wired, flows.enumerate_aggregation_trees(k5), kth,
                        lam=4.0, seed=5, horizon=800, debug=True)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_seeded_runs_match_recorded_output(name):
    m = _golden_run(name)
    got = (m.completed, repr(m.latency_sum), m.max_backlog, m.final_backlog,
           sorted(m.schedule_counts.items()), m.assigned_totals,
           m.backlog_series[-50:], m.lyapunov[-50:])
    assert got == GOLDEN[name]
