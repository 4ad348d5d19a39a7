"""Acceptance suite.

One test per criterion; each records a single pass/fail line with the
measured runtime (echoed in the terminal summary, see conftest) and
asserts the stated tolerances and budgets.
"""
import time

import pytest
from scipy.stats import chisquare

from aggnet import checks, flows, fmux, graph, harness, wireless, wireline
from aggnet.harness import ExperimentConfig

PASS_LINES = []


def report(name, detail, t0, budget=None):
    elapsed = time.monotonic() - t0
    over = budget is not None and elapsed >= budget
    status = "FAIL" if over else "PASS"
    line = f"[{status}] {name}: {detail} ({elapsed:.1f}s"
    line += f" / budget {budget:.0f}s)" if budget else ")"
    PASS_LINES.append(line)
    print(line, flush=True)
    assert not over, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def k5():
    return graph.generate("complete", n=5, capacity=1.0)


@pytest.fixture(scope="module")
def channel3():
    g = graph.build_graph(3, 0, [(1, 0), (2, 0), (2, 1)], 1.0)
    ss = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    return g, ss


def test_criterion_1_edmonds_equality():
    t0 = time.monotonic()
    report("criterion 1 (tree packing = min-mincut)", checks.edmonds_equality(), t0,
           budget=30)


def test_criterion_2_k5_fixture(k5):
    t0 = time.monotonic()
    value, _ = flows.min_mincut(k5, k5.capacity)
    assert value == 4.0
    trees = flows.enumerate_aggregation_trees(k5)
    packing = flows.tree_packing_lp(k5, k5.capacity, trees)
    assert abs(packing.total - 4.0) <= 1e-6
    witness = flows.TreePacking(
        tuple(
            flows.AggregationTree.from_parent_map(
                {i: 0, **{j: i for j in range(1, 5) if j != i}}
            )
            for i in range(1, 5)
        ),
        (1.0, 1.0, 1.0, 1.0),
    )
    assert witness.total == 4.0
    assert witness.max_violation(k5) <= 0.0
    report("criterion 2 (K5 capacity fixture)",
           f"min-mincut = {value:g}, packing total = {packing.total:.6f}, "
           "4 depth-2 trees at weight 1 feasible", t0, budget=1)


@pytest.mark.slow
def test_criterion_3_wireline_bracket(k5):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        model="wireline", graph=k5, lambdas=[3.6, 4.4], seeds=[1, 2, 3],
        horizon=200_000.0, sample_every=100.0, workers=2,
    )
    result = harness.sweep(cfg)
    for seed in (1, 2, 3):
        low = result.verdicts[(3.6, seed)]
        high = result.verdicts[(4.4, seed)]
        assert low.verdict == "stable", (seed, low)
        assert high.verdict == "unstable", (seed, high)
    slopes = [result.verdicts[(4.4, s)].slope for s in (1, 2, 3)]
    report("criterion 3 (wireline stability bracket on K5)",
           f"stable at 3.6, unstable at 4.4 for 3 seeds; "
           f"growth at 4.4 = {min(slopes):.2f}-{max(slopes):.2f} rounds/unit", t0,
           budget=300)


@pytest.mark.slow
def test_criterion_4_wireless_bracket(channel3, grid_search_sss):
    t0 = time.monotonic()
    g, ss = channel3
    _, _, lam_star, _ = flows.optimal_sss(g, ss)
    assert abs(lam_star - 0.5) <= 1e-6
    assert abs(grid_search_sss(g, ss) - lam_star) <= 0.02
    cfg = ExperimentConfig(
        model="wireless", graph=g, schedules=ss, policy="greedy-maxweight",
        lambdas=[0.45, 0.55], seeds=[1, 2, 3], horizon=200_000, sample_every=100,
        workers=2,
    )
    result = harness.sweep(cfg)
    for seed in (1, 2, 3):
        assert result.verdicts[(0.45, seed)].verdict == "stable", seed
        assert result.verdicts[(0.55, seed)].verdict == "unstable", seed
    report("criterion 4 (wireless throughput bracket)",
           f"lambda* = {lam_star:.6f} (grid-checked); greedy+MaxWeight stable "
           "at 0.45, unstable at 0.55, 3 seeds", t0, budget=300)


@pytest.mark.slow
def test_criterion_5_static_policy(channel3):
    t0 = time.monotonic()
    g, ss = channel3
    cfg = ExperimentConfig(
        model="wireless", graph=g, schedules=ss, policy="static-sss",
        lambdas=[0.45], seeds=[1, 2, 3], horizon=200_000, sample_every=100,
        workers=2,
    )
    result = harness.sweep(cfg)
    for seed in (1, 2, 3):
        assert result.verdicts[(0.45, seed)].verdict == "stable", seed

    # Schedule draw frequencies against the optimal split over 1e5 slots.
    rule, induced, _, _ = flows.optimal_sss(g, ss)
    trees = flows.enumerate_aggregation_trees(g)
    packing = flows.tree_packing_lp(g, induced, trees)
    sim = wireless.WirelessSimulator(
        g, ss, trees, fmux.make_parity(), wireless.ArrivalProcess("poisson", 0.45),
        seed=1, split_weights=[max(w, 0.0) for w in packing.weights], sss_rule=rule,
    )
    slots = 100_000
    m = sim.run(slots)
    support = [k for k in range(len(ss)) if rule.weights.get(k, 0.0) > 1e-9]
    observed = [m.schedule_counts.get(k, 0) for k in support]
    expected = [slots * rule.weights[k] for k in support]
    for k in range(len(ss)):
        if k not in support:
            assert m.schedule_counts.get(k, 0) == 0
    _, p = chisquare(observed, expected)
    assert p > 0.01, (observed, expected, p)
    report("criterion 5 (static service split)",
           f"stable at 0.45 (3 seeds); schedule frequency chi^2 p = {p:.3f}", t0,
           budget=300)


@pytest.mark.slow
def test_criterion_6_single_tree_gap(k5):
    t0 = time.monotonic()
    ss = flows.wireline_schedule_set(k5)
    star = flows.AggregationTree.from_parent_map({1: 0, 2: 0, 3: 0, 4: 0})
    single = harness.sweep(ExperimentConfig(
        model="wireless", graph=k5, schedules=ss, policy="single-tree",
        trees=[star.parent_map], lambdas=[0.9, 1.1], seeds=[1, 2, 3],
        horizon=200_000, sample_every=100, workers=2,
    ))
    greedy = harness.sweep(ExperimentConfig(
        model="wireless", graph=k5, schedules=ss, policy="greedy-maxweight",
        trees="all", lambdas=[3.6], seeds=[1, 2, 3],
        horizon=200_000, sample_every=100, workers=2,
    ))
    lam_single = single.lambda_hat
    lam_greedy = greedy.lambda_hat
    assert lam_single <= 1.1, single.verdicts
    assert lam_greedy >= 3.6, greedy.verdicts
    ratio = lam_greedy / lam_single
    assert ratio >= 3.2, (lam_greedy, lam_single)
    report("criterion 6 (single tree vs dynamic multi-tree)",
           f"critical rates {lam_single:g} vs {lam_greedy:g}, ratio {ratio:.2f}",
           t0, budget=300)


def test_criterion_7_oracle_zero_mismatches(channel3):
    t0 = time.monotonic()
    g3, ss = channel3
    trees = flows.enumerate_aggregation_trees(g3)
    counts = {}
    for name, func in (
        ("parity", fmux.make_parity()),
        ("max", fmux.make_max(16)),
        ("kth", fmux.make_kth(2, 16)),
    ):
        wl = wireline.run(g3, 0.8, func, seed=21, horizon=16_000.0)
        ws = wireless.run(g3, ss, trees, func, lam=0.45, seed=22, horizon=24_000)
        counts[name] = wl.completed + ws.completed
        assert counts[name] >= 10_000, (name, counts[name])
    report("criterion 7 (aggregation correctness oracle)",
           "zero mismatches over "
           + ", ".join(f"{v} {k} rounds" for k, v in counts.items()), t0,
           budget=300)


def test_criterion_8_wireline_invariants():
    t0 = time.monotonic()
    detail = f"{checks.wireline_invariants()}; {checks.counting_lemma()}"
    report("criterion 8 (footprint and counter invariants)", detail, t0, budget=300)


def test_criterion_9_wireless_invariants():
    t0 = time.monotonic()
    report("criterion 9 (aggregate-and-transmit invariants)",
           checks.shared_channel_invariants(), t0, budget=300)


def test_criterion_10_determinism(tmp_path, k5, channel3):
    t0 = time.monotonic()
    g3, ss = channel3

    def wireline_bytes(path):
        m = wireline.run(k5, 3.0, fmux.make_parity(), seed=51, horizon=2000.0,
                         sample_every=10.0)
        m.write_csv(path)
        return path.read_bytes()

    def wireless_bytes(path):
        trees = flows.enumerate_aggregation_trees(g3)
        m = wireless.run(g3, ss, trees, fmux.make_parity(), lam=0.45, seed=52,
                         horizon=5000, sample_every=10)
        m.write_csv(path)
        return path.read_bytes()

    assert wireline_bytes(tmp_path / "wl1.csv") == wireline_bytes(tmp_path / "wl2.csv")
    assert wireless_bytes(tmp_path / "ws1.csv") == wireless_bytes(tmp_path / "ws2.csv")
    report("criterion 10 (seeded determinism)",
           "byte-identical CSV output for repeated wireline and wireless runs",
           t0, budget=300)
