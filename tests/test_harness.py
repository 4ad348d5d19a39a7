import hashlib
import json
import random

import pytest

from aggnet import checks, flows, fmux, graph, harness, wireless, wireline
from aggnet.errors import BadParams, MultiTreeConfig, SeriesTooShort
from aggnet.harness import DetectorParams, ExperimentConfig, detect_stability


# ---------------------------------------------------------------------------
# stability detector
# ---------------------------------------------------------------------------

def test_zero_series_is_stable():
    times = list(range(100))
    v = detect_stability(times, [0.0] * 100, lam=1.0, n_nodes=3)
    assert v.verdict == "stable"
    assert v.slope == 0.0


def test_linear_growth_is_unstable():
    lam = 2.0
    times = list(range(200))
    series = [0.1 * lam * t for t in times]
    v = detect_stability(times, series, lam=lam, n_nodes=3)
    assert v.verdict == "unstable"
    assert v.slope == pytest.approx(0.1 * lam)


def test_flat_but_huge_series_is_inconclusive():
    times = list(range(100))
    series = [1e6] * 100
    v = detect_stability(times, series, lam=1.0, n_nodes=3)
    assert v.verdict == "inconclusive"


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        detect_stability(list(range(10)), [0.0] * 10, lam=1.0, n_nodes=2)


def mm1_reference_series(lam, seed, horizon, sample_every=1.0):
    """Independent single-server queue: Poisson arrivals, exp(1) service."""
    rng = random.Random(seed)
    t, q = 0.0, 0
    next_arrival = rng.expovariate(lam)
    next_service = float("inf")
    times, series = [], []
    next_sample = 0.0
    while t < horizon:
        t = min(next_arrival, next_service)
        while next_sample <= min(t, horizon):
            times.append(next_sample)
            series.append(q)
            next_sample += sample_every
        if next_arrival <= next_service:
            q += 1
            next_arrival = t + rng.expovariate(lam)
            if q == 1:
                next_service = t + rng.expovariate(1.0)
        else:
            q -= 1
            next_service = t + rng.expovariate(1.0) if q else float("inf")
    return times, series


def test_detector_calibration_against_mm1():
    # A rho = 0.9 single-server queue must read stable almost always.
    stable = 0
    for seed in range(100):
        times, series = mm1_reference_series(0.9, seed, horizon=20_000.0)
        v = detect_stability(times, series, lam=0.9, n_nodes=2, seed=seed)
        stable += v.verdict == "stable"
    assert stable >= 95, stable


def test_detector_overrides():
    params = DetectorParams(q_cap_factor=1.0, q_cap_floor=10.0)
    times = list(range(100))
    v = detect_stability(times, [50.0] * 100, lam=1.0, n_nodes=3, params=params)
    assert v.verdict == "inconclusive"
    assert v.q_cap == 10.0


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(BadParams):
        ExperimentConfig(model="quantum", lambdas=[1], seeds=[1], horizon=10)
    with pytest.raises(BadParams):
        ExperimentConfig(model="wireline", lambdas=[1], seeds=[], horizon=10)
    with pytest.raises(BadParams):
        ExperimentConfig(model="wireless", policy="optimal", lambdas=[1],
                         seeds=[1], horizon=10)


@pytest.mark.parametrize("fields, message", [
    (dict(model="wireless", split_weights=[1.0, 0.0]), "read only by policy 'fixed-split'"),
    (dict(model="wireless", policy="static-sss", split_weights=[1.0]),
     "read only by policy 'fixed-split'"),
    (dict(model="wireline", policy="static-sss"), "wireline runs one policy"),
    (dict(model="wireline", policy="fixed-split", split_weights=[1.0]),
     "wireline runs one policy"),
    (dict(model="wireless", horizon=100.9), "horizon must be a whole number of slots"),
    (dict(model="wireless", horizon=float("inf")), "horizon must be a whole number"),
    (dict(model="wireless", horizon=100.0, sample_every=2.5),
     "sample_every must be a whole number of slots"),
])
def test_config_rejects_fields_the_run_never_reads(fields, message):
    # Greedy routing would ignore the weights, the wireline simulator the
    # policy and the slot loop a fraction of a slot, while the summary
    # reported them.
    with pytest.raises(BadParams, match=message):
        ExperimentConfig(**{"lambdas": [1], "seeds": [1], "horizon": 10, **fields})


def test_config_accepts_fields_its_run_reads(triangle):
    cfg = ExperimentConfig(model="wireless", graph=triangle, policy="fixed-split",
                           split_weights=[1.0, 0.0], lambdas=[0.3], seeds=[1], horizon=200)
    _, metrics = harness.run_point(cfg, 0.3, 1)
    assert metrics.assigned_totals[1] == 0 < metrics.assigned_totals[0]
    ExperimentConfig(model="wireline", policy="greedy-maxweight", lambdas=[1], seeds=[1],
                     horizon=10)


@pytest.mark.parametrize("model, every", [("wireline", 0.0), ("wireline", -2.0),
                                          ("wireless", 0.5), ("wireless", 0)])
def test_config_rejects_bad_sample_every(model, every):
    with pytest.raises(BadParams):
        ExperimentConfig(model=model, lambdas=[1], seeds=[1], horizon=10,
                         sample_every=every)


def test_config_from_json(tmp_path, triangle):
    from aggnet.graph import save_graph
    gpath = tmp_path / "g.json"
    save_graph(triangle, gpath)
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({
        "model": "wireline",
        "graph": str(gpath),
        "lambdas": [0.5],
        "seeds": [1, 2],
        "horizon": 100.0,
        "function": {"name": "max", "alphabet_size": 8},
    }))
    cfg = ExperimentConfig.from_json(cpath, workers=2)
    assert cfg.workers == 2
    assert cfg.load_graph().links == triangle.links
    assert cfg.load_function().alphabet_size == 8


def test_config_tree_loading(tmp_path, triangle):
    cfg = ExperimentConfig(model="wireless", graph=triangle, lambdas=[0.1],
                           seeds=[1], horizon=10)
    assert len(cfg.load_trees(triangle)) == 2
    tpath = tmp_path / "trees.json"
    tpath.write_text(json.dumps({"trees": [{"1": 0, "2": 0}]}))
    cfg = ExperimentConfig(model="wireless", graph=triangle, lambdas=[0.1],
                           seeds=[1], horizon=10, trees=str(tpath))
    loaded = cfg.load_trees(triangle)
    assert len(loaded) == 1 and loaded[0].parent_map == {1: 0, 2: 0}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_wireline_bracket(tmp_path, triangle):
    cfg = ExperimentConfig(
        model="wireline", graph=triangle, lambdas=[0.5, 1.5], seeds=[1, 2],
        horizon=4000.0, sample_every=5.0, output_dir=str(tmp_path / "out"),
    )
    result = harness.sweep(cfg)
    assert result.verdicts[(0.5, 1)].verdict == "stable"
    assert result.verdicts[(1.5, 1)].verdict == "unstable"
    assert result.lambda_hat == 0.5
    assert result.monotonic
    summary = result.summary()
    assert summary["delta_star"] == 1.0
    assert summary["lambda_star"] == 1.0  # parity
    paths = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert paths == [
        "wireline_greedy-maxweight_lam0.5_seed1.csv",
        "wireline_greedy-maxweight_lam0.5_seed2.csv",
        "wireline_greedy-maxweight_lam1.5_seed1.csv",
        "wireline_greedy-maxweight_lam1.5_seed2.csv",
    ]
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("function", [
    {"name": "max", "alphabet_size": 16},
    {"name": "kth", "k": 2, "alphabet_size": 16},
])
def test_sweep_lambda_star_in_packets(triangle, function):
    # Simulated rates are packets per time unit and one packet carries a
    # whole round, so the analytic refresh rate is the bottleneck itself,
    # whatever the function's output range (bits would give 1/4 here).
    cfg = ExperimentConfig(
        model="wireline", graph=triangle, function=function, lambdas=[0.5, 1.5],
        seeds=[1], horizon=4000.0, sample_every=5.0,
    )
    result = harness.sweep(cfg)
    summary = result.summary()
    assert summary["lambda_star"] == summary["delta_star"] == 1.0
    assert result.verdicts[(0.5, 1)].verdict == "stable"
    assert result.verdicts[(1.5, 1)].verdict == "unstable"


def test_sweep_reproducible_output(tmp_path, triangle):
    def one(d):
        cfg = ExperimentConfig(
            model="wireline", graph=triangle, lambdas=[0.6], seeds=[3],
            horizon=1000.0, sample_every=5.0, output_dir=str(d),
        )
        harness.sweep(cfg)
        return (d / "wireline_greedy-maxweight_lam0.6_seed3.csv").read_bytes()

    assert one(tmp_path / "a") == one(tmp_path / "b")


# sha256 of one seeded run's CSV per simulator: changes to the event or
# slot loop or to the CSV writer must leave these bytes as they are.  The
# wireline run is criterion 10's.
WIRELESS_CSV_SHA256 = "cf9b98d57d66138dd6fbe4df7f12e5ac9f91ead05bc538b3b14525973259f257"
WIRELINE_CSV_SHA256 = "261faacdf24e186b8e2e4e9a549e7f9ec1f48f9f1f1c73b71880f034af232ae7"


def test_wireline_csv_bytes_pinned(tmp_path, k5):
    m = wireline.run(k5, 3.0, fmux.make_parity(), seed=51, horizon=2000.0,
                     sample_every=10.0)
    path = tmp_path / "k5.csv"
    harness.write_wireline_csv(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIRELINE_CSV_SHA256


def test_wireless_csv_bytes_pinned(tmp_path):
    k5 = graph.generate("complete", n=5, capacity=1.0)
    m = wireless.run(k5, flows.wireline_schedule_set(k5),
                     flows.enumerate_aggregation_trees(k5), fmux.make_kth(2, 16),
                     lam=3.6, seed=1, horizon=600, sample_every=5)
    path = tmp_path / "k5.csv"
    harness.write_wireless_csv(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIRELESS_CSV_SHA256


def test_sweep_parallel_matches_sequential(tmp_path, triangle, shared_channel):
    # The static-sss workers read the sweep's analysis from the pickled config.
    for kw in (dict(model="wireline", lambdas=[0.5, 1.5], horizon=2000.0,
                    sample_every=5.0),
               dict(model="wireless", policy="static-sss", schedules=shared_channel,
                    lambdas=[0.3, 0.7], horizon=2000, sample_every=5)):
        kw.update(graph=triangle, seeds=[1])
        seq = harness.sweep(ExperimentConfig(**kw))
        par = harness.sweep(ExperimentConfig(**kw, workers=2))
        assert {k: v.verdict for k, v in seq.verdicts.items()} == \
               {k: v.verdict for k, v in par.verdicts.items()}
        assert {k: v.slope for k, v in seq.verdicts.items()} == \
               {k: v.slope for k, v in par.verdicts.items()}


def test_sweep_k5_grid_brackets_bottleneck(k5):
    # Five-point grid around the K5 bottleneck of 4: clearly stable below,
    # clearly unstable above, anything allowed exactly at the boundary.
    # Shorter horizon than the acceptance bracket; one seed per point.
    cfg = ExperimentConfig(
        model="wireline", graph=k5, lambdas=[3.2, 3.6, 4.0, 4.4, 4.8],
        seeds=[1], horizon=30_000.0, sample_every=30.0, workers=2,
    )
    result = harness.sweep(cfg)
    assert result.verdicts[(3.2, 1)].verdict == "stable"
    assert result.verdicts[(3.6, 1)].verdict == "stable"
    assert result.verdicts[(4.4, 1)].verdict == "unstable"
    assert result.verdicts[(4.8, 1)].verdict == "unstable"
    assert 3.6 <= result.lambda_hat <= 4.4
    assert result.summary()["lambda_star"] == 4.0


def test_single_tree_requires_one_tree(triangle):
    # "all" gives the triangle's two trees; the simulator would take both.
    cfg = ExperimentConfig(model="wireless", graph=triangle, policy="single-tree",
                           lambdas=[0.3], seeds=[1], horizon=100)
    with pytest.raises(MultiTreeConfig, match="exactly one tree, got 2"):
        harness.run_point(cfg, 0.3, 1)


def test_sweep_wireless_static_policy(triangle, shared_channel):
    cfg = ExperimentConfig(
        model="wireless", graph=triangle, policy="static-sss",
        schedules=shared_channel, lambdas=[0.3], seeds=[4],
        horizon=4000, sample_every=5,
    )
    result = harness.sweep(cfg)
    assert result.verdicts[(0.3, 4)].verdict == "stable"
    assert result.analysis.delta_star == pytest.approx(0.5, abs=1e-6)


def test_sweep_wireless_argmin_from_induced_rates():
    # With one link at a time, the bottleneck under the split's induced
    # rates (node 1) differs from the one under wired capacities (node 2).
    g = harness.random_digraph(4)
    one_link = flows.ScheduleSet(tuple(flows.Schedule((l,), {l: 1.0}) for l in g.links))
    _, induced, _, _ = flows.optimal_sss(g, one_link)
    assert flows.min_mincut(g, g.capacity)[1] == 2
    assert flows.min_mincut(g, induced)[1] == 1
    cfg = ExperimentConfig(model="wireless", graph=g, schedules=one_link,
                           lambdas=[0.1], seeds=[1], horizon=200)
    assert harness.sweep(cfg).analysis.argmin_node == 1


@pytest.mark.parametrize("model, policy, expected", [
    ("wireless", "static-sss", (1, 1, 1)),
    ("wireless", "greedy-maxweight", (1, 0, 1)),
    ("wireline", "greedy-maxweight", (0, 0, 0)),
])
def test_sweep_analyses_once(monkeypatch, k5, model, policy, expected):
    # One analysis per sweep, whatever the number of (lambda, seed) points.
    names = ("enumerate_aggregation_trees", "tree_packing_lp", "optimal_sss")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(flows, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(flows, name, counted)
    cfg = ExperimentConfig(model=model, policy=policy, graph=k5, lambdas=[1.0, 2.0],
                           seeds=[1, 2, 3], horizon=100, workers=1)
    result = harness.sweep(cfg)
    assert len(result.verdicts) == 6
    assert tuple(counts[n] for n in names) == expected
    assert result.summary()["cut"] == [list(l) for l in result.analysis.cut]


# ---------------------------------------------------------------------------
# verify batteries
# ---------------------------------------------------------------------------

def test_verify_single_suite():
    report = checks.verify("fmux")
    assert report["passed"]
    assert set(report["suites"]) == {"fmux"}


def test_verify_unknown_suite():
    with pytest.raises(BadParams):
        checks.verify("everything")
