import dataclasses
import random
import subprocess
import sys

import pytest

from aggnet import checks, flows, fmux, wireless, wireline
from aggnet.errors import BadParams, OracleMismatch


# ---------------------------------------------------------------------------
# footprint sets, counting lemma, fluid diagnostic
# ---------------------------------------------------------------------------

def test_valid_footprint_masks_triangle(triangle):
    masks = checks.valid_footprint_masks(triangle)
    assert set(masks) == {0b001, 0b011, 0b101, 0b111}


def test_valid_footprint_masks_relay(relay_net):
    masks = set(checks.valid_footprint_masks(relay_net))
    assert 0b0101 not in masks  # {0, 2}: node 2 has no exit inside the set
    assert 0b1101 in masks      # {0, 2, 3}
    assert 0b0001 in masks


def test_counting_lemma_zero_vector(triangle):
    masks = checks.valid_footprint_masks(triangle)
    assert checks.verify_counting_lemma(triangle, {m: 0.0 for m in masks}, 1.0)


def test_counting_lemma_random_vectors(triangle, diamond):
    rng = random.Random(17)
    for g in (triangle, diamond):
        masks = checks.valid_footprint_masks(g)
        for alpha in (0.1, 1.0, 10.0):
            for _ in range(300):
                x = {m: rng.random() for m in masks}
                assert checks.verify_counting_lemma(g, x, alpha)


def test_counting_lemma_accepts_frozenset_keys(triangle):
    x = {frozenset({0, 1}): 1.0, frozenset({0}): 0.5}
    assert checks.verify_counting_lemma(triangle, x, 1.0)
    with pytest.raises(BadParams):
        checks.verify_counting_lemma(triangle, {frozenset({1, 2}): 1.0}, 1.0)


def test_counting_lemma_flat_betas_violated(triangle):
    # The geometric growth of the level weights is necessary: a flat
    # sequence admits counterexamples.
    masks = checks.valid_footprint_masks(triangle)
    flat = [1.0] * triangle.n
    rng = random.Random(23)
    violated = False
    for _ in range(200):
        x = {m: rng.random() for m in masks}
        if not checks.verify_counting_lemma(triangle, x, 1.0, _betas=flat):
            violated = True
            break
    assert violated


def test_fluid_lyapunov_values(triangle):
    masks = checks.valid_footprint_masks(triangle)
    zero = {m: 0.0 for m in masks}
    assert checks.fluid_lyapunov(triangle, zero, 1.0) == 0.0
    # one round spanning all nodes: the maximand is beta_2 for the 2-sets
    full = (1 << 3) - 1
    single = dict(zero)
    single[full] = 1.0
    alpha = 1.0
    expected = (1 + 1 / alpha) ** 1  # |S| = 2 maximizes beta among S != full
    assert checks.fluid_lyapunov(triangle, single, alpha) == pytest.approx(expected)


def test_fluid_lyapunov_over_sampled_trajectory(triangle):
    # The sampled footprint-class counters plug straight into the fluid
    # diagnostic; under a stable load it stays bounded.
    m = wireline.run(triangle, 0.8, fmux.make_parity(), seed=19, horizon=2000.0,
                     sample_every=20.0, sample_footprint_classes=True)
    values = [
        checks.fluid_lyapunov(triangle, counts, 1.0)
        for counts in m.footprint_class_series
    ]
    assert values and max(values) < 500
    assert any(v > 0 for v in values)


def test_fluid_lyapunov_monotone(triangle):
    masks = checks.valid_footprint_masks(triangle)
    rng = random.Random(5)
    for _ in range(50):
        x = {m: rng.random() for m in masks}
        before = checks.fluid_lyapunov(triangle, x, 0.5)
        grow = dict(x)
        grow[rng.choice(masks)] += 1.0
        assert checks.fluid_lyapunov(triangle, grow, 0.5) >= before


# ---------------------------------------------------------------------------
# verify under python -O
# ---------------------------------------------------------------------------

def test_verify_fails_under_optimize(src_env):
    # -O strips assert statements; a check must still fail when its claim
    # is false.  Here the min-mincut is off by one, so packing != cut.
    script = (
        "from aggnet import checks, flows\n"
        "orig = flows.min_mincut\n"
        "def off_by_one(g, caps):\n"
        "    value, node = orig(g, caps)\n"
        "    return value + 1, node\n"
        "flows.min_mincut = off_by_one\n"
        "print(checks.verify('flows')['passed'])\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], env=src_env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# per-round oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, round_id", [("wireline", 3), ("wireless", 1)])
def test_oracle_fires_on_a_combine_that_drops_a_payload(triangle, model, round_id):
    # Every completed round is checked against the offline value, so a
    # combine that keeps only its first payload is caught at the first round
    # where it drops a 1.
    bad = dataclasses.replace(fmux.make_parity(), combine=lambda p, q: p)
    with pytest.raises(OracleMismatch) as exc:
        if model == "wireline":
            wireline.run(triangle, 0.5, bad, seed=1, horizon=1000.0)
        else:
            wireless.run(triangle, flows.wireline_schedule_set(triangle),
                         flows.enumerate_aggregation_trees(triangle), bad,
                         lam=0.5, seed=1, horizon=1000)
    assert exc.value.round_id == round_id
