import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnet import fmux
from aggnet.checks import check_divisible, lift_and_combine, offline_evaluate
from aggnet.errors import BadParams, ValueOutOfAlphabet


def test_parity_lift_and_combine(parity):
    assert lift_and_combine(parity, [1, 0, 1]) == 0
    assert parity.finalize(lift_and_combine(parity, [1, 1, 1])) == 1


def test_max_lift_and_combine(max16):
    assert lift_and_combine(max16, [3, 7, 2]) == 7


def test_kth_payload_and_finalize(kth2):
    payload = lift_and_combine(kth2, [5, 1, 3])
    assert payload == (5, 3)
    assert kth2.finalize(payload) == 3


def test_offline_evaluate(parity, max16, kth2):
    assert offline_evaluate(parity, (1, 1, 1)) == 1
    assert offline_evaluate(max16, (9, 9, 2)) == 9
    assert offline_evaluate(kth2, (4, 4, 1)) == 4  # duplicates stay in the multiset


def test_value_out_of_alphabet(parity):
    with pytest.raises(ValueOutOfAlphabet):
        lift_and_combine(parity, [0, 2])
    with pytest.raises(ValueOutOfAlphabet):
        offline_evaluate(parity, [0, -1])


def test_check_divisible_examples(parity, max16):
    assert check_divisible(parity, [[0], [1, 2], [3]], [1, 0, 1, 1])
    assert check_divisible(max16, [[0], [1, 2]], [3, 7, 2])


def test_check_divisible_rejects_bad_partition(parity):
    with pytest.raises(BadParams):
        check_divisible(parity, [[0], [0, 1]], [1, 0])


def test_kth_divisibility_random():
    # 1000 random partitions/values over a small alphabet; every split must
    # agree with the direct evaluation.
    f = fmux.make_kth(2, 8)
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(2, 6)
        values = [rng.randrange(8) for _ in range(n)]
        idx = list(range(n))
        rng.shuffle(idx)
        cut = rng.randint(1, n - 1) if n > 1 else 1
        parts = [idx[:cut], idx[cut:]]
        assert check_divisible(f, parts, values)


def test_combine_commutative_associative():
    rng = random.Random(7)
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(3, 16)):
        for _ in range(10_000):
            a, b, c = (f.lift(rng.randrange(f.alphabet_size)) for _ in range(3))
            assert f.combine(a, b) == f.combine(b, a)
            assert f.combine(f.combine(a, b), c) == f.combine(a, f.combine(b, c))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 4), data=st.data())
def test_kth_combine_equals_sorted_merge(k, data):
    # Payloads are descending top-k tuples, padded at the back when fewer
    # than k values have been merged; pad-only payloads included.
    f = fmux.make_kth(k, 16)

    def payload():
        values = data.draw(st.lists(st.integers(0, 15), max_size=k))
        return (tuple(sorted(values, reverse=True)) + f.empty_payload)[:k]

    p, q = payload(), payload()
    assert f.combine(p, q) == tuple(sorted(p + q, reverse=True)[:k])


def test_payload_size_constant():
    # The wire encoding of a merged payload never grows with the input count.
    rng = random.Random(1)
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 16)):
        single = f.encode_payload(f.lift(0))
        values = [rng.randrange(f.alphabet_size) for _ in range(12)]
        merged = f.encode_payload(lift_and_combine(f, values))
        assert len(merged) == len(single)


def test_range_sizes():
    assert fmux.make_parity().range_size == 2
    assert fmux.make_max(16).range_size == 16
    assert fmux.make_kth(2, 16).range_size == math.comb(17, 2)
    assert fmux.make_kth(1, 16).range_size == 16


def test_factory_and_config():
    f = fmux.function_from_config({"name": "kth", "k": 2, "alphabet_size": 8})
    assert f.k == 2 and f.alphabet_size == 8
    assert fmux.function_from_config({"name": "parity"}).range_size == 2
    with pytest.raises(BadParams):
        fmux.make_function("parity", alphabet_size=16)
    with pytest.raises(BadParams):
        fmux.make_function("kth")
    with pytest.raises(BadParams):
        fmux.make_function("median")


@pytest.mark.parametrize("make", [
    lambda: fmux.make_max(0),
    lambda: fmux.make_max(-3),
    lambda: fmux.make_kth(2, 0),
    lambda: fmux.make_kth(2, -3),
    lambda: fmux.make_function("max", alphabet_size=0),
    lambda: fmux.function_from_config({"name": "kth", "k": 1, "alphabet_size": 0}),
    lambda: fmux.make_max(257),
    lambda: fmux.make_max(300),
    lambda: fmux.make_kth(2, 256),
    lambda: fmux.make_function("kth", k=1, alphabet_size=300),
], ids=["max-0", "max-negative", "kth-0", "kth-negative", "factory-0", "config-0",
        "max-257", "max-300", "kth-256", "factory-300"])
def test_alphabet_size_out_of_range_refused(make):
    # An empty alphabet has no value to sense (the config path used to fall
    # back to 16); past one payload byte values collide: 299 and 43 both
    # went out as b"+".
    with pytest.raises(BadParams, match="alphabet size"):
        make()


def test_largest_alphabets_encode_apart():
    f = fmux.make_max(256)
    assert len({f.encode_payload(x) for x in range(256)}) == 256
    # kth's entries may also be the pad, so its alphabet stops one short.
    f = fmux.make_kth(1, 255)
    encoded = {f.encode_payload(f.lift(x)) for x in range(255)}
    assert len(encoded | {f.encode_payload(f.empty_payload)}) == 256


def test_empty_payload_is_identity():
    for f in (fmux.make_parity(), fmux.make_max(16), fmux.make_kth(2, 16)):
        lifted = f.lift(5 % f.alphabet_size)
        assert f.combine(f.empty_payload, lifted) == lifted
