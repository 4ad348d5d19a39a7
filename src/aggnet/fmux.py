"""Computation model: divisible functions whose merged packets keep a fixed size.

A function here is described by a lift of a single sensed value into a
payload, a commutative/associative combine over payloads, and a finalize
step producing the output value.  The payload representation is constant
size no matter how many inputs were merged, which is what lets a relay
collapse any number of same-round packets into one.

Built-in instances:

* ``parity``  - XOR over {0,1}; output range size 2.
* ``max``     - maximum over {0..m-1}; output range size m.
* ``kth``     - k-th largest value.  The payload is the multiset of the k
  largest values seen so far, padded with a sentinel, since the k-th
  largest of a union is computable from per-part top-k sets.  The range
  size is the number of k-element multisets of the alphabet.

Each payload entry goes on the wire as one byte, so an alphabet holds at
most 256 values, and 255 for kth, whose entries may also be the pad.
FmuxFunction checks its parameters itself, so every constructor and
config path refuses the same bad values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BadParams, ValueOutOfAlphabet

# Sentinel standing in for "minus infinity" in order-statistic payloads;
# alphabets are nonnegative ints so -1 never collides.
_PAD = -1

# Values one payload byte keeps apart.
_BYTE_VALUES = 256


@dataclass(frozen=True)
class FmuxFunction:
    name: str
    alphabet_size: int
    lift: Callable
    combine: Callable
    finalize: Callable
    direct: Callable          # independent whole-vector evaluation (the oracle)
    empty_payload: object     # what a node holds before anything is merged in
    encode_payload: Callable  # fixed-width wire encoding
    k: int | None = None

    def __post_init__(self):
        # An order statistic's payload entries may also be the pad, which
        # takes one of the byte's values.
        most = _BYTE_VALUES - (self.k is not None)
        if not 1 <= self.alphabet_size <= most:
            raise BadParams(f"alphabet size must be between 1 and {most}, "
                            f"got {self.alphabet_size}")
        if self.k is not None and self.k < 1:
            raise BadParams("kth requires k >= 1")

    @property
    def range_size(self) -> int:
        """Output values: the alphabet, or for the k-th largest the k-element
        multisets of the alphabet (a top-k payload holds one)."""
        if self.k is None:
            return self.alphabet_size
        return math.comb(self.alphabet_size + self.k - 1, self.k)

    @property
    def log2_range(self) -> float:
        return math.log2(self.range_size)

    def check_value(self, x):
        if not (isinstance(x, int) and 0 <= x < self.alphabet_size):
            raise ValueOutOfAlphabet(x, self.alphabet_size)
        return x


def make_parity() -> FmuxFunction:
    def direct(values):
        return sum(values) % 2

    return FmuxFunction(
        name="parity",
        alphabet_size=2,
        lift=lambda x: x,
        combine=lambda p, q: p ^ q,
        finalize=lambda p: p,
        direct=direct,
        empty_payload=0,
        encode_payload=lambda p: bytes([p]),
    )


def make_max(alphabet_size=16) -> FmuxFunction:
    def direct(values):
        return max(values)

    return FmuxFunction(
        name="max",
        alphabet_size=alphabet_size,
        lift=lambda x: x,
        combine=lambda p, q: p if p >= q else q,
        finalize=lambda p: p,
        direct=direct,
        empty_payload=_PAD,
        encode_payload=lambda p: bytes([p & 0xFF]),
    )


def make_kth(k, alphabet_size=16) -> FmuxFunction:
    """k-th order statistic (k-th largest)."""

    def lift(x):
        return (x,) + (_PAD,) * (k - 1)

    def combine(p, q):
        # Merge two descending top-k tuples down to the k largest values;
        # sentinels sink to the back.  Both inputs have k entries, so
        # neither runs out before k values are taken.
        out = []
        i = j = 0
        x, y = p[0], q[0]
        while True:
            if x >= y:
                out.append(x)
                i += 1
                if i + j == k:
                    return tuple(out)
                x = p[i]
            else:
                out.append(y)
                j += 1
                if i + j == k:
                    return tuple(out)
                y = q[j]

    def finalize(p):
        return p[k - 1]

    def direct(values):
        return sorted(values, reverse=True)[k - 1]

    return FmuxFunction(
        name="kth",
        alphabet_size=alphabet_size,
        lift=lift,
        combine=combine,
        finalize=finalize,
        direct=direct,
        empty_payload=(_PAD,) * k,
        encode_payload=lambda p: bytes((x & 0xFF) for x in p),
        k=k,
    )


def make_function(name, alphabet_size=None, k=None) -> FmuxFunction:
    """Factory used by config files: {"name", "alphabet_size", "k"}.

    The alphabet defaults to size 16 where configurable; parity is fixed to
    the binary alphabet.
    """
    if name == "parity":
        if alphabet_size not in (None, 2):
            raise BadParams("parity is defined over the binary alphabet")
        return make_parity()
    if alphabet_size is None:
        alphabet_size = 16
    if name == "max":
        return make_max(alphabet_size)
    if name == "kth":
        if k is None:
            raise BadParams("kth requires k")
        return make_kth(k, alphabet_size)
    raise BadParams(f"unknown function {name!r}")


def function_from_config(cfg: dict) -> FmuxFunction:
    return make_function(
        cfg["name"],
        alphabet_size=cfg.get("alphabet_size"),
        k=cfg.get("k"),
    )

