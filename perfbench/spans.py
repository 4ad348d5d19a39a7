"""Span recording from outside the program.

A Tracer replaces public module attributes (functions, or methods on a
class) with wrappers that record one span per call: name, start, end and
the span that was open when the call began.  Nothing inside the package
changes; because callers look these attributes up at call time, patching
``aggnet.flows.min_mincut`` also catches the call made from inside
``optimal_sss``.

Spans are kept in typed arrays while the traced code runs, written out
once at the end, and self time per name is derived from them afterwards
(a span's duration minus the durations of its direct children).
"""
from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self._patched = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, fn, name, observe=None):
        """Return `fn` wrapped so each call records a span under `name`.

        `observe(args, kwargs, result)` runs after the span closes, so the
        cost of inspecting the result is not charged to the span.
        """
        nid = self._name_id(name)
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start, self.end, self._open)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                open_.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, observe=None):
        """Replace `owner.attr` by its traced wrapper until restore()."""
        self.replace(owner, attr, self.traced(getattr(owner, attr), name, observe))

    def replace(self, owner, attr, value):
        """Set `owner.attr` to `value` until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per name: number of calls and total self time in seconds."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names)) / 1e9
        calls = np.bincount(name, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path):
        """Write every span once: arrays in an .npz, span names alongside."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )
