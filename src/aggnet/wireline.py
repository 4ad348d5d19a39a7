"""Continuous-time simulator of random useful-packet forwarding with aggregation.

Every sensor generates a packet of each round; packets of the same round
merge when they meet.  A packet at node u is *useful* across an idle link
(u,v) when v also holds the round (so the transfer aggregates) and no
in-neighbor of u would be left with no way to merge (non-isolation).  The
policy is work conserving: whenever an idle link has useful packets, one
is chosen uniformly at random and transmitted; transit times are
exponential with the link rate.

State is tracked the way the analysis suggests: idle rounds are grouped
into footprint classes (the set of nodes still holding the round), while
the at-most-one-per-link active rounds are tracked individually.  Uniform
selection then weights classes by their occupancy, which keeps the event
loop independent of how many rounds are in flight.

Usefulness depends on the footprint alone, so it is computed once per
footprint, from node bitmasks, as the ascending list of useful links and
the same set as a bitmask over link indices.  Each link keeps an index of
the idle classes useful on it (footprint -> rounds, insertion-ordered).
A class enters every index it belongs to when it is created and leaves
them when it empties, so each index lists its classes in the order of
the class table: a draw on a freed link sums and walks only that link's
index, and picks exactly the packet a scan over every class would.

Every round carries one link bitmask, ``avail``: the links it may start a
transfer on right now.  It is rebuilt when the round changes (a transfer
starts or lands), never when a link draws, and it is the single
eligibility rule: the draw keeps an active round when its ``avail`` has
the link's bit, and after an event the changed round starts transfers on
``avail`` minus the busy links, in ascending link order.  An idle round's
``avail`` is the useful set of its footprint.

Concurrent transfers of one round need care the per-transmission rules
don't provide on their own:

* a round in flight is judged against its footprint *after* its in-flight
  departures: ``avail`` is the useful set of the footprint minus the
  sending nodes.  Judged against the whole footprint, two transfers that
  are each safe can together strand a node: a sensor whose only
  footprint out-neighbors are x and y pins neither, so x and y may send
  at once, and once both have left it holds a packet with no way on;
* a transfer delivers the sender's payload as of completion time, so a
  merge that lands at the sender mid-flight rides along instead of being
  dropped;
* a round is never transmitted *to* a node that is currently forwarding
  it (such a node is outside the post-departure footprint), and a node
  awaiting an in-flight merge of a round holds that round's packet until
  the merge lands (``avail`` drops its out-links).

These holds keep the receiver of a transfer in the footprint until the
transfer lands: when (u, v) starts, v holds the round and is not sending
it, and while (u, v) is in flight ``waiting`` bars v's out-links, so no
transfer of v's can land first.  A completion thus always merges into a
packet already at v.  Debug mode checks the hold after every event, for
each transfer in flight, and again when it lands.  Without the holds, patching
the receiver back in costs an extra hop per occurrence (measured at tens
of percent on dense graphs at high load), which pushes the effective load
past the cut bound and destroys stability strictly below it; the
``reestablished`` metric counted such patches and is now always zero.

The aggregator never transmits and is exempt from the non-isolation
check; on acyclic graphs (where it is a sink) this changes nothing.  On
cyclic graphs usefulness additionally requires the post-transfer
footprint to stay valid, which the local conditions only guarantee for
DAGs.

One event loop, ``WirelineSimulator._loop``, holds the dynamics, and each
rule is written there once: the completion of a transfer, the uniform
draw on the link it frees, and the start of a transfer (for the drawn
round, then for the changed round on its free ``avail`` links).  The
busy-link mask, the heap's sequence counter and the tables the loop reads
per event are locals of the loop, written back to the simulator when it
returns.  A round's ``payloads`` is a list indexed by node and its
``sensed`` a list in sensor order, so the oracle reads ``sensed`` as is.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from itertools import repeat
from math import inf, log
from random import Random

from .errors import BadParams, OracleMismatch
from .fmux import FmuxFunction
from .graph import NetworkGraph

__all__ = [
    "WirelineSimulator",
    "WirelineMetrics",
    "run",
    "footprint_is_valid",
]


# ---------------------------------------------------------------------------
# Footprint validity
# ---------------------------------------------------------------------------

def footprint_is_valid(g: NetworkGraph, mask: int) -> bool:
    """True iff every node in the mask reaches the aggregator inside the mask."""
    a_bit = 1 << g.aggregator
    if not mask & a_bit:
        return False
    reached = a_bit
    frontier = deque([g.aggregator])
    while frontier:
        v = frontier.popleft()
        for u in g.in_neighbors[v]:
            b = 1 << u
            if mask & b and not reached & b:
                reached |= b
                frontier.append(u)
    return reached == mask


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

class _Memo(dict):
    """A dict that computes and stores a missing value on first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Round:
    __slots__ = ("rid", "fp", "avail", "origins", "edges", "waiting", "payloads",
                 "sensed", "t_arrive", "contrib")

    def __init__(self, rid, fp, avail, payloads, sensed, t_arrive):
        self.rid = rid
        self.fp = fp
        self.avail = avail      # link bitmask: where a transfer may start now
        self.origins = 0        # node bitmask: nodes transmitting this round
        self.edges = 0          # link bitmask: links carrying this round
        self.waiting = 0        # link bitmask: out-links of nodes awaiting a merge
        self.payloads = payloads  # by node; read only for nodes in `fp`
        self.sensed = sensed      # values in sensor order
        self.t_arrive = t_arrive
        self.contrib = None     # debug: node -> set of source nodes folded in


@dataclass
class WirelineMetrics:
    """One run's record: ``times`` and ``backlog`` (rounds in flight) feed the
    stability detector; ``summary()`` and ``write_csv`` report the run."""
    lam: float
    seed: int
    horizon: float
    times: list = field(default_factory=list)
    backlog: list = field(default_factory=list)
    completed_series: list = field(default_factory=list)
    mean_latency_series: list = field(default_factory=list)
    footprint_class_series: list = field(default_factory=list)
    completed: int = 0
    events: int = 0
    reestablished: int = 0   # always 0: receivers hold the round (see module doc)
    max_in_flight: int = 0
    final_in_flight: int = 0
    latency_sum: float = 0.0

    @property
    def mean_latency(self):
        return self.latency_sum / self.completed if self.completed else 0.0

    def summary(self) -> dict:
        return {"completed": self.completed, "mean_latency": self.mean_latency,
                "max_in_flight": self.max_in_flight, "final_in_flight": self.final_in_flight,
                "reestablished": self.reestablished, "events": self.events}

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("time,rounds_in_flight,completed,mean_latency\n")
            for t, q, c, ml in zip(self.times, self.backlog, self.completed_series,
                                   self.mean_latency_series):
                fh.write(f"{t:.6f},{q},{c},{ml:.6f}\n")


class WirelineSimulator:
    """Event-driven execution of the random forwarding policy on one graph."""

    def __init__(self, g: NetworkGraph, lam: float, func: FmuxFunction, seed: int,
                 debug: bool = False):
        if lam <= 0:
            raise BadParams("arrival rate must be positive")
        if func.k and func.k > len(g.sensors):
            raise BadParams(
                f"order statistic k={func.k} needs at least k sensors, "
                f"graph has {len(g.sensors)}"
            )
        self.g = g
        self.lam = lam
        self.func = func
        self.rng = Random(seed)
        self.seed = seed
        self.debug = debug

        n = g.n
        self.a = g.aggregator
        self.a_bit = 1 << self.a
        self.full_mask = (1 << n) - 1
        self.out_mask = [0] * n
        for u, v in g.links:
            self.out_mask[u] |= 1 << v
        self.links = list(g.links)
        self.nlinks = len(self.links)
        self.link_rate = [g.capacity[l] for l in self.links]
        self._link_ends = [(u, v, 1 << u) for u, v in self.links]
        self.acyclic = g.is_acyclic()

        self.idle: dict[int, list] = {}       # footprint mask -> idle rounds
        self.active: dict[int, _Round] = {}   # rid -> round with live transfers
        self.busy = [None] * self.nlinks      # link index -> round or None
        self.busy_mask = 0                    # the busy links as a bitmask
        self.in_flight = 0
        self.now = 0.0
        self._next_rid = 0
        self._seq = 0
        self._heap = []
        # Per node, as bitmasks over link indices: its live (rate > 0)
        # out-links, and all its in-links.
        self._out_links = [0] * n
        self._in_links = [0] * n
        for link_idx, (u, v) in enumerate(self.links):
            bit = 1 << link_idx
            self._in_links[v] |= bit
            if self.link_rate[link_idx] > 0:
                self._out_links[u] |= bit
        self._useful_memo = _Memo(self._useful_links)  # fp -> (links, mask)
        self._idle_by_link = [dict() for _ in range(self.nlinks)]  # fp -> rounds
        self._valid_memo = _Memo(partial(footprint_is_valid, g))  # fp -> bool
        self._sensors = g.sensors
        self._sensor_set = set(self._sensors)
        # Sensor sampling: one bit-draw per value when the alphabet allows.
        bits = func.alphabet_size.bit_length() - 1
        self._alphabet_bits = bits if (1 << bits) == func.alphabet_size else None
        # Replaced by run(); `_loop` and `_finish_round` record into it.
        self.metrics = WirelineMetrics(lam=lam, seed=seed, horizon=0.0)

    # -- usefulness ---------------------------------------------------------

    def _useful_links(self, fp):
        """Links an idle round with footprint `fp` has a useful packet on.

        Returns the link indices in ascending order and the same set as a
        bitmask over link indices, computed from node bitmasks; the
        simulator reads it through `_useful_memo`, once per footprint.

        A sensor w of the footprint with fewer than two footprint
        out-neighbors pins them: sending from one would isolate w
        (non-isolation).  Every other footprint node except the aggregator
        may send on any live out-link whose head holds the round; on cyclic
        graphs the remaining footprint must also stay valid.
        """
        out_mask = self.out_mask
        out_links = self._out_links
        in_links = self._in_links
        pinned = 0
        sending = 0   # live out-links of footprint nodes
        held = in_links[self.a] if fp & self.a_bit else 0   # links into fp
        m = fp & ~self.a_bit
        while m:
            lsb = m & -m
            w = lsb.bit_length() - 1
            heads = fp & out_mask[w]
            if not heads & (heads - 1):
                pinned |= heads
            sending |= out_links[w]
            held |= in_links[w]
            m ^= lsb
        mask = sending & held
        # Pinned nodes may not send; on cyclic graphs neither may a node
        # whose departure leaves the footprint invalid.
        barred = pinned
        if not self.acyclic:
            m = fp & ~pinned & ~self.a_bit
            while m:
                lsb = m & -m
                if not self._valid_memo[fp & ~lsb]:
                    barred |= lsb
                m ^= lsb
        while barred:
            lsb = barred & -barred
            mask &= ~out_links[lsb.bit_length() - 1]
            barred ^= lsb
        links = []
        rest = mask
        while rest:
            lsb = rest & -rest
            links.append(lsb.bit_length() - 1)
            rest ^= lsb
        return tuple(links), mask

    # -- round creation -----------------------------------------------------

    def _make_round(self) -> _Round:
        f = self.func
        sensors = self._sensors
        rng = self.rng
        bits = self._alphabet_bits
        n = len(sensors)
        if bits:
            sensed = list(map(rng.getrandbits, repeat(bits, n)))
        elif bits == 0:
            sensed = [0] * n
        else:
            sensed = list(map(rng.randrange, repeat(f.alphabet_size, n)))
        payloads = list(map(f.lift, sensed))
        payloads.insert(self.a, f.empty_payload)
        rid = self._next_rid
        self._next_rid += 1
        fp = self.full_mask
        r = _Round(rid, fp, self._useful_memo[fp][1], payloads, sensed, self.now)
        if self.debug:
            r.contrib = {i: {i} for i in sensors}
            r.contrib[self.a] = set()
        self.in_flight += 1
        return r

    # -- idle classes -------------------------------------------------------

    def _park(self, r):
        """Put a round with no transfer in flight into its idle class.

        A new class is also entered in the index of every link it is useful
        on.  Classes enter and leave the per-link dicts exactly when they
        enter and leave `idle`, so each dict lists the link's useful classes
        in `idle` order.  The event loop appends to an existing class itself
        and calls this only to open a new one.
        """
        rounds = self.idle.get(r.fp)
        if rounds is not None:
            rounds.append(r)
            return
        rounds = self.idle[r.fp] = [r]
        by_link = self._idle_by_link
        for link_idx in self._useful_memo[r.fp][0]:
            by_link[link_idx][r.fp] = rounds

    # -- event loop ---------------------------------------------------------

    def run(self, horizon: float, sample_every: float = None,
            sample_footprint_classes: bool = False) -> WirelineMetrics:
        if horizon <= 0:
            raise BadParams("horizon must be positive")
        if sample_every is None:
            sample_every = max(horizon / 2000.0, 1e-9)
        elif sample_every <= 0:
            raise BadParams(f"sample_every must be positive, got {sample_every}")
        track_classes = sample_footprint_classes and self.g.n <= 12
        m = self.metrics = WirelineMetrics(lam=self.lam, seed=self.seed, horizon=horizon)
        self._seq += 1
        heappush(self._heap, (-log(1.0 - self.rng.random()) / self.lam, self._seq, -1))
        next_sample = self._loop(horizon, sample_every, track_classes)
        while next_sample <= horizon:
            self._sample(m, next_sample, track_classes)
            next_sample += sample_every
        m.final_in_flight = self.in_flight
        return m

    def _loop(self, until, sample_every=None, track_classes=False):
        """Process, in time order, every event due by time `until`.

        An event is an arrival (link -1) or the completion of a transfer: a
        link's event is queued when its transfer starts, so every link event
        finds its link busy.  The completion frees the link, and a draw
        picks uniformly over the packets useful on it: the rounds of its
        idle classes, then the active rounds whose ``avail`` has its bit.
        The changed round is never drawn, as its sender has left its
        footprint.  The drawn round starts on the link; then the changed
        round starts on its free ``avail`` links, lowest link first.  Any
        link that was idle before the event had nothing useful, so only
        these starts can restore work conservation.

        The pick is drawn the way ``Random.randrange(total)`` draws it
        (``getrandbits`` of the bit length of `total`, redrawn until below
        `total`), and each transit time the way ``Random.expovariate`` does,
        ``-log(1 - random()) / rate``; an arrival draws the next arrival
        after its starts.  A run thus takes the same random bits in the
        same order as those calls would.

        With `sample_every`, samples from time 0 on; returns the time of
        the next sample.
        """
        heap = self._heap
        busy = self.busy
        active = self.active
        idle = self.idle
        idle_by_link = self._idle_by_link
        useful = self._useful_memo
        link_ends = self._link_ends
        link_rate = self.link_rate
        in_links = self._in_links
        out_links = self._out_links
        combine = self.func.combine
        getrandbits = self.rng.getrandbits
        random = self.rng.random
        make_round = self._make_round
        park = self._park
        lam = self.lam
        a_bit = self.a_bit
        debug = self.debug
        m = self.metrics
        busy_mask = self.busy_mask
        seq = self._seq
        events = 0
        next_sample = 0.0 if sample_every else inf

        while heap:
            t, _seq, link_idx = heap[0]
            if t > until:
                break
            heappop(heap)
            while next_sample <= t:
                self._sample(m, next_sample, track_classes)
                next_sample += sample_every
            self.now = t
            events += 1

            # The event: `r` is the round it changed, if any is left.
            if link_idx < 0:
                r = make_round()
            else:
                bit = 1 << link_idx
                r = busy[link_idx]
                busy[link_idx] = None
                busy_mask ^= bit
                u, v, ub = link_ends[link_idx]
                edges = r.edges = r.edges ^ bit
                origins = r.origins = r.origins ^ ub
                if not edges & in_links[v]:
                    r.waiting &= ~out_links[v]
                payloads = r.payloads
                payloads[v] = combine(payloads[v], payloads[u])
                fp = r.fp = r.fp & ~ub
                if debug:
                    self._check_completion(r, u, v)
                if fp == a_bit:
                    self._finish_round(r)
                    r = None
                else:
                    r.avail = useful[fp & ~origins][1] & ~r.waiting
                    if not edges:
                        del active[r.rid]
            if debug:
                self._assert_idle_index()

            # The draw on the freed link.  A pick indexes the rounds of the
            # link's idle classes, then the eligible active rounds.
            free = 0
            if link_idx >= 0:
                classes = idle_by_link[link_idx]
                n_idle = sum(map(len, classes.values()))
                total = n_idle
                for s in active.values():
                    if s.avail & bit:
                        total += 1
                if total:
                    k = total.bit_length()
                    pick = getrandbits(k)
                    while pick >= total:
                        pick = getrandbits(k)
                    if pick >= n_idle:
                        pick -= n_idle
                        for s in active.values():
                            if s.avail & bit:
                                if not pick:
                                    break
                                pick -= 1
                    else:
                        for fp, rounds in classes.items():
                            count = len(rounds)
                            if pick < count:
                                break
                            pick -= count
                        s = rounds[pick]
                        rounds[pick] = rounds[-1]
                        rounds.pop()
                        if not rounds:
                            del idle[fp]
                            for li in useful[fp][0]:
                                del idle_by_link[li][fp]
                    free = bit
            if not free and r is not None:
                s = r
                free = r.avail & ~busy_mask

            # The starts: round `s` on the lowest link of `free`, then the
            # changed round on its free `avail` links.
            while free:
                lsb = free & -free
                li = lsb.bit_length() - 1
                _u, v, ub = link_ends[li]
                active[s.rid] = s
                origins = s.origins = s.origins | ub
                s.edges |= lsb
                waiting = s.waiting = s.waiting | out_links[v]
                s.avail = useful[s.fp & ~origins][1] & ~waiting
                busy[li] = s
                busy_mask |= lsb
                seq += 1
                heappush(heap, (t - log(1.0 - random()) / link_rate[li], seq, li))
                if r is None:
                    break
                s = r
                free = r.avail & ~busy_mask

            if link_idx < 0:
                seq += 1
                heappush(heap, (t - log(1.0 - random()) / lam, seq, -1))
                if self.in_flight > m.max_in_flight:
                    m.max_in_flight = self.in_flight
            if r is not None and not r.edges:
                rounds = idle.get(r.fp)
                if rounds is None:
                    park(r)
                else:
                    rounds.append(r)

            if debug:
                self.busy_mask = busy_mask
                self._assert_activity_condition()

        self.busy_mask = busy_mask
        self._seq = seq
        m.events += events
        return next_sample

    def _check_completion(self, r, u, v):
        """Debug: (u, v) landed at a holder of `r` and folded each source once."""
        if not r.fp >> v & 1:
            raise AssertionError(
                f"round {r.rid}: receiver {v} left the footprint before ({u},{v}) landed"
            )
        moved = r.contrib.pop(u)
        into = r.contrib.setdefault(v, set())
        if into & moved:
            raise AssertionError(
                f"round {r.rid}: sources {into & moved} folded twice at node {v}"
            )
        into.update(moved)
        if not self._valid_memo[r.fp]:
            raise AssertionError(
                f"round {r.rid}: footprint {r.fp:b} invalid after ({u},{v})"
            )
        if set(r.contrib) != {i for i in range(self.g.n) if r.fp >> i & 1}:
            raise AssertionError(f"round {r.rid}: packet holders drifted from footprint")

    def _finish_round(self, r):
        f = self.func
        got = f.finalize(r.payloads[self.a])
        expected = f.direct(r.sensed)
        if got != expected:
            raise OracleMismatch(r.rid, got, expected)
        if self.debug and r.contrib[self.a] != self._sensor_set:
            raise AssertionError(
                f"round {r.rid}: contributors {r.contrib[self.a]} != sensor set"
            )
        del self.active[r.rid]
        self.in_flight -= 1
        m = self.metrics
        m.completed += 1
        m.latency_sum += self.now - r.t_arrive

    def _assert_idle_index(self):
        """Each link's index holds its useful idle classes, in `idle` order."""
        for link_idx, classes in enumerate(self._idle_by_link):
            useful = [fp for fp in self.idle if self._useful_memo[fp][1] >> link_idx & 1]
            if list(classes) != useful or any(
                classes[fp] is not self.idle[fp] for fp in useful
            ):
                raise AssertionError(
                    f"link {self.links[link_idx]}: idle-class index drifted from idle"
                )

    def _assert_activity_condition(self):
        self._assert_idle_index()
        for fp, rounds in self.idle.items():
            if any(r.avail != self._useful_memo[fp][1] for r in rounds):
                raise AssertionError(f"idle class {fp:b}: avail differs from useful")
        busy_mask = 0
        for link_idx, r in enumerate(self.busy):
            if r is not None:
                busy_mask |= 1 << link_idx
        if busy_mask != self.busy_mask:
            raise AssertionError("busy mask drifted from busy links")
        for r in self.active.values():
            # The hold: each in-flight transfer lands at a node that holds
            # the round and is not sending it.
            dests = {v for link_idx, (_u, v) in enumerate(self.links)
                     if r.edges >> link_idx & 1}
            for v in sorted(dests):
                if not r.fp >> v & 1 or r.origins >> v & 1:
                    raise AssertionError(f"round {r.rid}: in-flight receiver {v} "
                                         "does not hold the round or is sending it")
            # The eligibility rule, link by link, on the footprint the
            # round keeps once its in-flight transfers have left.
            useful = self._useful_memo[r.fp & ~r.origins][1]
            want = 0
            for link_idx, (u, v) in enumerate(self.links):
                if (useful >> link_idx & 1 and not r.origins >> u & 1
                        and not r.origins >> v & 1 and u not in dests):
                    want |= 1 << link_idx
            if r.avail != want:
                raise AssertionError(f"round {r.rid}: avail {r.avail:b} != {want:b}")
        for link_idx in range(self.nlinks):
            if self.busy[link_idx] is not None or self.link_rate[link_idx] <= 0:
                continue
            if self._idle_by_link[link_idx]:
                raise AssertionError(
                    f"idle link {self.links[link_idx]} has useful idle rounds"
                )
            for r in self.active.values():
                if r.avail >> link_idx & 1:
                    raise AssertionError(
                        f"idle link {self.links[link_idx]} has a useful active round"
                    )

    def _sample(self, m, t, track_classes):
        m.times.append(t)
        m.backlog.append(self.in_flight)
        m.completed_series.append(m.completed)
        m.mean_latency_series.append(m.mean_latency)
        if track_classes:
            counts = {fp: len(rounds) for fp, rounds in self.idle.items() if rounds}
            m.footprint_class_series.append(counts)


def run(g: NetworkGraph, lam: float, func: FmuxFunction, seed: int, horizon: float,
        sample_every: float = None, debug: bool = False,
        sample_footprint_classes: bool = False) -> WirelineMetrics:
    """One simulation run; see WirelineSimulator."""
    sim = WirelineSimulator(g, lam, func, seed, debug=debug)
    return sim.run(horizon, sample_every=sample_every,
                   sample_footprint_classes=sample_footprint_classes)
