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
After an event only the changed round's useful links are revisited.

Concurrent transfers of one round need care the per-transmission rules
don't provide on their own:

* a transfer delivers the sender's payload as of completion time, so a
  merge that lands at the sender mid-flight rides along instead of being
  dropped;
* a round is never transmitted *to* a node that is currently forwarding
  it, and a node awaiting an in-flight merge of a round holds that
  round's packet until the merge lands.  Without these holds the receiver
  can leave the footprint before the transfer completes; patching that by
  re-adding the receiver costs an extra hop per occurrence (measured at
  tens of percent on dense graphs at high load), which pushes the
  effective load past the cut bound and destroys stability strictly below
  it.  The ``reestablished`` metric counts the patched case and stays at
  zero under the holds.

The aggregator never transmits and is exempt from the non-isolation
check; on acyclic graphs (where it is a sink) this changes nothing.  On
cyclic graphs usefulness additionally requires the post-transfer
footprint to stay valid, which the local conditions only guarantee for
DAGs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from random import Random

from .errors import BadParams, OracleMismatch
from .fmux import FmuxFunction
from .graph import NetworkGraph

__all__ = [
    "WirelineSimulator",
    "WirelineMetrics",
    "run",
    "valid_footprint_masks",
    "footprint_is_valid",
    "verify_counting_lemma",
    "fluid_lyapunov",
]


# ---------------------------------------------------------------------------
# Footprint-set combinatorics
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


def valid_footprint_masks(g: NetworkGraph) -> list[int]:
    """All valid footprint sets as bitmasks (graphs up to 12 nodes)."""
    if g.n > 12:
        raise BadParams("footprint-set enumeration is limited to 12 nodes")
    return [m for m in range(1 << g.n) if footprint_is_valid(g, m)]


def _mask_of(g: NetworkGraph, nodes) -> int:
    if isinstance(nodes, int):
        return nodes
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def verify_counting_lemma(g: NetworkGraph, x, alpha: float, _betas=None) -> bool:
    """Check the footprint-counter inequalities used by the drift argument.

    `x` maps valid footprint sets (frozensets or masks) to nonnegative
    reals.  With beta_i = (1 + 1/alpha)^(i-1) the two implications hold for
    every nonnegative x; `_betas` lets tests corrupt the sequence to show
    the choice matters.

    For a set S, x_out(S) sums x over footprints not contained in S.  The
    first implication compares x_out(S) with the mass entering S through a
    single outside node u (all classes T+u with T inside S); the second
    bounds any single outside class against the total useful mass across an
    edge.  Checks run in floats; a failure within float noise of the
    threshold is re-decided exactly with rationals.
    """
    if alpha <= 0:
        raise BadParams("alpha must be positive")
    violations = _counting_lemma_violations(g, x, float(alpha), _betas)
    if not violations:
        return True
    # Near-tie failures get an exact recheck before we call them real.
    exact = _counting_lemma_violations(g, x, Fraction(alpha), _betas, exact=True)
    return not exact


def _counting_lemma_violations(g, x, alpha, _betas, exact=False):
    masks = valid_footprint_masks(g)
    mask_set = set(masks)
    num = Fraction if exact else float
    xm = {m: num(0) for m in masks}
    for key, value in x.items():
        m = _mask_of(g, key)
        if m not in mask_set:
            raise BadParams(f"{key} is not a valid footprint set")
        if value < 0:
            raise BadParams("counter values must be nonnegative")
        xm[m] = num(value)

    if _betas is None:
        ratio = 1 + 1 / alpha
        betas = {i: ratio ** (i - 1) for i in range(1, g.n + 1)}
    else:
        betas = {i: num(b) for i, b in enumerate(_betas, start=1)}
    inv = 1 / (1 + alpha)

    size = {m: m.bit_count() for m in masks}
    x_out = {s: sum(xm[m] for m in masks if m & ~s) for s in masks}

    def out_of(s):
        got = x_out.get(s)
        if got is None:
            got = sum(xm[m] for m in masks if m & ~s)
        return got

    violations = []
    # Implication 1: small entering mass through u forces the next level up.
    for s in masks:
        for u in range(g.n):
            ub = 1 << u
            if s & ub:
                continue
            entering = sum(xm[m] for m in masks if m & ub and not (m & ~ub) & ~s)
            if entering < inv * x_out[s]:
                su = s | ub
                if not betas[size[s] + 1] * out_of(su) > betas[size[s]] * x_out[s]:
                    violations.append(("enter", s, u))

    # Implication 2: per edge (u,v) into S with enough useful mass, no single
    # outside class may dominate without a larger set beating S.
    for s in masks:
        for (u, v) in g.links:
            ub, vb = 1 << u, 1 << v
            if not s & vb or s & ub:
                continue
            xp = sum(
                xm[m | ub]
                for m in masks
                if m & vb and not m & ub and (m | ub) in mask_set
            )
            if xp < inv * x_out[s]:
                continue
            axp = alpha * xp
            for sp in masks:
                if not sp & ~s:  # sp contained in s
                    continue
                if not sp & vb or sp & ub:
                    continue
                if (sp | ub) in mask_set and xm[sp | ub] > axp:
                    union = s | sp
                    if not betas[size[union]] * out_of(union) > betas[size[s]] * x_out[s]:
                        violations.append(("edge", s, (u, v), sp))
    return violations


def fluid_lyapunov(g: NetworkGraph, x, alpha: float) -> float:
    """max over valid sets S of beta_|S| times the mass outside S."""
    if alpha <= 0:
        raise BadParams("alpha must be positive")
    masks = valid_footprint_masks(g)
    mask_set = set(masks)
    xm = {m: 0.0 for m in masks}
    for key, value in x.items():
        m = _mask_of(g, key)
        if m not in mask_set:
            raise BadParams(f"{key} is not a valid footprint set")
        xm[m] = float(value)
    ratio = 1.0 + 1.0 / alpha
    best = 0.0
    for s in masks:
        out = sum(xm[m] for m in masks if m & ~s)
        best = max(best, ratio ** (s.bit_count() - 1) * out)
    return best


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

class _Round:
    __slots__ = ("rid", "fp", "useful", "origins", "dests", "edges", "payloads",
                 "sensed", "t_arrive", "contrib")

    def __init__(self, rid, fp, useful, payloads, sensed, t_arrive):
        self.rid = rid
        self.fp = fp
        self.useful = useful    # (useful links, link bitmask) of fp
        self.origins = 0        # nodes currently transmitting this round
        self.dests = {}         # node -> count of in-flight transfers toward it
        self.edges = set()      # link indices carrying this round
        self.payloads = payloads
        self.sensed = sensed
        self.t_arrive = t_arrive
        self.contrib = None     # debug: node -> set of source nodes folded in


@dataclass
class WirelineMetrics:
    lam: float
    seed: int
    horizon: float
    times: list = field(default_factory=list)
    in_flight: list = field(default_factory=list)
    completed_series: list = field(default_factory=list)
    mean_latency_series: list = field(default_factory=list)
    footprint_class_series: list = field(default_factory=list)
    completed: int = 0
    events: int = 0
    reestablished: int = 0
    max_in_flight: int = 0
    final_in_flight: int = 0
    latency_sum: float = 0.0

    @property
    def mean_latency(self):
        return self.latency_sum / self.completed if self.completed else 0.0

    def csv_rows(self):
        for t, q, c, ml in zip(
            self.times, self.in_flight, self.completed_series, self.mean_latency_series
        ):
            yield (t, q, c, ml)


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
        self.link_u = [u for u, _ in self.links]
        self.link_uvmask = [(1 << u) | (1 << v) for u, v in self.links]
        self.acyclic = g.is_acyclic()

        self.idle: dict[int, list] = {}       # footprint mask -> idle rounds
        self.active: dict[int, _Round] = {}   # rid -> round with live transfers
        self.busy = [None] * self.nlinks      # link index -> round or None
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
            self._in_links[v] |= 1 << link_idx
            if self.link_rate[link_idx] > 0:
                self._out_links[u] |= 1 << link_idx
        self._useful_memo = {}                # fp -> (useful links, link bitmask)
        self._idle_by_link = [dict() for _ in range(self.nlinks)]  # fp -> rounds
        self._valid_memo = {}
        self._sensors = g.sensors
        # Sensor sampling: one bit-draw per value when the alphabet allows.
        bits = func.alphabet_size.bit_length() - 1
        self._alphabet_bits = bits if (1 << bits) == func.alphabet_size else None
        # Replaced by run(); present so manual stepping in tests records too.
        self.metrics = WirelineMetrics(lam=lam, seed=seed, horizon=0.0)

    # -- usefulness ---------------------------------------------------------

    def _footprint_valid(self, mask):
        cached = self._valid_memo.get(mask)
        if cached is None:
            cached = footprint_is_valid(self.g, mask)
            self._valid_memo[mask] = cached
        return cached

    def _useful(self, fp):
        """Links an idle round with footprint `fp` has a useful packet on.

        Returns the link indices in ascending order and the same set as a
        bitmask over link indices.  A sensor w of the footprint with fewer
        than two footprint out-neighbors pins them: sending from one would
        isolate w (non-isolation).  Every other footprint node except the
        aggregator may send on any live out-link whose head holds the
        round; on cyclic graphs the remaining footprint must also stay
        valid.
        """
        got = self._useful_memo.get(fp)
        if got is not None:
            return got
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
                if not self._footprint_valid(fp & ~lsb):
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
        got = self._useful_memo[fp] = (tuple(links), mask)
        return got

    def is_useful(self, rid, link) -> bool:
        """Whether round `rid` has a useful packet across the (idle) link.

        Covers the aggregation and non-isolation conditions; for rounds with
        in-flight transfers it also honors the commitment holds (one
        outgoing transfer per node, no transfer toward a forwarding node, no
        forwarding while awaiting a merge).
        """
        r = self._find(rid)
        link_idx = self.links.index(tuple(link))
        return self._round_eligible(r, link_idx)

    def _round_eligible(self, r, link_idx):
        return (
            not r.origins & self.link_uvmask[link_idx]
            and self.link_u[link_idx] not in r.dests
            and bool(r.useful[1] >> link_idx & 1)
        )

    def _find(self, rid) -> _Round:
        r = self.active.get(rid)
        if r is not None:
            return r
        for rounds in self.idle.values():
            for r in rounds:
                if r.rid == rid:
                    return r
        raise KeyError(rid)

    # -- round creation -----------------------------------------------------

    def seed_round(self, values=None, footprint=None) -> int:
        """Create an idle round directly (tests and manual stepping)."""
        rid = self._make_round(values)
        r = self._floating
        if footprint is not None:
            keep = 0
            for node in footprint:
                keep |= 1 << node
            r.fp = keep
            r.useful = self._useful(keep)
            r.payloads = {i: p for i, p in r.payloads.items() if keep >> i & 1}
            if r.contrib is not None:
                r.contrib = {i: s for i, s in r.contrib.items() if keep >> i & 1}
        self._park(r)
        return rid

    def _make_round(self, values=None) -> int:
        f = self.func
        sensors = self._sensors
        if values is None:
            rng = self.rng
            bits = self._alphabet_bits
            if bits:
                values = {i: rng.getrandbits(bits) for i in sensors}
            elif bits == 0:
                values = dict.fromkeys(sensors, 0)
            else:
                alpha = f.alphabet_size
                values = {i: rng.randrange(alpha) for i in sensors}
        else:
            values = {i: f.check_value(x) for i, x in dict(values).items()}
        lift = f.lift
        payloads = {i: lift(x) for i, x in values.items()}
        payloads[self.a] = f.empty_payload
        rid = self._next_rid
        self._next_rid += 1
        r = _Round(rid, self.full_mask, self._useful(self.full_mask), payloads, values,
                   self.now)
        if self.debug:
            r.contrib = {i: {i} for i in sensors}
            r.contrib[self.a] = set()
        self._floating = r
        self.in_flight += 1
        return rid

    # -- idle classes -------------------------------------------------------

    def _park(self, r):
        """Put a round with no transfer in flight into its idle class.

        A new class is also entered in the index of every link it is useful
        on.  Classes enter and leave the per-link dicts exactly when they
        enter and leave `idle`, so each dict lists the link's useful classes
        in `idle` order.
        """
        rounds = self.idle.get(r.fp)
        if rounds is not None:
            rounds.append(r)
            return
        rounds = self.idle[r.fp] = [r]
        by_link = self._idle_by_link
        for link_idx in r.useful[0]:
            by_link[link_idx][r.fp] = rounds

    # -- transfers ----------------------------------------------------------

    def _start(self, link_idx, r, from_idle_class=None, idx_in_class=None):
        u, v = self.links[link_idx]
        if from_idle_class is not None:
            rounds = self.idle[from_idle_class]
            rounds[idx_in_class] = rounds[-1]
            rounds.pop()
            if not rounds:
                del self.idle[from_idle_class]
                by_link = self._idle_by_link
                for li in r.useful[0]:
                    del by_link[li][from_idle_class]
        if r.rid not in self.active:
            self.active[r.rid] = r
        r.origins |= 1 << u
        r.dests[v] = r.dests.get(v, 0) + 1
        r.edges.add(link_idx)
        self.busy[link_idx] = r
        dur = self.rng.expovariate(self.link_rate[link_idx])
        self._seq += 1
        heappush(self._heap, (self.now + dur, self._seq, link_idx))

    def select_packet(self, link) -> int | None:
        """Uniform choice over all useful packets across an idle link.

        Starts the transfer and returns the round id, or returns None and
        leaves the link idle when nothing is useful.  Idle rounds are drawn
        through their footprint-class counts; active rounds individually.
        """
        link_idx = self.links.index(tuple(link)) if not isinstance(link, int) else link
        return self._full_select(link_idx, None)

    def peek_select(self, link) -> int | None:
        """Draw as select_packet would, without starting the transfer."""
        link_idx = self.links.index(tuple(link)) if not isinstance(link, int) else link
        choice = self._draw_candidate(link_idx, None)
        if choice is None:
            return None
        kind, payload = choice
        if kind == "idle":
            fp, pos = payload
            return self.idle[fp][pos].rid
        return payload.rid

    def _draw_candidate(self, link_idx, extra):
        if self.busy[link_idx] is not None or self.link_rate[link_idx] <= 0:
            return None
        u = self.link_u[link_idx]
        uvmask = self.link_uvmask[link_idx]
        classes = self._idle_by_link[link_idx]
        actives = [
            r for r in self.active.values()
            if not r.origins & uvmask and u not in r.dests
            and r.useful[1] >> link_idx & 1
        ]
        total = sum(map(len, classes.values())) + len(actives)
        if extra is not None and self._round_eligible(extra, link_idx):
            total += 1
        if total == 0:
            return None
        pick = self.rng.randrange(total)
        for fp, rounds in classes.items():
            count = len(rounds)
            if pick < count:
                return ("idle", (fp, pick))
            pick -= count
        if pick < len(actives):
            return ("round", actives[pick])
        return ("round", extra)

    def _full_select(self, link_idx, extra):
        choice = self._draw_candidate(link_idx, extra)
        if choice is None:
            return None
        kind, payload = choice
        if kind == "idle":
            fp, pos = payload
            r = self.idle[fp][pos]
            self._start(link_idx, r, from_idle_class=fp, idx_in_class=pos)
        else:
            r = payload
            self._start(link_idx, r)
        return r.rid

    # -- completion ---------------------------------------------------------

    def complete_transfer(self, link_idx):
        """Apply the completion of the transfer currently on the link."""
        r = self.busy[link_idx]
        if r is None:
            raise BadParams(f"link {self.links[link_idx]} is idle")
        self.busy[link_idx] = None
        u, v = self.links[link_idx]
        ub, vb = 1 << u, 1 << v
        f = self.func

        r.edges.discard(link_idx)
        r.origins &= ~ub
        if r.dests.get(v, 0) <= 1:
            r.dests.pop(v, None)
        else:
            r.dests[v] -= 1
        payload = r.payloads.pop(u)
        r.fp &= ~ub
        if r.fp & vb:
            r.payloads[v] = f.combine(r.payloads[v], payload)
        else:
            # Receiver forwarded its own packet mid-transfer; the arriving
            # packet re-establishes it in the footprint.
            r.fp |= vb
            r.payloads[v] = payload
            self.metrics.reestablished += 1
        if self.debug:
            moved = r.contrib.pop(u)
            into = r.contrib.setdefault(v, set())
            if into & moved:
                raise AssertionError(
                    f"round {r.rid}: sources {into & moved} folded twice at node {v}"
                )
            into.update(moved)
            if not self._footprint_valid(r.fp):
                raise AssertionError(
                    f"round {r.rid}: footprint {r.fp:b} invalid after ({u},{v})"
                )
            if set(r.payloads) != {i for i in range(self.g.n) if r.fp >> i & 1}:
                raise AssertionError(f"round {r.rid}: payload keys drifted from footprint")

        if r.fp == self.a_bit:
            self._finish_round(r)
            return None
        r.useful = self._useful(r.fp)
        if r.edges:
            return r
        del self.active[r.rid]
        return r  # floating; caller reinserts after the activity pass

    def _finish_round(self, r):
        f = self.func
        got = f.finalize(r.payloads[self.a])
        expected = f.direct([r.sensed[i] for i in self.g.sensors])
        if got != expected:
            raise OracleMismatch(r.rid, got, expected)
        if self.debug and r.contrib[self.a] != set(self.g.sensors):
            raise AssertionError(
                f"round {r.rid}: contributors {r.contrib[self.a]} != sensor set"
            )
        del self.active[r.rid]
        self.in_flight -= 1
        m = self.metrics
        m.completed += 1
        m.latency_sum += self.now - r.t_arrive

    # -- event loop ---------------------------------------------------------

    def run(self, horizon: float, sample_every: float = None,
            sample_footprint_classes: bool = False, max_events: int = None) -> WirelineMetrics:
        if horizon <= 0:
            raise BadParams("horizon must be positive")
        if sample_every is None:
            sample_every = max(horizon / 2000.0, 1e-9)
        track_classes = sample_footprint_classes and self.g.n <= 12
        m = self.metrics = WirelineMetrics(lam=self.lam, seed=self.seed, horizon=horizon)

        heap = self._heap
        self._seq += 1
        heappush(heap, (self.rng.expovariate(self.lam), self._seq, -1))
        next_sample = 0.0

        while heap:
            t, _seq, link_idx = heap[0]
            if t > horizon:
                break
            heappop(heap)
            while next_sample <= t and next_sample <= horizon:
                self._sample(m, next_sample, track_classes)
                next_sample += sample_every
            self.now = t
            m.events += 1

            if link_idx < 0:
                self._make_round()
                r = self._floating
                self._activity_pass(changed=r, freed=None)
                if not r.edges:
                    self._park(r)
                self._seq += 1
                heappush(heap, (t + self.rng.expovariate(self.lam), self._seq, -1))
            else:
                r = self.complete_transfer(link_idx)
                self._activity_pass(changed=r, freed=link_idx)
                if r is not None and not r.edges:
                    self._park(r)

            if self.in_flight > m.max_in_flight:
                m.max_in_flight = self.in_flight
            if self.debug:
                self._assert_activity_condition()
            if max_events is not None and m.events >= max_events:
                break

        while next_sample <= horizon:
            self._sample(m, next_sample, track_classes)
            next_sample += sample_every
        m.final_in_flight = self.in_flight
        return m

    def _activity_pass(self, changed, freed):
        """Restore the work-conservation condition after one event.

        Any link that was already idle had no useful packets before the
        event, so the only round it may newly serve is the changed one, and
        only on the links its footprint makes useful; the freed link instead
        needs a full uniform selection over everything.
        """
        if freed is not None:
            extra = changed if changed is not None and not changed.edges \
                and changed.rid not in self.active else None
            self._full_select(freed, extra)
        if changed is None:
            return
        r = changed
        busy = self.busy
        uvmask = self.link_uvmask
        link_u = self.link_u
        for link_idx in r.useful[0]:
            if busy[link_idx] is not None or link_idx == freed:
                continue
            if r.origins & uvmask[link_idx] or link_u[link_idx] in r.dests:
                continue
            self._start(link_idx, r)

    def _assert_idle_index(self):
        """Each link's index holds its useful idle classes, in `idle` order."""
        for link_idx, classes in enumerate(self._idle_by_link):
            useful = [fp for fp in self.idle if self._useful(fp)[1] >> link_idx & 1]
            if list(classes) != useful or any(
                classes[fp] is not self.idle[fp] for fp in useful
            ):
                raise AssertionError(
                    f"link {self.links[link_idx]}: idle-class index drifted from idle"
                )

    def _assert_activity_condition(self):
        self._assert_idle_index()
        for link_idx in range(self.nlinks):
            if self.busy[link_idx] is not None or self.link_rate[link_idx] <= 0:
                continue
            if self._idle_by_link[link_idx]:
                raise AssertionError(
                    f"idle link {self.links[link_idx]} has useful idle rounds"
                )
            for r in self.active.values():
                if r.useful is not self._useful(r.fp):
                    raise AssertionError(f"round {r.rid}: useful links out of date")
                if self._round_eligible(r, link_idx):
                    raise AssertionError(
                        f"idle link {self.links[link_idx]} has a useful active round"
                    )

    def _sample(self, m, t, track_classes):
        m.times.append(t)
        m.in_flight.append(self.in_flight)
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
