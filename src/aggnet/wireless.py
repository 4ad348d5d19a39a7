"""Slotted-time simulator for aggregation over interference-limited links.

Rounds are routed by assigning each one to an aggregation tree; packets
then climb their tree under an aggregate-and-transmit discipline: a node
forwards a round only after it has folded in that round's packet from
every tree child.  Per node and tree there is a queue of rounds ready to
forward (useful) and an implicit set still waiting on children
(not-useful).

Scheduling picks one admissible schedule per slot:

* ``maxweight`` weighs each link by its best useful backlog across trees
  and transmits, per scheduled link, from that maximizing tree only;
* ``static_sss`` samples a fixed schedule distribution and serves
  scheduled links FIFO by round id across their trees.

Routing policies: ``greedy`` (all arrivals of a slot to the tree with the
smallest total useful backlog), ``fixed_split`` (independent random tree
per round with given weights, the static-packing construction), and
``single_tree``.

Queue lengths are kept link-major.  The useful queue of tree t at sensor
i feeds exactly one link, (i, parent_t(i)), so ``link_counts`` holds one
list per link, aligned with ``TreeIndex.trees_on_link``; a link's place in
that key order is its position.  MaxWeight weighs every link at once with
``map(max, link_counts)`` into a list of weights by position, finds a
link's maximizing tree with C-level ``count`` and ``index`` over its one
list, and weighs each schedule from its (position, rate) pairs, built
once per simulator together with its sends.  With a single schedule
there is nothing to weigh.

Each slot serves one list of (tree, link, packets) sends through one
transfer loop.  MaxWeight sends from the maximizing tree of each
scheduled link.  Static-sss plans its sends from each scheduled link's
queue heads in round-id order before any packet moves: a transfer only
pops a queue head, the queues of different links are disjoint, and a
round made ready by a transfer joins its next queue only after every
transfer of the slot, so the plan serves the same rounds as serving one
packet at a time.

Per-round state is node-indexed lists: ``payloads`` (the aggregator
holds the empty payload) and ``pending``, each node's count of children
still to send, copied from the tree's template.

Sensor values are drawn inline and exactly: ``getrandbits`` of the
alphabet's bit length, drawn again while the value is not below the
alphabet size, which is how ``Random.randrange`` draws, so a run takes
the same random bits, in the same order, as those calls would.  Ties
among trees draw ``rng.randrange`` and index the drawn tie in place,
without building a tie list.

Useful queues are FIFO deques: each receives rounds in ascending round
id.  A leaf receives them at placement, as ids are handed out; every
child sends from its queue head, so an inner node becomes ready for
rounds in round-id order; and rounds that become ready in the same slot
are handled in sorted order.  The head is therefore the smallest id, the
round a heap ordered by id would pop.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import merge
from itertools import islice, repeat
from operator import itemgetter, mul
from random import Random

from .errors import BadParams, MultiTreeConfig, OracleMismatch
from .flows import ScheduleSet, SSSRule
from .fmux import FmuxFunction
from .graph import NetworkGraph

ROUTINGS = ("greedy", "fixed_split", "single_tree")
SCHEDULINGS = ("maxweight", "static_sss")


# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalProcess:
    """Synchronous per-slot round arrivals, i.i.d. across slots."""

    law: str = "poisson"
    lam: float = 1.0
    batch: int = 1

    def __post_init__(self):
        if self.lam < 0:
            raise BadParams("arrival rate must be nonnegative")
        if self.law == "bernoulli_batch" and not (0 <= self.lam <= self.batch):
            raise BadParams("bernoulli_batch requires lam <= batch")
        if self.law not in ("poisson", "bernoulli_batch", "deterministic"):
            raise BadParams(f"unknown arrival law {self.law!r}")


def _draw_poisson(rng: Random, lam: float) -> int:
    # Knuth's product method; lam stays small here.
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


# ---------------------------------------------------------------------------
# Tree plumbing
# ---------------------------------------------------------------------------

class TreeIndex:
    """Link -> trees reverse index plus the per-tree cell tables.

    ``trees_on_link`` lists, per link, the trees using it in ascending
    order; its key order fixes each link's position, ``link_pos[link]``.
    ``cell[t][i]`` is the (link position, position in
    ``trees_on_link[link]``) of tree t's useful queue at sensor i, whose
    link is (i, parent_t(i)), and None at the aggregator.  ``leaves[t]``
    lists the leaves of tree t, and ``pending_template[t]`` holds each
    node's number of children in tree t, indexed by node.
    """

    def __init__(self, g: NetworkGraph, trees):
        trees = list(trees)
        if not trees:
            raise BadParams("need at least one aggregation tree")
        for t in trees:
            t.validate(g)
        self.g = g
        self.trees = trees
        self.tree_links = []
        self.trees_on_link = {}
        self.link_pos = {}  # in the key order of trees_on_link
        self.cell = []
        self.leaves = []
        self.pending_template = []
        sensors = g.sensors
        for ti, tree in enumerate(trees):
            self.tree_links.append(frozenset(tree.tree_links))
            children = [0] * g.n
            cells = [None] * g.n
            for i, p in tree.parent:
                children[p] += 1
                column = self.trees_on_link.setdefault((i, p), [])
                cells[i] = (self.link_pos.setdefault((i, p), len(self.link_pos)),
                            len(column))
                column.append(ti)
            self.cell.append(cells)
            self.leaves.append([i for i in sensors if not children[i]])
            self.pending_template.append(children)

    def __len__(self):
        return len(self.trees)


def _schedule_positions(tix: TreeIndex, schedule_set: ScheduleSet):
    """Per schedule, over its links that some tree uses in the schedule's
    link order: the (link position, rate) pairs MaxWeight weighs, and the
    (link position, link, whole-packet rate) sends of its links with a
    positive whole rate."""
    link_pos = tix.link_pos
    weighing, sends = [], []
    for s in schedule_set.schedules:
        plan = [(link_pos[l], l, s.rates[l]) for l in s.links if l in link_pos]
        weighing.append([(pos, rate) for pos, _, rate in plan])
        sends.append([(pos, l, int(rate)) for pos, l, rate in plan if int(rate) > 0])
    return weighing, sends


def _integral_rates(ss: ScheduleSet):
    for s in ss.schedules:
        for l, r in s.rates.items():
            if abs(r - round(r)) > 1e-9:
                raise BadParams(
                    f"schedule rate {r} on link {l} is not a whole number of packets "
                    "per slot"
                )


# ---------------------------------------------------------------------------
# Policy pieces (usable standalone)
# ---------------------------------------------------------------------------

def _nth_index(seq, value, n: int) -> int:
    """Position of the n-th (from 0) occurrence of `value` in `seq`."""
    pos = seq.index(value)
    for _ in range(n):
        pos = seq.index(value, pos + 1)
    return pos


def greedy_tree_load(tree_totals, rng: Random) -> int:
    """Index of the tree with the smallest total useful backlog (ties uniform)."""
    best = min(tree_totals)
    ties = tree_totals.count(best)
    if ties == 1:
        return tree_totals.index(best)
    return _nth_index(tree_totals, best, rng.randrange(ties))


def maxweight_schedule(schedule_positions, tree_index: TreeIndex, link_counts,
                       rng: Random):
    """Pick the admissible schedule maximizing sum of P_ij * c_ij.

    P_ij is the largest per-tree useful backlog at i over trees containing
    (i,j); `link_counts` holds those backlogs per link, aligned with
    ``tree_index.trees_on_link``, and `schedule_positions` holds, per
    schedule, the (link position, rate) of each of its links that some tree
    uses.  Returns (schedule index, maximizing tree per link position, None
    where the link has no useful backlog).  Ties, both in the per-link tree
    and in the schedule, are broken uniformly at random.
    """
    weights = list(map(max, link_counts))
    best_tree = []
    add = best_tree.append
    for w, col, taus in zip(weights, link_counts, tree_index.trees_on_link.values()):
        if not w:
            add(None)
            continue
        ties = col.count(w)
        if ties == 1:
            add(taus[col.index(w)])
            continue
        add(taus[_nth_index(col, w, rng.randrange(ties))])
    if len(schedule_positions) == 1:
        return 0, best_tree
    best_total = None
    best_scheds = []
    for k, plan in enumerate(schedule_positions):
        total = 0.0
        for p, rate in plan:
            w = weights[p]
            if w:
                total += w * rate
        if best_total is None or total > best_total + 1e-12:
            best_total = total
            best_scheds = [k]
        elif abs(total - best_total) <= 1e-12:
            best_scheds.append(k)
    if len(best_scheds) == 1:
        return best_scheds[0], best_tree
    return rng.choice(best_scheds), best_tree


def lyapunov_value(link_counts) -> float:
    """Sum of squared useful-queue lengths: the drift diagnostic."""
    return float(sum(sum(map(mul, col, col)) for col in link_counts))


def _cumulative(weights):
    total = float(sum(weights))
    if total <= 0:
        raise BadParams("weights must have positive total")
    acc = 0.0
    cum = []
    for w in weights:
        if w < 0:
            raise BadParams("weights must be nonnegative")
        acc += w / total
        cum.append(acc)
    cum[-1] = 1.0
    return cum


def _draw_categorical(rng: Random, cum) -> int:
    return bisect_right(cum, rng.random())


_head = itemgetter(0)


# ---------------------------------------------------------------------------
# Simulator
# ---------------------------------------------------------------------------

class _WRound:
    __slots__ = ("rid", "tree", "t_arrive", "payloads", "pending", "sensed", "crossed")

    def __init__(self, rid, tree, t_arrive, payloads, pending, sensed):
        self.rid = rid
        self.tree = tree
        self.t_arrive = t_arrive
        self.payloads = payloads
        self.pending = pending
        self.sensed = sensed      # values in sensor order
        self.crossed = None


@dataclass
class WirelessMetrics:
    lam: float
    seed: int
    horizon: int
    tree_count: int
    slots: list = field(default_factory=list)
    total_useful: list = field(default_factory=list)
    total_nonuseful: list = field(default_factory=list)
    lyapunov: list = field(default_factory=list)
    completed_series: list = field(default_factory=list)
    mean_latency_series: list = field(default_factory=list)
    per_tree_assigned: list = field(default_factory=list)  # cumulative, per sample
    schedule_counts: dict = field(default_factory=dict)
    completed: int = 0
    latency_sum: float = 0.0
    max_backlog: int = 0
    final_backlog: int = 0
    assigned_totals: list = field(default_factory=list)

    @property
    def mean_latency(self):
        return self.latency_sum / self.completed if self.completed else 0.0

    @property
    def backlog_series(self):
        return [u + nu for u, nu in zip(self.total_useful, self.total_nonuseful)]

    def csv_rows(self):
        for k in range(len(self.slots)):
            yield (
                self.slots[k],
                self.total_useful[k],
                self.total_nonuseful[k],
                self.lyapunov[k],
                self.completed_series[k],
                self.mean_latency_series[k],
                *self.per_tree_assigned[k],
            )


class WirelessSimulator:
    """One policy on one topology; call run(horizon) for the metrics."""

    def __init__(self, g: NetworkGraph, schedule_set: ScheduleSet, trees,
                 func: FmuxFunction, arrivals: ArrivalProcess, seed: int,
                 routing: str = "greedy", scheduling: str = "maxweight",
                 split_weights=None, sss_rule: SSSRule = None,
                 debug: bool = False):
        if routing not in ROUTINGS:
            raise BadParams(f"unknown routing {routing!r}")
        if scheduling not in SCHEDULINGS:
            raise BadParams(f"unknown scheduling {scheduling!r}")
        schedule_set.validate_links(g)
        _integral_rates(schedule_set)
        if func.alphabet_size < 1:
            raise BadParams(f"alphabet size must be positive, got {func.alphabet_size}")
        if func.k and func.k > len(g.sensors):
            raise BadParams(
                f"order statistic k={func.k} needs at least k sensors, "
                f"graph has {len(g.sensors)}"
            )
        self.g = g
        self.schedule_set = schedule_set
        self.tix = TreeIndex(g, trees)
        if routing == "single_tree" and len(self.tix) != 1:
            raise MultiTreeConfig(f"single_tree requires exactly one tree, got {len(self.tix)}")
        self.func = func
        self.arrivals = arrivals
        self.routing = routing
        self.scheduling = scheduling
        self.rng = Random(seed)
        self.seed = seed
        self.debug = debug

        if routing == "fixed_split":
            if split_weights is None or len(split_weights) != len(self.tix):
                raise BadParams("fixed_split routing needs one weight per tree")
            self._split_cum = _cumulative(split_weights)
        else:
            self._split_cum = None
        if scheduling == "static_sss":
            if sss_rule is None:
                raise BadParams("static_sss scheduling needs an SSSRule")
            weights = [sss_rule.weights.get(k, 0.0) for k in range(len(schedule_set))]
            self._sss_cum = _cumulative(weights)
        else:
            self._sss_cum = None
        tix = self.tix
        self._weighing, self._sched_sends = _schedule_positions(tix, schedule_set)

        ntrees = len(tix)
        self._nsensors = len(g.sensors)
        self._aggregator = g.aggregator
        # Sensor values: rng.randrange(alphabet) draws getrandbits of the
        # alphabet's bit length until a value falls below it, so the values
        # of successive draws are this filtered stream, read lazily.
        self._values = filter(func.alphabet_size.__gt__,
                              iter(partial(self.rng.getrandbits,
                                           func.alphabet_size.bit_length()), -1))
        self.useful = [[deque() for _ in range(g.n)] for _ in range(ntrees)]
        self.link_counts = [[0] * len(taus) for taus in tix.trees_on_link.values()]
        # Per (tree, node): its useful queue, its link column and its
        # position in that column (None at the aggregator).
        self._cells = [
            [None if c is None else (queues[i], self.link_counts[c[0]], c[1])
             for i, c in enumerate(cells)]
            for queues, cells in zip(self.useful, tix.cell)
        ]
        self._leaf_cells = [[self._cells[ti][i] for i in leaves]
                            for ti, leaves in enumerate(tix.leaves)]
        # Per tree, the not-useful queues a new round adds: every node with
        # children except the aggregator.
        self._relays = [sum(1 for i, c in enumerate(children) if c and i != g.aggregator)
                        for children in tix.pending_template]
        # Per link position, the useful queues at its tail, aligned with its
        # column.
        self._link_queues = [[self.useful[t][link[0]] for t in taus]
                             for link, taus in tix.trees_on_link.items()]
        self.tree_totals = [0] * ntrees
        self.rounds = {}
        self.assigned = [0] * ntrees
        self.u_total = 0
        self.nu_total = 0
        self.slot = 0
        self._next_rid = 0
        self._arr_carry = 0.0
        self.metrics = WirelessMetrics(
            lam=arrivals.lam, seed=seed, horizon=0, tree_count=ntrees
        )

    # -- arrivals and placement ---------------------------------------------

    def _draw_arrivals(self) -> int:
        a = self.arrivals
        if a.lam == 0:
            return 0
        if a.law == "poisson":
            return _draw_poisson(self.rng, a.lam)
        if a.law == "bernoulli_batch":
            return a.batch if self.rng.random() < a.lam / a.batch else 0
        carry = self._arr_carry + a.lam
        count = int(carry)
        self._arr_carry = carry - count
        return count

    def _place_rounds(self, trees):
        """Place one new round on each tree index `trees` yields, in order."""
        f = self.func
        lift, values = f.lift, self._values
        nsensors, aggregator, empty = self._nsensors, self._aggregator, f.empty_payload
        templates, rounds, slot = self.tix.pending_template, self.rounds, self.slot
        for tree_idx in trees:
            rid = self._next_rid
            self._next_rid += 1
            sensed = list(islice(values, nsensors))
            payloads = list(map(lift, sensed))
            payloads.insert(aggregator, empty)
            leaves = self._leaf_cells[tree_idx]
            for q, col, pos in leaves:
                q.append(rid)
                col[pos] += 1
            self.tree_totals[tree_idx] += len(leaves)
            self.u_total += len(leaves)
            self.nu_total += self._relays[tree_idx]
            r = _WRound(rid, tree_idx, slot, payloads, templates[tree_idx].copy(), sensed)
            if self.debug:
                r.crossed = set()
            rounds[rid] = r
            self.assigned[tree_idx] += 1

    # -- per-slot dynamics ----------------------------------------------------

    def _fifo_sends(self, sched_idx):
        """Static scheduling: each scheduled link's sends, one packet each,
        from its trees' queue heads in global round-id order."""
        sends = []
        rounds = self.rounds
        link_queues = self._link_queues
        for pos, link, cap in self._sched_sends[sched_idx]:
            queues = link_queues[pos]
            if cap == 1:
                # min over the queue heads runs in C; a merge generator per
                # link per slot made the K5 static-sss point about 40% slower.
                q = min(filter(None, queues), key=_head, default=None)
                if q is not None:
                    sends.append((rounds[q[0]].tree, link, 1))
            else:
                for rid in islice(merge(*filter(None, queues)), cap):
                    sends.append((rounds[rid].tree, link, 1))
        return sends

    def _transfer(self, sends):
        """Move each (tree, link, packets) send's rounds across its link.

        Returns (rid, j) for each round whose last missing child packet
        reached its receiver j, in transfer order.
        """
        ready = []
        rounds, combine, cells = self.rounds, self.func.combine, self._cells
        tree_totals, debug = self.tree_totals, self.debug
        sent = 0
        for tree_idx, link, count in sends:
            i, j = link
            q, col, pos = cells[tree_idx][i]
            moved = min(count, len(q))
            for _ in range(moved):
                rid = q.popleft()
                r = rounds[rid]
                if debug:
                    self._check_transfer(r, i, link)
                payloads = r.payloads
                payloads[j] = combine(payloads[j], payloads[i])
                pending = r.pending
                left = pending[j] - 1
                pending[j] = left
                if not left:
                    ready.append((rid, j))
            col[pos] -= moved
            tree_totals[tree_idx] -= moved
            sent += moved
        self.u_total -= sent
        return ready

    def _check_transfer(self, r, i, link):
        """Debug: a round leaves a node once, after aggregating its children."""
        if r.pending[i]:
            raise AssertionError(
                f"round {r.rid} left node {i} before aggregating its children"
            )
        if link in r.crossed:
            raise AssertionError(f"round {r.rid} crossed {link} twice")
        r.crossed.add(link)

    def _finish_round(self, r):
        f = self.func
        got = f.finalize(r.payloads[self._aggregator])
        expected = f.direct(r.sensed)
        if got != expected:
            raise OracleMismatch(r.rid, got, expected)
        if self.debug and r.crossed != set(self.tix.tree_links[r.tree]):
            raise AssertionError(
                f"round {r.rid} crossed {sorted(r.crossed)} instead of its tree links"
            )
        del self.rounds[r.rid]
        m = self.metrics
        m.completed += 1
        m.latency_sum += self.slot - r.t_arrive + 1

    def step(self):
        rng = self.rng
        # 1+2: arrivals and their routing decision (queues as of slot start).
        n_arr = self._draw_arrivals()
        if n_arr:
            if self.routing == "greedy":
                self._place_rounds(repeat(greedy_tree_load(self.tree_totals, rng), n_arr))
            elif self.routing == "single_tree":
                self._place_rounds(repeat(0, n_arr))
            else:
                # Lazy, so each round's tree is drawn just before its values.
                cum = self._split_cum
                self._place_rounds(_draw_categorical(rng, cum) for _ in range(n_arr))

        # 3: schedule selection and the slot's sends.
        if self.scheduling == "maxweight":
            sched_idx, best_tree = maxweight_schedule(
                self._weighing, self.tix, self.link_counts, rng
            )
            sends = [(best_tree[pos], link, cap)
                     for pos, link, cap in self._sched_sends[sched_idx]
                     if best_tree[pos] is not None]
        else:
            sched_idx = _draw_categorical(rng, self._sss_cum)
            sends = self._fifo_sends(sched_idx)
        m = self.metrics
        m.schedule_counts[sched_idx] = m.schedule_counts.get(sched_idx, 0) + 1

        # 4: transmissions.
        ready = self._transfer(sends)

        # 5: internal transfers and completions, in round-id order.
        if ready:
            ready.sort()
            aggregator, rounds, cells = self._aggregator, self.rounds, self._cells
            tree_totals = self.tree_totals
            joined = 0
            for rid, j in ready:
                r = rounds[rid]
                if j == aggregator:
                    self._finish_round(r)
                else:
                    q, col, pos = cells[r.tree][j]
                    q.append(rid)
                    col[pos] += 1
                    tree_totals[r.tree] += 1
                    joined += 1
            self.u_total += joined
            self.nu_total -= joined

        self.slot += 1
        if self.debug:
            self._assert_queue_counts()

    def _assert_queue_counts(self):
        """Debug: queues ascending; link columns and totals equal a recount."""
        for ti, row in enumerate(self.useful):
            for i, q in enumerate(row):
                rids = list(q)
                if rids != sorted(set(rids)):
                    raise AssertionError(f"useful queue ({ti}, {i}) not ascending: {rids}")
            if sum(map(len, row)) != self.tree_totals[ti]:
                raise AssertionError(f"tree {ti} total {self.tree_totals[ti]} != recount")
        for (link, taus), col in zip(self.tix.trees_on_link.items(), self.link_counts):
            lengths = [len(self.useful[t][link[0]]) for t in taus]
            if col != lengths:
                raise AssertionError(f"link {link} counts {col} != queue lengths {lengths}")
        if self.u_total != sum(self.tree_totals):
            raise AssertionError(f"useful total {self.u_total} != recount")
        aggregator = self._aggregator
        nonuseful = sum(1 for r in self.rounds.values()
                        for i, c in enumerate(r.pending) if c and i != aggregator)
        if self.nu_total != nonuseful:
            raise AssertionError(f"not-useful total {self.nu_total} != recount {nonuseful}")

    # -- driver ---------------------------------------------------------------

    def run(self, horizon: int, sample_every: int = None) -> WirelessMetrics:
        if horizon <= 0:
            raise BadParams("horizon must be positive")
        if sample_every is None:
            sample_every = max(1, horizon // 2000)
        elif sample_every < 1:
            raise BadParams(f"sample_every must be at least one slot, got {sample_every}")
        m = self.metrics
        m.horizon = horizon
        for _ in range(horizon):
            self.step()
            if self.slot % sample_every == 0:
                self._sample(m)
            backlog = self.u_total + self.nu_total
            if backlog > m.max_backlog:
                m.max_backlog = backlog
        m.final_backlog = self.u_total + self.nu_total
        m.assigned_totals = list(self.assigned)
        return m

    def _sample(self, m):
        m.slots.append(self.slot)
        m.total_useful.append(self.u_total)
        m.total_nonuseful.append(self.nu_total)
        m.lyapunov.append(lyapunov_value(self.link_counts))
        m.completed_series.append(m.completed)
        m.mean_latency_series.append(m.mean_latency)
        m.per_tree_assigned.append(tuple(self.assigned))


def run(g: NetworkGraph, schedule_set: ScheduleSet, trees, func: FmuxFunction,
        lam: float, seed: int, horizon: int, routing: str = "greedy",
        scheduling: str = "maxweight", split_weights=None, sss_rule: SSSRule = None,
        arrival_law: str = "poisson", sample_every: int = None,
        debug: bool = False) -> WirelessMetrics:
    """One simulation run; see WirelessSimulator."""
    sim = WirelessSimulator(
        g, schedule_set, trees, func,
        ArrivalProcess(arrival_law, lam), seed,
        routing=routing, scheduling=scheduling,
        split_weights=split_weights, sss_rule=sss_rule, debug=debug,
    )
    return sim.run(horizon, sample_every=sample_every)
