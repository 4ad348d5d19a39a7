"""Slotted-time simulator for aggregation over interference-limited links.

Rounds are routed by assigning each one to an aggregation tree; packets
then climb their tree under an aggregate-and-transmit discipline: a node
forwards a round only after it has folded in that round's packet from
every tree child.  Per node and tree there is a queue of rounds ready to
forward (useful) and an implicit set still waiting on children
(not-useful).

The inputs select the policy.  Routing: given ``split_weights`` (one
per tree), each round takes an independent random tree with those
weights, the static-packing construction; otherwise, with several trees,
all arrivals of a slot go to the tree with the smallest total useful
backlog (greedy), and a single tree takes every round.  Scheduling:
given an ``sss_rule``, each slot samples that fixed schedule
distribution and serves scheduled links FIFO by round id across their
trees; otherwise MaxWeight weighs each link by its best useful backlog
across trees and transmits, per scheduled link, from that maximizing
tree only.

Queue lengths are kept link-major.  The useful queue of tree t at sensor
i feeds exactly one link, (i, parent_t(i)), so ``link_counts`` holds one
list per link, aligned with ``TreeIndex.trees_on_link``; a link's place in
that key order is its position.  Under MaxWeight the slot loop also keeps,
per link position, the largest count in its column and how many trees
reach it.  A change of one packet costs O(1), except that taking one
packet from a link's only maximum counts the value one lower in C; only a
multi-packet send from the only maximum rescans the column.
``maxweight_schedule`` reads these maxima: it finds every untied link's
maximizing tree with C-level ``list.index``, draws each tie in place, and
weighs each schedule from its (position, rate) pairs, built once per
simulator together with its sends.  With a single schedule there is
nothing to weigh.

One private loop, ``_loop``, holds the slot dynamics: arrivals, routing,
placement, schedule choice, transfers, readiness, completions and
sampling, with the totals, the slot and the next round id in locals;
``run`` is its only caller.  A slot first pops every packet its
schedule serves, then moves each across its link.  MaxWeight takes them
from the maximizing tree of each scheduled link, a rate-1 link by popping
that queue's head.  Static-sss serves each scheduled link's queue heads in
round-id order (``min`` at rate 1, a merge above).  A transfer only pops
a queue head, the queues of different links are disjoint, and a round
made ready by a transfer joins its next queue only after every transfer
of the slot, so this serves the same rounds as serving one packet at a
time.

Per-round state is node-indexed lists: ``payloads`` (the aggregator
holds the empty payload) and ``pending``, each node's count of children
still to send, copied from the tree's template.

Random draws are made inline and exactly.  Sensor values take
``getrandbits`` of the alphabet's bit length, drawn again while the value
is not below the alphabet size, which is how ``Random.randrange`` draws.
A link's tie among n trees is drawn the same way, with the bit length of
n, and indexes the drawn tie in place, without building a tie list.
Poisson arrivals multiply ``random()`` values (Knuth's method), and each
fixed-split tree and static schedule takes one ``random()``.  A run thus
takes the same random bits, in the same order, as calling ``randrange``
for each value and tie would.

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
from itertools import islice
from operator import getitem, itemgetter, mul
from random import Random

from .errors import BadParams, OracleMismatch
from .flows import ScheduleSet, SSSRule
from .fmux import FmuxFunction
from .graph import NetworkGraph


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


# ---------------------------------------------------------------------------
# Tree plumbing
# ---------------------------------------------------------------------------

class TreeIndex:
    """Link -> trees reverse index plus the per-tree cell tables.

    ``trees_on_link`` lists, per link, the trees using it in ascending
    order; its key order fixes each link's position, ``link_pos[link]``,
    and ``link_trees`` holds the same lists by position.
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
        self.link_trees = list(self.trees_on_link.values())

    def __len__(self):
        return len(self.trees)


def _schedule_positions(tix: TreeIndex, schedule_set: ScheduleSet):
    """Per schedule, over its links that some tree uses in the schedule's
    link order: the (link position, rate) pairs MaxWeight weighs, and the
    (link position, i, j, whole-packet rate) sends of its links (i, j) with
    a positive whole rate."""
    link_pos = tix.link_pos
    weighing, sends = [], []
    for s in schedule_set.schedules:
        plan = [(link_pos[l], l, s.rates[l]) for l in s.links if l in link_pos]
        weighing.append([(pos, rate) for pos, _, rate in plan])
        sends.append([(pos, *l, int(rate)) for pos, l, rate in plan if int(rate) > 0])
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
                       maxima, ties, rng: Random):
    """Pick the admissible schedule maximizing sum of P_ij * c_ij.

    P_ij is the largest per-tree useful backlog at i over trees containing
    (i,j).  `link_counts` holds those backlogs per link position, aligned
    with ``tree_index.link_trees``; `maxima` holds each column's largest
    count and `ties` how often it occurs there.  `schedule_positions` holds,
    per schedule, the (link position, rate) of each of its links that some
    tree uses.  Returns (schedule index, maximizing tree per link position,
    None where the link has no useful backlog).  Ties, both in the per-link
    tree and in the schedule, are broken uniformly at random; a link's tie
    is drawn as ``rng.randrange(ties)`` draws it.
    """
    link_trees = tree_index.link_trees
    best_tree = list(map(getitem, link_trees, map(list.index, link_counts, maxima)))
    getrandbits = rng.getrandbits
    for p, (w, n) in enumerate(zip(maxima, ties)):
        if not w:
            best_tree[p] = None
        elif n > 1:
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            if r:
                best_tree[p] = link_trees[p][_nth_index(link_counts[p], w, r)]
    if len(schedule_positions) == 1:
        return 0, best_tree
    best_total = None
    best_scheds = []
    for k, plan in enumerate(schedule_positions):
        total = 0.0
        for p, rate in plan:
            w = maxima[p]
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
    """One run's record: ``times`` (slots) and ``backlog`` (useful plus
    not-useful packets) feed the stability detector; ``summary()`` and
    ``write_csv`` (one cumulative assignment column per tree) report the run."""
    lam: float
    seed: int
    horizon: int
    tree_count: int
    times: list = field(default_factory=list)
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
    def backlog(self):
        return [u + nu for u, nu in zip(self.total_useful, self.total_nonuseful)]

    def summary(self) -> dict:
        return {"completed": self.completed, "mean_latency": self.mean_latency,
                "max_backlog": self.max_backlog, "final_backlog": self.final_backlog,
                "per_tree_assigned": self.assigned_totals}

    def write_csv(self, path):
        with open(path, "w") as fh:
            tree_cols = ",".join(f"tree_{k}" for k in range(self.tree_count))
            fh.write(f"slot,total_useful,total_nonuseful,V,completed,mean_latency,{tree_cols}\n")
            for slot, useful, nonuseful, v, completed, ml, loads in zip(
                    self.times, self.total_useful, self.total_nonuseful, self.lyapunov,
                    self.completed_series, self.mean_latency_series, self.per_tree_assigned):
                loads_txt = ",".join(map(str, loads))
                fh.write(f"{slot},{useful},{nonuseful},{v:.1f},{completed},{ml:.6f},"
                         f"{loads_txt}\n")


class WirelessSimulator:
    """One policy on one topology; call run(horizon) for the metrics.

    `split_weights` (one per tree) routes by a fixed random split, and
    `sss_rule` schedules by a static split; without them routing is greedy
    and scheduling MaxWeight.
    """

    def __init__(self, g: NetworkGraph, schedule_set: ScheduleSet, trees,
                 func: FmuxFunction, arrivals: ArrivalProcess, seed: int,
                 split_weights=None, sss_rule: SSSRule = None,
                 debug: bool = False):
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
        self.func = func
        self.arrivals = arrivals
        self.rng = Random(seed)
        self.seed = seed
        self.debug = debug

        if split_weights is not None and len(split_weights) != len(self.tix):
            raise BadParams("split_weights needs one weight per tree")
        self._split_cum = None if split_weights is None else _cumulative(split_weights)
        self._sss_cum = None if sss_rule is None else _cumulative(
            [sss_rule.weights.get(k, 0.0) for k in range(len(schedule_set))])
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
        self.link_counts = [[0] * len(taus) for taus in tix.link_trees]
        # MaxWeight's inputs, kept up to date by the slot loop: per link
        # position, the largest count in its column and how many trees
        # reach it.  Static scheduling does not read them.
        if sss_rule is None:
            self._maxima = [0] * len(tix.link_trees)
            self._ties = [len(taus) for taus in tix.link_trees]
        else:
            self._maxima = self._ties = None
        # Per (tree, node): its useful queue, its link column, its position
        # in that column and the link's position (None at the aggregator).
        self._cells = [
            [None if c is None else (queues[i], self.link_counts[c[0]], c[1], c[0])
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

    def _loop(self, slots, sample_every=0):
        """Run `slots` slots, sampling every `sample_every`-th one (0: none).

        A slot draws its arrivals and routes them (greedy reads the queues
        as of the slot start), places each round on its tree's leaves,
        picks a schedule and pops the packets it serves, moves them across
        their links, then moves each round whose receiver has heard from
        all its children to that receiver's useful queue, or completes it
        at the aggregator, in round-id order.  Random bits go, in order, to
        the arrival count, then per round to its fixed-split tree and its
        sensor values, then to MaxWeight's ties or the static schedule.
        Totals, the slot and the next round id are loop locals, written
        back on exit.
        """
        rng = self.rng
        random = rng.random
        f = self.func
        lift, combine, finalize, direct = f.lift, f.combine, f.finalize, f.direct
        empty = f.empty_payload
        values = self._values
        nsensors = self._nsensors
        aggregator = self._aggregator
        tix = self.tix
        templates = tix.pending_template
        leaf_cells = self._leaf_cells
        relays = self._relays
        cells = self._cells
        rounds = self.rounds
        tree_totals = self.tree_totals
        assigned = self.assigned
        link_counts = self.link_counts
        link_queues = self._link_queues
        weighing, sched_sends = self._weighing, self._sched_sends
        maxima, ties = self._maxima, self._ties
        maxweight = maxima is not None
        split_cum, sss_cum = self._split_cum, self._sss_cum
        # Without a split, greedy routing chooses when there is a choice.
        greedy = split_cum is None and len(tix) > 1
        a = self.arrivals
        law, lam = a.law, a.lam
        poisson_limit = math.exp(-lam)
        batch_p = lam / a.batch if lam and law == "bernoulli_batch" else 0.0
        carry = self._arr_carry
        debug = self.debug
        m = self.metrics
        schedule_counts = m.schedule_counts
        completed, latency_sum, max_backlog = m.completed, m.latency_sum, m.max_backlog
        u_total, nu_total = self.u_total, self.nu_total
        slot, next_rid = self.slot, self._next_rid
        end = slot + slots

        while slot < end:
            # Arrivals, their trees and their placement on the leaves.
            n_arr = 0
            if lam:
                if law == "poisson":
                    p = random()
                    while p > poisson_limit:
                        n_arr += 1
                        p *= random()
                elif law == "bernoulli_batch":
                    if random() < batch_p:
                        n_arr = a.batch
                else:
                    carry += lam
                    n_arr = int(carry)
                    carry -= n_arr
            if n_arr:
                # Looked up on the module each slot, where tracers wrap it.
                tree = greedy_tree_load(tree_totals, rng) if greedy else 0
                for _ in range(n_arr):
                    if split_cum is not None:
                        tree = bisect_right(split_cum, random())
                    sensed = list(islice(values, nsensors))
                    payloads = list(map(lift, sensed))
                    payloads.insert(aggregator, empty)
                    leaves = leaf_cells[tree]
                    for q, col, cpos, pos in leaves:
                        q.append(next_rid)
                        v = col[cpos] + 1
                        col[cpos] = v
                        if maxweight:
                            if v > maxima[pos]:
                                maxima[pos] = v
                                ties[pos] = 1
                            elif v == maxima[pos]:
                                ties[pos] += 1
                    tree_totals[tree] += len(leaves)
                    u_total += len(leaves)
                    nu_total += relays[tree]
                    r = _WRound(next_rid, tree, slot, payloads, templates[tree].copy(),
                                sensed)
                    if debug:
                        r.crossed = set()
                    rounds[next_rid] = r
                    next_rid += 1
                    assigned[tree] += 1

            # The schedule, and the (round, i, j) packets it moves, popped
            # from their queues.
            moves = []
            if maxweight:
                sched_idx, best = maxweight_schedule(weighing, tix, link_counts, maxima,
                                                     ties, rng)
                for pos, i, j, cap in sched_sends[sched_idx]:
                    t = best[pos]
                    if t is None:
                        continue
                    q, col, cpos, _ = cells[t][i]
                    w = maxima[pos]  # the length of q
                    if cap == 1:
                        moves.append((q.popleft(), i, j))
                        moved = 1
                    else:
                        moved = min(cap, w)
                        moves += [(q.popleft(), i, j) for _ in range(moved)]
                    col[cpos] = w - moved
                    if ties[pos] > 1:
                        ties[pos] -= 1
                    else:
                        # q held the only maximum; below it, only a
                        # one-packet send knows the new one.
                        maxima[pos] = w = w - 1 if moved == 1 else max(col)
                        ties[pos] = col.count(w)
                    tree_totals[t] -= moved
                    u_total -= moved
            else:
                sched_idx = bisect_right(sss_cum, random())
                # Each link serves its trees' queue heads in round-id order:
                # min over the heads at rate 1, a merge above.
                for pos, i, j, cap in sched_sends[sched_idx]:
                    queues = link_queues[pos]
                    if cap == 1:
                        q = min(filter(None, queues), key=_head, default=None)
                        rids = () if q is None else (q[0],)
                    else:
                        rids = list(islice(merge(*filter(None, queues)), cap))
                    for rid in rids:
                        t = rounds[rid].tree
                        q, col, cpos, _ = cells[t][i]
                        q.popleft()
                        col[cpos] -= 1
                        tree_totals[t] -= 1
                        moves.append((rid, i, j))
                    u_total -= len(rids)
            schedule_counts[sched_idx] = schedule_counts.get(sched_idx, 0) + 1

            # Transfers: each packet folds into its receiver's payload.
            ready = []
            for rid, i, j in moves:
                r = rounds[rid]
                if debug:
                    self._check_transfer(r, i, (i, j))
                payloads = r.payloads
                payloads[j] = combine(payloads[j], payloads[i])
                pending = r.pending
                left = pending[j] - 1
                pending[j] = left
                if not left:
                    ready.append((rid, j))

            # Readiness and completions, in round-id order.
            if ready:
                ready.sort()
                for rid, j in ready:
                    r = rounds[rid]
                    if j == aggregator:
                        got = finalize(r.payloads[aggregator])
                        expected = direct(r.sensed)
                        if got != expected:
                            raise OracleMismatch(rid, got, expected)
                        if debug and r.crossed != set(tix.tree_links[r.tree]):
                            raise AssertionError(f"round {rid} crossed {sorted(r.crossed)} "
                                                 "instead of its tree links")
                        del rounds[rid]
                        completed += 1
                        latency_sum += slot - r.t_arrive + 1
                        continue
                    t = r.tree
                    q, col, cpos, pos = cells[t][j]
                    q.append(rid)
                    v = col[cpos] + 1
                    col[cpos] = v
                    if maxweight:
                        if v > maxima[pos]:
                            maxima[pos] = v
                            ties[pos] = 1
                        elif v == maxima[pos]:
                            ties[pos] += 1
                    tree_totals[t] += 1
                    u_total += 1
                    nu_total -= 1

            slot += 1
            if debug:
                self._assert_queue_counts(u_total, nu_total)
            if sample_every and slot % sample_every == 0:
                m.times.append(slot)
                m.total_useful.append(u_total)
                m.total_nonuseful.append(nu_total)
                m.lyapunov.append(lyapunov_value(link_counts))
                m.completed_series.append(completed)
                m.mean_latency_series.append(latency_sum / completed if completed else 0.0)
                m.per_tree_assigned.append(tuple(assigned))
            if u_total + nu_total > max_backlog:
                max_backlog = u_total + nu_total

        m.completed, m.latency_sum, m.max_backlog = completed, latency_sum, max_backlog
        self.u_total, self.nu_total = u_total, nu_total
        self.slot, self._next_rid = slot, next_rid
        self._arr_carry = carry

    def _check_transfer(self, r, i, link):
        """Debug: a round leaves a node once, after aggregating its children."""
        if r.pending[i]:
            raise AssertionError(
                f"round {r.rid} left node {i} before aggregating its children"
            )
        if link in r.crossed:
            raise AssertionError(f"round {r.rid} crossed {link} twice")
        r.crossed.add(link)

    def _assert_queue_counts(self, u_total, nu_total):
        """Debug: queues ascending; link columns, MaxWeight's link maxima and
        the totals equal a recount."""
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
        if self._maxima is not None:
            maxima = list(map(max, self.link_counts))
            ties = list(map(list.count, self.link_counts, maxima))
            if (self._maxima, self._ties) != (maxima, ties):
                raise AssertionError(f"link maxima {self._maxima} and ties {self._ties} != "
                                     f"recount {maxima} and {ties}")
        if u_total != sum(self.tree_totals):
            raise AssertionError(f"useful total {u_total} != recount")
        aggregator = self._aggregator
        nonuseful = sum(1 for r in self.rounds.values()
                        for i, c in enumerate(r.pending) if c and i != aggregator)
        if nu_total != nonuseful:
            raise AssertionError(f"not-useful total {nu_total} != recount {nonuseful}")

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
        self._loop(horizon, sample_every)
        m.final_backlog = self.u_total + self.nu_total
        m.assigned_totals = list(self.assigned)
        return m


def run(g: NetworkGraph, schedule_set: ScheduleSet, trees, func: FmuxFunction,
        lam: float, seed: int, horizon: int, split_weights=None,
        sss_rule: SSSRule = None, arrival_law: str = "poisson", sample_every: int = None,
        debug: bool = False) -> WirelessMetrics:
    """One simulation run; see WirelessSimulator."""
    sim = WirelessSimulator(
        g, schedule_set, trees, func,
        ArrivalProcess(arrival_law, lam), seed,
        split_weights=split_weights, sss_rule=sss_rule, debug=debug,
    )
    return sim.run(horizon, sample_every=sample_every)
