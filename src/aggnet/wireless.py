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
list per link, aligned with ``TreeIndex.trees_on_link``.  MaxWeight finds
a link's weight and its maximizing tree with C-level ``max``, ``count``
and ``index`` over that one list, never gathering (link, tree) pairs.  A
tie among k trees draws ``rng.randrange(k)`` and walks to that tied
position without building a tie list; ``Random.choice`` draws
``seq[_randbelow(len(seq))]``, so the draw uses the same random bits a
choice from the list would.

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
from operator import itemgetter
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
    order; its key order fixes each link's position.  ``cell[t][i]`` is
    the (link position, position in ``trees_on_link[link]``) of tree t's
    useful queue at sensor i, whose link is (i, parent_t(i)), and None at
    the aggregator.  ``leaves[t]`` lists the leaves of tree t, and
    ``pending_template[t]`` maps every other node, aggregator included, to
    its number of children in tree t.
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
        link_pos = {}  # in the key order of trees_on_link
        self.cell = []
        self.leaves = []
        self.pending_template = []
        for ti, tree in enumerate(trees):
            self.tree_links.append(frozenset(tree.tree_links))
            children = [0] * g.n
            cells = [None] * g.n
            for i, p in tree.parent:
                children[p] += 1
                column = self.trees_on_link.setdefault((i, p), [])
                cells[i] = (link_pos.setdefault((i, p), len(link_pos)), len(column))
                column.append(ti)
            self.cell.append(cells)
            self.leaves.append([i for i in g.sensors if not children[i]])
            self.pending_template.append(
                {i: c for i, c in enumerate(children) if c or i == g.aggregator}
            )

    def __len__(self):
        return len(self.trees)


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


def maxweight_schedule(schedule_set: ScheduleSet, tree_index: TreeIndex,
                       link_counts, rng: Random):
    """Pick the admissible schedule maximizing sum of P_ij * c_ij.

    P_ij is the largest per-tree useful backlog at i over trees containing
    (i,j); `link_counts` holds those backlogs per link, aligned with
    ``tree_index.trees_on_link``.  Returns (schedule index, {link:
    maximizing tree}).  Ties, both in the per-link tree and in the
    schedule, are broken uniformly at random.
    """
    weight = {}
    best_tree = {}
    for (link, taus), col in zip(tree_index.trees_on_link.items(), link_counts):
        best = max(col)
        if best > 0:
            weight[link] = best
            ties = col.count(best)
            if ties == 1:
                best_tree[link] = taus[col.index(best)]
            else:
                best_tree[link] = taus[_nth_index(col, best, rng.randrange(ties))]
    best_total = None
    best_scheds = []
    for k, sched in enumerate(schedule_set.schedules):
        total = 0.0
        for l in sched.links:
            w = weight.get(l)
            if w:
                total += w * sched.rates[l]
        if best_total is None or total > best_total + 1e-12:
            best_total = total
            best_scheds = [k]
        elif abs(total - best_total) <= 1e-12:
            best_scheds.append(k)
    chosen = best_scheds[0] if len(best_scheds) == 1 else rng.choice(best_scheds)
    return chosen, best_tree


def lyapunov_value(link_counts) -> float:
    """Sum of squared useful-queue lengths: the drift diagnostic."""
    return float(sum(q * q for col in link_counts for q in col))


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
        # Per schedule, the links it serves with their whole-packet rates.
        self._sched_caps = [
            [(l, int(s.rates[l])) for l in s.links if int(s.rates[l]) > 0]
            for s in schedule_set.schedules
        ]

        tix = self.tix
        ntrees = len(tix)
        self._sensors = g.sensors
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
        # Per link, the useful queues at its tail, aligned with its column.
        self._link_queues = {link: [self.useful[t][link[0]] for t in taus]
                             for link, taus in tix.trees_on_link.items()}
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

    def _place_round(self, tree_idx: int) -> int:
        f = self.func
        rid = self._next_rid
        self._next_rid += 1
        randrange, alphabet = self.rng.randrange, f.alphabet_size
        sensors = self._sensors
        sensed = [randrange(alphabet) for _ in sensors]
        payloads = dict(zip(sensors, map(f.lift, sensed)))
        payloads[self.g.aggregator] = f.empty_payload
        leaves = self._leaf_cells[tree_idx]
        for q, col, pos in leaves:
            q.append(rid)
            col[pos] += 1
        self.tree_totals[tree_idx] += len(leaves)
        self.u_total += len(leaves)
        pending = dict(self.tix.pending_template[tree_idx])
        self.nu_total += len(pending) - 1  # the aggregator is not a queue
        r = _WRound(rid, tree_idx, self.slot, payloads, pending, sensed)
        if self.debug:
            r.crossed = set()
        self.rounds[rid] = r
        self.assigned[tree_idx] += 1
        return rid

    # -- per-slot dynamics ----------------------------------------------------

    def _transmit(self, tree_idx, link, count, ready):
        """Move up to `count` rounds across `link` from the tree's useful queue.

        Appends (rid, j) to `ready` for each round whose last missing child
        packet reaches the receiver j.
        """
        i, j = link
        q, col, pos = self._cells[tree_idx][i]
        moved = min(count, len(q))
        rounds, combine = self.rounds, self.func.combine
        for _ in range(moved):
            rid = q.popleft()
            r = rounds[rid]
            if self.debug:
                if r.pending.get(i, 0) != 0:
                    raise AssertionError(
                        f"round {rid} left node {i} before aggregating its children"
                    )
                if link in r.crossed:
                    raise AssertionError(f"round {rid} crossed {link} twice")
                r.crossed.add(link)
            payloads = r.payloads
            payloads[j] = combine(payloads[j], payloads.pop(i))
            pending = r.pending
            left = pending[j] - 1
            pending[j] = left
            if not left:
                ready.append((rid, j))
        if moved:
            col[pos] -= moved
            self.tree_totals[tree_idx] -= moved
            self.u_total -= moved

    def _finish_round(self, r):
        f = self.func
        got = f.finalize(r.payloads[self.g.aggregator])
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
                tree = greedy_tree_load(self.tree_totals, rng)
                for _ in range(n_arr):
                    self._place_round(tree)
            elif self.routing == "single_tree":
                for _ in range(n_arr):
                    self._place_round(0)
            else:
                for _ in range(n_arr):
                    self._place_round(_draw_categorical(rng, self._split_cum))

        # 3: schedule selection.
        if self.scheduling == "maxweight":
            sched_idx, best_tree = maxweight_schedule(
                self.schedule_set, self.tix, self.link_counts, rng
            )
        else:
            sched_idx = _draw_categorical(rng, self._sss_cum)
            best_tree = None
        m = self.metrics
        m.schedule_counts[sched_idx] = m.schedule_counts.get(sched_idx, 0) + 1

        # 4: transmissions.
        ready = []
        for link, cap in self._sched_caps[sched_idx]:
            if best_tree is not None:
                tree = best_tree.get(link)
                if tree is not None:
                    self._transmit(tree, link, cap, ready)
            else:
                self._serve_fifo(link, cap, ready)

        # 5: internal transfers and completions, in round-id order.
        if ready:
            ready.sort()
            aggregator = self.g.aggregator
            for rid, j in ready:
                r = self.rounds[rid]
                del r.pending[j]
                if j == aggregator:
                    self._finish_round(r)
                else:
                    q, col, pos = self._cells[r.tree][j]
                    q.append(rid)
                    col[pos] += 1
                    self.tree_totals[r.tree] += 1
                    self.u_total += 1
                    self.nu_total -= 1

        self.slot += 1
        if self.debug:
            self._assert_queue_counts()

    def _serve_fifo(self, link, cap, ready):
        """Static scheduling: serve the link's trees in global round-id order."""
        queues = self._link_queues.get(link)
        if not queues:
            return
        rounds = self.rounds
        for _ in range(cap):
            q = min(filter(None, queues), key=_head, default=None)
            if q is None:
                return
            self._transmit(rounds[q[0]].tree, link, 1, ready)

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
        nonuseful = sum(len(r.pending) - 1 for r in self.rounds.values())
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
