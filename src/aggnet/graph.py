"""Directed-graph data model shared by every other module.

Node ids are dense integers 0..N-1.  Links are directed pairs with a
nonnegative capacity in packets per time unit; a physically bidirectional
link is represented as two directed links.  Graphs are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BadParams,
    CycleError,
    DuplicateLink,
    NegativeCapacity,
    SelfLoop,
    UnreachableAggregator,
)

Link = tuple[int, int]


@dataclass(frozen=True)
class NetworkGraph:
    """A sensor network: directed links, one distinguished aggregator node."""

    n: int
    aggregator: int
    links: tuple[Link, ...]
    capacity: dict[Link, float]
    out_neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    in_neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    # All nodes except the aggregator, ascending; derived, so set once here.
    sensors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sensors",
                           tuple(i for i in range(self.n) if i != self.aggregator))

    @property
    def nodes(self):
        return range(self.n)

    def is_acyclic(self):
        try:
            topological_order(self)
            return True
        except CycleError:
            return False


def build_graph(nodes, aggregator, links, capacities) -> NetworkGraph:
    """Validate and assemble a NetworkGraph.

    `nodes` may be an int N or an iterable of the ids 0..N-1.  `capacities`
    is either a single number applied to every link or a mapping link -> rate.
    Raises SelfLoop, DuplicateLink, NegativeCapacity, UnreachableAggregator
    or BadParams on malformed input.
    """
    if isinstance(nodes, int):
        n = nodes
    else:
        node_list = sorted(nodes)
        n = len(node_list)
        if node_list != list(range(n)):
            raise BadParams(f"node ids must be dense integers 0..N-1, got {node_list}")
    if n < 2:
        raise BadParams("need at least two nodes")
    if not (0 <= aggregator < n):
        raise BadParams(f"aggregator {aggregator} not a node id")

    link_list = [(int(u), int(v)) for u, v in links]
    if not link_list:
        raise BadParams("need at least one link")
    seen = set()
    for u, v in link_list:
        if not (0 <= u < n and 0 <= v < n):
            raise BadParams(f"link ({u},{v}) references unknown node")
        if u == v:
            raise SelfLoop(u)
        if (u, v) in seen:
            raise DuplicateLink((u, v))
        seen.add((u, v))

    if isinstance(capacities, (int, float)):
        cap = {link: float(capacities) for link in link_list}
    else:
        cap = {(int(u), int(v)): float(c) for (u, v), c in capacities.items()}
        missing = [l for l in link_list if l not in cap]
        if missing:
            raise BadParams(f"capacity missing for links {missing}")
    for link, c in cap.items():
        if c < 0:
            raise NegativeCapacity(link, c)

    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for u, v in link_list:
        out_adj[u].append(v)
        in_adj[v].append(u)
    out_nb = tuple(tuple(sorted(a)) for a in out_adj)
    in_nb = tuple(tuple(sorted(a)) for a in in_adj)

    # Every sensor must be able to reach the aggregator, otherwise the
    # instance has min-mincut 0 and is rejected up front.
    reach = _reaches_aggregator(n, aggregator, in_nb)
    for i in range(n):
        if not reach[i]:
            raise UnreachableAggregator(i)

    return NetworkGraph(
        n=n,
        aggregator=aggregator,
        links=tuple(link_list),
        capacity=cap,
        out_neighbors=out_nb,
        in_neighbors=in_nb,
    )


def _reaches_aggregator(n, aggregator, in_neighbors):
    """BFS backwards from the aggregator; reach[i] == node i has a path to it."""
    reach = [False] * n
    reach[aggregator] = True
    queue = deque([aggregator])
    while queue:
        v = queue.popleft()
        for u in in_neighbors[v]:
            if not reach[u]:
                reach[u] = True
                queue.append(u)
    return reach


def topological_order(g: NetworkGraph) -> list[int]:
    """Order nodes so that every link points from a later node to an earlier one.

    The aggregator comes first.  Ties are broken by smallest node id, so the
    result is deterministic.  Raises CycleError (carrying one cycle) if the
    graph is not acyclic.
    """
    # Kahn's algorithm on the graph as-is, peeling nodes of out-degree zero:
    # a node may be emitted once all its out-neighbors already appear.
    remaining_out = [len(g.out_neighbors[i]) for i in range(g.n)]
    ready = sorted(i for i in range(g.n) if remaining_out[i] == 0)
    order = []
    heap = list(ready)
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for u in g.in_neighbors[v]:
            remaining_out[u] -= 1
            if remaining_out[u] == 0:
                heapq.heappush(heap, u)
    if len(order) < g.n:
        raise CycleError(_find_cycle(g, set(range(g.n)) - set(order)))
    return order


def _find_cycle(g, candidates):
    """Return one directed cycle among `candidates` (all on some cycle's tail)."""
    start = min(candidates)
    path = [start]
    index = {start: 0}
    v = start
    while True:
        nxt = next(w for w in g.out_neighbors[v] if w in candidates)
        if nxt in index:
            return path[index[nxt]:]
        index[nxt] = len(path)
        path.append(nxt)
        v = nxt


def generate(kind, **params) -> NetworkGraph:
    """Standard fixtures: complete, grid, line and random_dag topologies."""
    if kind == "complete":
        return _gen_complete(**params)
    if kind == "grid":
        return _gen_grid(**params)
    if kind == "line":
        return _gen_line(**params)
    if kind == "random_dag":
        return _gen_random_dag(**params)
    raise BadParams(f"unknown generator kind {kind!r}")


def _gen_complete(n=None, capacity=1.0):
    """All ordered pairs as links; node 0 is the aggregator."""
    if n is None or n < 2:
        raise BadParams("complete requires n >= 2")
    links = [(u, v) for u in range(n) for v in range(n) if u != v]
    return build_graph(n, 0, links, capacity)


def _gen_line(n=None, capacity=1.0):
    """Path 0 <- 1 <- ... <- n-1 with node 0 as aggregator."""
    if n is None or n < 2:
        raise BadParams("line requires n >= 2")
    links = [(i, i - 1) for i in range(1, n)]
    return build_graph(n, 0, links, capacity)


def _gen_grid(n=None, capacity=1.0):
    """Square grid, 4-neighbor links in both directions, aggregator at center.

    For odd side length the aggregator is the central cell, otherwise cell
    floor(n/2) in row-major order.
    """
    if n is None or n < 2:
        raise BadParams("grid requires n >= 2")
    side = int(round(n ** 0.5))
    if side * side != n:
        raise BadParams(f"grid requires a square node count, got {n}")
    links = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                links.append((i, i + 1))
                links.append((i + 1, i))
            if r + 1 < side:
                links.append((i, i + side))
                links.append((i + side, i))
    if side % 2 == 1:
        agg = (side // 2) * side + side // 2
    else:
        agg = n // 2
    return build_graph(n, agg, links, capacity)


def _gen_random_dag(n=None, capacity=None, seed=0, edge_prob=0.4, cap_range=(1, 4)):
    """Random DAG over a shuffled topological order; node 0 is the aggregator.

    Every node keeps at least one forward link so the aggregator stays
    reachable.  Capacities are uniform integers from cap_range unless a fixed
    `capacity` is given.
    """
    if n is None or n < 2:
        raise BadParams("random_dag requires n >= 2")
    rng = random.Random(seed)
    # Position 0 in the order is the aggregator; links go from later
    # positions to earlier ones.
    perm = list(range(1, n))
    rng.shuffle(perm)
    order = [0] + perm
    pos = {v: k for k, v in enumerate(order)}
    links = []
    for v in range(n):
        if v == 0:
            continue
        targets = [w for w in range(n) if pos[w] < pos[v]]
        chosen = [w for w in targets if rng.random() < edge_prob]
        if not chosen:
            chosen = [rng.choice(targets)]
        links.extend((v, w) for w in chosen)
    if capacity is not None:
        caps = {l: float(capacity) for l in links}
    else:
        lo, hi = cap_range
        caps = {l: float(rng.randint(lo, hi)) for l in links}
    return build_graph(n, 0, links, caps)


def load_graph(path) -> NetworkGraph:
    """Read the JSON graph format and validate it via build_graph."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("nodes", "aggregator", "links"):
        if key not in doc:
            raise BadParams(f"graph file has no {key!r}")
    for idx, e in enumerate(doc["links"]):
        for key in ("from", "to"):
            if key not in e:
                raise BadParams(f"link {idx} has no {key!r}")
    links = [(e["from"], e["to"]) for e in doc["links"]]
    caps = {(e["from"], e["to"]): e.get("capacity", 1.0) for e in doc["links"]}
    return build_graph(doc["nodes"], doc["aggregator"], links, caps)


def save_graph(g: NetworkGraph, path):
    doc = {
        "nodes": g.n,
        "aggregator": g.aggregator,
        "links": [
            {"from": u, "to": v, "capacity": g.capacity[(u, v)]} for u, v in g.links
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
