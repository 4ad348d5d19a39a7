import json

import pytest

from aggnet import graph
from aggnet.errors import (
    BadParams,
    CycleError,
    DuplicateLink,
    NegativeCapacity,
    SelfLoop,
    UnreachableAggregator,
)


def test_smallest_valid_instance():
    g = graph.build_graph(2, 0, [(1, 0)], 1.0)
    assert g.in_neighbors[0] == (1,)
    assert g.out_neighbors[1] == (0,)
    assert g.sensors == (1,)


def test_triangle_adjacency(triangle):
    assert triangle.out_neighbors[2] == (0, 1)
    assert triangle.in_neighbors[0] == (1, 2)
    assert set(triangle.links) == {(1, 0), (2, 0), (2, 1)}


def test_unreachable_aggregator_names_offender():
    with pytest.raises(UnreachableAggregator) as info:
        graph.build_graph(3, 0, [(1, 2)], 1.0)
    assert info.value.node == 1


@pytest.mark.parametrize(
    "links,err",
    [
        ([(1, 1)], SelfLoop),
        ([(1, 0), (1, 0)], DuplicateLink),
    ],
)
def test_malformed_links(links, err):
    with pytest.raises(err):
        graph.build_graph(2, 0, links, 1.0)


def test_negative_capacity():
    with pytest.raises(NegativeCapacity):
        graph.build_graph(2, 0, [(1, 0)], {(1, 0): -0.5})


def test_requires_a_link():
    with pytest.raises(BadParams):
        graph.build_graph(2, 0, [], 1.0)


def test_topological_order_triangle(triangle):
    assert graph.topological_order(triangle) == [0, 1, 2]


def test_topological_order_line():
    g = graph.generate("line", n=4)
    assert graph.topological_order(g) == [0, 1, 2, 3]


def test_topological_order_reports_cycle():
    g = graph.build_graph(3, 0, [(1, 0), (1, 2), (2, 1)], 1.0)
    with pytest.raises(CycleError) as info:
        graph.topological_order(g)
    assert set(info.value.cycle) == {1, 2}


def test_topological_order_property():
    for seed in range(10):
        g = graph.generate("random_dag", n=7, seed=seed)
        order = graph.topological_order(g)
        pos = {v: k for k, v in enumerate(order)}
        assert order[0] == g.aggregator
        for u, v in g.links:
            assert pos[v] < pos[u]


def test_generate_complete():
    g = graph.generate("complete", n=5, capacity=1.0)
    assert len(g.links) == 20  # N(N-1)
    assert g.aggregator == 0
    assert all(c == 1.0 for c in g.capacity.values())


def test_generate_line():
    g = graph.generate("line", n=3)
    assert set(g.links) == {(1, 0), (2, 1)}


def test_generate_grid():
    g = graph.generate("grid", n=9, capacity=1.0)
    assert g.aggregator == 4  # center of the 3x3 grid
    corners = [0, 2, 6, 8]
    for c in corners:
        assert len(g.out_neighbors[c]) == 2
    # each physical edge appears in both directions
    for u, v in g.links:
        assert (v, u) in g.capacity


def test_generate_grid_even_side():
    g = graph.generate("grid", n=4)
    assert g.aggregator == 2


def test_generate_random_dag_is_reproducible():
    g1 = graph.generate("random_dag", n=6, seed=3)
    g2 = graph.generate("random_dag", n=6, seed=3)
    assert g1.links == g2.links
    assert g1.capacity == g2.capacity
    assert g1.is_acyclic()


def test_generate_bad_params():
    with pytest.raises(BadParams):
        graph.generate("grid", n=7)
    with pytest.raises(BadParams):
        graph.generate("torus", n=9)


def test_every_generated_graph_reaches_aggregator():
    cases = [
        graph.generate("complete", n=4),
        graph.generate("grid", n=16),
        graph.generate("line", n=5),
        graph.generate("random_dag", n=8, seed=11),
    ]
    for g in cases:
        for i in g.sensors:
            seen = {i}
            frontier = [i]
            while frontier:
                u = frontier.pop()
                for v in g.out_neighbors[u]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            assert g.aggregator in seen


def test_json_round_trip(tmp_path, triangle):
    path = tmp_path / "g.json"
    graph.save_graph(triangle, path)
    loaded = graph.load_graph(path)
    assert loaded.links == triangle.links
    assert loaded.capacity == triangle.capacity
    assert loaded.aggregator == triangle.aggregator
    doc = json.loads(path.read_text())
    assert set(doc) == {"nodes", "aggregator", "links"}


def test_loader_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "nodes": 3, "aggregator": 0,
        "links": [{"from": 1, "to": 2, "capacity": 1.0}],
    }))
    with pytest.raises(UnreachableAggregator):
        graph.load_graph(path)


@pytest.mark.parametrize("doc, field", [
    ({"aggregator": 0, "links": [{"from": 1, "to": 0}]}, "'nodes'"),
    ({"nodes": 2, "links": [{"from": 1, "to": 0}]}, "'aggregator'"),
    ({"nodes": 3, "aggregator": 0}, "'links'"),
    ({"nodes": 2, "aggregator": 0, "links": [{"to": 0}]}, "link 0 has no 'from'"),
    ({"nodes": 2, "aggregator": 0, "links": [{"from": 1}]}, "link 0 has no 'to'"),
], ids=["nodes", "aggregator", "links", "from", "to"])
def test_loader_names_missing_field(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BadParams, match=field):
        graph.load_graph(path)
