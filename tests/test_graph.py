import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogline import (GraphDescriptor, ParameterError, build_graph,
                      parse_descriptor, resolve_origin)
from frogline.graph import COMPLETE, CYCLE, TREE

from oracles import bfs_distances, meet


def test_parse_descriptor_families():
    assert parse_descriptor("tree:d=2,n=3") == GraphDescriptor(TREE, d=2, n=3)
    assert parse_descriptor("complete:n=10") == GraphDescriptor(COMPLETE, n=10)
    assert parse_descriptor("cycle:n=9") == GraphDescriptor(CYCLE, n=9)


@pytest.mark.parametrize("text", [
    "tree", "tree:d=2", "tree:n=3", "tree:d=1,n=3", "tree:d=2,n=0",
    "complete:n=1", "cycle:n=2", "grid:n=4", "tree:d=2,n=3,x=1",
    "complete:", "complete:n=abc",
])
def test_parse_descriptor_rejects(text):
    with pytest.raises(ParameterError):
        parse_descriptor(text)


def test_label_round_trips():
    for text in ("tree:d=3,n=4", "complete:n=7", "cycle:n=12"):
        g = build_graph(parse_descriptor(text))
        assert g.label() == text
        assert parse_descriptor(g.label()) == g.descriptor


def test_tree_vertex_count_closed_form():
    for d in (2, 3, 4):
        for n in (1, 2, 3, 5):
            g = build_graph(GraphDescriptor(TREE, d=d, n=n))
            assert g.vertex_count == (d ** (n + 1) - 1) // (d - 1)


def test_tree_degrees():
    g = build_graph(GraphDescriptor(TREE, d=3, n=3))
    assert g.degree(0) == 3
    assert g.degree(1) == 4
    assert all(g.degree(v) == 1 for v in g.leaves())
    assert sum(g.degree(v) for v in range(g.vertex_count)) == \
        2 * (g.vertex_count - 1)


def test_tree_parent_child_consistency():
    g = build_graph(GraphDescriptor(TREE, d=2, n=4))
    for v in range(1, g.vertex_count):
        p = g.parent(v)
        assert v in g.children(p)
        assert g.level(v) == g.level(p) + 1


def test_meet_is_deepest_common_ancestor():
    g = build_graph(GraphDescriptor(TREE, d=2, n=4))
    leaves = g.leaves()
    a, b = int(leaves[0]), int(leaves[1])
    assert meet(g, a, b) == g.parent(a)
    assert meet(g, a, a) == a
    assert meet(g, a, 0) == 0
    assert meet(g, int(leaves[0]), int(leaves[-1])) == 0
    # against the intersection of the two ancestor sets, on every pair
    for d in (2, 3):
        for n in (2, 3, 4):
            g = build_graph(GraphDescriptor(TREE, d=d, n=n))
            ancestors = [{0}]  # a vertex and every vertex above it
            for v in range(1, g.vertex_count):
                ancestors.append({v} | ancestors[(v - 1) // d])
            for x in range(g.vertex_count):
                for y in range(g.vertex_count):
                    want = max(ancestors[x] & ancestors[y], key=g.level)
                    assert meet(g, x, y) == want, (g.label(), x, y)


@given(st.integers(2, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_meet_properties(d, n, data):
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    x = data.draw(st.integers(0, g.vertex_count - 1))
    y = data.draw(st.integers(0, g.vertex_count - 1))
    m = meet(g, x, y)
    assert meet(g, y, x) == m
    # the meet lies on both root paths
    for v in (x, y):
        while v != m and v != 0:
            v = g.parent(v)
        assert v == m
    dist = bfs_distances(g, x)[y]
    assert dist == g.level(x) + g.level(y) - 2 * g.level(m)


def test_neighbors_symmetry():
    for text in ("tree:d=2,n=3", "cycle:n=6", "complete:n=5"):
        g = build_graph(parse_descriptor(text))
        for v in range(g.vertex_count):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)


def test_check_vertex_raises():
    g = build_graph(GraphDescriptor(COMPLETE, n=4))
    for v in (4, -1):
        with pytest.raises(IndexError):
            g.neighbors(v)


def test_resolve_origin():
    gt = build_graph(GraphDescriptor(TREE, d=2, n=2))
    assert resolve_origin(gt, "root") == 0
    assert resolve_origin(gt, "leaf") == gt.vertex_count - 1
    assert resolve_origin(gt, "4") == 4
    assert resolve_origin(gt, 5) == 5
    gc = build_graph(GraphDescriptor(CYCLE, n=5))
    assert resolve_origin(gc, "root") == 0
    # a leaf of a cycle, out of range, and no vertex at all
    for g, spec in ((gc, "leaf"), (gt, "7"), (gt, "-1"), (gt, "center")):
        with pytest.raises(ParameterError):
            resolve_origin(g, spec)
