import math

import pytest

from qgsym import make_graph, subdivide_midpoints
from qgsym.errors import DanglingEndpoint, NonPositiveLength


def test_make_graph_basic():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5)])
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g.total_length == pytest.approx(3.5)
    assert [g.degree(v) for v in range(3)] == [2, 2, 2]


def test_multigraph_and_loop_allowed_by_default():
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 1, 0.25)])
    assert g.n_edges == 3
    assert (g.edges[2].u, g.edges[2].v) == (1, 1)
    assert g.edges[0].u != g.edges[0].v
    assert g.degree(1) == 4  # loop contributes 2


def test_length_and_endpoint_validation():
    with pytest.raises(NonPositiveLength):
        make_graph(2, [(0, 1, 0.0)])
    with pytest.raises(NonPositiveLength):
        make_graph(2, [(0, 1, -2.0)])
    with pytest.raises(DanglingEndpoint):
        make_graph(2, [(0, 3, 1.0)])


def test_subdivide_midpoints_structure():
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 3.0)])
    sg = subdivide_midpoints(g)
    assert sg.n_vertices == 4
    assert sg.n_edges == 4
    assert sg.total_length == pytest.approx(g.total_length)
    # new vertex n + j has degree 2 and splits edge j
    for j in range(g.n_edges):
        mid = g.n_vertices + j
        assert sg.degree(mid) == 2
        assert sg.vertices[mid].tag == "dummy"
        halves = [e for e in sg.edges if mid in (e.u, e.v)]
        assert len(halves) == 2
        assert sum(e.length for e in halves) == pytest.approx(g.edges[j].length)


def test_loop_midpoint_survives_roundtrip():
    g = make_graph(1, [(0, 0, 2.0)])
    sg = subdivide_midpoints(g)
    assert sg.n_edges == 2 and sg.n_vertices == 2
    # the two halves run from the vertex to the midpoint and back
    assert [(e.u, e.v) for e in sg.edges] == [(0, 1), (1, 0)]
    assert sg.total_length == pytest.approx(2.0)
