import math
import warnings

import numpy as np
import pytest

from qgsym import (
    QuotientSpec, cartesian_product, circulant_graph, cycle_graph, make_graph, quotient_graph, subdivide_midpoints,
)
from qgsym.builders import product_vertex_id
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
    assert tuple(g.ends[2]) == (1, 1)
    assert g.ends[0, 0] != g.ends[0, 1]
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
        assert sg.tags[mid] == "dummy"
        halves = (sg.ends == mid).any(axis=1)
        assert halves.sum() == 2
        assert sg.lengths[halves].sum() == pytest.approx(g.lengths[j])


def test_loop_midpoint_survives_roundtrip():
    g = make_graph(1, [(0, 0, 2.0)])
    sg = subdivide_midpoints(g)
    assert sg.n_edges == 2 and sg.n_vertices == 2
    # the two halves run from the vertex to the midpoint and back
    assert sg.ends.tolist() == [[0, 1], [1, 0]]
    assert sg.total_length == pytest.approx(2.0)


def _subdivide_per_edge(g):
    """`subdivide_midpoints` as the per-edge loop it once was: the reference."""
    n = g.n_vertices
    tags = list(g.tags) + ["dummy"] * g.n_edges
    edges = []
    for e, ((u, v), length) in enumerate(zip(g.ends.tolist(), g.lengths.tolist())):
        d = n + e
        edges.append((u, d, length / 2.0))
        edges.append((d, v, length / 2.0))
    return make_graph(len(tags), edges, tags)


def _product_per_edge(g1, g2):
    """`cartesian_product` as the per-edge loop it once was: the reference."""
    n1, n2 = g1.n_vertices, g2.n_vertices
    edges = []
    for (u, v), length in zip(g1.ends.tolist(), g1.lengths.tolist()):
        for j in range(n2):
            edges.append((product_vertex_id(u, j, n2), product_vertex_id(v, j, n2), length))
    for (u, v), length in zip(g2.ends.tolist(), g2.lengths.tolist()):
        for i in range(n1):
            edges.append((product_vertex_id(i, u, n2), product_vertex_id(i, v, n2), length))
    return make_graph(n1 * n2, edges)


def _assert_same_arrays(got, want):
    assert got.tags == want.tags
    assert got.ends.dtype == np.intp and np.array_equal(got.ends, want.ends)
    assert got.lengths.dtype == np.float64 and got.lengths.tobytes() == want.lengths.tobytes()


def test_array_builders_equal_the_per_edge_loops():
    # cycles of 1 to 5 vertices (a loop and a digon among them), a circulant
    # with an antipodal jump, and the 3-vertex quotient graph with its loops'
    # parallel edges and dummy tags
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = [cycle_graph(n, 0.5 + 0.25 * n)[0] for n in range(1, 6)]
    graphs.append(circulant_graph(8, [1, 4], [0.7, 1.3])[0])
    graphs.append(quotient_graph(QuotientSpec(3, 4, 0.5, 0.7017025651372872, 1, 2))[0])
    for g in graphs:
        _assert_same_arrays(subdivide_midpoints(g), _subdivide_per_edge(g))
        for h in graphs:
            _assert_same_arrays(cartesian_product(g, h), _product_per_edge(g, h))


def test_graph_arrays_are_read_only():
    g = make_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        g.lengths[0] = 3.0
    with pytest.raises(ValueError):
        g.ends[0, 1] = 0
