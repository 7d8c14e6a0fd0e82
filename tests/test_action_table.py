"""The element table of a group action against a naive composition of generator powers."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgsym import circulant_graph, cycle_product, torus_action, validate_action
from qgsym.actions import GeneratorMaps


def compose(first: GeneratorMaps, second: GeneratorMaps) -> GeneratorMaps:
    """Maps of 'apply first, then second', one vertex and one edge at a time."""
    return GeneratorMaps(
        tuple(second.vertex_perm[v] for v in first.vertex_perm),
        tuple(second.edge_perm[e] for e in first.edge_perm),
        tuple(
            first.edge_flip[e] ^ second.edge_flip[first.edge_perm[e]]
            for e in range(len(first.edge_perm))
        ),
    )


def naive_maps(a, element) -> GeneratorMaps:
    gen = a.generators[0]
    nv, ne = len(gen.vertex_perm), len(gen.edge_perm)
    m = GeneratorMaps(tuple(range(nv)), tuple(range(ne)), (False,) * ne)
    for gen, power in zip(a.generators, element):
        for _ in range(power):
            m = compose(m, gen)
    return m


orders = st.integers(min_value=1, max_value=6)


@st.composite
def actions(draw):
    kind = draw(st.sampled_from(["product", "torus", "circulant"]))
    if kind == "circulant":
        half = draw(st.integers(min_value=1, max_value=4))
        jumps = sorted(draw(st.sets(st.integers(1, half - 1), max_size=2))) if half > 1 else []
        n = 2 * half
        return circulant_graph(n, jumps + [half], [1.0 + 0.5 * i for i in range(len(jumps) + 1)])
    n1, n2 = draw(orders), draw(orders)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if kind == "product":
            return cycle_product(n1, n2, 1.0, 2.0)
        return torus_action(n1, n2, 0.5, 0.7)


@settings(max_examples=40, deadline=None)
@given(actions())
def test_table_rows_equal_composed_generator_powers(graph_and_action):
    g, a = graph_and_action
    vertex_images, edge_images, flips = a.table
    assert vertex_images.shape == (a.group_size, g.n_vertices)
    assert edge_images.shape == flips.shape == (a.group_size, g.n_edges)
    for row, element in enumerate(a.elements()):
        want = naive_maps(a, element)
        assert a.index(element) == row
        assert a.maps(element) == want
        assert np.array_equal(vertex_images[row], want.vertex_perm)
        assert np.array_equal(edge_images[row], want.edge_perm)
        assert np.array_equal(flips[row], want.edge_flip)
    structural = {"bijectivity", "group_law", "adjacency", "length"}
    assert not [v for v in validate_action(g, a).violations if v[0] in structural]
