"""Element maps, orbits and validation of a group action against naive
compositions of generator powers, one vertex and one edge at a time."""

import itertools
import math
import tracemalloc
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgsym import (
    character_blocks,
    circulant_graph,
    cycle_product,
    standard_conditions,
    torus_action,
    validate_action,
)
from qgsym.actions import GeneratorMaps, GraphAction
from qgsym.errors import ActionNotFree


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


def identity(gen: GeneratorMaps) -> GeneratorMaps:
    nv, ne = len(gen.vertex_perm), len(gen.edge_perm)
    return GeneratorMaps(tuple(range(nv)), tuple(range(ne)), (False,) * ne)


def naive_maps(a, element) -> GeneratorMaps:
    m = identity(a.generators[0])
    for gen, power in zip(a.generators, element):
        for _ in range(power):
            m = compose(m, gen)
    return m


def naive_points(m: GeneratorMaps) -> list[int]:
    """Images of the vertices, then of bond 2e + d (the point V + 2e + d)."""
    nv = len(m.vertex_perm)
    bonds = [nv + 2 * m.edge_perm[b // 2] + (b % 2 ^ m.edge_flip[b // 2]) for b in range(2 * len(m.edge_perm))]
    return list(m.vertex_perm) + bonds


def exhaustive_validate(g, a) -> list[tuple[str, str]]:
    """The axioms checked on every element of the group, as `validate_action`
    did with a table of all elements' maps: the reference for its checks on
    generators and orbit representatives."""
    violations = []
    nv, ne = g.n_vertices, g.n_edges
    for i, gen in enumerate(a.generators):
        if sorted(gen.vertex_perm) != list(range(nv)):
            violations.append(("bijectivity", f"generator {i} vertex map is not a permutation"))
        if sorted(gen.edge_perm) != list(range(ne)):
            violations.append(("bijectivity", f"generator {i} edge map is not a permutation"))
        if len(gen.edge_flip) != ne:
            violations.append(("bijectivity", f"generator {i} has {len(gen.edge_flip)} edge flips for {ne} edges"))
    if not a.generators:
        violations.append(("group_law", "the action has no generators"))
    elif len(a.orders) != len(a.generators):
        violations.append(("group_law", f"{len(a.orders)} orders for {len(a.generators)} generators"))
    for i, n in enumerate(a.orders):
        if not (isinstance(n, int) and n >= 1):
            violations.append(("group_law", f"generator {i} has order {n!r}, not a positive integer"))
    if violations:
        return violations

    for i, (gen, n) in enumerate(zip(a.generators, a.orders)):
        power = identity(gen)
        for _ in range(n):
            power = compose(power, gen)
        if power != identity(gen):
            violations.append(("group_law", f"generator {i} to the power {n} is not the identity"))
    for i, j in itertools.combinations(range(len(a.generators)), 2):
        gi, gj = a.generators[i], a.generators[j]
        if compose(gi, gj) != compose(gj, gi):
            violations.append(("group_law", f"generators {i} and {j} do not commute"))
    for i, gen in enumerate(a.generators):
        ends, lengths = g.ends.tolist(), g.lengths.tolist()
        for e, (u, v) in enumerate(ends):
            image = gen.edge_perm[e]
            mapped = (gen.vertex_perm[u], gen.vertex_perm[v])
            expected = tuple(ends[image][::-1]) if gen.edge_flip[e] else tuple(ends[image])
            if mapped != expected:
                violations.append(("adjacency", f"generator {i}, edge {e}: endpoints map to {mapped}, image edge has {expected}"))
            if abs(lengths[image] - lengths[e]) > 1e-12 * max(1.0, lengths[e]):
                violations.append(("length", f"generator {i}, edge {e}: length {lengths[e]} maps to {lengths[image]}"))
    for element in list(a.elements())[1:]:
        m = naive_maps(a, element)
        vertices = [v for v in range(nv) if m.vertex_perm[v] == v]
        edges = [e for e in range(ne) if m.edge_perm[e] == e]
        if vertices:
            violations.append(("faithfulness", f"element {element} fixes vertex {vertices[0]}"))
        elif edges:
            what = "midpoint of" if m.edge_flip[edges[0]] else "every point of"
            violations.append(("faithfulness", f"element {element} fixes {what} edge {edges[0]}"))
    return violations


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


@st.composite
def mutated_actions(draw):
    """A builder's action, possibly broken in one generator's maps or order."""
    g, a = draw(actions())
    i = draw(st.integers(0, len(a.generators) - 1))
    gen, n = a.generators[i], a.orders[i]
    vertex, edge, flip = map(list, (gen.vertex_perm, gen.edge_perm, gen.edge_flip))
    kind = draw(st.sampled_from(["none", "vertex", "edge", "flip", "order"]))
    if kind in ("vertex", "edge"):
        perm = vertex if kind == "vertex" else edge
        x, y = draw(st.integers(0, len(perm) - 1)), draw(st.integers(0, len(perm) - 1))
        perm[x], perm[y] = perm[y], perm[x]
    elif kind == "flip":
        e = draw(st.integers(0, len(flip) - 1))
        flip[e] = not flip[e]
    elif kind == "order":
        n = draw(st.sampled_from([m for m in (n - 1, 2 * n, n + 1) if m >= 1]))
    gens = list(a.generators)
    gens[i] = GeneratorMaps(tuple(vertex), tuple(edge), tuple(flip))
    orders = a.orders[:i] + (n,) + a.orders[i + 1:]
    return g, GraphAction(orders, tuple(gens))


@settings(max_examples=40, deadline=None)
@given(actions())
def test_maps_and_orbits_equal_composed_generator_powers(graph_and_action):
    g, a = graph_and_action
    points = {}
    for element in a.elements():
        want = naive_maps(a, element)
        assert a.maps(element) == want
        points[element] = naive_points(want)
    low = [min(p[x] for p in points.values()) for x in range(g.n_vertices + 2 * g.n_edges)]
    reps = [x for x, m in enumerate(low) if m == x]
    got_reps, images = a.orbits
    assert got_reps.tolist() == reps
    assert images.tolist() == [[p[r] for r in reps] for p in points.values()]
    structural = {"bijectivity", "group_law", "adjacency", "length"}
    assert not [v for v in validate_action(g, a).violations if v[0] in structural]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_actions())
def test_validation_on_generators_and_orbits_equals_the_exhaustive_check(graph_and_action):
    g, a = graph_and_action
    got, want = list(validate_action(g, a).violations), exhaustive_validate(g, a)
    structural = {"bijectivity", "group_law", "adjacency", "length"}
    assert [v for v in got if v[0] in structural] == [v for v in want if v[0] in structural]
    if not any(axiom in ("bijectivity", "group_law") for axiom, _ in want):
        assert got == want
        # the first element, in `elements()` order, that fixes a bond, and its lowest such bond
        fixed = [
            (element, b) for element in list(a.elements())[1:]
            for b, image in enumerate(naive_points(naive_maps(a, element))[g.n_vertices:]) if image == b + g.n_vertices
        ]
        try:
            character_blocks(g, standard_conditions(g), a)
            assert not fixed
        except ActionNotFree as exc:
            assert str(exc) == f"element {fixed[0][0]} fixes bond {fixed[0][1]}"


def test_48x48_product_is_validated_and_blocked_in_linear_memory():
    # a table of every element's maps would hold 2304 maps of 2304 vertices
    # and 4608 edges, about 500 MB on the way to the blocks
    g, action = cycle_product(48, 48, math.sqrt(2), 1.0)
    conds = standard_conditions(g)
    tracemalloc.start()
    try:
        assert validate_action(g, action).valid
        blocks = character_blocks(g, conds, action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 2304 and {b.size for b in blocks.values()} == {4}
    assert peak < 32e6
