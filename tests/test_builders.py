import warnings

import networkx as nx
import pytest

from qgsym import (
    cartesian_product,
    circulant_graph,
    crt_index,
    cycle_graph,
    cycle_product,
    product_action,
    product_circulant_isomorphism,
    torus_action,
    validate_action,
)
from qgsym import builders
from qgsym.actions import GeneratorMaps, GraphAction, lift_action_subdivided
from qgsym.builders import product_vertex_id
from qgsym.errors import DuplicateJump, InvalidAction, IsomorphismCheckFailed, JumpOutOfRange


def _to_nx(g):
    G = nx.MultiGraph()
    G.add_nodes_from(range(g.n_vertices))
    for (u, v), length in zip(g.ends.tolist(), g.lengths.tolist()):
        G.add_edge(u, v, length=round(length, 12))
    return G


def test_cycle_graph_shapes():
    for n in (3, 5, 8):
        g, a = cycle_graph(n, 0.5)
        assert g.n_vertices == n and g.n_edges == n
        assert g.total_length == pytest.approx(0.5 * n)
        assert validate_action(g, a).valid


def test_cycle_degenerate_orders_warn_but_work():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        g1, _ = cycle_graph(1, 1.0)
        g2, _ = cycle_graph(2, 1.0)
    assert len(w) == 2
    assert g1.n_edges == 1 and g1.ends.tolist() == [[0, 0]]  # a loop
    assert g2.n_edges == 2 and g2.n_vertices == 2  # a digon


def test_circulant_graph_structure():
    g, a = circulant_graph(12, [3, 4], [1.0, 2.0])
    assert g.n_vertices == 12
    assert g.n_edges == 24
    # neighbor sets follow the jumps
    nbrs0 = sorted(v if u == 0 else u for u, v in g.ends.tolist() if 0 in (u, v))
    assert nbrs0 == [3, 4, 8, 9]
    assert validate_action(g, a).valid


def test_circulant_antipodal_jump_counted_once():
    g, _ = circulant_graph(6, [3], [1.0])
    assert g.n_edges == 3  # one edge per antipodal pair, not two


def test_circulant_jump_validation():
    with pytest.raises(JumpOutOfRange):
        circulant_graph(6, [4], [1.0])
    with pytest.raises(DuplicateJump):
        circulant_graph(12, [3, 3], [1.0, 1.0])


def test_cartesian_product_structure():
    g1, _ = cycle_graph(3, 1.0)
    g2, _ = cycle_graph(4, 2.0)
    gp = cartesian_product(g1, g2)
    assert gp.n_vertices == 12
    assert gp.n_edges == 3 * 4 + 4 * 3
    assert all(gp.degree(v) == 4 for v in range(12))
    # vertex labeling is (i, j) -> i*n2 + j
    assert product_vertex_id(2, 3, 4) == 11
    # edge between (0,0) and (1,0) exists with the first factor's length
    vids = {product_vertex_id(0, 0, 4), product_vertex_id(1, 0, 4)}
    match = [e for e, (u, v) in enumerate(gp.ends.tolist()) if {u, v} == vids]
    assert len(match) == 1 and gp.lengths[match[0]] == pytest.approx(1.0)


def test_product_action_is_valid_and_commutes():
    g1, a1 = cycle_graph(3, 1.0)
    g2, a2 = cycle_graph(4, 2.0)
    gp = cartesian_product(g1, g2)
    ap = product_action(g1, a1, g2, a2)
    assert validate_action(gp, ap).valid
    assert cycle_product(3, 4, 1.0, 2.0) == (gp, ap)
    # validation checks that the generators commute: the rotation and a
    # reflection of the triangle do not
    g3, a3 = cycle_graph(3, 1.0)
    reflection = GeneratorMaps((0, 2, 1), (2, 1, 0), (True, True, True))
    rep = validate_action(g3, GraphAction((3, 2), (a3.generators[0], reflection)))
    assert ("group_law", "generators 0 and 1 do not commute") in rep.violations
    assert not any(axiom in ("adjacency", "length") for axiom, _ in rep.violations)


def test_torus_action_shapes():
    g, a = torus_action(3, 4, 0.5, 1.0)
    # subdivided product: 24 original edges split into 48
    assert g.n_edges == 48
    assert g.n_vertices == 12 + 24
    assert validate_action(g, a).valid
    assert g.total_length == pytest.approx(3 * 4 * 0.5 * 2 + 4 * 3 * 1.0 * 2)


def test_torus_action_checks_the_action_it_returns_once(monkeypatch):
    # the cycles and their product are built unchecked; the subdivided action
    # is checked once, and it is the one lifted from the checked product
    checked = []
    validate = builders.validate_action
    monkeypatch.setattr(builders, "validate_action", lambda g, a: checked.append(g.n_edges) or validate(g, a))
    g, a = torus_action(3, 4, 0.5, 1.0)
    assert checked == [48]
    want_g, want_a = lift_action_subdivided(*cycle_product(3, 4, 1.0, 2.0))
    assert (g.ends.tolist(), g.lengths.tolist(), g.tags) == (want_g.ends.tolist(), want_g.lengths.tolist(), want_g.tags)
    assert a == want_a


def test_torus_action_refuses_a_broken_action(monkeypatch):
    # the one check still guards the action returned: a lift that maps the
    # first generator's vertices wrongly raises InvalidAction
    def broken(g, a):
        g_sub, a_sub = lift_action_subdivided(g, a)
        vp, ep, fl = a_sub.generators[0].arrays()
        vp[[0, 1]] = vp[[1, 0]]
        return g_sub, GraphAction(a_sub.orders, (GeneratorMaps.from_arrays(vp, ep, fl), *a_sub.generators[1:]))

    monkeypatch.setattr(builders, "lift_action_subdivided", broken)
    with pytest.raises(InvalidAction, match="torus_action"):
        torus_action(3, 4, 0.5, 1.0)


def test_crt_isomorphism_preserves_adjacency_and_lengths():
    mapping, gp, gc = product_circulant_isomorphism(3, 4, 1.0, 2.0)
    assert sorted(mapping) == list(range(12))
    # push every product edge through the map and find it in the circulant
    remaining = [(min(u, v), max(u, v), round(length, 12)) for (u, v), length in zip(gc.ends.tolist(), gc.lengths.tolist())]
    for (u, v), length in zip(gp.ends.tolist(), gp.lengths.tolist()):
        u, v = mapping[u], mapping[v]
        key = (min(u, v), max(u, v), round(length, 12))
        assert key in remaining
        remaining.remove(key)
    assert remaining == []
    # independent oracle: the two weighted multigraphs are isomorphic
    matcher = nx.algorithms.isomorphism.categorical_multiedge_match("length", None)
    assert nx.is_isomorphic(_to_nx(gp), _to_nx(gc), edge_match=matcher)


def test_crt_map_matches_index_formula():
    mapping, _, _ = product_circulant_isomorphism(3, 4, 1.0, 1.0)
    for i in range(3):
        for j in range(4):
            assert mapping[product_vertex_id(i, j, 4)] == crt_index(3, 4, i, j)


def test_isomorphism_check_rejects_non_coprime():
    with pytest.raises(Exception) as exc:
        product_circulant_isomorphism(2, 4)
    assert exc.type.__name__ in ("NotCoprime", "IsomorphismCheckFailed")
