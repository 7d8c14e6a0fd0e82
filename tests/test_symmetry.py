from qgsym import (
    circulant_graph,
    cycle_graph,
    lift_action_subdivided,
    make_graph,
    validate_action,
)
from qgsym.actions import GeneratorMaps, GraphAction


def test_validate_cycle_action():
    g, a = cycle_graph(4, 1.0)
    rep = validate_action(g, a)
    assert rep.valid
    assert rep.violations == ()
    # the point-topology axioms are reported as vacuously satisfied,
    # not silently claimed
    assert set(rep.vacuous) == {"continuity", "discreteness", "co-compactness"}


def test_validate_rejects_length_breaking_map():
    g = make_graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
    # swap the two parallel edges of unequal length: adjacency fine, length not
    gm = GeneratorMaps(
        vertex_perm=(0, 1), edge_perm=(1, 0), edge_flip=(False, False)
    )
    a = GraphAction(orders=(2,), generators=(gm,))
    rep = validate_action(g, a)
    assert not rep.valid
    assert any("length" in v for v in rep.violations)


def test_element_maps_flip_parity():
    # C_4(2): the rotation carries edge 0 = (0, 2) onto edge 1 = (1, 3) and
    # edge 1 onto edge 0 reversed
    g, a = circulant_graph(4, [2], [1.0])
    once = a.maps((1,))
    assert once.edge_perm == (1, 0) and once.edge_flip == (False, True)
    # the half turn fixes both antipodal edges, reversing each
    twice = a.maps((2,))
    assert twice.edge_perm == (0, 1) and twice.edge_flip == (True, True)
    assert a.maps((4,)) == a.maps((0,)) == GeneratorMaps((0, 1, 2, 3), (0, 1), (False, False))


def test_validate_requires_one_order_per_generator():
    g, a = cycle_graph(4, 1.0)
    for bad in (GraphAction((4, 2), a.generators), GraphAction((), ())):
        rep = validate_action(g, bad)
        assert [axiom for axiom, _ in rep.violations] == ["group_law"]


def test_lift_action_subdivided_structure():
    g, a = cycle_graph(3, 1.0)
    sg, sa = lift_action_subdivided(g, a)
    assert sg.n_edges == 2 * g.n_edges
    rep = validate_action(sg, sa)
    assert rep.valid
    # rotating by one step maps each half-edge onto a half-edge of equal length
    m = sa.maps((1,))
    assert sorted(m.edge_perm) == list(range(sg.n_edges))
