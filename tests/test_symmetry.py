import pytest

from qgsym import (
    circulant_graph,
    cycle_graph,
    fundamental_domain,
    lift_action_subdivided,
    make_graph,
    orbit,
    subdivide_midpoints,
    validate_action,
)
from qgsym.actions import GeneratorMaps, GraphAction
from qgsym.errors import CoverageGap, NotTransitive


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


def test_orbit_covers_cycle_edges():
    g, a = cycle_graph(5, 1.0)
    assert sorted(orbit(a, 0)) == [0, 1, 2, 3, 4]


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


def test_fundamental_domain_of_cycle():
    g, a = cycle_graph(3, 1.0)
    sg, sa = lift_action_subdivided(g, a)
    fd = fundamental_domain(sg, sa, 0)
    assert fd.seed == 0
    assert len(fd.half_edges) == 2  # one half per incident original edge
    # every boundary dummy carries the group element gluing it to the next copy
    assert all(isinstance(el, tuple) for _, el in fd.boundary)
    # the shifted copies of the domain tile all half-edges exactly once
    tiles = set()
    for el in sa.elements():
        m = sa.maps(el)
        tiles.update(m.edge_perm[h] for h in fd.half_edges)
    assert tiles == set(range(sg.n_edges))


def test_fundamental_domain_requires_original_seed():
    g, a = cycle_graph(3, 1.0)
    sg, sa = lift_action_subdivided(g, a)
    with pytest.raises(NotTransitive):
        fundamental_domain(sg, sa, 4)  # a dummy vertex


def test_fundamental_domain_needs_subdivision():
    g, a = cycle_graph(3, 1.0)
    with pytest.raises(CoverageGap):
        fundamental_domain(g, a, 0)


def test_non_transitive_action_rejected():
    # C_6 rotation acting on a 6-cycle, restricted to the even subgroup:
    # vertex orbits split, so no single-seed fundamental domain exists
    g, a = cycle_graph(6, 1.0)
    sub = GraphAction(orders=(3,), generators=(a.maps((2,)),))
    sg, ssub = lift_action_subdivided(g, sub)
    with pytest.raises(NotTransitive):
        fundamental_domain(sg, ssub, 0)
