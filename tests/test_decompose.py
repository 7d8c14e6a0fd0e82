import itertools

import numpy as np
import pytest

from qgsym import (
    Irrep,
    circulant_graph,
    cycle_graph,
    l2_inner,
    l2_norm_sq,
    lift_action_subdivided,
    project,
    pull_back,
    quasi_periodicity_residual,
    random_function,
    torus_action,
)
from qgsym.decompose import SampledFunction
from qgsym.errors import OrientationMismatch


@pytest.mark.parametrize("seed, edges, samples", [(0, 3, 1), (7, 4, 5), (2024, 12, 100), (5, 24, 33)])
def test_random_function_equals_the_sum_of_its_two_draws(seed, edges, samples):
    g, _ = cycle_graph(edges, 1.0)
    f = random_function(g, samples, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = rng.standard_normal((edges, samples)) + 1j * rng.standard_normal((edges, samples))
    assert f.values.dtype == want.dtype and f.values.tobytes() == want.tobytes()


def _torus():
    return torus_action(2, 3, 0.5, 1.0)


def test_l2_norm_of_constant():
    g, _ = cycle_graph(4, 0.5)
    f = SampledFunction(g, np.full((g.n_edges, 50), 2.0, dtype=complex))
    assert l2_norm_sq(f) == pytest.approx(4.0 * g.total_length)


def test_l2_inner_conjugate_symmetry():
    g, _ = cycle_graph(3, 1.0)
    rng = np.random.default_rng(7)
    f = random_function(g, 40, rng)
    h = random_function(g, 40, rng)
    assert l2_inner(f, h) == pytest.approx(np.conj(l2_inner(h, f)))
    assert l2_inner(f, f).real == pytest.approx(l2_norm_sq(f))


def test_sample_shape_validation():
    g, _ = cycle_graph(3, 1.0)
    with pytest.raises(OrientationMismatch):
        SampledFunction(g, np.zeros((2, 10)))


def test_pull_back_group_law():
    g, a = _torus()
    rng = np.random.default_rng(3)
    f = random_function(g, 30, rng)
    g10 = pull_back(f, a, (1, 0))
    g11 = pull_back(g10, a, (0, 1))
    direct = pull_back(f, a, (1, 1))
    assert np.allclose(g11.values, direct.values, atol=1e-14)


def test_pull_back_identity():
    g, a = _torus()
    rng = np.random.default_rng(4)
    f = random_function(g, 30, rng)
    assert np.allclose(pull_back(f, a, (0, 0)).values, f.values)


def test_projection_reconstruction_and_parseval():
    g, a = _torus()
    rng = np.random.default_rng(11)
    f = random_function(g, 60, rng)
    comps = [
        project(f, a, Irrep((2, 3), (s, t))) for s in range(2) for t in range(3)
    ]
    total = sum(c.values for c in comps)
    norm = np.sqrt(l2_norm_sq(f))
    assert np.max(np.abs(total - f.values)) / norm < 1e-12
    parseval = sum(l2_norm_sq(c) for c in comps)
    assert abs(parseval - l2_norm_sq(f)) / l2_norm_sq(f) < 1e-12


def test_projection_is_idempotent():
    g, a = _torus()
    rng = np.random.default_rng(5)
    f = random_function(g, 40, rng)
    rho = Irrep((2, 3), (1, 2))
    once = project(f, a, rho)
    twice = project(once, a, rho)
    assert np.allclose(once.values, twice.values, atol=1e-13)


def test_components_transform_by_their_phase():
    g, a = _torus()
    rng = np.random.default_rng(6)
    f = random_function(g, 40, rng)
    for s in range(2):
        for t in range(3):
            rho = Irrep((2, 3), (s, t))
            comp = project(f, a, rho)
            assert quasi_periodicity_residual(comp, a, rho) < 1e-13


def test_projection_on_single_cycle():
    g0, a0 = cycle_graph(4, 1.0)
    g, a = lift_action_subdivided(g0, a0)
    rng = np.random.default_rng(9)
    f = random_function(g, 50, rng)
    comps = [project(f, a, Irrep((4,), (s,))) for s in range(4)]
    total = sum(c.values for c in comps)
    assert np.max(np.abs(total - f.values)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))
    for s, c in enumerate(comps):
        assert quasi_periodicity_residual(c, a, Irrep((4,), (s,))) < 1e-13


def _project_by_definition(f, a, irrep):
    """The average of irrep(g) * pull_back(f, g) over the group."""
    acc = np.zeros_like(f.values)
    for element in a.elements():
        acc += irrep.value(element) * pull_back(f, a, element).values
    return acc / a.group_size


@pytest.mark.parametrize(
    "graph_action",
    [
        _torus(),
        lift_action_subdivided(*cycle_graph(4, 1.0)),
        # rotation by 4 reverses the antipodal edges: edges with a stabiliser
        circulant_graph(8, [1, 4], [1.0, 1.3]),
    ],
    ids=["torus-2x3", "subdivided-cycle-4", "circulant-8-antipodal"],
)
def test_projection_equals_its_definition(graph_action):
    # `project` sums the average on one edge per orbit and carries it by the
    # character; it agrees with the average over the whole group for every
    # label, and the result is equivariant
    g, a = graph_action
    f = random_function(g, 13, np.random.default_rng(8))
    for labels in itertools.product(*map(range, a.orders)):
        rho = Irrep(a.orders, labels)
        comp = project(f, a, rho)
        assert np.max(np.abs(comp.values - _project_by_definition(f, a, rho))) < 1e-13
        assert quasi_periodicity_residual(comp, a, rho) < 1e-14
