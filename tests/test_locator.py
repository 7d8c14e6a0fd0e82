"""The shared refinement core `_refine_steps`, checked against plain bisection.

Both locators close each jump of a step function by regula falsi with exact
levels; a plain bisection of the same step function, kept here, is the
reference for the roots, their orders and the number of evaluations.
"""

import math
import tracemalloc
import warnings

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qgsym import character_blocks, find_roots_real, find_roots_unitary, io, standard_conditions, torus_action
from qgsym.cli import main
from qgsym.errors import GridTooCoarse
from qgsym.quotient import torus_secular_system
from qgsym.spectra import (
    K_MIN,
    MAX_STACK_BYTES,
    _eigenphase_steps,
    _eigenphases,
    _refine_steps,
    eigenphase_counter,
)

TOL = 1e-10


def _bisect(step, ks, levels, tol):
    """Every jump of `step` on the grid `ks`, as (k, size), by plain bisection
    to width `tol`; a level of None takes the level of the cell's left end."""
    out = []
    for i in np.flatnonzero(levels[1:] != levels[:-1]):
        cells = [(float(ks[i]), int(levels[i]), float(ks[i + 1]), int(levels[i + 1]))]
        while cells:
            a, na, b, nb = cells.pop()
            if na == nb:
                continue
            if b - a < tol:
                out.append((0.5 * (a + b), nb - na))
                continue
            m = 0.5 * (a + b)
            nm = step(m)
            nm = na if nm is None else nm
            cells += [(m, nm, b, nb), (a, na, m, nm)]
    return out


def _eval_bound(step):
    """Largest number of refinement evaluations allowed for one jump."""
    return 2 * math.ceil(math.log2(step / TOL)) + 2


def _block(n1, n2, l1, l3, pick):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
        g, action = torus_action(n1, n2, l3, l1)
    blocks = character_blocks(g, standard_conditions(g), action)
    return blocks[sorted(blocks)[pick % len(blocks)]]


def _assert_same_jumps(got, want):
    assert [n for _, n in got] == [n for _, n in want]
    for (k, _), (k_ref, _) in zip(got, want):
        assert abs(k - k_ref) <= 2 * TOL


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    l1=st.floats(0.3, 1.0),
    l3=st.floats(0.3, 1.0),
    pick=st.integers(0, 35),
)
@example(n1=3, n2=4, l1=0.5, l3=1.0, pick=0)  # roots at multiples of pi/4, of order up to 3
@example(n1=4, n2=6, l1=0.5, l3=1 / math.sqrt(2), pick=7)
@example(n1=2, n2=2, l1=0.5, l3=0.5, pick=3)
def test_unitary_refinement_equals_count_bisection(n1, n2, l1, l3, pick):
    sys_ = _block(n1, n2, l1, l3, pick)
    k_max = 6.0
    s = find_roots_unitary(sys_, k_max, tol=TOL)
    count = eigenphase_counter(sys_)
    step = s.meta["grid_step"]
    ks = np.append(np.arange(K_MIN, k_max, step), k_max)
    want = _bisect(count, ks, np.array([count(k) for k in ks]), TOL)
    _assert_same_jumps([(r.k, r.order) for r in s.roots], want)
    assert s.count() == count(k_max)
    assert s.meta["evaluations"] - len(ks) <= _eval_bound(step) * len(want)


def test_roots_on_grid_points_and_at_multiples_of_pi_over_4():
    # every grid point past K_MIN is a multiple of pi/8, and several roots of
    # the 3x4 blocks at L1 = 0.5, L3 = 1 are multiples of pi/4, so evaluations
    # land on roots; such a jump closes in one step past the root
    ks = np.append(K_MIN, np.arange(1, 81) * (math.pi / 8))
    on_grid = 0
    for pick in range(12):
        sys_ = _block(3, 4, 0.5, 1.0, pick)
        step, levels, values = _eigenphase_steps(sys_, ks)
        calls = []
        counted = lambda k: calls.append(k) or step(k)
        got, evaluations = _refine_steps(counted, ks, levels, values, TOL)
        want = _bisect(lambda k: step(k)[0], ks, levels, TOL)
        _assert_same_jumps(got, want)
        assert sum(n for _, n in got) == eigenphase_counter(sys_)(ks[-1])
        assert evaluations == len(ks) + len(calls) <= len(ks) + _eval_bound(math.pi / 8) * len(want)
        for k, _ in got:
            j = round(k / (math.pi / 8))
            if abs(k - j * math.pi / 8) < TOL:
                on_grid += 1
                assert sum(ks[j] < x < ks[j] + 1e-6 for x in calls) == 1
    assert on_grid >= 100


def test_coarse_cell_holding_several_roots_is_split():
    # the derived cell of 0.9 pi / L_max holds several roots of one block;
    # plain count bisection on a 0.01 grid is the reference
    sys_ = _block(3, 4, 0.5, 1 / math.sqrt(2), 5)
    s = find_roots_unitary(sys_, 10.0, tol=TOL)
    cells = np.append(np.arange(K_MIN, 10.0, s.meta["grid_step"]), 10.0)
    per_cell = np.histogram([r.k for r in s.roots], bins=cells)[0]
    assert per_cell.max() >= 2
    ks = np.append(np.arange(K_MIN, 10.0, 0.01), 10.0)
    step, levels, _ = _eigenphase_steps(sys_, ks)
    want = _bisect(lambda k: step(k)[0], ks, levels, TOL)
    _assert_same_jumps([(r.k, r.order) for r in s.roots], want)


@settings(max_examples=25, deadline=None)
@given(
    amps=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    freqs=st.tuples(st.floats(1.0, 2.0), st.floats(2.5, 3.5), st.floats(4.0, 5.0)),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
    offset=st.floats(-0.5, 0.5),
)
def test_real_refinement_equals_sign_bisection(amps, freqs, phases, offset):
    def f(k):
        return offset + sum(a * np.sin(w * k + p) for a, w, p in zip(amps, freqs, phases))

    grid_step, k_max = 0.01, 10.0
    try:
        s = find_roots_real(f, k_max, grid_step, TOL, complex_fn=f)
    except GridTooCoarse:
        assume(False)  # two crossings in one cell: refused, not located
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    signs = np.sign(f(ks))
    assume(np.all(signs != 0))
    want = _bisect(lambda k: int(np.sign(f(k))) or None, ks, signs, TOL)
    assert [r.order for r in s.roots] == [1] * len(want)
    _assert_same_jumps([(r.k, 1) for r in s.roots], [(k, 1) for k, _ in want])
    assert s.meta["evaluations"] - len(ks) <= _eval_bound(grid_step) * len(want)


def test_real_root_on_a_grid_point_takes_one_step():
    # f = 0.0 exactly at the grid point 0.5 brackets the root with a value of
    # exactly 0 at an end: regula falsi closes it, no bisection
    f = lambda k: k - 0.5
    s = find_roots_real(f, 1.0, 0.1, TOL, complex_fn=f)
    assert [r.order for r in s.roots] == [1]
    assert abs(s.roots[0].k - 0.5) < TOL
    assert s.meta["evaluations"] == 10 + 1


def _spectrum_of_the_3x4_document(tmp_path, name, *flags):
    g, action = torus_action(3, 4, 1.0, 0.5)
    doc, out = tmp_path / "torus.json", tmp_path / name
    io.save_graph(str(doc), g, standard_conditions(g), action)
    res = CliRunner().invoke(main, ["spectrum", str(doc), "--kmax", "10", *flags, "-o", str(out)])
    assert res.exit_code == 0, res.output
    return out, character_blocks(g, standard_conditions(g), action)


def test_spectrum_header_counts_evaluations(tmp_path):
    # the 3x4 torus document at --kmax 10: 7 runs of 5 grid points, cells
    # of 0.9 pi / L_max, and about four refinement evaluations per root;
    # 417 in all
    out, blocks = _spectrum_of_the_3x4_document(tmp_path, "full.csv")
    s = io.load_spectrum(str(out))
    assert int(s.meta["blocks"]) == 12
    assert int(s.meta["evaluations"]) <= 450
    assert s.count() == sum(eigenphase_counter(b)(10.0) for b in blocks.values())


def test_spectrum_grid_flag_is_accepted_and_ignored(tmp_path):
    # old scripts pass --grid; the locator derives its cell, so every value
    # writes the same file
    runs = {"0.05.csv": ["--grid", "0.05"], "0.01.csv": ["--grid", "0.01"], "none.csv": []}
    outs = [_spectrum_of_the_3x4_document(tmp_path, name, *flags)[0] for name, flags in runs.items()]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert "--grid" not in CliRunner().invoke(main, ["spectrum", "--help"]).output


def test_stacked_grid_of_the_dense_torus_stays_under_the_cap():
    # the grid of the 96x96 3x4 system at k_max 15 is 301 matrices, 44 MB
    # stacked at once; in stacks of MAX_STACK_BYTES it peaks under 8 MB
    sys_ = torus_secular_system(3, 4, 0.5, 1.0)
    ks = np.append(np.arange(K_MIN, 15.0, 0.05), 15.0)
    assert len(ks) * sys_.S.size * 16 > 10 * MAX_STACK_BYTES
    tracemalloc.start()
    try:
        phases = _eigenphases(sys_, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phases.shape == (len(ks), 96)
    assert peak < 8e6
