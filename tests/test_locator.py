"""The shared refinement core `_refine_steps`, checked against plain bisection.

Both locators close each jump of a step function by regula falsi with exact
levels, in rounds over every bracket of a family; a plain bisection of the
same step function, kept here, is the reference for the roots, their orders
and the number of evaluations.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qgsym import (
    SecularSystem,
    character_blocks,
    find_roots_real,
    find_roots_real_family,
    find_roots_unitary,
    io,
    standard_conditions,
    torus_action,
)
from qgsym.cli import main
from qgsym.errors import GridTooCoarse
from qgsym.quotient import torus_secular_system
from qgsym.locators import K_MIN, UnitaryFamily, _eigenphase_steps, _eigenphases
from qgsym.spectra import MAX_BATCH_BYTES, _grid_cells, _refine_steps

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


def _count_steps(sys_, ks):
    """The batched step evaluator of N(k) for `sys_` alone and at its full
    size, its levels and what each point sees ahead and behind on `ks`, and
    its level at one point, for `_bisect`."""
    which = np.zeros(len(ks), dtype=int)
    step, levels, ahead, behind = _eigenphase_steps(sys_.S[None], sys_.lengths[None], which, ks)
    return step, which, levels, (ahead, behind), lambda k: int(step(np.zeros(1, dtype=int), np.array([k]))[0][0])


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
@example(n1=3, n2=1, l1=1.0, l3=1 / 3, pick=1)  # a double root at pi split into brackets wider than tol
def test_unitary_refinement_equals_count_bisection(n1, n2, l1, l3, pick):
    # the reference counts the uncontracted block, so it does not go
    # through the contraction that the locator uses
    sys_ = _block(n1, n2, l1, l3, pick)
    k_max = 6.0
    s = find_roots_unitary(sys_, k_max, tol=TOL)
    step = s.meta["grid_step"]
    ks = np.append(np.arange(K_MIN, k_max, step), k_max)
    _, _, levels, _, count_at = _count_steps(sys_, ks)
    want = _bisect(count_at, ks, levels, TOL)
    _assert_same_jumps([(r.k, r.order) for r in s.roots], want)
    assert s.count() == levels[-1]
    assert s.meta["evaluations"] - len(ks) <= _eval_bound(step) * len(want)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 6), ratio=st.floats(1.0, 50.0))
@example(seed=3, size=6, ratio=50.0)
def test_reaches_hold_against_count_bisection(seed, size, ratio):
    # a random unitary S (QR of a complex Gaussian) with bond lengths from
    # 1 / ratio to 1: at every point, count bisection finds no jump where
    # the reaches say the level holds, and at least m jumps within the
    # bound on the next m (and the last m) jumps
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    lengths = np.sort(np.concatenate([[1.0 / ratio, 1.0], rng.uniform(1.0 / ratio, 1.0, size - 2)]))
    sys_ = SecularSystem(q * (np.diag(r) / np.abs(np.diag(r))), rng.permutation(lengths))
    k_max = 12.0
    s = find_roots_unitary(sys_, k_max, tol=TOL)
    ks = np.append(np.arange(K_MIN, k_max, s.meta["grid_step"]), k_max)
    step, _, levels, _, count_at = _count_steps(sys_, ks)
    want = _bisect(count_at, ks, levels, TOL)
    _assert_same_jumps([(r.k, r.order) for r in s.roots], want)
    assert s.meta["evaluations"] - len(ks) <= _eval_bound(s.meta["grid_step"]) * len(want)

    jumps = np.array([k for k, _ in want])
    sizes = np.array([n for _, n in want])
    xs = np.sort(np.concatenate([ks, rng.uniform(K_MIN, k_max, 20), jumps + 1e-7, jumps - 1e-7]))
    xs = xs[(xs >= K_MIN) & (xs <= k_max)]
    _, (_, ahead), (_, behind) = step(np.zeros(len(xs), dtype=int), xs)
    for x, forward, backward in zip(xs, ahead, behind):
        assert not np.any((x - backward[0] + TOL < jumps) & (jumps < x + forward[0] - TOL))
        for m in range(1, size + 1):
            if x + forward[m] < k_max - TOL:
                assert sizes[(x < jumps + TOL) & (jumps <= x + forward[m] + TOL)].sum() >= m
            if x - backward[m] > K_MIN + TOL:
                assert sizes[(x - backward[m] - TOL < jumps) & (jumps <= x + TOL)].sum() >= m


def test_roots_on_grid_points_and_at_multiples_of_pi_over_4():
    # every grid point past K_MIN is a multiple of pi/8, and several roots of
    # the 3x4 blocks at L1 = 0.5, L3 = 1 are multiples of pi/4, so evaluations
    # land on roots; the reaches of such a point close its jump with no step
    ks = np.append(K_MIN, np.arange(1, 81) * (math.pi / 8))
    on_grid = 0
    for pick in range(12):
        sys_ = _block(3, 4, 0.5, 1.0, pick)
        step, which, levels, sides, count_at = _count_steps(sys_, ks)
        calls = []
        counted = lambda w, k: calls.extend(k.tolist()) or step(w, k)
        jumps, refined, _ = _refine_steps(counted, _grid_cells(which, ks, levels, *sides), TOL, 1)
        got, evaluations = jumps[0], len(ks) + int(refined[0])
        want = _bisect(count_at, ks, levels, TOL)
        _assert_same_jumps(got, want)
        assert sum(n for _, n in got) == UnitaryFamily([sys_]).counts(ks[-1])[0]
        assert evaluations == len(ks) + len(calls) <= len(ks) + _eval_bound(math.pi / 8) * len(want)
        for k, _ in got:
            j = round(k / (math.pi / 8))
            if abs(k - j * math.pi / 8) < TOL:
                on_grid += 1
                assert not any(ks[j] - 1e-6 < x < ks[j] + 1e-6 for x in calls)
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
    _, _, levels, _, count_at = _count_steps(sys_, ks)
    want = _bisect(count_at, ks, levels, TOL)
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
        s = find_roots_real(f, k_max, grid_step, TOL)
    except GridTooCoarse:
        assume(False)  # two crossings in one cell: refused, not located
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    signs = np.sign(f(ks))
    assume(np.all(signs != 0))
    want = _bisect(lambda k: int(np.sign(f(k))) or None, ks, signs, TOL)
    assert [r.order for r in s.roots] == [1] * len(want)
    _assert_same_jumps([(r.k, 1) for r in s.roots], [(k, 1) for k, _ in want])
    assert s.meta["evaluations"] - len(ks) <= _eval_bound(grid_step) * len(want)


_TERMS = st.tuples(
    st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    st.tuples(st.floats(1.0, 2.0), st.floats(2.5, 3.5), st.floats(4.0, 5.0)),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
    st.floats(-0.5, 0.5),
)


@settings(max_examples=20, deadline=None)
@given(members=st.lists(_TERMS, min_size=2, max_size=5), grid_step=st.sampled_from([0.01, 0.001]))
def test_a_real_family_equals_its_members_run_alone(members, grid_step):
    # at grid_step 0.001 each member's grid of 10^4 points goes in two calls
    amps, freqs, phases = (np.array([m[j] for m in members]) for j in range(3))
    offsets = np.array([m[3] for m in members])

    def f(which, k):
        return offsets[which] + sum(amps[which, j] * np.sin(freqs[which, j] * k + phases[which, j]) for j in range(3))

    alone = []
    for m in range(len(members)):
        try:
            alone.append(find_roots_real(lambda k: f(m, k), 10.0, grid_step, TOL))
        except GridTooCoarse as exc:
            alone.append(exc)
    refused = [s for s in alone if isinstance(s, GridTooCoarse)]
    if refused:
        # the first refused member's refusal, as if they ran one after another
        with pytest.raises(GridTooCoarse, match=re.escape(str(refused[0]))):
            find_roots_real_family(f, len(members), 10.0, grid_step, TOL)
        return
    family = find_roots_real_family(f, len(members), 10.0, grid_step, TOL)
    for got, want in zip(family, alone):
        assert [(r.k, r.order) for r in got.roots] == [(r.k, r.order) for r in want.roots]
        assert got.meta == want.meta


def test_a_real_family_raises_the_refusal_of_its_first_refused_member():
    # members 1 and 2 each hide two crossings in one cell of the 0.1 grid,
    # member 1 the later pair; solved one after another, member 1 is refused
    # first, so the family raises its refusal
    centers, depths = np.array([5.0, 7.03, 3.03]), np.array([1.0, 1e-4, 1e-4])
    f = lambda which, k: (k - centers[which]) ** 2 - depths[which]
    with pytest.raises(GridTooCoarse) as alone:
        find_roots_real(lambda k: f(1, k), 10.0, 0.1, TOL)
    assert "two sign changes near k=7.0" in str(alone.value)
    with pytest.raises(GridTooCoarse, match=re.escape(str(alone.value))):
        find_roots_real_family(f, 3, 10.0, 0.1, TOL)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    blocks=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.floats(0.3, 1.0), st.floats(0.3, 1.0), st.integers(0, 35)),
        min_size=2,
        max_size=5,
    )
)
@example(blocks=[(3, 4, 0.5, 1.0, pick) for pick in range(12)])  # roots of order 3 and more
def test_a_unitary_family_equals_its_members_run_alone(blocks):
    # character blocks of tori are all 8x8, contracted to 4x4; lengths
    # differ between tori, so the members' cells and grids differ
    systems = [_block(*b) for b in blocks]
    family = UnitaryFamily(systems).roots(6.0, tol=TOL)
    for got, sys_ in zip(family, systems):
        want = find_roots_unitary(sys_, 6.0, tol=TOL)
        assert [(r.k, r.order) for r in got.roots] == [(r.k, r.order) for r in want.roots]
        assert got.meta == want.meta
    if blocks[0][:4] == (3, 4, 0.5, 1.0):
        assert max(r.order for s in family for r in s.roots) >= 3


def test_real_root_on_a_grid_point_takes_one_step():
    # f = 0.0 exactly at the grid point 0.5 brackets the root with a value of
    # exactly 0 at an end: regula falsi closes it, no bisection
    f = lambda k: k - 0.5
    s = find_roots_real(f, 1.0, 0.1, TOL)
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
    # the 3x4 torus document at --kmax 10: 6 runs of 5 grid points, cells
    # of 0.9 pi / L_max of the contracted 4x4 blocks, and about two
    # refinement evaluations per root; 181 in all
    out, blocks = _spectrum_of_the_3x4_document(tmp_path, "full.csv")
    s = io.load_spectrum(str(out))
    assert int(s.meta["blocks"]) == 12
    assert int(s.meta["evaluations"]) <= 450
    assert s.count() == sum(UnitaryFamily(list(blocks.values())).counts(10.0))


def test_spectrum_refines_every_block_in_stacked_rounds(tmp_path, monkeypatch):
    # the 6 distinct blocks of the 3x4 document, contracted from 8x8 to 4x4,
    # are one family: their grids go to one stacked eigvals call and each of
    # the 6 refinement rounds to one call, for the same 181 evaluations as
    # block by block; the certificate adds one call, each of the 12 blocks
    # at K_MIN and at k_max
    eigvals, shapes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
    out, _ = _spectrum_of_the_3x4_document(tmp_path, "full.csv")
    s = io.load_spectrum(str(out))
    assert (s.meta["evaluations"], s.meta["rounds"]) == (181, 6)
    assert len(shapes) == 1 + 6 + 1
    assert all(len(shape) == 3 and shape[1:] == (4, 4) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == 181 + 2 * 12


def test_spectrum_grid_flag_is_accepted_and_ignored(tmp_path):
    # old scripts pass --grid; the locator derives its cell, so every value
    # writes the same file
    runs = {"0.05.csv": ["--grid", "0.05"], "0.01.csv": ["--grid", "0.01"], "none.csv": []}
    outs = [_spectrum_of_the_3x4_document(tmp_path, name, *flags)[0] for name, flags in runs.items()]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert "--grid" not in CliRunner().invoke(main, ["spectrum", "--help"]).output


def test_stacked_grid_of_the_dense_torus_stays_under_the_cap():
    # the grid of the 96x96 3x4 system at k_max 15 is 301 matrices, 44 MB
    # stacked at once; in stacks of MAX_BATCH_BYTES it peaks under 8 MB
    sys_ = torus_secular_system(3, 4, 0.5, 1.0)
    ks = np.append(np.arange(K_MIN, 15.0, 0.05), 15.0)
    assert len(ks) * sys_.S.size * 16 > 10 * MAX_BATCH_BYTES
    tracemalloc.start()
    try:
        phases = _eigenphases(sys_.S[None], sys_.lengths[None], np.zeros(len(ks), dtype=int), ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phases.shape == (len(ks), 96)
    assert peak < 8e6


def test_real_locator_ends_at_a_tol_below_the_float_spacing():
    # near pi the floats are 4.4e-16 apart, so no bracket is ever narrower
    # than 1e-300; one with no float strictly inside it is closed instead
    s = find_roots_real(np.sin, 10.0, 0.1, 1e-300)
    assert [r.order for r in s.roots] == [1, 1, 1]
    assert s.ks() == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], rel=0, abs=1e-14)


@pytest.mark.parametrize("tol", ["2e-16", "1e-300"])
@pytest.mark.parametrize("command", ["factors", "spectrum"])
def test_cli_ends_at_a_tol_below_the_float_spacing(tmp_path, command, tol):
    # both locators, at k_max 3: the same spectrum as at the default tol
    runner, doc = CliRunner(), str(tmp_path / "cycle.json")
    assert runner.invoke(main, ["build", "cycle", "--n", "3", "--len", "1", "-o", doc]).exit_code == 0
    args = {
        "factors": ["factors", "--n1", "2", "--n2", "2", "--l1", "0.5", "--l3", "0.7"],
        "spectrum": ["spectrum", doc],
    }[command] + ["--kmax", "3"]
    fine, default = str(tmp_path / "fine.csv"), str(tmp_path / "default.csv")
    for out, flags in ((fine, ["--tol", tol]), (default, [])):
        res = runner.invoke(main, [*args, *flags, "-o", out])
        assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["compare", fine, default, "--tol", "1e-9"])
    assert res.exit_code == 0, res.output
    assert io.load_spectrum(fine).count() > 0
