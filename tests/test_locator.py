"""The refinement loops of the locators, checked against plain bisection.

The unitary locator closes each jump of a step function by the
Anderson-Björk modified regula falsi with exact levels (`_refine_steps`),
and the real locator each falling sign change by Newton steps under the ITP
bound (`_newton_brackets`), in rounds over every bracket of a family; a
plain bisection of the same step function, kept here, is the reference for
the roots, their orders and the number of evaluations, and a loop over the
closed brackets is the reference for their assembly.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qgsym import (
    QuotientFamily,
    SecularSystem,
    character_blocks,
    find_roots_real,
    find_roots_unitary,
    io,
    quotient_system,
    standard_conditions,
    torus_action,
)
from qgsym.cli import _systems_from_doc, main
from qgsym.quotient import QuotientSpec, torus_secular_system
from qgsym.locators import GAMMA, K_MIN, PHASE_EPS, UnitaryFamily, _eigenphase_steps, _unitary_phases
from qgsym.spectra import ITP_N0, MAX_BATCH_BYTES, _grid_cells, _jumps, _newton_brackets, _refine_steps

TOL = 1e-10


def _bisect(step, ks, levels, tol):
    """Every jump of `step` on the grid `ks`, as (k, size), by plain bisection
    to width `tol`."""
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
            cells += [(m, nm, b, nb), (a, na, m, nm)]
    return out


def _count_steps(sys_, ks):
    """The batched step evaluator of N(k) for `sys_` alone and at its full
    size, its levels and what each point sees ahead and behind on `ks`, and
    its level at one point, for `_bisect`."""
    which = np.zeros(len(ks), dtype=int)
    step, levels, sides = _eigenphase_steps(sys_.S[None], sys_.lengths[None], which, ks)
    return step, which, levels, sides(), lambda k: int(step(np.zeros(1, dtype=int), np.array([k]))[0][0])


def _eval_bound(step):
    """Largest number of refinement evaluations allowed for one jump."""
    return 2 * math.ceil(math.log2(step / TOL)) + 2


def _block(n1, n2, l1, l3, pick):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1, 2 cycles are multigraphs
        g, action = torus_action(n1, n2, l3, l1)
    blocks = character_blocks(g, standard_conditions(g), action)
    return blocks[sorted(blocks)[pick % len(blocks)]]


def _by_member(jumps, members):
    """The jump arrays (which, k, size) of `_refine_steps` as a list of
    (k, size) per member."""
    which, k, size = jumps
    return [list(zip(k[which == m].tolist(), size[which == m].tolist())) for m in range(members)]


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
    _assert_same_jumps(list(zip(s.k.tolist(), s.order.tolist())), want)
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
    _assert_same_jumps(list(zip(s.k.tolist(), s.order.tolist())), want)
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
        got, evaluations = _by_member(jumps, 1)[0], len(ks) + int(refined[0])
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
    per_cell = np.histogram(s.k, bins=cells)[0]
    assert per_cell.max() >= 2
    ks = np.append(np.arange(K_MIN, 10.0, 0.01), 10.0)
    _, _, levels, _, count_at = _count_steps(sys_, ks)
    want = _bisect(count_at, ks, levels, TOL)
    _assert_same_jumps(list(zip(s.k.tolist(), s.order.tolist())), want)


def _level(values):
    """The level of a sign step: 1 where f >= 0, else 0."""
    return (np.asarray(values) >= 0.0).astype(int)


def _sign_roots(f, members, ks, tol):
    """Every sign change of `members` functions on the grid `ks`, closed by
    `_refine_steps` with the level f >= 0 as the step, f as the value and
    no reaches: each member's jumps as a list of (k, size), and the points
    and the rounds that evaluated it.  `f(which, k)` takes arrays of
    members and points; its first call is the grid of every member."""
    which, k = np.repeat(np.arange(members), len(ks)), np.tile(ks, members)
    values = np.asarray(f(which, k), dtype=float)
    side = (values[:, None], np.zeros((len(values), 1)))

    def sign_at(which, k):
        fk = np.asarray(f(which, k), dtype=float)[:, None]
        side = (fk, np.zeros_like(fk))  # the level holds for 0, and no jump is bounded
        return _level(fk[:, 0]), side, side

    jumps, calls, rounds = _refine_steps(sign_at, _grid_cells(which, k, _level(values), side, side), tol, members)
    return _by_member(jumps, members), calls, rounds


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
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    assume(np.all(f(ks) != 0))
    want = _bisect(lambda k: int(_level(f(k))), ks, _level(f(ks)), TOL)
    (jumps,), (calls,), _ = _sign_roots(lambda which, k: f(k), 1, ks, TOL)
    assert [abs(n) for _, n in jumps] == [1] * len(want)
    _assert_same_jumps([(k, 1) for k, _ in jumps], [(k, 1) for k, _ in want])
    assert calls <= _eval_bound(grid_step) * len(want)


def test_triple_roots_in_rounding_noise_are_closed_at_one_of_their_sign_changes():
    # sin k + sin 3k + sin 4k is exactly 0.0 at the float pi, where it has a
    # triple root (so has 3 pi): there f is about -6 (k - pi)^3 and rounding
    # sets its sign within about 3e-6 of the root.  The locator and sign
    # bisection, both with the level f >= 0, each close one of the sign
    # changes there, and agree within tol at every simple root
    def f(k):
        return np.sin(k) + np.sin(3 * k) + np.sin(4 * k)

    assert f(np.array([math.pi]))[0] == 0.0
    grid_step, k_max = 0.01, 10.0
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    want = _bisect(lambda k: int(_level(f(k))), ks, _level(f(ks)), TOL)
    (jumps,), _, _ = _sign_roots(lambda which, k: f(k), 1, ks, TOL)
    assert len(want) == 9 and [abs(n) for _, n in jumps] == [1] * 9

    def near_a_triple_root(k):
        return min(abs(k - math.pi), abs(k - 3 * math.pi)) < 1e-5

    assert sum(near_a_triple_root(k) for k, _ in jumps) == 2
    for (k, _), (k_ref, _) in zip(jumps, want):
        if near_a_triple_root(k):
            assert near_a_triple_root(k_ref)
        else:
            assert abs(k - k_ref) <= 2 * TOL


_TERMS = st.tuples(
    st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    st.tuples(st.floats(1.0, 2.0), st.floats(2.5, 3.5), st.floats(4.0, 5.0)),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
    st.floats(-0.5, 0.5),
)


@settings(max_examples=20, deadline=None)
@given(members=st.lists(_TERMS, min_size=2, max_size=5), grid_step=st.sampled_from([0.01, 0.001]))
def test_a_real_family_equals_its_members_run_alone(members, grid_step):
    # the sign changes of every member closed together: each member's
    # jumps, points and rounds are those it takes alone
    amps, freqs, phases = (np.array([m[j] for m in members]) for j in range(3))
    offsets = np.array([m[3] for m in members])

    def f(which, k):
        return offsets[which] + sum(amps[which, j] * np.sin(freqs[which, j] * k + phases[which, j]) for j in range(3))

    ks = np.arange(grid_step, 10.0 + grid_step / 2.0, grid_step)
    jumps, calls, rounds = _sign_roots(f, len(members), ks, TOL)
    for m in range(len(members)):
        (alone,), (n,), (r,) = _sign_roots(lambda which, k: f(m, k), 1, ks, TOL)
        assert (jumps[m], calls[m], rounds[m]) == (alone, n, r)


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
    for m, sys_ in enumerate(systems):
        got, want = family.spectrum(m), find_roots_unitary(sys_, 6.0, tol=TOL)
        assert (got.k.tolist(), got.order.tolist()) == (want.k.tolist(), want.order.tolist())
        assert got.meta == want.meta
    if blocks[0][:4] == (3, 4, 0.5, 1.0):
        assert family.order.max(initial=0) >= 3


@settings(max_examples=25, deadline=None)
@given(
    roots=st.lists(st.floats(0.6, 9.4), min_size=1, max_size=4),
    signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
)
@example(roots=[3.3], signs=(1.0, 1.0))
def test_one_sided_regula_falsi_stays_within_the_bisection_bound(roots, signs):
    # +-expm1(+-40 (k - r)) on a grid of 0.5 changes by a factor of up to
    # e^20 across a cell and is convex or concave throughout, so plain
    # regula falsi would replace one end only; the modified steps and the
    # bisection guard still close each root as sign bisection does, within
    # the bisection bound of evaluations
    r, (outer, inner) = np.array(roots), signs

    def f(which, k):
        return outer * np.expm1(inner * 40.0 * (k - r[which]))

    grid_step, k_max = 0.5, 10.0
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    jumps, calls, _ = _sign_roots(f, len(r), ks, TOL)
    for m in range(len(r)):
        assume(np.all(f(m, ks) != 0))
        want = _bisect(lambda k: int(_level(f(m, k))), ks, _level(f(m, ks)), TOL)
        assert len(want) == 1
        _assert_same_jumps([(k, 1) for k, _ in jumps[m]], [(k, 1) for k, _ in want])
        assert calls[m] <= _eval_bound(grid_step)


# proposals that no safeguard should follow blindly: each takes the points
# just evaluated, the call's number, and each member's first cell and its
# bracket as the evaluations so far show it
_ADVERSARIES = {
    "nan": lambda k, n, cell, ends: np.full(len(k), np.nan),
    "outside": lambda k, n, cell, ends: ends[1] + 1.0,
    "on-the-end-just-evaluated": lambda k, n, cell, ends: k.copy(),
    "near-the-end-just-evaluated": lambda k, n, cell, ends: np.where(k == ends[0], k + 0.5 * TOL, k - 0.5 * TOL),
    "on-the-other-end": lambda k, n, cell, ends: np.where(k == ends[0], ends[1], ends[0]),
    "alternating": lambda k, n, cell, ends: cell[0] + (0.3 if n % 2 else 0.7) * (cell[1] - cell[0]),
}


@settings(max_examples=40, deadline=None)
@given(
    roots=st.lists(st.floats(0.6, 9.4), min_size=1, max_size=4),
    signs=st.sampled_from([(1.0, -1.0), (-1.0, 1.0)]),
    kind=st.sampled_from(sorted(_ADVERSARIES)),
)
@example(roots=[3.3], signs=(-1.0, 1.0), kind="on-the-end-just-evaluated")
@example(roots=[3.3], signs=(1.0, -1.0), kind="on-the-other-end")
@example(roots=[3.3], signs=(-1.0, 1.0), kind="near-the-end-just-evaluated")
@example(roots=[3.3], signs=(1.0, -1.0), kind="near-the-end-just-evaluated")
def test_any_proposal_stays_within_the_bisection_bound(roots, signs, kind):
    # the falling steep one-sided functions above, closed by Newton steps
    # whose first point and every Newton point are NaN, past the bracket,
    # on one of its ends or 0.5 tol inside the end just evaluated, or two
    # fixed points in turn: the ITP bound still closes each root as sign
    # bisection does, within n + ITP_N0 + 1 evaluations, n = 33 halvings
    # of the cell, below the bisection bound.  An end taken as given moves
    # the bracket by 0.4 tol a round, so without the bound the evaluator
    # stops the run once the bisection bound is passed
    r, (outer, inner) = np.array(roots), signs
    propose = _ADVERSARIES[kind]

    def f(which, k):
        return outer * np.expm1(inner * 40.0 * (k - r[which]))

    grid_step, k_max = 0.5, 10.0
    ks = np.arange(grid_step, k_max + grid_step / 2.0, grid_step)
    for m in range(len(r)):
        assume(np.all(f(m, ks) != 0))
    above = np.searchsorted(ks, r)  # the grid point above each root
    first_cell = np.array([ks[above - 1], ks[above]])
    ends, calls = first_cell.copy(), [0]

    def proposing(which, k):
        calls[0] += 1
        assert calls[0] <= _eval_bound(grid_step), "the bound let the proposals stall the bracket"
        fk = f(which, k)
        left = fk >= 0.0
        ends[0, which[left]], ends[1, which[~left]] = k[left], k[~left]
        with np.errstate(divide="ignore", invalid="ignore"):  # f' such that k - f / f' is the proposal
            return np.stack([fk, fk / (k - propose(k, calls[0], first_cell[:, which], ends[:, which]))], axis=-1)

    members = np.arange(len(r))
    brackets = (members, first_cell[0], f(members, first_cell[0]), first_cell[1], f(members, first_cell[1]))
    first = propose(first_cell[0], 0, first_cell, first_cell)
    jumps, evaluated, _ = _newton_brackets(proposing, brackets, first, TOL, len(r))
    jumps = _by_member(jumps, len(r))
    for m in range(len(r)):
        want = _bisect(lambda k: int(_level(f(m, k))), ks, _level(f(m, ks)), TOL)
        assert len(want) == 1
        _assert_same_jumps([(k, 1) for k, _ in jumps[m]], [(k, 1) for k, _ in want])
        assert evaluated[m] <= math.ceil(math.log2(grid_step / TOL)) + ITP_N0 + 1 < _eval_bound(grid_step)


def _newton_roots(f, members, ks, tol):
    """The falling sign changes of `members` functions on the grid `ks`,
    closed by `_newton_brackets` from the Newton point of each cell's left
    end, as `find_roots_real` closes the brackets of G: each member's roots
    as a list of (k, size), and the points and the rounds that evaluated
    it.  `f(which, k)` gives f and f' stacked on a last axis of two."""
    which, k = np.repeat(np.arange(members), len(ks)), np.tile(ks, members)
    value, slope = np.asarray(f(which, k)).T
    i = np.flatnonzero((value[:-1] >= 0.0) & (value[1:] < 0.0) & (which[:-1] == which[1:]))
    brackets = (which[i], k[i], value[i], k[i + 1], value[i + 1])
    jumps, calls, rounds = _newton_brackets(f, brackets, k[i] - value[i] / slope[i], tol, members)
    return _by_member(jumps, members), calls, rounds


@settings(max_examples=20, deadline=None)
@given(members=st.lists(_TERMS, min_size=2, max_size=5), grid_step=st.sampled_from([0.01, 0.001]))
def test_a_newton_family_equals_its_members_run_alone(members, grid_step):
    # the falling sign changes of every member closed together by Newton
    # steps: each member's roots, points and rounds are those it takes
    # alone, and its roots are those of sign bisection
    amps, freqs, phases = (np.array([m[j] for m in members]) for j in range(3))
    offsets = np.array([m[3] for m in members])

    def f(which, k):
        angles = [freqs[which, j] * k + phases[which, j] for j in range(3)]
        value = offsets[which] + sum(amps[which, j] * np.sin(angles[j]) for j in range(3))
        slope = sum(amps[which, j] * freqs[which, j] * np.cos(angles[j]) for j in range(3))
        return np.stack([value, slope], axis=-1)

    ks = np.arange(grid_step, 10.0 + grid_step / 2.0, grid_step)
    roots, calls, rounds = _newton_roots(f, len(members), ks, TOL)
    for m in range(len(members)):
        (alone,), (n,), (r,) = _newton_roots(lambda which, k: f(m, k), 1, ks, TOL)
        assert (roots[m], calls[m], rounds[m]) == (alone, n, r)
        values = f(m, ks)[:, 0]
        assume(np.all(values != 0))
        falling = [(k, n) for k, n in _bisect(lambda k: int(_level(f(m, k)[0])), ks, _level(values), TOL) if n < 0]
        _assert_same_jumps(alone, falling)


def _jumps_by_loop(done, tol, members):
    """The jumps of the closed brackets `done`, one bracket at a time in
    Python: the reference for the array assembly of `_jumps`."""
    which, a, b, size, xa, fa, xb, fb = (np.concatenate(parts) for parts in zip(*done))
    out = [[] for _ in range(members)]
    order = np.lexsort((a, which))
    for w, a, b, size, xa, fa, xb, fb in zip(*(v[order].tolist() for v in (which, a, b, size, xa, fa, xb, fb))):
        brackets = out[w]
        k = min(max(xa - fa * (xb - xa) / (fb - fa), a), b) if fa <= 0.0 <= fb and fa < fb else 0.5 * (a + b)
        if brackets and brackets[-1][2] * size > 0 and (b - brackets[-1][0] < tol or k - brackets[-1][3] < tol):
            first = brackets[-1][0]
            brackets[-1] = [first, b, brackets[-1][2] + size, 0.5 * (first + b)]
        else:
            brackets.append([a, b, size, k])
    return [[(k, int(size)) for _, _, size, k in brackets] for brackets in out]


_BRACKET = st.tuples(
    st.sampled_from([0.0, 0.2, 0.9, 1.5, 30.0]),  # the gap to the bracket before, in tol
    st.floats(0.0, 0.99),  # the width, in tol
    st.sampled_from([-2, -1, 1, 2, 3]),  # the jump
    st.floats(0.0, 1.0), st.floats(-1.0, 0.3),  # xa below a, in tol, and its value
    st.floats(0.0, 1.0), st.floats(-0.3, 1.0),  # xb above b, in tol, and its value
)


@settings(max_examples=50, deadline=None)
@given(members=st.lists(st.lists(_BRACKET, max_size=8), min_size=1, max_size=3), parts=st.integers(1, 4))
def test_jumps_assembled_in_arrays_equal_the_loop_bit_for_bit(members, parts):
    # consecutive brackets of a member closer than tol, of one direction or
    # not, with chord values that bracket zero or do not, closed over
    # several rounds
    tol, rows = 1e-3, []
    for w, brackets in enumerate(members):
        b = 1.0
        for gap, width, size, below, fa, above, fb in brackets:
            a = b + gap * tol
            b = a + width * tol
            rows.append((w, a, b, float(size), a - below * tol, fa, b + above * tol, fb))
    assume(rows)
    rows = [rows[j] for j in np.random.default_rng(len(rows)).permutation(len(rows))]
    cuts = np.linspace(0, len(rows), parts + 1).astype(int)
    done = [tuple(np.array(v) for v in zip(*rows[lo:hi])) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    done = [(w.astype(int), *rest) for w, *rest in done]
    assert _by_member(_jumps(done, tol), len(members)) == _jumps_by_loop(done, tol, len(members))


def test_newton_brackets_close_triple_roots_in_rounding_noise_at_one_of_their_sign_changes():
    # the triple roots of sin k + sin 3k + sin 4k at pi and 3 pi, where
    # rounding sets the sign within about 3e-6 of the root, on the loop that
    # `find_roots_real` runs: member 0 is f and member 1 is -f, so their
    # falling sign changes are all of f's.  Each closes one sign change near
    # each triple root, as sign bisection does, and agrees with it within
    # tol at every simple root
    def f(which, k):
        sign = np.where(which == 0, 1.0, -1.0)
        value = np.sin(k) + np.sin(3 * k) + np.sin(4 * k)
        return np.stack([sign * value, sign * (np.cos(k) + 3 * np.cos(3 * k) + 4 * np.cos(4 * k))], axis=-1)

    assert f(np.zeros(1, dtype=int), np.array([math.pi]))[0, 0] == 0.0
    ks = np.arange(0.01, 10.0 + 0.005, 0.01)
    (falling, rising), _, _ = _newton_roots(f, 2, ks, TOL)
    got = sorted([(k, -1) for k, _ in falling] + [(k, 1) for k, _ in rising])
    want = _bisect(lambda k: int(_level(f(np.zeros(1, dtype=int), np.array([k]))[0, 0])), ks, _level(f(0, ks)[:, 0]), TOL)
    assert len(want) == len(got) == 9 and [n for _, n in got] == [n for _, n in want]

    def near_a_triple_root(k):
        return min(abs(k - math.pi), abs(k - 3 * math.pi)) < 1e-5

    assert sum(near_a_triple_root(k) for k, _ in got) == 2
    for (k, _), (k_ref, _) in zip(got, want):
        if near_a_triple_root(k):
            assert near_a_triple_root(k_ref)
        else:
            assert abs(k - k_ref) <= 2 * TOL


def test_newton_brackets_take_an_exact_zero_at_a_refinement_point_as_the_root(calls_of):
    # on the 0.25 grid the Newton point of the bracket [0.25, 0.5] of
    # f = 0.375 - k from its left end is 0.375 exactly, where f is 0.0: its
    # sign is that of f >= 0, so it replaces the left end with the value 0,
    # and the chord of -arctan f reports that point
    counted, calls = calls_of(lambda which, k: np.stack([0.375 - k, -np.ones_like(k)], axis=-1))
    (jumps,), (n,), _ = _newton_roots(counted, 1, np.arange(0.25, 1.0 + 0.125, 0.25), TOL)
    assert calls[1].tolist() == [0.375]
    assert jumps == [(0.375, -1)]
    assert n == len(calls) - 1


def test_a_member_with_a_wrong_count_is_not_refined():
    # at k_max = pi + 1e-14 the factor (0,1) of 1x2 at L1 = 0.5 has a root
    # on the sine zero pi that the eigenphase count does not hold (FOUND in
    # CHANGES.md): its count is one too many, so after G at k_max every
    # evaluation is of the factor (0,0), and (0,1) has the unitary
    # locator's roots
    specs, k_max = [QuotientSpec(1, 2, 0.5, 0.61, 0, t) for t in (0, 1)], 3.1415926535898033
    family, calls = QuotientFamily(1, 2, 0.5, 0.61, [(0, 0), (0, 1)]), []
    form = family.pole_form
    family.pole_form = lambda which, k: calls.append(np.array(which)) or form(which, k)
    systems = UnitaryFamily([quotient_system(spec) for spec in specs])
    found = find_roots_real(family, k_max, TOL)
    refined, fallen = found.spectrum(0), found.spectrum(1)
    assert calls[0].tolist() == [0, 1] and len(calls) > 1 and all(set(w.tolist()) == {0} for w in calls[1:])
    assert not refined.meta["fallback"] and fallen.meta["fallback"]
    exact = systems.roots(k_max, tol=TOL, members=[1]).spectrum(0)
    assert fallen == exact
    assert (fallen.meta["evaluations"], fallen.meta["rounds"]) == (1 + exact.meta["evaluations"], exact.meta["rounds"])


@pytest.mark.parametrize("f", [lambda which, k: k - 0.375, lambda which, k: 0.375 - k], ids=["rising", "falling"])
def test_an_exact_zero_at_a_refinement_point_is_the_root(f, calls_of):
    # on the 0.25 grid the first chord of the bracket [0.25, 0.5] lands on
    # 0.375 exactly, where f is 0.0: its level is that of f >= 0, so it
    # replaces one end with the value 0, and the chord reports that point
    counted, calls = calls_of(f)
    (jumps,), (n,), _ = _sign_roots(counted, 1, np.arange(0.25, 1.0 + 0.125, 0.25), TOL)
    assert calls[1].tolist() == [0.375]
    assert [k for k, _ in jumps] == [0.375]
    assert n == len(calls) - 1


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
    # refinement evaluations per root; 155 in all
    out, blocks = _spectrum_of_the_3x4_document(tmp_path, "full.csv")
    s = io.load_spectrum(str(out))
    assert int(s.meta["blocks"]) == 12
    assert int(s.meta["evaluations"]) <= 450
    assert s.count() == sum(UnitaryFamily(list(blocks.values())).counts(10.0))


def test_spectrum_refines_every_block_in_stacked_rounds(tmp_path, monkeypatch):
    # the 6 distinct blocks of the 3x4 document, contracted from 8x8 to 4x4,
    # are one family: their grids go to one stacked eigh call and each of
    # the 4 refinement rounds to one call, for the same 155 evaluations as
    # block by block; the certificate adds one call, each of the 12 blocks
    # at K_MIN and at k_max
    eigh, shapes = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
    out, _ = _spectrum_of_the_3x4_document(tmp_path, "full.csv")
    s = io.load_spectrum(str(out))
    assert (s.meta["evaluations"], s.meta["rounds"]) == (155, 4)
    assert len(shapes) == 1 + 4 + 1
    assert all(len(shape) == 3 and shape[1:] == (4, 4) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == 155 + 2 * 12


def test_spectrum_header_sums_and_maxes_the_distinct_blocks_solved_alone(tmp_path):
    # the 3x4 document (L3 = 1) at --kmax 15: the header's rounds are the
    # most of any distinct block solved alone, its evaluations their sum,
    # and its grid_step and bonds those of the first distinct block
    g, action = torus_action(3, 4, 1.0, 0.5)
    doc, out = str(tmp_path / "torus.json"), str(tmp_path / "full.csv")
    io.save_graph(doc, g, standard_conditions(g), action)
    res = CliRunner().invoke(main, ["spectrum", doc, "--kmax", "15", "-o", out])
    assert res.exit_code == 0, res.output
    s = io.load_spectrum(out)
    blocks = list(character_blocks(g, standard_conditions(g), action).values())
    alone = [find_roots_unitary(blocks[i], 15.0).meta for i in np.unique(_systems_from_doc(doc)[1]).tolist()]
    assert s.meta["distinct_blocks"] == len(alone) == 6
    assert s.meta["rounds"] == max(m["rounds"] for m in alone)
    assert s.meta["evaluations"] == sum(m["evaluations"] for m in alone) == 231
    assert (s.meta["grid_step"], s.meta["bonds"]) == (alone[0]["grid_step"], alone[0]["bonds"])


@pytest.mark.parametrize(
    "n1, n2, l3, counts",
    [(3, 4, "1.0", (108, 155, 4)), (16, 16, "0.7017025651372872", (1834, 2056, 5))],
    ids=["3x4", "16x16"],
)
def test_spectrum_of_the_product_documents_keeps_its_counts(tmp_path, n1, n2, l3, counts):
    # the unitary locator passes no first point and no proposal to the
    # refinement core, so its points are those of the midpoint and
    # Anderson-Bjork steps alone: the root count, evaluations and rounds of
    # `spectrum` on the product documents at k_max 10 stay as they were
    # before the real locator's Newton steps
    runner, doc, out = CliRunner(), str(tmp_path / "torus.json"), str(tmp_path / "full.csv")
    flags = ["--n1", str(n1), "--n2", str(n2), "--l1", "0.5", "--l3", l3]
    assert runner.invoke(main, ["build", "product", *flags, "-o", doc]).exit_code == 0
    res = runner.invoke(main, ["spectrum", doc, "--kmax", "10", "-o", out])
    assert res.exit_code == 0, res.output
    s = io.load_spectrum(out)
    assert (s.count(), int(s.meta["evaluations"]), int(s.meta["rounds"])) == counts
    assert int(s.meta["eigenphase_count"]) == s.count()


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
    which = np.zeros(len(ks), dtype=int)
    tracemalloc.start()
    try:
        (sums_ahead, _), _ = _eigenphase_steps(sys_.S[None], sys_.lengths[None], which, ks)[2]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums_ahead.shape == (len(ks), 96)
    assert peak < 8e6


def _unitaries(rng, phases):
    """Q diag(exp(i phases)) Q^H for a random unitary Q per row of `phases`."""
    stack, size = phases.shape
    q, _ = np.linalg.qr(rng.standard_normal((stack, size, size)) + 1j * rng.standard_normal((stack, size, size)))
    return (q * np.exp(1j * phases)[:, None, :]) @ q.conj().swapaxes(-1, -2)


def _circle_gap(a, b):
    """The least over cyclic shifts of the largest distance on the circle
    between the phases `a` and `b`, each ascending: the distance of the two
    multisets when they differ by less than their own gaps."""
    return min(np.abs(np.angle(np.exp(1j * (a - np.roll(b, shift))))).max() for shift in range(len(a)))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), distinct=st.integers(1, 8), stack=st.integers(1, 5)
)
@example(seed=0, size=8, distinct=1, stack=2)  # one eigenvalue of multiplicity 8
def test_hermitian_phases_are_the_eigvals_phases_within_the_residual(seed, size, distinct, stack):
    # random unitary stacks whose phases repeat, so that the multiplicities
    # are exact; each matrix's phases are those of eigvals, as multisets on
    # the circle, within its residual and the rounding the locator allows
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(-np.pi, np.pi, (stack, distinct))
    phases = np.take_along_axis(drawn, rng.integers(0, distinct, (stack, size)), axis=1)
    U = _unitaries(rng, phases)
    got, residuals = _unitary_phases(U)
    want = np.angle(np.linalg.eigvals(U))
    assert got.shape == want.shape == (stack, size) and residuals.shape == (stack,)
    assert np.all((residuals >= 0.0) & (residuals <= PHASE_EPS / 16))
    for g, w, r in zip(np.sort(got, axis=-1), np.sort(want, axis=-1), residuals):
        assert _circle_gap(g, w) <= r + 16 * size * np.finfo(float).eps


def test_phases_that_share_a_hermitian_eigenvalue_go_through_eigvals(monkeypatch):
    # phi1 + phi2 = 2 atan(GAMMA) gives H = wU + (wU)^H one eigenvalue
    # twice, so eigh mixes U's two eigenvectors and the residual is large:
    # that matrix, and only it, takes eigvals, and its residual reads 0
    eigvals, shapes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
    phases = np.array([[0.3, 1.1, -2.0, 2.5], [0.3, 2 * math.atan(GAMMA) - 0.3, -2.0, 2.5]])
    got, residuals = _unitary_phases(_unitaries(np.random.default_rng(7), phases))
    assert shapes == [(1, 4, 4)]
    assert 0.0 < residuals[0] <= PHASE_EPS / 16 and residuals[1] == 0.0
    assert np.sort(got, axis=-1) == pytest.approx(np.sort(phases, axis=-1), rel=0, abs=1e-14)


def test_real_locator_ends_at_a_tol_below_the_float_spacing():
    # near pi the floats are 4.4e-16 apart, so no bracket is ever narrower
    # than 1e-300; one with no float strictly inside it is closed instead.
    # The factor (0,1) of 1x2 at L1 = L3 = 1/4 has F = sin k: G has the
    # roots pi and 3 pi, and 2 pi is a sine zero
    family = QuotientFamily(1, 2, 0.25, 0.25, [(0, 1)])
    s = find_roots_real(family, 10.0, 1e-300).spectrum(0)
    assert not s.meta["fallback"]
    assert s.order.tolist() == [1, 1, 1]
    assert s.k.tolist() == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], rel=0, abs=1e-14)


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
