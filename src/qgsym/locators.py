"""The real and the unitary root locators, each for a family of functions.

Both run the core of `spectra`: a grid of every member in chunked array
calls, then `_refine_steps` in rounds over every bracket of every member.

- `find_roots_real_family`: the step function is the sign of f and the
  value f itself (an exact 0.0 inside the grid takes the sign of the point
  before it); contour passes over the analytic continuation place the
  touching roots (small minima of |f|), give every order as a winding
  number and re-centre the multiple roots.
- `find_roots_unitary_family`: exact eigenphase counting for unitary
  scattering.  N(k) = (sum of principal eigenphases at the reference point
  + k * total bond length - sum at k) / 2pi is integer-valued and monotone
  (`_eigenphase_steps`); each jump's size is the root's multiplicity.  The
  value is the sum of the eigenphases nearest 0, which all increase.  N is
  exact at every k, so the cell is derived: 0.9 pi / (longest bond length).
  Each round is one stacked `eigvals` over the open brackets.  This is the
  robust path for high-order roots of large systems.  N(k_max) of many
  systems at once (`eigenphase_counts`, the same count at K_MIN and k_max)
  is an exact root count certifying a locator's output.

`find_roots_real` and `find_roots_unitary` solve a family of one.  Every
member's spectrum reports the points evaluated for it, grid included, as
`meta["evaluations"]`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import GridTooCoarse, NonUnitaryScattering, require_positive
from .scattering import SecularSystem
from .spectra import (
    TWO_PI, Evaluator, SpectralRoot, Spectrum, _chunked, _contour, _grid_cells, _grid_values, _k_grid, _refine_steps,
    _through_zero,
)

K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
TOL_TOUCH = 1e-8  # largest |f| at a local minimum that counts as a touching root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet


def _circle_radii(which: np.ndarray, ks: np.ndarray, grid_step: float) -> np.ndarray:
    """The radius of each root's order circle: 0.45 times the distance to the
    nearest other root of its member, at most grid_step / 2.  Each member's
    roots are consecutive and ascending."""
    gaps = np.diff(ks)
    gaps[which[1:] != which[:-1]] = np.inf
    nearest = np.full(len(ks), np.inf)
    nearest[1:] = gaps
    nearest[:-1] = np.minimum(nearest[:-1], gaps)
    return np.minimum(grid_step / 2.0, 0.45 * nearest)


def _contour_pass(fn: Evaluator, which, centers, radii, samples: int, refused: dict) -> tuple[np.ndarray, np.ndarray]:
    """`_contour`; a member with a circle through a zero is refused there,
    unless it was refused before."""
    counts, zsums, through = _contour(fn, which, centers, radii, samples)
    for w, c in zip(which[through].tolist(), centers[through]):
        refused.setdefault(w, _through_zero(c))
    return counts, zsums


def find_roots_real_family(
    f: Evaluator,
    members: int,
    k_max: float,
    grid_step: float,
    tol: float = 1e-10,
    *,
    complex_fn: Evaluator,
    source: str = "",
) -> list[Spectrum]:
    """Roots on (0, k_max] of each of `members` continuous real functions,
    with their continuations: one spectrum per member.

    `f(which, k)` and `complex_fn(which, z)` take an integer array of
    members and an array of points that broadcast together, and return the
    values elementwise.  The members share one grid, evaluated in chunks of
    members of at most MAX_BATCH_BYTES of points (`rows[:, None]` against
    the grid).  Sign changes are closed to width `tol` by `_refine_steps`,
    with f as the value, in one call of `f` on 1-D arrays per round; a grid
    value of exactly 0.0 inside the grid takes the sign of the point before
    it.  `meta["evaluations"]` counts the member's grid points and
    refinement points.

    An interior local minimum of |f| with no sign change next to it is a
    touching-root candidate: the zero sum of `complex_fn` in a circle of
    radius `grid_step` around it gives the mean km of the zeros there.  km is
    a touching root when |f(km)| < `TOL_TOUCH`; f(km) past zero by more than
    that means two crossings inside one cell (`GridTooCoarse`).  Every root's
    order is its winding number, and multiple roots are re-centred on the
    zero sum.  Each stage covers all members at once: a contour pass
    (`_contour`) over the touching candidates, one call of `f` at their km,
    a pass for the orders and two passes to re-centre; a pass with no
    circles makes no call.  When members are refused, the first refused
    member's first refusal is raised, as if they ran one after another.
    `k_max` below `grid_step` leaves no grid (`GridTooCoarse`).
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    if k_max < grid_step:
        raise GridTooCoarse(f"k_max = {k_max!r} is below grid_step = {grid_step!r}")
    ks = _k_grid(grid_step, k_max + grid_step / 2.0, grid_step)
    if ks[-1] < k_max - 1e-12:
        ks = np.append(ks, k_max)

    cells, candidates = [], []
    for rows, vals in _grid_values(f, members, ks):
        # the step evaluator is the sign of f; an exact zero inside the grid
        # takes the sign of the point before it, one at either end stays a
        # level 0 so that the change next to it is refined onto it
        signs = np.sign(vals)
        if not signs[:, 1:-1].all():
            before = np.maximum.accumulate(np.where(signs != 0, np.arange(len(ks)), 0), axis=1)
            signs[:, 1:-1] = np.take_along_axis(signs, before, axis=1)[:, 1:-1]
        r, i = np.nonzero(signs[:, 1:] != signs[:, :-1])
        cells.append((rows[r], ks[i], signs[r, i], vals[r, i, None], ks[i + 1], signs[r, i + 1], vals[r, i + 1, None]))
        # touching roots: interior local minima of |f| with no sign change in
        # either neighbouring cell; a genuine touch has f(km) ~ 0, while a pair
        # of crossings hidden inside the cells overshoots zero
        absvals = np.abs(vals)
        crossing = vals[:, :-1] * vals[:, 1:] < 0.0
        touch = (absvals[:, 1:-1] <= absvals[:, :-2]) & (absvals[:, 1:-1] <= absvals[:, 2:])
        touch &= ~crossing[:, :-1] & ~crossing[:, 1:]
        r, i = np.nonzero(touch)
        candidates.append((rows[r], ks[i + 1], np.where(vals[r, i] > 0, 1.0, -1.0)))

    def sign_at(which: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fk = np.asarray(_chunked(f, which, k, 8), dtype=float)
        levels = np.sign(fk)
        levels[levels == 0] = np.nan
        return levels, fk[:, None]

    jumps, calls = _refine_steps(sign_at, tuple(np.concatenate(v) for v in zip(*cells)), tol, members)
    roots = [[k for k, _ in member] for member in jumps]

    refused: dict[int, GridTooCoarse] = {}  # each member's first refusal
    which, centers, before_sign = (np.concatenate(v) for v in zip(*candidates))
    counts, zsums = _contour_pass(complex_fn, which, centers, grid_step, 64, refused)
    inside = np.flatnonzero(counts >= 1)
    which, km, before_sign = which[inside], zsums.real[inside] / counts[inside], before_sign[inside]
    dips = before_sign * _chunked(f, which, km, 8) if len(km) else km
    for w, k, dip in zip(which.tolist(), km.tolist(), dips.tolist()):
        if w in refused or dip >= TOL_TOUCH or any(abs(k - r) <= 2 * grid_step for r in roots[w]):
            continue
        if dip < -TOL_TOUCH:
            refused[w] = GridTooCoarse(f"two sign changes near k={k}; shrink grid_step")
            continue
        roots[w].append(k)

    solved = [w for w in range(members) if w not in refused]
    which = np.repeat(np.array(solved, dtype=int), [len(roots[w]) for w in solved])
    centers = np.array([k for w in solved for k in sorted(roots[w])], dtype=float)
    radii = _circle_radii(which, centers, grid_step)
    kept = centers <= k_max + tol  # the grid may overshoot k_max by half a step
    which, centers, radii = which[kept], centers[kept], radii[kept]
    orders = np.maximum(_contour_pass(complex_fn, which, centers, radii, 64, refused)[0], 1)
    # the sign's resolution degrades like eps**(1/order) at a multiple zero;
    # re-centre twice on the zero sum over the same circle (a smaller one
    # would drown |f| ~ rad**order in rounding)
    for _ in range(2):
        multiple = np.flatnonzero((orders >= 2) & ~np.isin(which, list(refused)))
        zsums = _contour_pass(complex_fn, which[multiple], centers[multiple], radii[multiple], 128, refused)[1]
        centers[multiple] = zsums.real / orders[multiple]
    if refused:
        raise refused[min(refused)]

    bounds = np.searchsorted(which, np.arange(members + 1))
    return [
        Spectrum(
            tuple(SpectralRoot(k, order, source) for k, order in zip(centers[lo:hi].tolist(), orders[lo:hi].tolist())),
            k_max,
            {"grid_step": grid_step, "tol": tol, "evaluations": len(ks) + int(n)},
        )
        for lo, hi, n in zip(bounds[:-1], bounds[1:], calls)
    ]


def find_roots_real(
    f: Callable[[np.ndarray], np.ndarray],
    k_max: float,
    grid_step: float,
    tol: float = 1e-10,
    *,
    complex_fn: Callable[[np.ndarray], np.ndarray],
    source: str = "",
) -> Spectrum:
    """Roots of a continuous real function on (0, k_max], with its
    continuation: `find_roots_real_family` on a family of one.  `f` and
    `complex_fn` take numpy arrays of points and return the values
    elementwise."""
    return find_roots_real_family(
        lambda which, k: f(k), 1, k_max, grid_step, tol, complex_fn=lambda which, z: complex_fn(z), source=source
    )[0]


def _require_unitary(sys: SecularSystem) -> None:
    defect = sys.unitarity_defect()
    if defect > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defect:.3e}: eigenphase counting needs a unitary S")


def _phase_total(phases: np.ndarray) -> np.ndarray:
    """P: the sum over the last axis of the phases taken in (0, 2pi]."""
    return phases.sum(-1) + TWO_PI * (phases < 0.0).sum(-1)


def _eigenphases(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Eigenphases of U(k) = S D(k) in (-pi, pi], less PHASE_EPS, one row per
    point: system `which[i]` of the stacks `S` and `lengths` at `ks[i]`.

    An entry is >= 0 once its eigenvalue has crossed 1, so an eigenvalue at
    exactly 1 counts as about to leave.  The matrices go to one stacked
    `np.linalg.eigvals` call per MAX_BATCH_BYTES of input.
    """

    def phases(which: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = np.exp(1j * k[:, None] * lengths[which])
        return np.angle(np.linalg.eigvals(S[which] * d[:, None, :])) - PHASE_EPS

    return _chunked(phases, which, ks, S[0].nbytes)


def _eigenphase_steps(
    systems: Sequence[SecularSystem], which: np.ndarray, ks: np.ndarray
) -> tuple[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """The step evaluator of N(k) for a family of systems of one size, with
    its levels and prefix sums on the grid `which, ks`, in which each
    system's points are consecutive and ascending.

    N(k) counts the roots in (first grid point, k]: N(k) = (P(k0) - k0 * L +
    k * L - P(k)) / 2pi, where k0 is the system's first grid point, L its
    total bond length and P(k) the sum of the eigenphases of U(k) taken in
    (0, 2pi] as `_eigenphases` places them: each phase advances by k * L in
    all and drops by 2pi when it crosses 1.  The values are the eigenphases
    nearest 0 first, so a jump of m sums the m phases that cross there.  A
    call of the step makes one stacked `np.linalg.eigvals` call per
    MAX_BATCH_BYTES of matrices.  Needs unitary S (`NonUnitaryScattering`
    otherwise).
    """
    for sys in systems:
        _require_unitary(sys)
    S = np.stack([sys.S for sys in systems])
    lengths = np.stack([sys.lengths for sys in systems])
    l_total = lengths.sum(-1)

    def levels_at(which: np.ndarray, k: np.ndarray, phases: np.ndarray) -> np.ndarray:
        return np.rint((base[which] + k * l_total[which] - _phase_total(phases)) / TWO_PI)

    def step(which: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phases = _eigenphases(S, lengths, which, k)
        nearest_first = np.take_along_axis(phases, np.argsort(np.abs(phases), axis=-1, kind="stable"), axis=-1)
        return levels_at(which, k, phases), np.cumsum(nearest_first, axis=-1)

    phases = _eigenphases(S, lengths, which, ks)
    first = np.flatnonzero(np.append(True, which[1:] != which[:-1]))
    base = np.zeros(len(systems))
    base[which[first]] = _phase_total(phases[first]) - ks[first] * l_total[which[first]]
    nearest_first = np.take_along_axis(phases, np.argsort(np.abs(phases), axis=-1), axis=-1)
    return step, levels_at(which, ks, phases), np.cumsum(nearest_first, axis=-1)


def eigenphase_counts(systems: Sequence[SecularSystem], k: float) -> list[int]:
    """N(k) of each system: the number of roots of det(I - S D(k)) in
    (K_MIN, k], with order.  These are the levels of `_eigenphase_steps` on
    the grid K_MIN, k of every system, so the matrices go to `eigvals` per
    MAX_BATCH_BYTES.  Needs unitary S (`NonUnitaryScattering` otherwise).
    """
    grid = np.tile([K_MIN, k], len(systems))
    return _eigenphase_steps(systems, np.repeat(np.arange(len(systems)), 2), grid)[1][1::2].astype(int).tolist()


def find_roots_unitary_family(
    systems: Sequence[SecularSystem], k_max: float, *, tol: float = 1e-10, source: str = "full"
) -> list[Spectrum]:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for each of several unitary
    systems of one size: one spectrum per system.

    N(k) of `_eigenphase_steps` is exact and monotone at every k, and each
    jump is a root of order the jump's size, so a cell with equal end counts
    holds no root however wide it is.  A system's cell, `meta["grid_step"]`,
    is 0.9 pi / (its longest bond length), or k_max with no bonds: no phase
    turns by half a circle in one cell, so the regula-falsi value of
    `_refine_steps`, the sum of the phases crossing at a jump, stays
    continuous.  Every evaluation's count keeps the bracket exact, so each
    root is certified by its end counts.  The grids of all systems go to
    stacked `eigvals` calls, and so does each refinement round.
    """
    require_positive(k_max=k_max, tol=tol)
    cells = [0.9 * math.pi / float(sys.lengths.max()) if sys.size else k_max for sys in systems]
    grids = [np.append(_k_grid(K_MIN, k_max, cell), k_max) for cell in cells]
    which, ks = np.repeat(np.arange(len(grids)), [len(g) for g in grids]), np.concatenate(grids)
    step, levels, sums = _eigenphase_steps(systems, which, ks)
    jumps, calls = _refine_steps(step, _grid_cells(which, ks, levels, sums), tol, len(systems))
    return [
        Spectrum(
            tuple(SpectralRoot(k, n, source) for k, n in member),
            k_max,
            {"grid_step": cell, "tol": tol, "k_min": K_MIN, "evaluations": len(grid) + int(n)},
        )
        for member, cell, grid, n in zip(jumps, cells, grids, calls)
    ]


def find_roots_unitary(sys: SecularSystem, k_max: float, *, tol: float = 1e-10, source: str = "full") -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S:
    `find_roots_unitary_family` on a family of one."""
    return find_roots_unitary_family([sys], k_max, tol=tol, source=source)[0]
