"""The real and the unitary root locators, each for a family of functions.

Both run the core of `spectra`: a grid of every member in chunked array
calls, then `_refine_steps` in rounds over every bracket of every member.

- `find_roots_real_family`: the step function is the sign of f and the
  value f itself (an exact 0.0 inside the grid takes the sign of the point
  before it); f is analytic and takes complex points too, so contour passes
  over f itself place the touching roots (small minima of |f|), give every
  order as a winding number and re-centre the multiple roots.
- `UnitaryFamily`: exact eigenphase counting for unitary scattering.  The
  family is contracted once (`contracted_stacks`: every pure-transmission
  bond dropped, the determinant unchanged), and each stack of contracted
  systems of one size is solved together (`UnitaryFamily.roots`).  N(k) of
  every system (`UnitaryFamily.counts`) is an exact root count certifying
  a locator's output.  This is the robust path for high-order roots of
  large systems.

`find_roots_real` and `find_roots_unitary` solve a family of one.  Every
member's spectrum reports the points evaluated for it, grid included, as
`meta["evaluations"]`, and a unitary one the refinement rounds that
evaluated it as `meta["rounds"]`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, NonUnitaryScattering, require_positive
from .scattering import SecularSystem, contracted_stacks
from .spectra import (
    TWO_PI, Evaluator, SpectralRoot, Spectrum, _chunked, _contour, _grid_cells, _grid_values, _k_grid, _no_reach,
    _refine_steps, _through_zero,
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
    f: Evaluator, members: int, k_max: float, grid_step: float, tol: float = 1e-10, *, source: str = ""
) -> list[Spectrum]:
    """Roots on (0, k_max] of each of `members` analytic functions, real on
    the real axis: one spectrum per member.

    `f(which, k)` takes an integer array of members and an array of real or
    complex points that broadcast together, and returns the values
    elementwise.  The members share one grid, evaluated in chunks of
    members of at most MAX_BATCH_BYTES of points (`rows[:, None]` against
    the grid).  Sign changes are closed to width `tol` by `_refine_steps`,
    with f as the value, in one call of `f` on 1-D arrays per round; a grid
    value of exactly 0.0 inside the grid takes the sign of the point before
    it.  `meta["evaluations"]` counts the member's grid points and
    refinement points.

    An interior local minimum of |f| with no sign change next to it is a
    touching-root candidate: the zero sum of `f` in a circle of radius
    `grid_step` around it gives the mean km of the zeros there.  km is a
    touching root when |f(km)| < `TOL_TOUCH`; f(km) past zero by more than
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

    def sign_at(which: np.ndarray, k: np.ndarray) -> tuple:
        fk = np.asarray(_chunked(f, which, k, 8), dtype=float)
        levels = np.sign(fk)
        levels[levels == 0] = np.nan
        side = (fk[:, None], _no_reach(len(k)))
        return levels, side, side

    which, a, na, fa, b, nb, fb = (np.concatenate(v) for v in zip(*cells))
    none = _no_reach(len(a))
    jumps, calls, _ = _refine_steps(sign_at, (which, a, na, (fa, none), b, nb, (fb, none)), tol, members)
    roots = [[k for k, _ in member] for member in jumps]

    refused: dict[int, GridTooCoarse] = {}  # each member's first refusal
    which, centers, before_sign = (np.concatenate(v) for v in zip(*candidates))
    counts, zsums = _contour_pass(f, which, centers, grid_step, 64, refused)
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
    orders = np.maximum(_contour_pass(f, which, centers, radii, 64, refused)[0], 1)
    # the sign's resolution degrades like eps**(1/order) at a multiple zero;
    # re-centre twice on the zero sum over the same circle (a smaller one
    # would drown |f| ~ rad**order in rounding)
    for _ in range(2):
        multiple = np.flatnonzero((orders >= 2) & ~np.isin(which, list(refused)))
        zsums = _contour_pass(f, which[multiple], centers[multiple], radii[multiple], 128, refused)[1]
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
    f: Callable[[np.ndarray], np.ndarray], k_max: float, grid_step: float, tol: float = 1e-10, *, source: str = ""
) -> Spectrum:
    """Roots of an analytic function, real on the real axis, on (0, k_max]:
    `find_roots_real_family` on a family of one.  `f` takes a numpy array
    of real or complex points and returns the values elementwise."""
    return find_roots_real_family(lambda which, k: f(k), 1, k_max, grid_step, tol, source=source)[0]


def _turned(phases: np.ndarray) -> np.ndarray:
    """The phases of `_eigenphases` taken in [0, 2pi)."""
    return np.where(phases < 0.0, phases + TWO_PI, phases)


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


def _eigenphase_steps(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> tuple:
    """The step evaluator of N(k) for a stack of systems of one size, `S` and
    `lengths`, with its levels and what each point sees ahead and behind
    (`_refine_steps`) on the grid `which, ks`, computed as a step computes
    them; each system's points are consecutive and ascending.

    N(k) counts the roots in (first grid point, k]: N(k) = (P(k0) - k0 * L +
    k * L - P(k)) / 2pi, where k0 is the system's first grid point, L its
    total bond length and P(k) the sum of the eigenphases of U(k) taken in
    [0, 2pi) (`_turned`): each phase advances by k * L in all and drops by
    2pi when it crosses 0, the crossing point.  Each phase's distance to the
    crossing point ahead is 2pi less its distance behind, which is its value
    in [0, 2pi).  A jump of m happens when the m phases nearest the crossing
    point pass it, so the sums ahead are minus the prefix sums of the
    distances ahead, ascending, and the sums behind the prefix sums of the
    distances behind: each crosses zero at the jump it bounds.

    Every eigenphase moves up with speed v^H L v, between the shortest bond
    length l_min and the longest l_max (Berkolaiko and Kuchment 2013).  So
    with theta_j the distances ahead, ascending, the level holds to
    k + theta_1 / l_max and the next m jumps have all happened by
    k + theta_m / l_min, and behind k the same holds with the distances
    behind.  Each distance first loses (for a hold) or gains (for a bound) a
    margin of 16 R eps, R the size, plus 8 times the system's unitarity
    defect: eigvals moves the phases of a unitary matrix by a few eps.  A
    call of the step makes one stacked `np.linalg.eigvals` call per
    MAX_BATCH_BYTES of matrices.  Needs unitary S (`NonUnitaryScattering`
    otherwise).
    """
    size = S.shape[-1]
    defects = np.abs(S @ S.conj().swapaxes(-1, -2) - np.eye(size)).max(axis=(-2, -1), initial=0.0)
    if defects.max(initial=0.0) > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defects.max():.3e}: eigenphase counting needs a unitary S")
    margin = 16 * size * np.finfo(float).eps + 8 * defects
    l_total = lengths.sum(-1)
    l_min, l_max = lengths.min(-1, initial=np.inf), lengths.max(-1, initial=0.0)

    def evaluate(which: np.ndarray, k: np.ndarray, phases: np.ndarray) -> tuple:
        turned = np.sort(_turned(phases), axis=-1)  # the distances behind, ascending
        levels = np.rint((base[which] + k * l_total[which] - turned.sum(-1)) / TWO_PI)
        slack, slow, fast = margin[which, None], l_min[which, None], l_max[which, None]

        def side(distances: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
            hold = np.maximum(distances[:, :1] - slack, 0.0) / fast
            return sign * np.cumsum(distances, axis=-1), np.concatenate([hold, (distances + slack) / slow], axis=-1)

        return levels, side(TWO_PI - turned[:, ::-1], -1.0), side(turned, 1.0)

    def step(which: np.ndarray, k: np.ndarray) -> tuple:
        return evaluate(which, k, _eigenphases(S, lengths, which, k))

    phases = _eigenphases(S, lengths, which, ks)
    first = np.flatnonzero(np.append(True, which[1:] != which[:-1]))
    base = np.zeros(len(S))
    base[which[first]] = _turned(phases[first]).sum(-1) - ks[first] * l_total[which[first]]
    return (step, *evaluate(which, ks, phases))


def _unitary_stack(S: np.ndarray, lengths: np.ndarray, k_max: float, tol: float, source: str) -> list[Spectrum]:
    """`UnitaryFamily.roots` of a stack of systems of one size, as they are."""
    cells = [0.9 * math.pi / float(l.max()) if len(l) else k_max for l in lengths]
    grids = [np.append(_k_grid(K_MIN, k_max, cell), k_max) for cell in cells]
    which, ks = np.repeat(np.arange(len(grids)), [len(g) for g in grids]), np.concatenate(grids)
    step, *values = _eigenphase_steps(S, lengths, which, ks)
    jumps, calls, rounds = _refine_steps(step, _grid_cells(which, ks, *values), tol, len(S))
    meta = {"tol": tol, "k_min": K_MIN, "bonds": S.shape[-1]}
    return [
        Spectrum(
            tuple(SpectralRoot(k, n, source) for k, n in member),
            k_max,
            {"grid_step": cell, **meta, "evaluations": len(grid) + int(n), "rounds": int(r)},
        )
        for member, cell, grid, n, r in zip(jumps, cells, grids, calls, rounds)
    ]


class UnitaryFamily:
    """Unitary secular systems of one size, contracted once
    (`scattering.contracted_stacks`: every pure-transmission bond dropped,
    the determinant unchanged) and kept as one stack per contracted size.
    A system's contraction depends on its own S only, and so does each of
    its results."""

    def __init__(self, systems: Sequence[SecularSystem]):
        self.members = len(systems)
        self.stacks = contracted_stacks(systems)

    def counts(self, k: float) -> list[int]:
        """N(k) of every system: the number of roots of det(I - S D(k)) in
        (K_MIN, k], with order.  These are the levels of `_eigenphase_steps`
        on the grid K_MIN, k of every contracted system, so the matrices go
        to `eigvals` per MAX_BATCH_BYTES.  Needs unitary S
        (`NonUnitaryScattering` otherwise)."""
        out = [0] * self.members
        for members, S, lengths in self.stacks:
            grid, which = np.tile([K_MIN, k], len(S)), np.repeat(np.arange(len(S)), 2)
            for m, n in zip(members.tolist(), _eigenphase_steps(S, lengths, which, grid)[1][1::2].tolist()):
                out[m] = int(n)
        return out

    def roots(
        self, k_max: float, *, tol: float = 1e-10, source: str = "full", members: Optional[Sequence[int]] = None
    ) -> list[Spectrum]:
        """Roots of det(I - S D(k)) on (K_MIN, k_max] of the systems
        `members` (all by default), one spectrum each in that order.

        Each stack of contracted systems of one size is solved together;
        `meta["bonds"]` is a system's contracted size.  N(k) of
        `_eigenphase_steps` is exact and monotone at every k, and each jump
        is a root of order the jump's size, so a cell with equal end counts
        holds no root however wide it is.  A system's cell,
        `meta["grid_step"]`, is 0.9 pi / (the longest bond length of the
        contracted system), or k_max with no bonds: no phase turns by half a
        circle in one cell, so the regula-falsi value of `_refine_steps`,
        the sum of the phases crossing at a jump, stays continuous.  Every
        evaluation's count keeps the bracket exact, and its reaches move the
        bracket's ends without an evaluation, so each root is certified by
        its end counts.  The grids of all systems of a stack go to stacked
        `eigvals` calls, and so does each refinement round;
        `meta["rounds"]` counts the rounds that evaluated the system.
        """
        require_positive(k_max=k_max, tol=tol)
        members = range(self.members) if members is None else members
        out: dict[int, Spectrum] = {}
        for stack, S, lengths in self.stacks:
            pick = np.flatnonzero(np.isin(stack, members))
            if len(pick):
                out.update(zip(stack[pick].tolist(), _unitary_stack(S[pick], lengths[pick], k_max, tol, source)))
        return [out[m] for m in members]


def find_roots_unitary(sys: SecularSystem, k_max: float, *, tol: float = 1e-10, source: str = "full") -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S:
    `UnitaryFamily.roots` of a family of one."""
    return UnitaryFamily([sys]).roots(k_max, tol=tol, source=source)[0]
