"""The real and the unitary root locators, each for a family of functions.

Both run the core of `spectra`: a grid of every member in chunked array
calls, then `_refine_steps` in rounds over the brackets of every member.

- `find_roots_real_family`: the secular functions of a `UnitaryFamily`,
  each given as a real function on the real axis.  Every zero of a secular
  function is real and N(k) counts them with order, so a member whose grid
  holds no exact 0.0 and as many sign changes as N(k_max) has found them
  all, each simple.  The counts come first: `_sign_roots` closes the sign
  changes of those members only, with the level f >= 0 as the step and f
  itself as the value.  Every other member goes straight to
  `UnitaryFamily.roots`.
- `UnitaryFamily`: exact eigenphase counting for unitary scattering.  The
  family is contracted once (`contracted_stacks`: every pure-transmission
  bond dropped, the determinant unchanged), and each stack of contracted
  systems of one size is solved together (`UnitaryFamily.roots`).  N(k) of
  every system (`UnitaryFamily.counts`) is an exact root count certifying
  a locator's output.  This is the robust path for high-order roots of
  large systems.

`find_roots_real` and `find_roots_unitary` solve a family of one.  Every
member's spectrum reports the points evaluated for it, grid included, as
`meta["evaluations"]`, and the refinement rounds that evaluated it as
`meta["rounds"]`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridTooCoarse, NonUnitaryScattering, require_positive
from .scattering import SecularSystem, contracted_stacks
from .spectra import (
    TWO_PI, Evaluator, SpectralRoot, Spectrum, _chunked, _grid_cells, _grid_values, _k_grid, _refine_steps,
)

K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet


def _sign_roots(
    f: Evaluator, counts: Sequence[int], k_max: float, grid_step: float, tol: float, source: str
) -> list[Spectrum]:
    """The sign changes on a grid from `grid_step` to `k_max` of functions
    real on the real axis, one per entry of `counts`: one spectrum per
    function, with a root of order 1 for each sign change of a function
    that its grid certifies.

    `f(which, k)` takes an integer array of members and an array of points
    that broadcast together, and returns the values elementwise.  The
    members share one grid, which ends at k_max, evaluated part by part and
    each part in chunks of members (`spectra._grid_values`, `rows[:, None]`
    against the part).  A member is certified when its grid holds no exact
    0.0 and exactly its count of sign changes; the sign changes of the
    certified members, and only those, are closed to width `tol` by
    `_refine_steps`, with the level `f >= 0` as the step and f as the
    value, in one call of `f` on 1-D arrays per round.  Every jump is
    reported inside its bracket, so a certified member keeps its count of
    roots, all on (0, k_max].  Every other member's spectrum has no roots
    and `meta["fallback"]`.
    `meta["evaluations"]` counts the member's grid points and refinement
    points, and `meta["rounds"]` the refinement rounds that evaluated the
    member.  `k_max` below `grid_step` leaves no grid (`GridTooCoarse`).
    """
    if k_max < grid_step:
        raise GridTooCoarse(f"k_max = {k_max!r} is below grid_step = {grid_step!r}")
    ks = np.append(_k_grid(grid_step, k_max - grid_step / 2.0, grid_step), k_max)

    members, cells = len(counts), []
    zero = np.zeros(members, dtype=bool)  # the members with an exact 0.0 on their grid
    for rows, part, vals in _grid_values(f, members, ks):
        zero[rows] |= ~vals.all(axis=1)
        r, i = np.nonzero(np.diff(vals >= 0.0, axis=1))
        cells.append((rows[r], part[i], vals[r, i, None], part[i + 1], vals[r, i + 1, None]))
    which, a, fa, b, fb = (np.concatenate(v) for v in zip(*cells))
    certified = ~zero & (np.bincount(which, minlength=members) == np.asarray(counts))
    which, a, fa, b, fb = (v[certified[which]] for v in (which, a, fa, b, fb))

    def level(values: np.ndarray) -> np.ndarray:
        return 1.0 * (values[:, 0] >= 0.0)

    def sign_at(which: np.ndarray, k: np.ndarray) -> tuple:
        fk = np.asarray(_chunked(f, which, k, 8), dtype=float)[:, None]
        side = (fk, np.zeros_like(fk))  # the level holds for 0, and no jump is bounded
        return level(fk), side, side

    flat = np.zeros_like(fa)
    cells = (which, a, level(fa), (fa, flat), b, level(fb), (fb, flat))
    jumps, calls, rounds = _refine_steps(sign_at, cells, tol, members)
    return [
        Spectrum(
            tuple(SpectralRoot(k, 1, source) for k, _ in member),
            k_max,
            {"grid_step": grid_step, "tol": tol, "evaluations": len(ks) + int(n), "rounds": int(r), "fallback": not ok},
        )
        for member, n, r, ok in zip(jumps, calls, rounds, certified.tolist())
    ]


def find_roots_real_family(
    f: Evaluator, systems: UnitaryFamily, k_max: float, grid_step: float, tol: float = 1e-10, *, source: str = ""
) -> list[Spectrum]:
    """Roots on (0, k_max] of the secular functions of `systems`, one
    spectrum per member of the family.

    `f(m, k)`, a family evaluator as `_sign_roots` takes it, must be real on
    the real axis with the zeros of system m's det(I - S D(k)).  Every such
    zero is real, N(k_max) counts them with order (`UnitaryFamily.counts`),
    and a sign-change bracket holds an odd number of them; so a member with
    no exact zero on its grid and as many sign changes as N(k_max) has one
    simple zero in each bracket and none elsewhere.  The counts come first,
    so only such members are refined (`_sign_roots`), and every other
    member is solved by `UnitaryFamily.roots`, which is exact, in one call.
    Each spectrum's `meta` has the scan's `grid_step` and `tol`, the points
    evaluated for the member by the scan and the unitary locator
    (`evaluations`), the refinement rounds that evaluated it (`rounds`), its
    `eigenphase_count` N(k_max), and whether it fell back (`fallback`).
    """
    require_positive(k_max=k_max, grid_step=grid_step, tol=tol)
    counts = systems.counts(k_max)
    found = _sign_roots(f, counts, k_max, grid_step, tol, source)
    short = [m for m, s in enumerate(found) if s.meta["fallback"]]
    for m, exact in zip(short, systems.roots(k_max, tol=tol, source=source, members=short)):
        evaluations, rounds = (found[m].meta[key] + exact.meta[key] for key in ("evaluations", "rounds"))
        meta = {**found[m].meta, "evaluations": evaluations, "rounds": rounds}
        found[m] = Spectrum(exact.roots, k_max, meta)
    for s, n in zip(found, counts):
        s.meta["eigenphase_count"] = n
    return found


def find_roots_real(
    f: Callable[[np.ndarray], np.ndarray], system: SecularSystem, k_max: float, grid_step: float,
    tol: float = 1e-10, *, source: str = "",
) -> Spectrum:
    """Roots on (0, k_max] of the secular function of `system`:
    `find_roots_real_family` on a family of one.  `f` takes a numpy array of
    real points, returns the values elementwise, and has the zeros of the
    system's det(I - S D(k))."""
    family = UnitaryFamily([system])
    return find_roots_real_family(lambda which, k: f(k), family, k_max, grid_step, tol, source=source)[0]


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
