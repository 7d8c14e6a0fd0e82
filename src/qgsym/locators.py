"""The real and the unitary root locators, each for a family of functions.

Both close the brackets of every member together with `_refine_steps`, the
core of `spectra`, in rounds of one array call.

- `find_roots_real`: the quotient factors of `factors`, from their two-loop
  form G (`quotient.QuotientFamily`).  G strictly decreases between its
  poles, so a member's roots are its sine-zero roots, whose orders are
  exact, and one simple root between each two consecutive poles: no grid.
  Each member's count is known before any refinement, so only the members
  whose count is their exact eigenphase count N(k_max) are refined, with
  the level G >= 0 as the step and arctan G as the value, by Newton steps
  on G from a start that the poles' residues fix.  Every other member goes
  straight to `UnitaryFamily.roots`.
- `UnitaryFamily`: exact eigenphase counting for unitary scattering.  The
  family is contracted once (`contracted_stacks`: every pure-transmission
  bond dropped, the determinant unchanged), and each stack of contracted
  systems of one size is solved together (`UnitaryFamily.roots`).  N(k) of
  every system (`UnitaryFamily.counts`) is an exact root count certifying
  a locator's output.  This is the robust path for high-order roots of
  large systems.

`find_roots_unitary` solves a family of one.  Every member's spectrum
reports the points evaluated for it as `meta["evaluations"]`, and the
refinement rounds that evaluated it as `meta["rounds"]`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NonUnitaryScattering, require_positive
from .quotient import QuotientFamily
from .scattering import SecularSystem, contracted_stacks
from .spectra import TWO_PI, Spectrum, _chunked, _grid_cells, _k_grid, _refine_steps

K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet


def find_roots_real(
    family: QuotientFamily, systems: UnitaryFamily, k_max: float, tol: float = 1e-10, *, source: str = ""
) -> list[Spectrum]:
    """Roots on (0, k_max] of the dispersion forms of `family`, whose
    quotient systems are `systems`, one spectrum per member in that order.

    A member's roots are its roots at the sine zeros, with their orders
    (`QuotientFamily.sine_zeros`), and one simple root of G in each bracket
    from 0 or a pole to the next pole or to k_max.  G falls from +inf at each
    pole, and at 0 unless every c_i = 1 (the trivial factor: G(0+) = 0, and
    its first bracket holds no root), to -inf at the next pole, so the
    bracket cut at k_max holds a root exactly when G(k_max) <= 0, and a
    bracket with a sine zero where G is 0 holds that root alone.  So each
    member's count comes first, from G at k_max, and only the members whose
    count is their N(k_max) (`UnitaryFamily.counts`) are refined: all their
    brackets in one `_refine_steps` call, with the level G >= 0 as the step
    and arctan G, +-pi/2 at the poles, as the value, in calls of at most
    MAX_BATCH_BYTES of points.  Near a pole a with residue r_a (`sine_zeros`,
    and `residue_at_zero` at 0) G is about r_a / (k - a), so a bracket between
    two poles starts at the root of their two terms, (r_a b + r_b a) /
    (r_a + r_b), and the bracket cut at k_max at the Newton point from
    G(k_max).  Each evaluation gives G' with G and proposes the Newton point
    k - G / G', which `_refine_steps` takes under its guard.  Every other
    member is solved by one `UnitaryFamily.roots` call.  Each spectrum's
    `meta` has `tol`, the points evaluated for the member by either locator
    (`evaluations`), the rounds that evaluated it (`rounds`), its
    `eigenphase_count` N(k_max), and whether it fell back (`fallback`).
    """
    require_positive(k_max=k_max, tol=tol)
    zeros, residues, orders, settled = family.sine_zeros(k_max)
    members, last = len(residues), len(zeros) + 1
    g_max, slope_max = _chunked(family.pole_form, np.arange(members), np.full(members, float(k_max)), 8).T
    # each member's bracket ends, member by member: 0, its poles and k_max, and G's residue at each but k_max
    ends = np.pad(residues > 0.0, ((0, 0), (1, 1)), constant_values=True)
    which, col = np.nonzero(ends)
    x = np.concatenate([[0.0], zeros, [k_max]])[col]
    r = np.concatenate([family.residue_at_zero[:, None], residues, np.zeros((members, 1))], axis=1)[ends]
    opens = np.append(which[1:] == which[:-1], False)  # the end opens a bracket that holds a root of G
    opens &= (col > 0) | ~family.one.all(axis=1)[which]  # not the trivial factor's first
    opens[(np.cumsum(ends) - 1).reshape(ends.shape)[:, 1:-1][settled]] = False  # its root is a sine zero's
    cut = opens & np.append(col[1:] == last, False)
    opens[cut] = (x[cut] < k_max) & (g_max[which[cut]] <= 0.0)
    counts = systems.counts(k_max)
    certified = np.bincount(which[opens], minlength=members) + orders.sum(axis=1) == counts

    i = np.flatnonzero(opens & certified[which])
    fb = np.where(cut[i], np.arctan(g_max[which[i]]), -0.5 * math.pi)[:, None]
    fa, flat = np.full_like(fb, 0.5 * math.pi), np.zeros_like(fb)
    # the root of the two poles' terms r / (k - pole), or the Newton point from k_max
    newton = k_max - (g_max / slope_max)[which[i]]
    first = np.where(cut[i], newton, (r[i] * x[i + 1] + r[i + 1] * x[i]) / (r[i] + r[i + 1]))

    def sign_at(which: np.ndarray, k: np.ndarray) -> tuple:
        g, slope = _chunked(family.pole_form, which, k, 8).T
        value = np.arctan(g)[:, None]
        side = (value, np.zeros_like(value))  # the level holds for 0, and no jump is bounded
        return 1.0 * (value[:, 0] >= 0.0), side, side, k - g / slope

    cells = (which[i], x[i], np.ones(len(i)), (fa, flat), x[i + 1], np.zeros(len(i)), (fb, flat), first)
    (refined, roots, _), calls, rounds = _refine_steps(sign_at, cells, tol, members)
    # every member's roots at the sine zeros and its simple roots of G, by member, then k, then order
    on, at = np.nonzero(orders)
    member = np.concatenate([on, refined])
    roots = np.concatenate([zeros[at], roots])
    order = np.concatenate([orders[on, at], np.ones(len(refined), dtype=np.int64)])
    by = np.lexsort((order, roots, member))
    member, roots, order = member[by], roots[by], order[by]
    roots.flags.writeable = order.flags.writeable = False  # each member's spectrum holds a slice
    bounds = np.searchsorted(member, np.arange(members + 1)).tolist()
    found = [
        Spectrum(
            roots[lo:hi], order[lo:hi], (source,) * (hi - lo), k_max,
            {"tol": tol, "evaluations": 1 + n, "rounds": r, "eigenphase_count": count, "fallback": not ok},
        )
        for lo, hi, n, r, count, ok in zip(
            bounds[:-1], bounds[1:], calls.tolist(), rounds.tolist(), counts, certified.tolist()
        )
    ]
    short = np.flatnonzero(~certified).tolist()
    for m, exact in zip(short, systems.roots(k_max, tol=tol, source=source, members=short)):
        evaluations, rounds = (found[m].meta[key] + exact.meta[key] for key in ("evaluations", "rounds"))
        meta = {**found[m].meta, "evaluations": evaluations, "rounds": rounds}
        found[m] = Spectrum(exact.k, exact.order, exact.source, k_max, meta)
    return found


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
    (on, roots, size), calls, rounds = _refine_steps(step, _grid_cells(which, ks, *values), tol, len(S))
    roots.flags.writeable = size.flags.writeable = False  # each system's spectrum holds a slice
    bounds = np.searchsorted(on, np.arange(len(S) + 1)).tolist()
    meta = {"tol": tol, "k_min": K_MIN, "bonds": S.shape[-1]}
    return [
        Spectrum(
            roots[lo:hi], size[lo:hi], (source,) * (hi - lo), k_max,
            {"grid_step": cell, **meta, "evaluations": len(grid) + n, "rounds": r},
        )
        for lo, hi, cell, grid, n, r in zip(bounds[:-1], bounds[1:], cells, grids, calls.tolist(), rounds.tolist())
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
