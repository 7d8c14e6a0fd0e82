"""The real and the unitary root locators, each for a family of functions.

Both close the brackets of every member together, in rounds of one array
call: the real one with `_newton_brackets`, the unitary one with
`_refine_steps`.

- `find_roots_real`: the quotient factors of `factors`, from their two-loop
  form G (`quotient.QuotientFamily`): each member's sine-zero roots, of
  exact orders, and one simple root of G between each two consecutive
  poles, with no grid, each member's count certified by the eigenphase
  count of its own closed-form system (`QuotientFamily.bouquets`).
- `UnitaryFamily`: exact eigenphase counting for unitary scattering, on
  stacks of systems of one size, contracted once (`contracted_stacks`) or
  given as they are.  N(k) of every system (`UnitaryFamily.counts`) is an
  exact root count certifying a locator's output.  This is the robust path
  for high-order roots of large systems.  One evaluator, `_eigenphase_steps`,
  gives the counts and the steps that `UnitaryFamily.roots` refines, from
  eigenphases of a Hermitian eigensolver, each matrix's error bounded by its
  residual (`_unitary_phases`).

Both hand back a family's roots as one `spectra.Roots`, whose `meta`
reports, as arrays of one value per member, the points evaluated for each
member (`evaluations`) and the refinement rounds that evaluated it
(`rounds`).  `find_roots_unitary` solves a family of one, as a `Spectrum`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NonUnitaryScattering, require_positive
from .quotient import QuotientFamily
from .scattering import SecularSystem, contracted_stacks
from .spectra import TWO_PI, Roots, Spectrum, _chunked, _grid_cells, _k_grid, _newton_brackets, _refine_steps

K_MIN = 1e-6  # lower end of the unitary locator's range; k = 0 is always a root
PHASE_EPS = 1e-12  # an eigenphase in [0, PHASE_EPS) has not crossed 1 yet
# the weight of U's skew-Hermitian part in the Hermitian matrix of `_unitary_phases`: the inverse golden
# ratio, the tangent of no rational multiple of pi, so no two phases at rational multiples of pi, such as
# those at sine zeros, sum to 2 atan(GAMMA)
GAMMA = (math.sqrt(5.0) - 1.0) / 2.0


def find_roots_real(family: QuotientFamily, k_max: float, tol: float = 1e-10) -> Roots:
    """Roots on (0, k_max] of the dispersion forms of `family`, as one
    `Roots` of its members, certified on the family's own closed-form
    systems (`QuotientFamily.bouquets`, one stack of a `UnitaryFamily`).

    A member's roots are its roots at the sine zeros, with their orders
    (`QuotientFamily.sine_zeros`), and one simple root of G in each bracket
    from 0 or a pole to the next pole or to k_max.  G falls from +inf at each
    pole, and at 0 unless every c_i = 1 (the trivial factor: G(0+) = 0, and
    its first bracket holds no root), to -inf at the next pole, so the
    bracket cut at k_max holds a root exactly when G(k_max) <= 0, and a
    bracket with a sine zero where G is 0 holds that root alone.  So each
    member's count comes first, from G at k_max, and only the members whose
    count is their N(k_max) (`UnitaryFamily.counts`) are refined: all their
    brackets in one `_newton_brackets` call on G and G' (`pole_form`).  Near
    a pole a with residue r_a (`sine_zeros`, and `residue_at_zero` at 0) G
    is about r_a / (k - a), so a bracket between two poles starts at the
    root of their two terms, (r_a b + r_b a) / (r_a + r_b), and the bracket
    cut at k_max at the Newton point from G(k_max).  Every other member is
    solved first by one `UnitaryFamily.roots` call, whose rows take the
    place of its own.  All rows are sorted once, by member, k and order, and
    a member's roots less than `tol` apart are one root of their summed
    order, as `_jumps` joins the unitary locator's jumps, which are already
    `tol` apart.  The roots' `meta` has `tol` and, as arrays of one value
    per member, the points evaluated for the member by either locator
    (`evaluations`), the rounds that evaluated it (`rounds`), its
    `eigenphase_count` N(k_max), and whether it fell back (`fallback`).
    """
    require_positive(k_max=k_max, tol=tol)
    systems = UnitaryFamily(stacks=[family.bouquets()])
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
    counts = np.array(systems.counts(k_max))
    certified = np.bincount(which[opens], minlength=members) + orders.sum(axis=1) == counts

    i = np.flatnonzero(opens & certified[which])
    # G from +inf at 0 or a pole to -inf at the next pole, or to G(k_max); the first point is the root of
    # the two poles' terms r / (k - pole), or the Newton point from k_max
    fb = np.where(cut[i], g_max[which[i]], -np.inf)
    newton = k_max - (g_max / slope_max)[which[i]]
    first = np.where(cut[i], newton, (r[i] * x[i + 1] + r[i + 1] * x[i]) / (r[i] + r[i + 1]))
    brackets = (which[i], x[i], np.full(len(i), np.inf), x[i + 1], fb)
    (refined, roots, _), calls, rounds = _newton_brackets(family.pole_form, brackets, first, tol, members)
    # the certified members' roots at the sine zeros and their simple roots of G, and the unitary locator's
    # roots of every member that falls back, in place of its own
    on, at = np.nonzero(orders * certified[:, None])
    parts = [(on, zeros[at], orders[on, at]), (refined, roots, np.ones(len(refined), dtype=np.int64))]
    evaluations, fallback = 1 + calls, ~certified
    short = np.flatnonzero(fallback)
    if len(short):
        exact = systems.roots(k_max, tol=tol, members=short)
        parts.append((short[exact.member], exact.k, exact.order))
        evaluations[short] += exact.meta["evaluations"]
        rounds[short] += exact.meta["rounds"]
    member, roots, order = (np.concatenate(v) for v in zip(*parts))
    by = np.lexsort((order, roots, member))
    member, roots, order = member[by], roots[by], order[by]
    # a member's roots less than tol apart are one root of their summed order, as `_jumps` joins jumps: the
    # zeros of two sines whose lengths are commensurate in reals but not in floats come one from each
    first = np.ones(len(member), dtype=bool)
    first[1:] = (member[1:] != member[:-1]) | (roots[1:] - roots[:-1] >= tol)
    first = np.flatnonzero(first)
    member, roots, order = member[first], roots[first], np.add.reduceat(order, first)
    meta = {"tol": tol, "evaluations": evaluations, "rounds": rounds, "eigenphase_count": counts, "fallback": fallback}
    return Roots(member, roots, order, members, k_max, meta)


def _unitary_phases(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenphases in (-pi, pi] of a stack of unitary matrices `U`, and
    each matrix's residual r, a bound on the error of every phase.

    U is normal: U = A + iB with A and B Hermitian and commuting.  So the
    Hermitian H = wU + (wU)^H = 2(A + GAMMA B), w = 1 - i GAMMA, has U's
    eigenvectors, an eigenphase phi of U giving H the eigenvalue
    2 (cos phi + GAMMA sin phi).  One stacked `np.linalg.eigh` call gives
    H's eigenvectors V, and the phases are the angles of the Rayleigh
    quotients rho = diag(V^H U V).  U differs from the normal
    V diag(rho) V^H by r = |U V - V diag(rho)|_F, so the Hoffman-Wielandt
    inequality (1953) matches U's eigenvalues to rho within r each, and each
    phase moves by at most about r.  Two phases of U with
    phi1 + phi2 = 2 atan(GAMMA) mod 2pi share an eigenvalue of H, whose
    eigenvectors then mix U's and give a large r: the matrices whose r is
    above PHASE_EPS / 16 go to one stacked `np.linalg.eigvals` call, and
    their r is 0, as they move the phases by a few eps only.  No phase at 0
    then crosses -PHASE_EPS, the line the counts depend on.
    """
    wU = (1.0 - 1j * GAMMA) * U
    _, V = np.linalg.eigh(wU + wU.conj().swapaxes(-1, -2))
    UV = U @ V
    rho = np.einsum("...ij,...ij->...j", V.conj(), UV)
    R = (UV - V * rho[..., None, :]).view(float)
    residuals = np.sqrt(np.einsum("...ij,...ij->...", R, R))
    phases = np.angle(rho)
    far = np.flatnonzero(residuals > PHASE_EPS / 16)
    if len(far):
        phases[far] = np.angle(np.linalg.eigvals(U[far]))
        residuals[far] = 0.0
    return phases, residuals


def _eigenphase_steps(S: np.ndarray, lengths: np.ndarray, which: np.ndarray, ks: np.ndarray) -> tuple:
    """The step evaluator of N(k) for a stack of systems of one size, `S` and
    `lengths`, on the grid `which, ks` (each system's points consecutive and
    ascending): `step` gives the levels and what each point sees ahead and
    behind (`_refine_steps`) at new points; then the grid's levels, and
    `sides`, which computes the grid's ahead and behind when called.  Needs
    unitary S (`NonUnitaryScattering` otherwise).

    A point's phases are those of U(k) = S D(k) less PHASE_EPS, in [0, 2pi)
    and ascending, its residual (`_unitary_phases`) a last column: an
    eigenvalue at exactly 1 is just below 2pi, about to cross.  The matrices
    go to one stacked `eigh` call per MAX_BATCH_BYTES.  N(k) counts the
    roots in (first grid point, k]: N(k) = (P(k0) - k0 * L + k * L - P(k)) /
    2pi, k0 the system's first grid point, L its total bond length and P(k)
    the sum of the phases, each advancing by k * L in all and dropping by 2pi
    as it crosses 0.

    Each phase's distance to the crossing point 0 ahead is 2pi less its
    distance behind, which is its value in [0, 2pi).  A jump of m happens
    when the m phases nearest the crossing point pass it, so the sums ahead
    are minus the prefix sums of the distances ahead, ascending, and the
    sums behind the prefix sums of the distances behind: each crosses zero
    at the jump it bounds.

    Every eigenphase moves up with speed v^H L v, between the shortest bond
    length l_min and the longest l_max (Berkolaiko and Kuchment 2013).  So
    with theta_j the distances ahead, ascending, the level holds to
    k + theta_1 / l_max and the next m jumps have all happened by
    k + theta_m / l_min, and behind k the same holds with the distances
    behind.  Each distance first loses (for a hold) or gains (for a bound) a
    margin: the point's residual r, which bounds the error of its phases,
    plus 16 R eps, R the size, for the rounding of r and of the phases, plus
    8 times the system's unitarity defect |S S^H - I|.
    """
    size = S.shape[-1]
    defects = np.abs(S @ S.conj().swapaxes(-1, -2) - np.eye(size)).max(axis=(-2, -1), initial=0.0)
    if defects.max(initial=0.0) > 1e-10:
        raise NonUnitaryScattering(f"|S S^H - I| = {defects.max():.3e}: eigenphase counting needs a unitary S")
    margin = 16 * size * np.finfo(float).eps + 8 * defects
    l_total, l_min, l_max = lengths.sum(-1), lengths.min(-1, initial=np.inf), lengths.max(-1, initial=0.0)

    def phases(which: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = np.exp(1j * k[:, None] * lengths[which])
        phases, residuals = _unitary_phases(S[which] * d[:, None, :])
        phases -= PHASE_EPS
        turned = np.sort(np.where(phases < 0.0, phases + TWO_PI, phases), axis=-1)
        return np.concatenate([turned, residuals[:, None]], axis=-1)

    grid = _chunked(phases, which, ks, S[0].nbytes)
    first = np.flatnonzero(np.append(True, which[1:] != which[:-1]))
    base = np.zeros(len(S))
    base[which[first]] = grid[first, :-1].sum(-1) - ks[first] * l_total[which[first]]

    def level(which: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.rint((base[which] + k * l_total[which] - out[:, :-1].sum(-1)) / TWO_PI)

    def sides(which: np.ndarray, out: np.ndarray) -> tuple:
        turned, slack = out[:, :-1], (margin[which] + out[:, -1])[:, None]
        slow, fast = l_min[which, None], l_max[which, None]

        def side(distances: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
            hold = np.maximum(distances[:, :1] - slack, 0.0) / fast
            return sign * np.cumsum(distances, axis=-1), np.concatenate([hold, (distances + slack) / slow], axis=-1)

        return side(TWO_PI - turned[:, ::-1], -1.0), side(turned, 1.0)

    def step(which: np.ndarray, k: np.ndarray) -> tuple:
        out = _chunked(phases, which, k, S[0].nbytes)
        return (level(which, k, out), *sides(which, out))

    return step, level(which, ks, grid), lambda: sides(which, grid)


class UnitaryFamily:
    """Unitary secular systems of one size, contracted once
    (`scattering.contracted_stacks`: every pure-transmission bond dropped,
    the determinant unchanged) and kept as one stack per contracted size,
    or `stacks` of (members ascending, S, lengths) with nothing to
    contract, as they are.  A system's contraction depends on its own S
    only, and so does each of its results."""

    def __init__(self, systems: Sequence[SecularSystem] = (), stacks: Optional[list] = None):
        self.stacks = contracted_stacks(systems) if stacks is None else stacks
        self.members = sum(len(members) for members, _, _ in self.stacks)

    def counts(self, k: float) -> list[int]:
        """N(k) of every system: the number of roots of det(I - S D(k)) in
        (K_MIN, k], with order: the levels of `_eigenphase_steps` on the grid
        K_MIN, k of every contracted system, without the sums and reaches
        that only `roots` asks for.  Needs unitary S (`NonUnitaryScattering`
        otherwise)."""
        out = np.zeros(self.members, dtype=np.int64)
        for members, S, lengths in self.stacks:
            grid, which = np.tile([K_MIN, k], len(S)), np.repeat(np.arange(len(S)), 2)
            out[members] = _eigenphase_steps(S, lengths, which, grid)[1][1::2]
        return out.tolist()

    def roots(self, k_max: float, *, tol: float = 1e-10, members: Optional[Sequence[int]] = None) -> Roots:
        """Roots of det(I - S D(k)) on (K_MIN, k_max] of the systems
        `members` (all by default), as one `Roots` whose member i is system
        `members[i]`.

        Each stack of contracted systems of one size is solved together, on
        one grid of all its systems: `_refine_steps` closes the jumps of
        `_eigenphase_steps` from the grid's levels and sides.  N(k) is exact
        and monotone at every k, and each jump is a root of order the jump's
        size, so a cell with equal end counts holds no root however wide it
        is.  A system's cell, `meta["grid_step"]`, is 0.9 pi / (the longest
        bond length of the contracted system), or k_max with no bonds: no
        phase turns by half a circle in one cell, so the regula-falsi value,
        the sum of the phases crossing at a jump, stays continuous.  Every
        evaluation's count keeps the bracket exact, and its reaches move the
        bracket's ends without an evaluation, so each root is certified by
        its end counts.  `meta` has `tol` and `k_min`, and as arrays of one
        value per member: `bonds`, the contracted size, `evaluations`, the
        points evaluated, and `rounds`, the refinement rounds that did so.
        """
        require_positive(k_max=k_max, tol=tol)
        members = np.arange(self.members) if members is None else np.asarray(members, dtype=np.intp)
        grid_step, (bonds, evaluations, rounds) = np.zeros(len(members)), np.zeros((3, len(members)), dtype=np.int64)
        parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.int64))]
        for stack, S, lengths in self.stacks:
            at = np.flatnonzero(np.isin(members, stack))  # the places in `members` of this stack's systems
            if len(at):
                pick = np.searchsorted(stack, members[at])
                S, lengths = S[pick], lengths[pick]
                grid_step[at] = [0.9 * math.pi / float(l.max()) if len(l) else k_max for l in lengths]
                grids = [np.append(_k_grid(K_MIN, k_max, cell), k_max) for cell in grid_step[at].tolist()]
                which, ks = np.repeat(np.arange(len(S)), [len(g) for g in grids]), np.concatenate(grids)
                step, levels, sides = _eigenphase_steps(S, lengths, which, ks)
                (on, k, size), calls, rounds[at] = _refine_steps(step, _grid_cells(which, ks, levels, *sides()), tol, len(S))
                evaluations[at], bonds[at] = np.bincount(which, minlength=len(S)) + calls, S.shape[-1]
                parts.append((at[on], k, size))
        member, k, order = (np.concatenate(v) for v in zip(*parts))
        by = np.argsort(member, kind="stable")
        meta = dict(tol=tol, k_min=K_MIN, grid_step=grid_step, bonds=bonds, evaluations=evaluations, rounds=rounds)
        return Roots(member[by], k[by], order[by], len(members), k_max, meta)


def find_roots_unitary(sys: SecularSystem, k_max: float, *, tol: float = 1e-10, source: str = "full") -> Spectrum:
    """Roots of det(I - S D(k)) on (K_MIN, k_max] for unitary S:
    `UnitaryFamily.roots` of a family of one, each root under `source`."""
    return UnitaryFamily([sys]).roots(k_max, tol=tol).spectrum(0, source)
