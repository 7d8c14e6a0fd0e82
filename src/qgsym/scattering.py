"""Scattering matrices on directed bonds and the secular determinant det(I - S D(k)).

Bonds are ordered globally by (edge id, direction flag): bond 2e runs along
edge e's stored orientation, bond 2e+1 against it.  For the two vertex
condition families in scope (standard and quasi-periodic) the scattering
matrix S is k-independent and unitary; the phase matrix D(k) is
diag(exp(i k L_b)).  A group acting freely on the bonds splits S into one
small character block per irrep, assembled from a few rows of S only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .actions import GraphAction
from .errors import (
    ActionNotFree,
    MissingCondition,
    NonUnitPhase,
    UnsupportedCondition,
    ZeroDegree,
)
from .graphs import MetricGraph


@dataclass(frozen=True)
class Standard:
    """Continuity + derivative-sum condition at a vertex."""

    vertex: int


@dataclass(frozen=True)
class QuasiPeriodic:
    """Degree-2 pure-transmission condition f_q = tau*f_p, f_q' = -tau*f_p'.

    `edges` is the ordered pair (p, q) of the two incident edges; the wave
    leaving along q picks up tau, the wave leaving along p picks up 1/tau.
    """

    vertex: int
    tau: complex
    edges: tuple[int, int]


Condition = Union[Standard, QuasiPeriodic]


def vertex_scattering_standard(d: int) -> np.ndarray:
    """d x d vertex scattering matrix 2/d - delta (delta on back-reflection)."""
    if d < 1:
        raise ZeroDegree("vertex degree must be >= 1")
    return np.full((d, d), 2.0 / d, dtype=complex) - np.eye(d, dtype=complex)


def vertex_scattering_quasiperiodic(tau: complex) -> np.ndarray:
    """2 x 2 pure transmission with phases 1/tau and tau, zero reflection.

    Rows/columns are ordered (p-side, q-side): the amplitude leaving along p
    is 1/tau times the one arriving along q, and vice versa with tau.
    """
    tau = complex(tau)
    if abs(abs(tau) - 1.0) > 1e-12:
        raise NonUnitPhase(f"|tau| = {abs(tau)} != 1")
    return np.array([[0.0, 1.0 / tau], [tau, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SecularSystem:
    """k-independent scattering matrix plus per-bond lengths."""

    S: np.ndarray
    lengths: np.ndarray  # L_b per bond, bond order (edge id, direction)

    @property
    def size(self) -> int:
        return self.S.shape[0]

    def unitarity_defect(self) -> float:
        return float(np.max(np.abs(self.S @ self.S.conj().T - np.eye(self.size)), initial=0.0))


def _vertex_block(v: int, cond: Condition, out: np.ndarray) -> np.ndarray:
    """The scattering matrix of vertex v under `cond`, rows the bonds `out`
    leaving it (ascending) and columns their reversals; raises for a
    condition that does not fit the vertex."""
    if isinstance(cond, Standard):
        return vertex_scattering_standard(len(out))
    if isinstance(cond, QuasiPeriodic):
        ep, eq = cond.edges
        # two bonds leaving on two distinct edges: degree 2, no loop
        if ep == eq or sorted(out >> 1) != sorted((ep, eq)):
            raise UnsupportedCondition(
                f"quasi-periodic vertex {v} needs degree 2 with two distinct non-loop edges {cond.edges}"
            )
        block = vertex_scattering_quasiperiodic(cond.tau)  # (p-side, q-side)
        return block if out[0] >> 1 == ep else block[::-1, ::-1]
    raise UnsupportedCondition(f"vertex {v}: {type(cond).__name__}")


def _scattering_rows(
    g: MetricGraph, conditions: Iterable[Condition], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows `rows` of the bond scattering matrix under `conditions`,
    one per vertex, and every bond's length.

    Each bond has one origin, and bond b ends where bond b ^ 1 starts.
    A vertex's scattering matrix fills the block S[out, out ^ 1],
    rows the bonds leaving it in ascending order and columns their
    reversals, the bonds arriving; only the rows listed in `rows` are kept,
    in that order, so the matrix is built only where one of them leaves, and
    at every vertex whose condition is not `Standard`, to check it.
    """
    vertices, by_vertex = set(range(g.n_vertices)), {c.vertex: c for c in conditions}
    if by_vertex.keys() != vertices:
        missing = sorted(vertices - by_vertex.keys())
        if missing:
            raise MissingCondition(f"vertex {missing[0]} has no condition")
        stray = sorted(by_vertex.keys() - vertices)
        raise UnsupportedCondition(f"conditions for vertices {stray} outside the graph")

    nb = 2 * g.n_edges
    origin, lengths = g.ends.ravel(), np.repeat(g.lengths, 2)
    by_origin = np.argsort(origin, kind="stable")
    start = np.searchsorted(origin[by_origin], np.arange(g.n_vertices + 1))
    row_of = np.full(nb, -1)
    row_of[rows] = np.arange(len(rows))

    S = np.zeros((len(rows), nb), dtype=complex)
    checked = {v for v, c in by_vertex.items() if not isinstance(c, Standard)}
    for v in sorted(checked.union(origin[rows].tolist())):
        out = by_origin[start[v] : start[v + 1]]
        block = _vertex_block(v, by_vertex[v], out)
        kept = row_of[out] >= 0
        S[row_of[out[kept]][:, None], out ^ 1] = block[kept]
    return S, lengths


def build_secular_system(g: MetricGraph, conditions: Iterable[Condition]) -> SecularSystem:
    """The dense bond scattering matrix of `g` under its per-vertex
    conditions, with every bond's length."""
    S, lengths = _scattering_rows(g, conditions, np.arange(2 * g.n_edges))
    return SecularSystem(S=S, lengths=lengths)


def character_blocks(
    g: MetricGraph, conditions: Iterable[Condition], action: GraphAction
) -> dict[tuple[int, ...], SecularSystem]:
    """One R x R secular system per irrep label of a group acting freely on the bonds.

    Element m carries bond 2e+d to 2*ep[e] + (d ^ flip[e]); with no bond
    fixed by a non-identity element, the B bonds fall into R = B / |G|
    orbits, each represented by its lowest bond r_i.  S commutes with the
    action, so on the span of sum_m chi(m)^* e_{m.r_j} it acts by
    M_chi[i, j] = sum_m conj(chi(m)) S[r_i, m.r_j], with the irreps of
    `Irrep(orders, labels)`; one FFT over the group axes gives every block.
    The product of the blocks' secular determinants is det(I - S D(k)).
    Only the R rows r_i of S are assembled.  Standard conditions alone are
    known to commute with every automorphism, so any other condition raises
    `UnsupportedCondition`; a bond fixed by a non-identity element raises
    `ActionNotFree`.

    The blocks of a label and of its conjugate (each entry l of order n
    replaced by -l mod n) have one secular determinant, so they always
    share a class of `spectra.isospectral_classes`.  With standard
    conditions S = J S^T J, where the bond reversal J commutes with the
    action and with D(k), and the transpose carries the chi-isotypic
    subspace to the conj(chi) one, so det(I - M_chi D(k)) equals
    det(I - M_conj(chi) D(k)).
    """
    conditions = list(conditions)
    other = [c for c in conditions if not isinstance(c, Standard)]
    if other:
        raise UnsupportedCondition(
            f"vertex {other[0].vertex}: character blocks need standard conditions, "
            f"not {type(other[0]).__name__}"
        )
    reps, images = action.bond_orbits()
    # row 0 is the identity; an abelian group fixes a whole orbit alike
    fixed = images[1:] == reps
    if fixed.any():
        m, i = np.argwhere(fixed)[0].tolist()
        raise ActionNotFree(f"element {list(action.elements())[m + 1]} fixes bond {reps[i]}")

    rows, lengths = _scattering_rows(g, conditions, reps)
    # A[i, m, j] = S[r_i, m.r_j], the group axis unravelled into one axis per generator
    A = rows[:, images].reshape(len(reps), *action.orders, len(reps))
    M = np.fft.fftn(A, axes=tuple(range(1, 1 + len(action.orders))))
    rep_lengths = lengths[reps]
    return {
        labels: SecularSystem(S=M[(slice(None), *labels)], lengths=rep_lengths)
        for labels in action.elements()
    }


def contracted_stacks(systems: Sequence[SecularSystem]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The systems of one size with their pure-transmission bonds contracted,
    stacked by contracted size: (members, S, lengths) per size, the sizes in
    the order of their first member and each stack's members ascending.

    Bond b passes on to b' != b when |S[b', b]| = 1 and every other entry of
    row b' and of column b is below 1e-12.  Dropping b' is one Schur step
    with pivot 1 (column b becomes S[b', b] * S[:, b'], and b takes the
    length of b' too), so a chain b -> b' -> ... keeps its first bond, with
    the chain's total length and the column of its last bond times the
    product of the chain's unit entries.  A closed chain keeps its lowest
    bond, which then reflects into itself.  The chains follow from a
    system's pattern of such entries alone, so the systems of one pattern
    are contracted together by index arrays.
    """
    if not systems:
        return []
    S, lengths = np.stack([sys.S for sys in systems]), np.stack([sys.lengths for sys in systems])
    n = S.shape[-1]
    if not n:
        return [(np.arange(len(S)), S, lengths)]
    mod = np.abs(S)
    lone = mod > 1e-12
    lone &= (lone.sum(-1, keepdims=True) == 1) & (lone.sum(-2, keepdims=True) == 1)
    passes = lone & (np.abs(mod - 1.0) <= 1e-12) & ~np.eye(n, dtype=bool)
    by_size: dict[int, list] = {}
    left = np.arange(len(S))
    while len(left):
        same = (passes[left] == passes[left[0]]).all(axis=(1, 2))
        members, left = left[same], left[~same]
        to, frm = np.nonzero(passes[members[0]])
        succ, entered = dict(zip(frm.tolist(), to.tolist())), set(to.tolist())
        chains, seen = [], set()
        for head in sorted(range(n), key=entered.__contains__):  # open chains first, then closed ones
            if head not in seen:
                chain = [head]
                while succ.get(chain[-1], head) != head:
                    chain.append(succ[chain[-1]])
                seen.update(chain)
                chains.append(chain)
        chains.sort()
        order, tails = [b for c in chains for b in c], [c[-1] for c in chains]
        starts = np.cumsum([0] + [len(c) for c in chains[:-1]])
        units = np.ones((len(members), n), dtype=complex)
        units[:, frm] = S[members][:, to, frm]
        units[:, tails] = 1.0  # a closed chain's last entry stays in its column
        phase = np.multiply.reduceat(units[:, order], starts, axis=-1)
        kept = S[members][:, [[c[0]] for c in chains], tails] * phase[:, None]
        kept_lengths = np.add.reduceat(lengths[members][:, order], starts, axis=-1)
        by_size.setdefault(len(chains), []).append((members, kept, kept_lengths))
    stacks = []
    for parts in by_size.values():
        if len(parts) > 1:
            members, kept, kept_lengths = (np.concatenate(v) for v in zip(*parts))
            order = np.argsort(members)
            parts = [(members[order], kept[order], kept_lengths[order])]
        stacks.append(parts[0])
    return stacks


def secular_det(sys: SecularSystem, k: complex) -> complex:
    """det(I - S D(k)) via dense LU with partial pivoting."""
    M = np.eye(sys.size, dtype=complex) - sys.S * np.exp(1j * k * sys.lengths)[None, :]
    return complex(np.linalg.det(M))


def secular_dets(systems: Sequence[SecularSystem]):
    """det(I - S D(z)) of a family of systems of one size, as an evaluator
    `fn(which, z)` on 1-D arrays: one stacked `np.linalg.det` call.  One
    system, such as a dense `scan`, is used as it is, not copied.  Each call
    forms I - S D(z) in place in the one stack that `S[which]` copies."""
    S = (np.stack([sys.S for sys in systems]) if len(systems) > 1 else systems[0].S[None]).astype(complex, copy=False)
    lengths = np.stack([sys.lengths for sys in systems])
    eye = np.eye(S.shape[-1])

    def dets(which: np.ndarray, z: np.ndarray) -> np.ndarray:
        M = S[which]
        M *= np.exp(1j * z[:, None] * lengths[which])[:, None, :]
        return np.linalg.det(np.subtract(eye, M, out=M))

    return dets


def standard_conditions(g: MetricGraph) -> list[Standard]:
    return [Standard(v) for v in range(g.n_vertices)]
