"""Constructors for cycles, circulant graphs, Cartesian products, and the
coprime-order isomorphism between product tori and circulant graphs."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .actions import (
    GeneratorMaps,
    GraphAction,
    lift_action_subdivided,
    validate_action,
)
from .errors import (
    DuplicateJump,
    InvalidAction,
    IsomorphismCheckFailed,
    JumpOutOfRange,
    NonPositiveLength,
    NotCoprime,
    require_positive,
)
from .graphs import TAG_ORIGINAL, MetricGraph, make_graph
from .groups import crt_index

# axioms a builder-produced action must satisfy; faithfulness is advisory
# (rotation of C_n(n/2) reverses the antipodal edges, fixing midpoints)
_STRUCTURAL = ("bijectivity", "group_law", "adjacency", "length")


def check_structural(g: MetricGraph, a: GraphAction, what: str) -> None:
    """Raise InvalidAction naming the first structural violation of `a` on `g`."""
    report = validate_action(g, a)
    bad = [v for v in report.violations if v[0] in _STRUCTURAL]
    if bad:
        raise InvalidAction(f"{what}: {bad[0][1]}")


def _cycle(n: int, length: float) -> tuple[MetricGraph, GraphAction]:
    """Cycle on n vertices with equal edge lengths and its rotation action, unchecked."""
    require_positive(n=n)
    if length <= 0:
        raise NonPositiveLength(f"cycle edge length {length}")
    # edge i runs from i to i + 1, so the rotation carries it onto edge i + 1
    # without reversing it; for the digon it swaps the two parallel edges
    g = make_graph(n, [(i, (i + 1) % n, length) for i in range(n)])
    step = tuple((i + 1) % n for i in range(n))
    return g, GraphAction((n,), (GeneratorMaps(step, step, (False,) * n),))


def cycle_graph(n: int, length: float) -> tuple[MetricGraph, GraphAction]:
    """Cycle on n vertices with equal edge lengths and its rotation action.

    n = 1 yields a single loop, n = 2 a digon; both are flagged with a
    warning since they are multigraphs.
    """
    g, action = _cycle(n, length)
    if n < 3:
        warnings.warn(f"cycle with n={n} is a multigraph (loop/digon)", stacklevel=2)
    check_structural(g, action, f"cycle_graph({n})")
    return g, action


def circulant_graph(
    n: int, jumps: list[int], lengths: list[float]
) -> tuple[MetricGraph, GraphAction]:
    """Circulant graph C_n(jumps) with one length per jump class.

    Vertices 0..n-1; vertex i is joined to i + jump (mod n) for every jump.
    The antipodal jump n/2 contributes each edge once.  The rotation action
    is validated for structure preservation.
    """
    if len(jumps) != len(set(jumps)):
        raise DuplicateJump(f"jumps {jumps} contain repeats")
    if len(lengths) != len(jumps):
        raise JumpOutOfRange("need one length per jump class")
    for s in jumps:
        if not (1 <= s <= n / 2):
            raise JumpOutOfRange(f"jump {s} not in [1, {n}/2]")
    for L in lengths:
        if L <= 0:
            raise NonPositiveLength(f"jump-class length {L}")

    # the rotation carries edge i of a jump class onto edge i + 1; the last
    # antipodal edge (n/2 - 1, n - 1) lands reversed on the class's first
    edges, eperm, eflip = [], [], []
    for s, L in zip(jumps, lengths):
        count = n // 2 if 2 * s == n else n
        start = len(edges)
        edges += [(i, (i + s) % n, float(L)) for i in range(count)]
        eperm += [start + (i + 1) % count for i in range(count)]
        eflip += [2 * s == n and i == count - 1 for i in range(count)]
    g = make_graph(n, edges)
    vperm = tuple((i + 1) % n for i in range(n))
    action = GraphAction((n,), (GeneratorMaps(vperm, tuple(eperm), tuple(eflip)),))
    check_structural(g, action, f"circulant_graph({n}, {jumps})")
    return g, action


def product_vertex_id(i, j, n2: int):
    return i * n2 + j


def cartesian_product(g1: MetricGraph, g2: MetricGraph) -> MetricGraph:
    """Cartesian product metric graph.

    Vertex (i, j) gets id i*n2 + j.  Edge order: first every edge of g1
    copied across each g2 vertex (the g1-direction block), then every edge
    of g2 across each g1 vertex.
    """
    n1, n2 = g1.n_vertices, g2.n_vertices
    ends = np.concatenate([
        product_vertex_id(g1.ends[:, None, :], np.arange(n2)[:, None], n2).reshape(-1, 2),
        product_vertex_id(np.arange(n1)[:, None], g2.ends[:, None, :], n2).reshape(-1, 2),
    ])
    lengths = np.concatenate([np.repeat(g1.lengths, n2), np.repeat(g2.lengths, n1)])
    return MetricGraph((TAG_ORIGINAL,) * (n1 * n2), ends, lengths)


def product_action(
    g1: MetricGraph, a1: GraphAction, g2: MetricGraph, a2: GraphAction
) -> GraphAction:
    """Action of G_n1 x G_n2 on the Cartesian product, from cyclic factor actions."""
    if len(a1.orders) != 1 or len(a2.orders) != 1:
        raise InvalidAction("product_action needs single-cycle factor actions")
    n1, n2 = g1.n_vertices, g2.n_vertices
    m1, m2 = g1.n_edges, g2.n_edges
    (v1, e1, f1), (v2, e2, f2) = a1.generators[0].arrays(), a2.generators[0].arrays()
    i, j = np.divmod(np.arange(n1 * n2), n2)
    a, ja = np.divmod(np.arange(m1 * n2), n2)  # g1-direction block: edge a at column ja
    b, ib = np.divmod(np.arange(m2 * n1), n1)  # g2-direction block: edge b at row ib
    off = m1 * n2
    gen1 = GeneratorMaps.from_arrays(
        v1[i] * n2 + j,
        np.concatenate([e1[a] * n2 + ja, off + b * n1 + v1[ib]]),
        np.concatenate([f1[a], np.zeros(m2 * n1, dtype=bool)]),
    )
    gen2 = GeneratorMaps.from_arrays(
        i * n2 + v2[j],
        np.concatenate([a * n2 + v2[ja], off + e2[b] * n1 + ib]),
        np.concatenate([np.zeros(m1 * n2, dtype=bool), f2[b]]),
    )
    return GraphAction((a1.orders[0], a2.orders[0]), (gen1, gen2))


def cycle_product(
    n1: int, n2: int, len1: float, len2: float
) -> tuple[MetricGraph, GraphAction]:
    """Cartesian product C_n1 x C_n2 with its G_n1 x G_n2 rotation action, unchecked.

    First-factor edges have full length len1, second-factor edges len2.
    """
    (c1, a1), (c2, a2) = _cycle(n1, len1), _cycle(n2, len2)
    return cartesian_product(c1, c2), product_action(c1, a1, c2, a2)


def torus_action(
    n1: int, n2: int, half1: float, half2: float
) -> tuple[MetricGraph, GraphAction]:
    """Midpoint-subdivided product of two cycles with its torus action.

    Full edge lengths are 2*half1 along the first-factor direction and
    2*half2 along the second, so each subdivided half-edge has the
    quotient-graph length half1 or half2: callers pass the paper's L3
    first, then L1.  The action is checked once, as it is returned: the
    cycles and their product are built unchecked (`cycle_product`).
    """
    g_sub, act_sub = lift_action_subdivided(*cycle_product(n1, n2, 2.0 * half1, 2.0 * half2))
    check_structural(g_sub, act_sub, f"torus_action({n1}, {n2})")
    return g_sub, act_sub


def product_circulant_isomorphism(
    n1: int, n2: int, len1: float = 1.0, len2: float = 1.0
) -> tuple[list[int], MetricGraph, MetricGraph]:
    """Vertex bijection C_n1 x C_n2 product -> C_{n1 n2}(n1, n2) for coprime orders.

    Product vertex (kappa, iota) maps to circulant vertex
    (kappa*n2 + iota*n1) mod n1*n2.  The circulant's jump-n1 class carries
    the second-factor length and the jump-n2 class the first-factor length;
    the full edge check (adjacency and lengths) is run before returning.
    """
    if math.gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    if n1 < 3 or n2 < 3:
        raise JumpOutOfRange("both factors need n >= 3 for well-defined jump classes")
    prod, _ = cycle_product(n1, n2, len1, len2)
    circ, _ = circulant_graph(n1 * n2, [n1, n2], [len2, len1])

    mapping = [crt_index(n1, n2, i // n2, i % n2) for i in range(n1 * n2)]

    def edge_table(g: MetricGraph, relabel: np.ndarray) -> np.ndarray:
        """Rows (min end, max end, rounded length) under `relabel`, sorted."""
        table = np.column_stack([np.sort(relabel[g.ends], axis=1), np.round(g.lengths, 12)])
        return table[np.lexsort(table.T[::-1])]

    mapped = edge_table(prod, np.array(mapping))
    target = edge_table(circ, np.arange(n1 * n2))
    bad = np.flatnonzero((mapped != target).any(axis=1))
    if len(bad):
        witness = tuple(min(mapped[bad[0]].tolist(), target[bad[0]].tolist()))
        raise IsomorphismCheckFailed(f"edge mismatch under CRT map, witness {witness}")
    return mapping, prod, circ
