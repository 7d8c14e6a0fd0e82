"""Group actions on metric graphs, their validation, and their lift to a subdivision.

An action is stored per generator as a vertex permutation, an edge
permutation, and per-edge orientation flags (True when the generator reverses
the parameterization of that edge).  The acting group is a product of cyclic
factors with commuting generators, so every element's maps are read from one
element table built from the generators' powers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .graphs import MetricGraph, subdivide_midpoints

# (vertex images, edge images, edge flips), each with the vertex or edge
# index on the last axis
Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class GeneratorMaps:
    vertex_perm: tuple[int, ...]
    edge_perm: tuple[int, ...]
    edge_flip: tuple[bool, ...]

    @classmethod
    def from_arrays(cls, vertex, edge, flip) -> "GeneratorMaps":
        return cls(tuple(vertex.tolist()), tuple(edge.tolist()), tuple(flip.tolist()))

    def arrays(self) -> Arrays:
        vertex, edge = (np.asarray(p, dtype=np.intp) for p in (self.vertex_perm, self.edge_perm))
        return vertex, edge, np.asarray(self.edge_flip, dtype=bool)


def _identity(gen: GeneratorMaps) -> Arrays:
    """Identity maps on the vertices and edges that `gen` acts on."""
    ne = len(gen.edge_perm)
    return np.arange(len(gen.vertex_perm)), np.arange(ne), np.zeros(ne, dtype=bool)


def _then(first: Arrays, second: Arrays) -> Arrays:
    """Maps of 'apply first, then second', broadcast over the leading axes."""
    (v1, e1, f1), (v2, e2, f2) = first, second
    return (
        np.take_along_axis(v2, v1, axis=-1),
        np.take_along_axis(e2, e1, axis=-1),
        f1 ^ np.take_along_axis(f2, e1, axis=-1),
    )


@dataclass(frozen=True)
class GraphAction:
    """Action of a product of cyclic groups on a metric graph.

    Element (a, b, ...) applies generator 0 a times, then generator 1 b
    times, and so on; one order per generator.
    """

    orders: tuple[int, ...]
    generators: tuple[GeneratorMaps, ...]

    @property
    def group_size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> Iterator[tuple[int, ...]]:
        yield from itertools.product(*(range(n) for n in self.orders))

    def index(self, element: tuple[int, ...]) -> int:
        """Row of `element`, reduced mod the orders, in `table`."""
        return int(np.ravel_multi_index(element, self.orders, mode="wrap"))

    @cached_property
    def _powers(self) -> tuple[Arrays, ...]:
        """Powers 0..n of each generator of order n, stacked on a leading axis."""
        out = []
        for gen, n in zip(self.generators, self.orders):
            rows, step = [_identity(gen)], gen.arrays()
            for _ in range(n):
                rows.append(_then(rows[-1], step))
            out.append(tuple(np.stack(x) for x in zip(*rows)))
        return tuple(out)

    @cached_property
    def table(self) -> Arrays:
        """Maps of every element, one row each in `elements()` order."""
        first = self.generators[0] if self.generators else GeneratorMaps((), (), ())
        table = tuple(x[None] for x in _identity(first))
        for powers, n in zip(self._powers, self.orders):
            step = _then(tuple(x[:, None] for x in table), tuple(x[None, :n] for x in powers))
            table = tuple(x.reshape(x.shape[0] * n, x.shape[-1]) for x in step)
        return table

    def maps(self, element: tuple[int, ...]) -> GeneratorMaps:
        row = self.index(element)
        return GeneratorMaps.from_arrays(*(x[row] for x in self.table))


@dataclass(frozen=True)
class ActionReport:
    valid: bool
    violations: tuple[tuple[str, str], ...]  # (axiom, witness)
    vacuous: tuple[str, ...]


def validate_action(g: MetricGraph, a: GraphAction) -> ActionReport:
    """Exhaustively check the group-action axioms on a finite graph.

    Continuity, discreteness and co-compactness hold automatically for
    finite graphs and are reported as vacuous.  The group law needs one
    positive integer order per generator, commuting generators, and each
    generator to the power of its order equal to the identity.
    Faithfulness is checked combinatorially: no nonidentity element may fix
    a vertex, fix an edge orientation-preservingly (fixes every interior
    point), or fix an edge with reversed orientation (fixes the midpoint).
    """
    violations: list[tuple[str, str]] = []
    nv, ne = g.n_vertices, g.n_edges

    for i, gen in enumerate(a.generators):
        if sorted(gen.vertex_perm) != list(range(nv)):
            violations.append(("bijectivity", f"generator {i} vertex map is not a permutation"))
        if sorted(gen.edge_perm) != list(range(ne)):
            violations.append(("bijectivity", f"generator {i} edge map is not a permutation"))
        if len(gen.edge_flip) != ne:
            violations.append(("bijectivity", f"generator {i} has {len(gen.edge_flip)} edge flips for {ne} edges"))
    if not a.generators:
        violations.append(("group_law", "the action has no generators"))
    elif len(a.orders) != len(a.generators):
        violations.append(("group_law", f"{len(a.orders)} orders for {len(a.generators)} generators"))
    for i, n in enumerate(a.orders):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            violations.append(("group_law", f"generator {i} has order {n!r}, not a positive integer"))

    if not violations:
        for i, (powers, n) in enumerate(zip(a._powers, a.orders)):
            if not all(np.array_equal(x[n], x[0]) for x in powers):
                violations.append(("group_law", f"generator {i} to the power {n} is not the identity"))
        gens = [gen.arrays() for gen in a.generators]
        for i, j in itertools.combinations(range(len(gens)), 2):
            if not all(map(np.array_equal, _then(gens[i], gens[j]), _then(gens[j], gens[i]))):
                violations.append(("group_law", f"generators {i} and {j} do not commute"))

        # structure preservation: endpoints and lengths
        ends = np.array([(e.u, e.v) for e in g.edges], dtype=np.intp).reshape(ne, 2)
        length = g.edge_lengths()
        for i, (vp, ep, fl) in enumerate(gens):
            mapped, expected = vp[ends], np.where(fl[:, None], ends[ep, ::-1], ends[ep])
            bad_ends = (mapped != expected).any(axis=1)
            bad_length = np.abs(length[ep] - length) > 1e-12 * np.maximum(1.0, length)
            for e in np.flatnonzero(bad_ends | bad_length).tolist():
                if bad_ends[e]:
                    violations.append(("adjacency", f"generator {i}, edge {e}: endpoints map to "
                                       f"{tuple(mapped[e].tolist())}, image edge has {tuple(expected[e].tolist())}"))
                if bad_length[e]:
                    violations.append(("length", f"generator {i}, edge {e}: length {length[e]} maps to {length[ep[e]]}"))

        # faithfulness over the whole group; row 0 is the identity
        vp, ep, fl = a.table
        fixes_vertex = vp[1:] == np.arange(nv)
        fixes_edge = ep[1:] == np.arange(ne)
        elements = list(a.elements())[1:]
        for r in np.flatnonzero(fixes_vertex.any(axis=1) | fixes_edge.any(axis=1)).tolist():
            if fixes_vertex[r].any():
                violations.append(("faithfulness", f"element {elements[r]} fixes vertex {int(fixes_vertex[r].argmax())}"))
            else:
                e = int(fixes_edge[r].argmax())
                what = "midpoint of" if fl[r + 1, e] else "every point of"
                violations.append(("faithfulness", f"element {elements[r]} fixes {what} edge {e}"))

    return ActionReport(
        valid=not violations,
        violations=tuple(violations),
        vacuous=("continuity", "discreteness", "co-compactness"),
    )


def lift_action_subdivided(g: MetricGraph, a: GraphAction) -> tuple[MetricGraph, GraphAction]:
    """Subdivide every edge at its midpoint and lift the action.

    Dummy vertex n + j sits on edge j; halves 2j and 2j + 1 follow the
    labeling of `subdivide_midpoints`.  A flipped edge image swaps the two
    halves and reverses each.
    """
    g_sub = subdivide_midpoints(g)
    gens = []
    for gen in a.generators:
        vp, ep, fl = gen.arrays()
        halves = 2 * ep[:, None] + np.where(fl[:, None], [1, 0], [0, 1])
        gens.append(GeneratorMaps.from_arrays(
            np.concatenate([vp, g.n_vertices + ep]), halves.ravel(), np.repeat(fl, 2)
        ))
    return g_sub, GraphAction(a.orders, tuple(gens))
