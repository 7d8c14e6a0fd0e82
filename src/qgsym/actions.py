"""Group actions on metric graphs, their validation, and their lift to a subdivision.

An action is stored per generator as a vertex permutation, an edge
permutation, and per-edge orientation flags (True when the generator reverses
the parameterization of that edge).  To compute, a generator is one
permutation of the V vertices followed by the 2E bonds, bond 2e + d going to
2e' + (d ^ flip), so composing maps is plain indexing.  The acting group is a
product of cyclic factors with commuting generators.  `GraphAction.orbits`
keeps the lowest point of each orbit and its images under every element,
swept by each generator's powers in turn: the data of the quotient graph,
with no map of every element built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .graphs import MetricGraph, subdivide_midpoints


@dataclass(frozen=True)
class GeneratorMaps:
    vertex_perm: tuple[int, ...]
    edge_perm: tuple[int, ...]
    edge_flip: tuple[bool, ...]

    @classmethod
    def from_arrays(cls, vertex, edge, flip) -> "GeneratorMaps":
        return cls(tuple(vertex.tolist()), tuple(edge.tolist()), tuple(flip.tolist()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vertex, edge = (np.asarray(p, dtype=np.intp) for p in (self.vertex_perm, self.edge_perm))
        return vertex, edge, np.asarray(self.edge_flip, dtype=bool)

    def points(self) -> np.ndarray:
        """The map as one permutation of the vertices followed by the bonds."""
        vertex, edge, flip = self.arrays()
        bonds = 2 * np.repeat(edge, 2) + (np.arange(2 * len(edge)) & 1 ^ np.repeat(flip, 2))
        return np.concatenate([vertex, len(vertex) + bonds])


def _power(p: np.ndarray, n: int) -> np.ndarray:
    """The permutation p applied n times, by repeated squaring."""
    out = np.arange(len(p))
    while n:
        out, p, n = (p[out] if n & 1 else out), p[p], n >> 1
    return out


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

    @cached_property
    def _points(self) -> tuple[np.ndarray, ...]:
        return tuple(gen.points() for gen in self.generators)

    @cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """(reps, images): the lowest point of each orbit, ascending, and its
        image under every element, shape (|G|, R) in `elements()` order.  Each
        point takes the lowest label of its images under the generators until
        none changes; each generator's powers carry the images one factor on."""
        points, low, last = self._points, np.arange(len(self._points[0])), None
        while not np.array_equal(low, last):
            last = low
            for p in points:
                low = np.minimum(low, low[p])
        reps = np.flatnonzero(low == np.arange(len(low)))
        images = reps[None]
        for p, n in zip(points, self.orders):
            rows = [images]
            for _ in range(n - 1):
                rows.append(p[rows[-1]])
            images = np.stack(rows, axis=1).reshape(len(images) * n, len(reps))
        return reps, images

    def bond_orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """`orbits` of the bonds alone, in bond numbers: bond b is point V + b."""
        (reps, images), nv = self.orbits, len(self.generators[0].vertex_perm)
        return reps[reps >= nv] - nv, images[:, reps >= nv] - nv

    def maps(self, element: tuple[int, ...]) -> GeneratorMaps:
        """The maps of `element`, each entry reduced mod its order."""
        nv, image = len(self.generators[0].vertex_perm), np.arange(len(self._points[0]))
        for p, n, power in zip(self._points, self.orders, element):
            image = _power(p, power % n)[image]
        bonds = image[nv::2] - nv
        return GeneratorMaps.from_arrays(image[:nv], bonds >> 1, (bonds & 1).astype(bool))


@dataclass(frozen=True)
class ActionReport:
    valid: bool
    violations: tuple[tuple[str, str], ...]  # (axiom, witness)
    vacuous: tuple[str, ...]


def validate_action(g: MetricGraph, a: GraphAction) -> ActionReport:
    """Check the group-action axioms on a finite graph.

    Continuity, discreteness and co-compactness hold automatically for
    finite graphs and are reported as vacuous.  The group law needs one
    positive integer order per generator, commuting generators, and each
    generator to the power of its order equal to the identity; with it,
    generators that preserve adjacency and lengths make every element do so.
    Faithfulness, checked only where the group law holds, is combinatorial:
    no nonidentity element may fix a vertex, fix an edge
    orientation-preservingly (fixes every interior point), or fix an edge
    with reversed orientation (fixes the midpoint).
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
        for i, (p, n) in enumerate(zip(a._points, a.orders)):
            if not np.array_equal(_power(p, n), np.arange(len(p))):
                violations.append(("group_law", f"generator {i} to the power {n} is not the identity"))
        for (i, p), (j, q) in itertools.combinations(enumerate(a._points), 2):
            if not np.array_equal(p[q], q[p]):
                violations.append(("group_law", f"generators {i} and {j} do not commute"))
        group_law = not violations

        # structure preservation: endpoints and lengths
        ends, length = g.ends, g.lengths
        for i, (vp, ep, fl) in enumerate(gen.arrays() for gen in a.generators):
            mapped, expected = vp[ends], np.where(fl[:, None], ends[ep, ::-1], ends[ep])
            bad_ends = (mapped != expected).any(axis=1)
            bad_length = np.abs(length[ep] - length) > 1e-12 * np.maximum(1.0, length)
            for e in np.flatnonzero(bad_ends | bad_length).tolist():
                if bad_ends[e]:
                    violations.append(("adjacency", f"generator {i}, edge {e}: endpoints map to "
                                       f"{tuple(mapped[e].tolist())}, image edge has {tuple(expected[e].tolist())}"))
                if bad_length[e]:
                    violations.append(("length", f"generator {i}, edge {e}: length {length[e]} maps to {length[ep[e]]}"))

        # faithfulness on the orbit representatives, whose stabilisers are those
        # of their whole orbits (row 0 is the identity); a flipped edge is fixed
        if group_law:
            reps, images = a.orbits
            cell = lambda x: np.where(x < nv, x, (x + nv) >> 1)  # bond 2e + d of edge e -> nv + e
            fixes = cell(images[1:]) == cell(reps)
            elements = list(a.elements())[1:]
            for r in np.flatnonzero(fixes.any(axis=1)).tolist():
                i = int(fixes[r].argmax())  # the lowest vertex fixed, else the lowest edge
                if reps[i] < nv:
                    violations.append(("faithfulness", f"element {elements[r]} fixes vertex {reps[i]}"))
                else:
                    what = "midpoint of" if images[r + 1, i] != reps[i] else "every point of"
                    violations.append(("faithfulness", f"element {elements[r]} fixes {what} edge {(reps[i] - nv) >> 1}"))

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
