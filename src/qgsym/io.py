"""Persistence formats: graph documents (JSON) and spectra (CSV).

Graph documents are schema-versioned JSON with vertices, edges, optional
per-vertex condition annotations, and an optional group action.  Phases are
stored as (re, im) pairs.  Spectra are CSV with a mandatory header and
'#'-prefixed metadata comment lines, rows sorted by k.
"""

from __future__ import annotations

import ast
import json
import math
from typing import Optional, TextIO

from . import builders
from .actions import GeneratorMaps, GraphAction
from .errors import UnsupportedCondition, UnsupportedFormat
from .graphs import MetricGraph, Vertex, Edge
from .scattering import Condition, QuasiPeriodic, Standard
from .spectra import SpectralRoot, Spectrum

FORMAT_VERSION = 1


def graph_to_doc(
    g: MetricGraph,
    conditions: Optional[list[Condition]] = None,
    action: Optional[GraphAction] = None,
) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "vertices": [{"id": v.id, "tag": v.tag} for v in g.vertices],
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in g.edges
        ],
    }
    if conditions is not None:
        conds = []
        for c in conditions:
            if isinstance(c, Standard):
                conds.append({"vertex": c.vertex, "type": "standard"})
            else:
                conds.append(
                    {
                        "vertex": c.vertex,
                        "type": "quasi_periodic",
                        "phase": [complex(c.tau).real, complex(c.tau).imag],
                        "edges": list(c.edges),
                    }
                )
        doc["conditions"] = conds
    if action is not None:
        doc["action"] = {
            "orders": list(action.orders),
            "generators": [
                {
                    "vertex_perm": list(gm.vertex_perm),
                    "edge_perm": list(gm.edge_perm),
                    "edge_flip": list(gm.edge_flip),
                }
                for gm in action.generators
            ],
        }
    return doc


def doc_to_graph(doc: dict) -> tuple[MetricGraph, Optional[list[Condition]], Optional[GraphAction]]:
    """Graph, conditions and action of a document; the action is checked on the graph."""
    if not isinstance(doc, dict):
        raise UnsupportedFormat(f"a graph document is a JSON object, not {type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise UnsupportedFormat(f"format_version {doc.get('format_version')!r}, expected {FORMAT_VERSION}")
    try:
        g = MetricGraph(
            tuple(Vertex(v["id"], v.get("tag", "original")) for v in doc["vertices"]),
            tuple(Edge(e["id"], e["u"], e["v"], float(e["length"])) for e in doc["edges"]),
        )
        conditions = [_doc_to_condition(c) for c in doc["conditions"]] if "conditions" in doc else None
        action = None
        if "action" in doc:
            action = GraphAction(
                tuple(map(int, doc["action"]["orders"])),
                tuple(
                    GeneratorMaps(tuple(map(int, gm["vertex_perm"])), tuple(map(int, gm["edge_perm"])),
                                  tuple(map(bool, gm["edge_flip"])))
                    for gm in doc["action"]["generators"]
                ),
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UnsupportedFormat(f"malformed graph document: {type(exc).__name__}: {exc}") from exc
    if action is not None:
        builders.check_structural(g, action, "graph document action")
    return g, conditions, action


def _doc_to_condition(c: dict) -> Condition:
    if c["type"] == "standard":
        return Standard(c["vertex"])
    if c["type"] == "quasi_periodic":
        re, im = c["phase"]
        return QuasiPeriodic(c["vertex"], complex(re, im), tuple(c["edges"]))
    raise UnsupportedCondition(f"vertex {c.get('vertex')}: condition type {c['type']!r}")


def save_graph(path: str, g: MetricGraph, conditions=None, action=None) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_doc(g, conditions, action), fh, indent=1)
        fh.write("\n")


def load_graph(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise UnsupportedFormat(f"{path} is not JSON: {exc}") from exc
    return doc_to_graph(doc)


def write_spectrum_csv(fh: TextIO, s: Spectrum) -> None:
    for key, val in sorted(s.meta.items()):
        fh.write(f"# {key} = {val!r}\n")
    fh.write(f"# k_max = {s.k_max!r}\n")
    fh.write("k,lambda,order,source_label\n")
    for r in sorted(s.roots, key=lambda r: r.k):
        fh.write(f"{r.k!r},{r.k * r.k!r},{r.order},{r.source}\n")


def save_spectrum(path: str, s: Spectrum) -> None:
    with open(path, "w") as fh:
        write_spectrum_csv(fh, s)


def _header_value(text: str):
    """A `# key = value` header value as `write_spectrum_csv` wrote it (its
    `repr`), or the text itself where it is no Python literal."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def read_spectrum_csv(fh: TextIO) -> Spectrum:
    """Spectrum of a CSV; a row without four fields, a finite positive k and
    an order of at least 1 is rejected with the line it is on.

    The header's values go to `meta`, all but `k_max`, so that writing the
    spectrum again gives the same file."""
    meta: dict = {}
    roots = []
    header_seen = False
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = _header_value(val.strip())
            continue
        if not header_seen:
            header_seen = True  # column header row
            continue
        try:
            k, _lam, order, source = line.split(",", 3)
            root = SpectralRoot(float(k), int(order), source)
        except ValueError as exc:
            raise UnsupportedFormat(f"spectrum CSV line {lineno} {line!r}: {exc}") from exc
        if not (0.0 < root.k < math.inf and root.order >= 1):
            raise UnsupportedFormat(f"spectrum CSV line {lineno} {line!r}: k must be finite and positive, the order at least 1")
        roots.append(root)
    try:
        k_max = float(meta.pop("k_max", roots[-1].k if roots else 0.0))
    except (TypeError, ValueError) as exc:
        raise UnsupportedFormat(f"spectrum CSV k_max: {exc}") from exc
    return Spectrum(tuple(roots), k_max, meta)


def load_spectrum(path: str) -> Spectrum:
    with open(path) as fh:
        try:
            return read_spectrum_csv(fh)
        except UnicodeDecodeError as exc:
            raise UnsupportedFormat(f"spectrum CSV line ?: undecodable text: {exc}") from exc
