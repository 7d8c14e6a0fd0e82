"""Persistence formats: graph documents (JSON), spectra and sampled functions (CSV).

Graph documents are schema-versioned JSON with vertices, edges, optional
per-vertex condition annotations, and an optional group action.  Phases are
stored as (re, im) pairs.  Spectra are CSV with a mandatory header and
'#'-prefixed metadata comment lines, rows sorted by k.  A sampled function
is CSV with one row per edge and sample, every float written as its `repr`.
"""

from __future__ import annotations

import ast
import json
import math
from typing import BinaryIO, Optional, TextIO

import numpy as np

from . import builders
from .actions import GeneratorMaps, GraphAction
from .decompose import SampledFunction
from .errors import DanglingEndpoint, UnsupportedCondition, UnsupportedFormat
from .graphs import TAG_ORIGINAL, MetricGraph
from .scattering import Condition, QuasiPeriodic, Standard
from .spectra import MAX_BATCH_BYTES, Spectrum

FORMAT_VERSION = 1


def graph_to_doc(
    g: MetricGraph,
    conditions: Optional[list[Condition]] = None,
    action: Optional[GraphAction] = None,
) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "vertices": [{"id": i, "tag": tag} for i, tag in enumerate(g.tags)],
        "edges": [
            {"id": e, "u": u, "v": v, "length": length}
            for e, ((u, v), length) in enumerate(zip(g.ends.tolist(), g.lengths.tolist()))
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
        vertices, edges = doc["vertices"], doc["edges"]
        if _integers([v["id"] for v in vertices], "vertex id").tolist() != list(range(len(vertices))):
            raise DanglingEndpoint("vertex ids must be dense 0..n-1")
        ids = _integers([e["id"] for e in edges], "edge id")
        if sorted(ids.tolist()) != list(range(len(ids))):
            raise DanglingEndpoint("edge ids must be a permutation of 0..m-1")
        ends, lengths = np.empty((len(ids), 2), dtype=np.intp), np.empty(len(ids))
        ends[ids] = _integers([e[end] for e in edges for end in ("u", "v")], "endpoint").reshape(-1, 2)
        lengths[ids] = [float(e["length"]) for e in edges]
        g = MetricGraph([v.get("tag", TAG_ORIGINAL) for v in vertices], ends, lengths)
        conditions = _doc_to_conditions(doc["conditions"]) if "conditions" in doc else None
        action = None
        if "action" in doc:
            action = GraphAction(
                tuple(_integers(doc["action"]["orders"], "order").tolist()),
                tuple(
                    GeneratorMaps(
                        tuple(_integers(gm["vertex_perm"], "vertex_perm entry").tolist()),
                        tuple(_integers(gm["edge_perm"], "edge_perm entry").tolist()),
                        _booleans(gm["edge_flip"], "edge_flip entry"),
                    )
                    for gm in doc["action"]["generators"]
                ),
            )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise UnsupportedFormat(f"malformed graph document: {type(exc).__name__}: {exc}") from exc
    if action is not None:
        builders.check_structural(g, action, "graph document action")
    return g, conditions, action


def _integers(values: list, what: str) -> np.ndarray:
    """`values` as an intp array; a value that is not a JSON integer is refused."""
    for x in values:
        if type(x) is not int:
            raise UnsupportedFormat(f"{what} {x!r} is not an integer")
    return np.array(values, dtype=np.intp)


def _booleans(values: list, what: str) -> tuple[bool, ...]:
    """`values` as a tuple; a value that is not a JSON boolean is refused."""
    for x in values:
        if type(x) is not bool:
            raise UnsupportedFormat(f"{what} {x!r} is not a boolean")
    return tuple(values)


def _doc_to_conditions(docs: list) -> list[Condition]:
    """The conditions of a document.  Every vertex, and every edge of a
    quasi-periodic condition, must be a JSON integer: one `_integers` check
    for the vertices and one for the edges of the whole document."""
    edges = [c["edges"] if c["type"] == "quasi_periodic" else () for c in docs]
    vertices = _integers([c["vertex"] for c in docs], "condition vertex").tolist()
    ids = _integers([e for pair in edges for e in pair], "condition edge").tolist()
    out: list[Condition] = []
    at = 0  # the first edge of the next quasi-periodic condition in `ids`
    for c, vertex, pair in zip(docs, vertices, edges):
        if c["type"] == "standard":
            out.append(Standard(vertex))
        elif c["type"] == "quasi_periodic":
            re, im = c["phase"]
            out.append(QuasiPeriodic(vertex, complex(re, im), tuple(ids[at : at + len(pair)])))
            at += len(pair)
        else:
            raise UnsupportedCondition(f"vertex {vertex}: condition type {c['type']!r}")
    return out


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
    k, order, source = s.k, s.order, s.source
    if np.any(k[1:] < k[:-1]):  # rows by k, roots of equal k in their order
        by = np.argsort(k, kind="stable")
        k, order, source = k[by], order[by], [source[i] for i in by.tolist()]
    fh.write("".join(f"{x!r},{x * x!r},{n},{src}\n" for x, n, src in zip(k.tolist(), order.tolist(), source)))


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
    an order of at least 1 is rejected with the line it is on, and so is a
    `k_max` that is not finite and positive or lies below a row's k by more
    than the header's `tol` (a located root may sit that far above k_max).

    The header's values go to `meta`, all but `k_max`, so that writing the
    spectrum again gives the same file; k_max defaults to the largest k."""
    meta: dict = {}
    ks, orders, sources = [], [], []
    header_seen = False
    k_max_line = ""
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = _header_value(val.strip())
                if key.strip() == "k_max":
                    k_max_line = f"line {lineno} {line!r}"
            continue
        if not header_seen:
            header_seen = True  # column header row
            continue
        try:
            k, _lam, order, source = line.split(",", 3)
            k, order = float(k), int(order)
        except ValueError as exc:
            raise UnsupportedFormat(f"spectrum CSV line {lineno} {line!r}: {exc}") from exc
        if not (0.0 < k < math.inf and order >= 1):
            raise UnsupportedFormat(f"spectrum CSV line {lineno} {line!r}: k must be finite and positive, the order at least 1")
        ks.append(k)
        orders.append(order)
        sources.append(source)
    top = max(ks, default=0.0)
    if "k_max" not in meta:
        return Spectrum(ks, orders, sources, top, meta)
    k_max, tol = meta.pop("k_max"), meta.get("tol")
    slack = tol if isinstance(tol, float) else 0.0
    if not (isinstance(k_max, (int, float)) and 0.0 < k_max < math.inf and top <= k_max + slack):
        raise UnsupportedFormat(f"spectrum CSV {k_max_line}: k_max must be finite, positive and not below a row's k")
    return Spectrum(ks, orders, sources, float(k_max), meta)


def load_spectrum(path: str) -> Spectrum:
    with open(path) as fh:
        try:
            return read_spectrum_csv(fh)
        except UnicodeDecodeError as exc:
            raise UnsupportedFormat(f"spectrum CSV line ?: undecodable text: {exc}") from exc


# Tables of `_repr_bytes`.  A field is six native words of four ASCII bytes:
# sign, "0.", the zeros after the point, the leading digit and four groups of
# four digits; NUL marks a byte that is not written.
_POW10 = 10.0 ** np.arange(23)  # exact: 5**22 < 2**53
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)  # Dekker's split, 2**27 + 1
_POW10_LO = _POW10 - _POW10_HI


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The words "0000" to "9999", and the same with their trailing zeros NUL."""
    digits = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    text = (digits + ord("0")).astype(np.uint8)
    kept = np.flip(np.logical_or.accumulate(np.flip(digits != 0, axis=1), axis=1), axis=1)
    return text.view(np.uint32).ravel(), (text * kept).view(np.uint32).ravel()


_SIGN_POINT = _words(sign + "0." + "0"[:zeros] for sign in ("\0", "-") for zeros in range(4))
_ZEROS_LEAD = _words("00"[: max(zeros - 1, 0)].ljust(3, "\0") + str(lead) for zeros in range(4) for lead in range(10))
_QUAD, _QUAD_END = _quads()  # the last group written has no trailing zeros


def _repr_bytes(x: np.ndarray) -> np.ndarray:
    """`repr` of each float of the 1-D float64 array `x`, as a (len(x), 24)
    uint8 array of ASCII, NUL-padded (24 bytes hold every float's `repr`).

    A float of magnitude in [1e-4, 1) that is not a power of two takes array
    arithmetic.  Its `repr` is "0.", -1 - e zeros and the shortest digits
    that read back as it, where 10**e <= |x| < 10**(e+1), and of the
    shortest the nearest.  For k = 15, 16, 17 the k digits nearest to |x| are
    D = round(|x| * 10**s), s = k - 1 - e, from the exact product of |x| and
    10**s as a Dekker double-double.  They read back as x iff
    |D - |x| * 10**s| < ulp(x) / 2 * 10**s, and k = 17 always does.  The
    first k that does gives the digits: at 15, D without its trailing zeros,
    since a shorter string that reads back is the unique 15-digit point
    within half an ulp.  A float whose distance lies within 1e-9 of a tie or
    of that bound, or whose D leaves [10**(k-1), 10**k) (e off by one near a
    power of ten), and every other float, goes through `repr`.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0) & (x.view(np.int64) & (2**52 - 1) != 0)
    a = np.where(fast, a, 0.5)
    e = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    a_hi = 134217729.0 * a - (134217729.0 * a - a)
    a_lo = a - a_hi
    half_ulp = np.spacing(a) / 2
    digits = np.zeros(len(x), dtype=np.int64)  # 17 digits, the shortest left-aligned
    todo = np.ones(len(x), dtype=bool)
    for k in (15, 16, 17):
        s = k - 1 - e
        hi = a * _POW10[s]
        lo = ((a_hi * _POW10_HI[s] - hi) + a_hi * _POW10_LO[s] + a_lo * _POW10_HI[s]) + a_lo * _POW10_LO[s]
        d = np.rint(hi)
        r = (hi - d) + lo
        step = np.rint(r)
        d = d.astype(np.int64) + step.astype(np.int64)
        off = np.abs(r - step)  # |D - |x| * 10**s|, to within 1e-15
        unsure = (off > 0.5 - 1e-9) | (d < 10 ** (k - 1)) | (d >= 10**k)
        done = todo
        if k < 17:
            bound = half_ulp * _POW10[s]
            unsure |= np.abs(off - bound) < 1e-9
            done = todo & (off < bound)
        fast &= ~(todo & unsure)
        digits = np.where(done, d * 10 ** (17 - k), digits)
        todo &= ~done
    digits[~fast] = 10**16
    lead, rest = np.divmod(digits, 10**16)
    quads = [rest // 10**12, rest // 10**8 % 10**4, rest // 10**4 % 10**4, rest % 10**4]
    last = np.maximum.reduce([(i + 1) * (q != 0) for i, q in enumerate(quads)])
    zeros = -1 - e
    out = np.empty((len(x), 6), dtype=np.uint32)
    out[:, 0] = _SIGN_POINT[4 * (x < 0) + zeros]
    out[:, 1] = _ZEROS_LEAD[10 * zeros + lead]
    for i, q in enumerate(quads, 1):  # the groups after the last nonzero one are NUL
        out[:, 1 + i] = np.where(i < last, _QUAD[q], _QUAD_END[q])
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = np.array([repr(v).encode() for v in x[slow].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
    return out


def write_samples_csv(fh: BinaryIO, f: SampledFunction) -> None:
    """The rows `edge,sample_index,x,re,im` of a sampled function to a binary
    file: x = (m + 0.5) * length / samples is the midpoint of sample m, and
    every float is written as its `repr`.

    Each pass takes MAX_BATCH_BYTES of complex samples in edge-major order,
    formats them with `_repr_bytes` into one NUL-padded byte matrix of whole
    lines (edge id, the edge length's `sample_index,x,` prefix, re, im),
    reused from pass to pass, and writes its bytes other than NUL.  The work
    per sample does not depend on the values.
    """
    g, samples = f.graph, f.samples
    values = np.ascontiguousarray(f.values, dtype=np.complex128).reshape(-1)
    lengths, which = np.unique(g.lengths, return_inverse=True)
    heads = np.array([f"{e},".encode() for e in range(g.n_edges)])
    prefixes = np.array([f"{m},{(m + 0.5) * length / samples!r},".encode() for length in lengths.tolist() for m in range(samples)])
    heads, prefixes = (a.view(np.uint8).reshape(len(a), -1) for a in (heads, prefixes))
    wh, wp = heads.shape[1], prefixes.shape[1]
    per = MAX_BATCH_BYTES // 16
    lines = np.empty((per, wh + wp + 50), dtype=np.uint8)
    lines[:, wh + wp + 24] = ord(",")
    lines[:, -1] = ord("\n")
    fh.write(b"edge,sample_index,x,re,im\n")
    for j in range(0, len(values), per):
        n = min(per, len(values) - j)
        edge, m = np.divmod(np.arange(j, j + n), samples)
        text = _repr_bytes(values[j : j + n].view(np.float64)).reshape(n, 48)
        lines[:n, :wh] = heads[edge]
        lines[:n, wh : wh + wp] = prefixes[which[edge] * samples + m]
        lines[:n, wh + wp : wh + wp + 24] = text[:, :24]
        lines[:n, wh + wp + 25 : -1] = text[:, 24:]
        block = lines[:n]
        fh.write(block[block != 0])
