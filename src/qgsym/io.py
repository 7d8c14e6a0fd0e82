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
    """`values` as an intp array; a value that is not a JSON integer is refused, the first named."""
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise UnsupportedFormat(f"{what} {bad!r} is not an integer")
    return np.array(values, dtype=np.intp)


def _booleans(values: list, what: str) -> tuple[bool, ...]:
    """`values` as a tuple; a value that is not a JSON boolean is refused, the first named."""
    if not set(map(type, values)) <= {bool}:
        bad = next(x for x in values if type(x) is not bool)
        raise UnsupportedFormat(f"{what} {bad!r} is not a boolean")
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
    """The header, then one row `k,lambda,order,source_label` per root, by
    k, roots of equal k in their order: k and lambda = k * k as their
    `repr`, in passes of MAX_BATCH_BYTES of k (`_spectrum_rows`)."""
    for key, val in sorted(s.meta.items()):
        fh.write(f"# {key} = {val!r}\n")
    fh.write(f"# k_max = {s.k_max!r}\n")
    fh.write("k,lambda,order,source_label\n")
    k, order, source = s.k, s.order, s.source
    if np.any(k[1:] < k[:-1]):
        by = np.argsort(k, kind="stable")
        k, order, source = k[by], order[by], [source[i] for i in by.tolist()]
    per = MAX_BATCH_BYTES // 8
    for lo in range(0, len(k), per):
        fh.write(_spectrum_rows(k[lo : lo + per], order[lo : lo + per], source[lo : lo + per]))


def _spectrum_rows(k: np.ndarray, order: np.ndarray, source) -> str:
    """The CSV rows of the roots `k`, `order` and `source`.

    k and k * k are formatted by one `_repr_bytes` call, and each distinct
    order once, into a byte matrix of each row's fields before its source;
    its bytes other than NUL are split into rows, and each row's source is
    joined on."""
    values, at = np.unique(order, return_inverse=True)
    orders = np.array([str(n).encode() for n in values.tolist()])
    width = orders.itemsize
    head = np.zeros((len(k), 52 + width), dtype=np.uint8)  # "k,lambda,order," and a row end, with NULs to drop
    floats = _repr_bytes(np.concatenate([k, k * k]))
    head[:, :24], head[:, 25:49] = floats[: len(k)], floats[len(k) :]
    head[:, 50:-2] = orders.view(np.uint8).reshape(-1, width)[at]
    head[:, [24, 49, -2]] = ord(",")
    head[:, -1] = ord("\n")
    heads = head.tobytes().translate(None, b"\0").decode().split("\n")
    return "\n".join(map(str.__add__, heads, source)) + "\n"


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
    an order from 1 to the largest int64 is rejected with the line it is on,
    and so is a `k_max` that is not finite and positive or lies below a
    row's k by more than the header's `tol` (a located root may sit that
    far above k_max).

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
        if not (0.0 < k < math.inf and 1 <= order < 2**63):  # a `Spectrum` holds int64 orders
            raise UnsupportedFormat(f"spectrum CSV line {lineno} {line!r}: k must be finite and positive, the order in [1, 2**63)")
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
# four digits; NUL marks a byte that is not written.  Where e >= 0 the field
# is also three little-endian 64-bit words, and the rows of the tables by e
# are such words.
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
_QUAD_WORD = np.frombuffer(_QUAD.tobytes(), dtype="<u4").astype(np.uint64)  # a group as the low half of a word
_EXPONENT = 0x7FF << 52  # the exponent bits of a float64
_LOW = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)  # a word's lowest b bytes
# the words of the point at byte 7 + e of a field, and of the point and a zero, by 2 e and 2 e + 1
_POINT = np.frombuffer(
    b"".join((b"\0" * (7 + e) + point).ljust(24, b"\0") for e in range(16) for point in (b".", b".0")), dtype="<u8"
).reshape(-1, 3).T.astype(np.uint64)


def _repr_bytes(x: np.ndarray) -> np.ndarray:
    """`repr` of each float of the 1-D float64 array `x`, as a (len(x), 24)
    uint8 array of ASCII with NULs to drop (24 bytes hold every float's
    `repr`).

    A float of magnitude in [1e-4, 1e16) that is not a power of two takes
    array arithmetic.  Its `repr` is fixed-point, with the shortest digits
    that read back as it, and of the shortest the nearest, where
    10**e <= |x| < 10**(e+1): for e < 0, "0.", -1 - e zeros and the
    digits; for e >= 0, the first e + 1 digits, with zeros past the last,
    the point and the rest, at least one digit.  The 17 digits nearest to
    |x| are D = round(|x| * 10**s), s = 16 - e, from the exact product of
    |x| and 10**s as a Dekker double-double, with the rest
    r = |x| * 10**s - D; the k = 16 and 15 digits nearest to |x| round
    D // 10**j + (D % 10**j + r) / 10**j, j = 17 - k.  The k digits read
    back as x iff they lie within ulp(x) / 2 of it, and 17 always do; the
    fewest that do give the digits: at 15, those without their trailing
    zeros, since a shorter string that reads back is the unique 15-digit
    point within half an ulp.  A float whose distance at a k taken or
    passed over lies within 1e-9 of a tie between two digits that read
    back or of that bound, or whose digits leave k digits (e off by one
    near a power of ten), and every other float, goes through `repr`.

    The digits go to six native words of four bytes; where e >= 0 the
    field is also three little-endian 64-bit words, whose first e + 1
    digits move one byte down to make room for the point after them.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & (2**52 - 1) != 0)
    a = np.where(fast, a, 0.5)
    e = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    a_hi = 134217729.0 * a - (134217729.0 * a - a)
    a_lo = a - a_hi
    s = 16 - e  # the 17 digits nearest to |x| are D = round(|x| * 10**s), |x| * 10**s - D = r
    p, p_hi, p_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    d = np.rint(hi)
    r = (hi - d) + lo
    step = np.rint(r)
    d = d.astype(np.int64) + step.astype(np.int64)
    r -= step
    fast &= (d >= 10**16) & (d < 10**17)
    sure = np.abs(r) < 0.5 - 1e-9  # of the digits taken, and of every longer one tried
    # 17 digits, the shortest left-aligned; half an ulp, 2**-53 times the power of two of the exponent bits of
    # |x|, in units of D
    digits, half = d, (a.view(np.int64) & _EXPONENT).view(np.float64) * 2.0**-53 * p
    for j in (1, 2):  # 16, then 15 digits: |x| * 10**(s - j) = D // 10**j + (D % 10**j + r) / 10**j
        q = d // 10**j
        t = ((d - q * 10**j) + r) / 10**j
        up = t > 0.5
        q += up
        off, bound = np.abs(t - up), half / 10**j
        ok = (np.minimum(off, bound) < 0.5 - 1e-9) & (np.abs(off - bound) > 1e-9) & (q < 10 ** (17 - j))
        reads = off < bound
        sure = np.where(reads, ok, sure & ok)
        digits = np.where(reads, q * 10**j, digits)
    fast &= sure
    digits[~fast] = 10**16
    lead = digits // 10**16
    rest = digits - lead * 10**16
    quads, left = [], []  # each group of four digits, and the digits after each of the first three
    for j in (12, 8, 4):
        quads.append(rest // 10**j)
        rest = rest - quads[-1] * 10**j
        left.append(rest)
    quads.append(rest)
    zeros = np.maximum(-1 - e, 0)
    out = np.empty((len(x), 6), dtype=np.uint32)
    out[:, 0] = _SIGN_POINT[4 * (x < 0) + zeros]
    out[:, 1] = _ZEROS_LEAD[10 * zeros + lead]
    for i, q in enumerate(quads[:3], 2):  # a group with no nonzero digit after it has no trailing zeros
        out[:, i] = np.where(left[i - 2] == 0, _QUAD_END[q], _QUAD[q])
    out[:, 5] = _QUAD_END[quads[3]]
    whole = np.flatnonzero(e >= 0)
    if len(whole):  # as three words: the first e + 1 digits move one byte down, and the point follows them
        whole = slice(None) if len(whole) == len(x) else whole
        e, q = e[whole], [q[whole] for q in quads]
        words = out.view("<u8")
        first, second, third = (words[whole, j] for j in range(3))  # sign and lead, the groups 1-2 and 3-4
        ones, twos = _LOW[np.minimum(e, 8)], _LOW[np.maximum(e - 8, 0)]  # the integer digits' bytes in 2 and 3
        second, ints = second & ~ones, (_QUAD_WORD[q[0]] | _QUAD_WORD[q[1]] << np.uint64(32)) & ones
        third, more = third & ~twos, (_QUAD_WORD[q[2]] | _QUAD_WORD[q[3]] << np.uint64(32)) & twos
        point = [table[2 * e + ((second | third) == 0)] for table in _POINT]  # with a zero where no digit follows
        eight, top = np.uint64(8), np.uint64(56)
        words[whole, 0] = (first & np.uint64(0xFF)) | (first >> eight & ~_LOW[6]) | ints << top | point[0]
        words[whole, 1] = ints >> eight | more << top | second | point[1]
        words[whole, 2] = more >> eight | third | point[2]
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = np.array([repr(v).encode() for v in x[slow].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
    return out


def write_samples_csv(fh: BinaryIO, f: SampledFunction) -> None:
    """The rows `edge,sample_index,x,re,im` of a sampled function to a binary
    file: x = (m + 0.5) * length / samples is the midpoint of sample m, and
    every float is written as its `repr`.

    Each pass takes whole edges, as many as fit in MAX_BATCH_BYTES of
    complex samples, or one block of samples of an edge longer than that.
    It formats their values with `_repr_bytes` into one NUL-padded
    (edges, samples, width) byte block of whole lines, reused from pass to
    pass: each edge's `edge,` head is broadcast over its samples, and its
    samples' `sample_index,x,` prefixes are one slice of a table by
    distinct edge length.  It writes the block's bytes other than NUL.  The
    work per sample does not depend on the values.
    """
    g, samples = f.graph, f.samples
    values = np.ascontiguousarray(f.values, dtype=np.complex128)
    lengths, which = np.unique(g.lengths, return_inverse=True)
    heads = np.array([f"{e},".encode() for e in range(g.n_edges)])
    prefixes = np.array([f"{m},{(m + 0.5) * length / samples!r},".encode() for length in lengths.tolist() for m in range(samples)])
    heads, prefixes = (a.view(np.uint8).reshape(len(a), -1) for a in (heads, prefixes))
    wh, wp = heads.shape[1], prefixes.shape[1]
    prefixes = prefixes.reshape(len(lengths), samples, wp)
    per = MAX_BATCH_BYTES // 16  # the complex samples of one pass
    block = min(samples, per)  # the samples of an edge in one pass
    edges = per // block  # the edges of one pass, 1 where an edge is split
    lines = np.empty((edges, block, wh + wp + 50), dtype=np.uint8)
    lines[..., wh + wp + 24] = ord(",")
    lines[..., -1] = ord("\n")
    fh.write(b"edge,sample_index,x,re,im\n")
    for e in range(0, g.n_edges, edges):
        for m in range(0, samples, block):
            part = values[e : e + edges, m : m + block]
            n_e, n_m = part.shape
            text = _repr_bytes(part.reshape(-1).view(np.float64)).reshape(n_e, n_m, 48)
            out = lines[:n_e, :n_m]
            out[..., :wh] = heads[e : e + n_e, None]
            out[..., wh : wh + wp] = prefixes[which[e : e + n_e], m : m + n_m]
            out[..., wh + wp : wh + wp + 24] = text[..., :24]
            out[..., wh + wp + 25 : -1] = text[..., 24:]
            fh.write(out.tobytes().translate(None, b"\0"))
