"""Command-line interface.

Validation failures, and files that cannot be read or written, exit with
code 2 and a machine-readable ``error: <Kind>: <message>`` line on stderr.
All runs are deterministic given the same flags.  Every message names its
stream, `sys.stdout` or `sys.stderr`: with none, `click.echo` caches a
wrapper per stream that holds an in-memory stream alive for good.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

import click
import numpy as np

from . import builders, io, quotient
from .decompose import l2_norm_sq, project, random_function
from .errors import CertificateMismatch, GridTooCoarse, GridTooLarge, MalformedList, QgsymError, require_positive
from .groups import Irrep
from .scattering import SecularSystem, build_secular_system, character_blocks, secular_dets, standard_conditions
from .scattering import secular_det  # noqa: F401  (a name the benchmark's tracer wraps)
from .locators import UnitaryFamily, find_roots_real
from .locators import find_roots_unitary  # noqa: F401  (a name the benchmark's tracer wraps)
from .spectra import (
    MAX_BATCH_BYTES, MAX_GRID_POINTS, Roots, Spectrum, _chunked, _k_grid, compare_spectra, isospectral_classes, merge_spectra,
)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (QgsymError, OSError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Spectra of metric graphs with cyclic symmetry."""


def _require_at_most(points: int, what: str) -> None:
    """Refuse more than MAX_GRID_POINTS `what` with `GridTooLarge`, before any is allocated."""
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(f"{points} {what} are over {MAX_GRID_POINTS}")


@main.group()
def build():
    """Write a graph document (JSON)."""


@build.command("cycle")
@click.option("--n", type=int, required=True)
@click.option("--len", "length", type=float, required=True)
@click.option("-o", "--output", default="graph.json", show_default=True)
@handle_errors
def build_cycle(n, length, output):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, action = builders.cycle_graph(n, length)
    io.save_graph(output, g, standard_conditions(g), action)
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges", file=sys.stdout)


def _parse_list(flag: str, text: str, kind: type) -> list:
    """The entries of a comma-separated flag value; `MalformedList` names the first bad one."""
    out = []
    for entry in text.split(","):
        try:
            out.append(kind(entry))
        except ValueError:
            raise MalformedList(f"{flag}: entry {entry!r} is not {'an integer' if kind is int else 'a number'}") from None
    return out


@build.command("circulant")
@click.option("--n", type=int, required=True)
@click.option("--jumps", required=True, help="comma-separated jump list, e.g. 3,4")
@click.option("--lens", required=True, help="comma-separated per-jump lengths")
@click.option("-o", "--output", default="graph.json", show_default=True)
@handle_errors
def build_circulant(n, jumps, lens, output):
    jump_list = _parse_list("--jumps", jumps, int)
    len_list = _parse_list("--lens", lens, float)
    g, action = builders.circulant_graph(n, jump_list, len_list)
    io.save_graph(output, g, standard_conditions(g), action)
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges", file=sys.stdout)


@build.command("product")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--l1", type=float, required=True, help="half-length of second-factor edges (the quotient's L1 pair)")
@click.option("--l3", type=float, required=True, help="half-length of first-factor edges (the quotient's L3 pair)")
@click.option("-o", "--output", default="graph.json", show_default=True)
@handle_errors
def build_product(n1, n2, l1, l3, output):
    """Product of two cycles, isospectral to `factors` with the same flags.

    First-factor edges have full length 2*l3, second-factor edges 2*l1.
    More than MAX_GRID_POINTS edges are refused with `GridTooLarge`.
    """
    require_positive(n1=n1, n2=n2)
    _require_at_most(2 * n1 * n2, f"edges of the {n1}x{n2} torus")
    g, action = builders.cycle_product(n1, n2, 2.0 * l3, 2.0 * l1)
    io.save_graph(output, g, standard_conditions(g), action)
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges", file=sys.stdout)


@build.command("quotient")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--l1", type=float, required=True)
@click.option("--l3", type=float, required=True)
@click.option("--s", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("-o", "--output", default="graph.json", show_default=True)
@handle_errors
def build_quotient(n1, n2, l1, l3, s, t, output):
    spec = quotient.QuotientSpec(n1, n2, l1, l3, s, t)
    g, conds = quotient.quotient_graph(spec)
    io.save_graph(output, g, conds)
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges", file=sys.stdout)


def _systems_from_doc(path) -> tuple[dict[str, SecularSystem], np.ndarray]:
    """The document's secular system of each label, and the first label of
    each label's class of one secular determinant (`isospectral_classes`):
    one character block per irrep label of a stored action, or else the
    dense system under the one label "full".

    A label and its conjugate (each entry l of order n as -l mod n) have one
    secular determinant (`character_blocks`), so only the lower label of
    each pair is probed, and the other takes its class.  A class holds both
    labels of each of its pairs, so its first label is the lower of some
    pair, and `first` is what probing every label gives."""
    g, conds, action = io.load_graph(path)
    if conds is None:
        conds = standard_conditions(g)
    if action is None:
        return {"full": build_secular_system(g, conds)}, np.zeros(1, dtype=int)
    blocks = character_blocks(g, conds, action)
    systems = list(blocks.values())
    labels = np.array(list(blocks), dtype=np.intp)
    conjugate = np.ravel_multi_index(tuple((-labels % action.orders).T), action.orders)
    index = np.arange(len(systems))
    low = np.minimum(conjugate, index)  # the lower label of each label's pair
    reps = np.flatnonzero(low == index)
    probed = [systems[i] for i in reps.tolist()]
    first = np.empty(len(systems), dtype=np.intp)
    first[reps] = reps[isospectral_classes(secular_dets(probed), len(probed), probed[0].lengths, probed[0].S.nbytes)]
    return {f"({','.join(map(str, label))})": block for label, block in blocks.items()}, first[low]


def _write_classes(output, kmax: float, found: Roots, runs: np.ndarray, labels, eigenphase_count, **header):
    """Merge a copy of the roots of member `runs[i]` of `found` under each `labels[i]`, write it with `header`
    and the two counts, and print a summary.  A root count that the eigenphase count does not certify raises
    `CertificateMismatch`, and no file is written."""
    merged = merge_spectra(found, runs, labels, tol=1e-7)
    count = merged.count()
    if count != eigenphase_count:
        raise CertificateMismatch(
            f"{count} roots with multiplicity on (0, {kmax!r}] against an eigenphase count of {eigenphase_count}"
        )
    s = Spectrum(merged.k, merged.order, merged.source, kmax, {
        **header, "root_count": count, "eigenphase_count": eigenphase_count,
    })
    io.save_spectrum(output, s)
    click.echo(f"wrote {output}: {len(s.k)} roots, {count} with multiplicity", file=sys.stdout)


@main.command("spectrum")
@click.argument("graph_file")
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--grid", type=float, default=0.01, hidden=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("-o", "--output", default="spectrum.csv", show_default=True)
@handle_errors
def spectrum_cmd(graph_file, kmax, grid, tol, output):
    """Roots of the secular determinant of a graph document.

    A document that stores its group action is solved on its character
    blocks, once per class of blocks with one secular determinant
    (`spectra.isospectral_classes`), and every label gets a copy of the
    roots, its label as their source.  All distinct blocks are one family of
    the unitary locator, whose one `Roots` is merged as it is: each
    refinement round is one stacked `eigh` call over the open brackets of
    every block, per 32 KB of matrices (`spectra.MAX_BATCH_BYTES`).  The
    header's `blocks` counts the labels, `distinct_blocks` the blocks
    solved, `grid_step` and `bonds` are the first distinct block's,
    `rounds` the most of any block, `evaluations` sums their evaluation
    points, and `eigenphase_count`, the exact root count of every label's
    own block, certifies `root_count`: a count that differs exits 2 with
    `CertificateMismatch` and writes no file.
    """
    require_positive(grid=grid)  # checked for old scripts, but the locator derives its cell
    systems, first = _systems_from_doc(graph_file)
    distinct, runs = np.unique(first, return_inverse=True)
    family = UnitaryFamily(list(systems.values()))
    found = family.roots(kmax, tol=tol, members=distinct)
    meta = found.meta
    _write_classes(
        output, kmax, found, runs, list(systems), sum(family.counts(kmax)),
        **found.spectrum(0).meta | {"rounds": int(meta["rounds"].max()), "evaluations": int(meta["evaluations"].sum())},
        blocks=len(systems), distinct_blocks=found.members,
    )


@main.command("factors")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--l1", type=float, required=True)
@click.option("--l3", type=float, required=True)
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("-o", "--output", default="factors.csv", show_default=True)
@handle_errors
def factors_cmd(n1, n2, l1, l3, kmax, tol, output):
    """Roots of every quotient factor, labeled by (s, t).

    The labels are one `quotient.QuotientFamily`.  Each class of labels with
    one dispersion form (`QuotientFamily.classes`, from the coefficients
    alone) is solved once, and every label gets a copy of its roots.  The
    distinct factors are one family of the real locator
    (`locators.find_roots_real`): a factor's roots are its roots at the
    zeros of sin 2kL1 and sin 2kL3, of exact orders, and one simple root
    between each two consecutive poles of its two-loop form, with no grid.
    Their closed-form 4x4 systems (`QuotientFamily.bouquets`) are counted in
    stacked `eigh` calls first: a factor whose roots do not number its
    exact eigenphase count N(k_max) is solved by the unitary locator on its
    system (`fallbacks` counts them).  `rounds` is the most refinement
    rounds of any factor, by either locator.  `eigenphase_count`, N(k_max)
    summed over the labels, certifies `root_count`: a count that differs
    exits 2 with `CertificateMismatch` and writes no file.  More than
    MAX_GRID_POINTS labels, or a k_max past as many sine zeros, exit 2 with
    `GridTooLarge`.
    """
    require_positive(n1=n1, n2=n2)
    _require_at_most(n1 * n2, f"labels of the {n1}x{n2} torus")
    labels = np.stack(np.divmod(np.arange(n1 * n2), n2), axis=-1)  # (s, t), s first
    distinct, runs = np.unique(quotient.QuotientFamily(n1, n2, l1, l3, labels).classes(), return_inverse=True)
    factors = quotient.QuotientFamily(n1, n2, l1, l3, labels[distinct])
    found = find_roots_real(factors, kmax, tol=tol)
    meta, tails = found.meta, [f"{t})" for t in range(n2)]
    _write_classes(
        output, kmax, found, runs, [head + tail for head in [f"({s}," for s in range(n1)] for tail in tails],
        int(meta["eigenphase_count"][runs].sum()), tol=tol, factors=found.members,
        fallbacks=int(meta["fallback"].sum()), rounds=int(meta["rounds"].max()), evaluations=int(meta["evaluations"].sum()),
    )


@main.command("compare")
@click.argument("spectrum_a")
@click.argument("spectrum_b")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@handle_errors
def compare_cmd(spectrum_a, spectrum_b, tol):
    """Compare two spectrum CSV files.

    Roots are compared over each file's whole k_max, not up to the smaller
    one: a root that one file has above the other's k_max is unmatched."""
    require_positive(tol=tol)
    a = io.load_spectrum(spectrum_a)
    b = io.load_spectrum(spectrum_b)
    rep = compare_spectra(a, b, tol)
    click.echo(
        f"isospectral={rep.isospectral} max_distance={rep.max_distance:.3e} "
        f"count_a={rep.count_a} count_b={rep.count_b} "
        f"unmatched_a={sum(n for _, n in rep.unmatched_a)} unmatched_b={sum(n for _, n in rep.unmatched_b)}",
        file=sys.stdout,
    )
    sys.exit(0 if rep.isospectral else 1)


@main.command("project")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--l1", type=float, required=True, help="half-length of second-factor edges (the quotient's L1 pair)")
@click.option("--l3", type=float, required=True, help="half-length of first-factor edges (the quotient's L3 pair)")
@click.option("--s", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", default="projection.csv", show_default=True)
@handle_errors
def project_cmd(n1, n2, l1, l3, s, t, samples, seed, output):
    """Project a random function onto one irrep component; emit samples.

    The function has `samples` points on each of the 4 n1 n2 edges of the
    subdivided torus; more than MAX_GRID_POINTS in all is refused with
    `GridTooLarge`, and so are a label out of range and a size or sample
    count that is not positive, before the torus is built.
    `io.write_samples_csv` writes the rows, every float as its `repr`, with
    array arithmetic in passes of MAX_BATCH_BYTES: its time per sample is
    the same at every label, however much the component's rows repeat.
    """
    require_positive(n1=n1, n2=n2, samples=samples)
    irrep = Irrep((n1, n2), (s, t))
    _require_at_most(4 * n1 * n2 * samples, f"samples on the {4 * n1 * n2} edges of the {n1}x{n2} torus")
    g, action = builders.torus_action(n1, n2, l3, l1)
    rng = np.random.default_rng(seed)
    f = random_function(g, samples, rng)
    comp = project(f, action, irrep)
    norm_sq = l2_norm_sq(comp)
    with open(output, "wb") as fh:
        fh.write(f"# component ({s},{t}); norm_sq = {norm_sq!r}\n".encode())
        io.write_samples_csv(fh, comp)
    click.echo(f"wrote {output}: component norm^2 = {norm_sq:.6g}", file=sys.stdout)


@main.command("scan")
@click.argument("graph_file")
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--grid", type=float, default=0.01, show_default=True)
@click.option("-o", "--output", default="scan.csv", show_default=True)
@handle_errors
def scan_cmd(graph_file, kmax, grid, output):
    """Emit (k, |det(I - S D(k))|) plot data, the product over the document's systems.

    One determinant per class of character blocks (`_systems_from_doc`),
    raised to the number of labels it stands for.  The classes' determinants
    are stacked `np.linalg.det` calls (`secular_dets`) of at most
    MAX_BATCH_BYTES of matrices, over as many k as fit in one.
    """
    require_positive(kmax=kmax, grid=grid)
    if kmax < grid:
        raise GridTooCoarse(f"kmax = {kmax!r} is below grid = {grid!r}")
    ks = _k_grid(grid, kmax + grid / 2.0, grid)
    systems, first = _systems_from_doc(graph_file)
    classes, powers = np.unique(first, return_counts=True)  # a class's first label is its lowest
    blocks, powers = list(systems.values()), powers.tolist()  # Python ints keep the products' bits
    dets, nbytes = secular_dets([blocks[i] for i in classes]), blocks[0].S.nbytes
    which = np.arange(len(classes))
    rows = max(1, MAX_BATCH_BYTES // max(1, nbytes * len(classes)))
    with open(output, "w") as fh:
        fh.write("k,abs_secular\n")
        for lo in range(0, len(ks), rows):
            part = ks[lo : lo + rows]
            values = _chunked(dets, np.tile(which, len(part)), np.repeat(part, len(classes)), nbytes)
            for k, row in zip(part.tolist(), values.reshape(len(part), -1).tolist()):
                det = math.prod(d ** n for d, n in zip(row, powers))
                fh.write(f"{k!r},{abs(det)!r}\n")
    click.echo(f"wrote {output}", file=sys.stdout)


if __name__ == "__main__":
    main()
