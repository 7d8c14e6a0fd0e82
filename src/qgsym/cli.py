"""Command-line interface.

Validation failures, and files that cannot be read or written, exit with
code 2 and a machine-readable ``error: <Kind>: <message>`` line on stderr.
All runs are deterministic given the same flags.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from collections import Counter
from dataclasses import replace

import click
import numpy as np

from . import builders, io, quotient
from .decompose import l2_norm_sq, project, random_function
from .errors import GridTooCoarse, MalformedList, QgsymError, require_positive
from .groups import Irrep
from .scattering import SecularSystem, build_secular_system, character_blocks, secular_det, standard_conditions
from .spectra import (
    Spectrum, _k_grid, compare_spectra, eigenphase_counter, find_roots_real, find_roots_unitary, merge_spectra,
)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (QgsymError, OSError) as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Spectra of metric graphs with cyclic symmetry."""


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
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges")


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
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges")


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
    """
    g, action = builders.cycle_product(n1, n2, 2.0 * l3, 2.0 * l1)
    io.save_graph(output, g, standard_conditions(g), action)
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges")


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
    click.echo(f"wrote {output}: {g.n_vertices} vertices, {g.n_edges} edges")


def _systems_from_doc(path) -> tuple[dict[str, str], dict[str, SecularSystem]]:
    """The document's secular systems: each label's key, and the system of each key.

    A document that stores an action has one character block per irrep
    label.  A label and its conjugate share one secular determinant (see
    `character_blocks`), so both get the smaller of the two as their key, and
    only the keys' blocks are kept.  A document without an action is the
    dense system under the one label "full".
    """
    g, conds, action = io.load_graph(path)
    if conds is None:
        conds = standard_conditions(g)
    if action is None:
        return {"full": "full"}, {"full": build_secular_system(g, conds)}
    blocks = character_blocks(g, conds, action)
    name = lambda labels: f"({','.join(map(str, labels))})"
    keys = {
        name(labels): name(min(labels, tuple((-l) % n for l, n in zip(labels, action.orders))))
        for labels in blocks
    }
    return keys, {label: block for label, block in zip(keys, blocks.values()) if keys[label] == label}


def _merge_copies(found: dict, keys: dict, kmax: float) -> Spectrum:
    """The union of one copy of `found[key]`'s roots per label of `keys`
    (label -> key), with the label as their source.  The copies go in label
    order, so that merged sources list the labels in that order."""
    parts = [
        Spectrum(tuple(replace(r, source=label) for r in found[key].roots), kmax)
        for label, key in keys.items()
    ]
    return merge_spectra(parts, tol=1e-7)


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
    blocks.  The blocks of a label and of its conjugate have one secular
    determinant, so the locator runs once per conjugate pair and every label
    gets a copy of the roots, its label as their source.  The header's
    `blocks` counts the labels, `distinct_blocks` the runs, and
    `evaluations` sums over the runs.
    """
    require_positive(grid=grid)  # checked for old scripts, but the locator derives its cell
    keys, systems = _systems_from_doc(graph_file)
    found = {key: find_roots_unitary(sys_, kmax, tol=tol) for key, sys_ in systems.items()}
    merged = _merge_copies(found, keys, kmax)
    s = Spectrum(merged.roots, kmax, {
        **next(iter(found.values())).meta,
        "blocks": len(keys),
        "distinct_blocks": len(found),
        "evaluations": sum(f.meta["evaluations"] for f in found.values()),
    })
    io.save_spectrum(output, s)
    click.echo(f"wrote {output}: {len(s.roots)} roots, {s.count()} with multiplicity")


@main.command("factors")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--l1", type=float, required=True)
@click.option("--l3", type=float, required=True)
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--grid", type=float, default=0.005, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("-o", "--output", default="factors.csv", show_default=True)
@handle_errors
def factors_cmd(n1, n2, l1, l3, kmax, grid, tol, output):
    """Roots of every quotient factor, labeled by (s, t).

    Labels s and n1-s (and t and n2-t) give the same closed form, so the
    locator runs once per distinct factor and every label gets a copy of its
    roots.  The header's `eigenphase_count` is the exact root count summed
    over the labels' 8x8 quotient systems, a certificate for `root_count`.
    """
    specs = quotient.all_quotient_specs(n1, n2, l1, l3)
    keys = {f"({sp.s},{sp.t})": (min(sp.s, n1 - sp.s), min(sp.t, n2 - sp.t)) for sp in specs}
    found, counts = {}, {}
    for spec, key in zip(specs, keys.values()):
        if key not in found:
            found[key] = find_roots_real(
                lambda k: quotient.quotient_dispersion_real(spec, k),
                kmax,
                grid_step=grid,
                tol=tol,
                complex_fn=lambda k: quotient.quotient_secular_closed(spec, k),
            )
            counts[key] = eigenphase_counter(quotient.quotient_system(spec))(kmax)
    merged = _merge_copies(found, keys, kmax)
    s = Spectrum(merged.roots, kmax, {
        **next(iter(found.values())).meta,
        "factors": len(found),
        "evaluations": sum(f.meta["evaluations"] for f in found.values()),
        "root_count": merged.count(),
        "eigenphase_count": sum(counts[key] for key in keys.values()),
    })
    io.save_spectrum(output, s)
    click.echo(f"wrote {output}: {len(s.roots)} roots, {s.count()} with multiplicity")


@main.command("compare")
@click.argument("spectrum_a")
@click.argument("spectrum_b")
@click.option("--tol", type=float, default=1e-6, show_default=True)
@handle_errors
def compare_cmd(spectrum_a, spectrum_b, tol):
    """Compare two spectrum CSV files."""
    a = io.load_spectrum(spectrum_a)
    b = io.load_spectrum(spectrum_b)
    rep = compare_spectra(a, b, tol)
    click.echo(
        f"isospectral={rep.isospectral} max_distance={rep.max_distance:.3e} "
        f"count_a={rep.count_a} count_b={rep.count_b} "
        f"unmatched_a={len(rep.unmatched_a)} unmatched_b={len(rep.unmatched_b)}"
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
    """Project a random function onto one irrep component; emit samples."""
    g, action = builders.torus_action(n1, n2, l3, l1)
    rng = np.random.default_rng(seed)
    f = random_function(g, samples, rng)
    irrep = Irrep((n1, n2), (s, t))
    comp = project(f, action, irrep)
    with open(output, "w") as fh:
        fh.write(f"# component ({s},{t}); norm_sq = {l2_norm_sq(comp)!r}\n")
        fh.write("edge,sample_index,x,re,im\n")
        for e in g.edges:
            for m in range(samples):
                x = (m + 0.5) * e.length / samples
                val = complex(comp.values[e.id, m])
                fh.write(f"{e.id},{m},{x!r},{val.real!r},{val.imag!r}\n")
    click.echo(f"wrote {output}: component norm^2 = {l2_norm_sq(comp):.6g}")


@main.command("scan")
@click.argument("graph_file")
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--grid", type=float, default=0.01, show_default=True)
@click.option("-o", "--output", default="scan.csv", show_default=True)
@handle_errors
def scan_cmd(graph_file, kmax, grid, output):
    """Emit (k, |det(I - S D(k))|) plot data, the product over the document's systems.

    One determinant per conjugate pair of character blocks, raised to the
    number of labels it stands for.
    """
    require_positive(kmax=kmax, grid=grid)
    if kmax < grid:
        raise GridTooCoarse(f"kmax = {kmax!r} is below grid = {grid!r}")
    ks = _k_grid(grid, kmax + grid / 2.0, grid)
    keys, systems = _systems_from_doc(graph_file)
    sizes = Counter(keys.values())
    with open(output, "w") as fh:
        fh.write("k,abs_secular\n")
        for k in ks:
            det = math.prod(secular_det(sys_, float(k)) ** sizes[key] for key, sys_ in systems.items())
            fh.write(f"{float(k)!r},{abs(det)!r}\n")
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
