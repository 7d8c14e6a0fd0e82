"""Command-line interface.

Validation failures exit with code 2 and a machine-readable
``error: <Kind>: <message>`` line on stderr.  All runs are deterministic
given the same flags.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import replace

import click
import numpy as np

from . import builders, io, quotient
from .decompose import l2_norm_sq, project, random_function
from .errors import QgsymError, require_positive
from .groups import Irrep
from .scattering import SecularSystem, build_secular_system, character_blocks, secular_det, standard_conditions
from .spectra import (
    Spectrum,
    compare_spectra,
    eigenphase_counter,
    find_roots_real,
    find_roots_unitary,
    merge_spectra,
)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except QgsymError as exc:
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


@build.command("circulant")
@click.option("--n", type=int, required=True)
@click.option("--jumps", required=True, help="comma-separated jump list, e.g. 3,4")
@click.option("--lens", required=True, help="comma-separated per-jump lengths")
@click.option("-o", "--output", default="graph.json", show_default=True)
@handle_errors
def build_circulant(n, jumps, lens, output):
    jump_list = [int(x) for x in jumps.split(",")]
    len_list = [float(x) for x in lens.split(",")]
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


def _systems_from_doc(path) -> dict[str, SecularSystem]:
    """The document's secular systems by label: one character block per irrep
    label when it stores an action, else the dense system as "full"."""
    g, conds, action = io.load_graph(path)
    if conds is None:
        conds = standard_conditions(g)
    if action is None:
        return {"full": build_secular_system(g, conds)}
    blocks = character_blocks(g, conds, action)
    return {f"({','.join(map(str, labels))})": block for labels, block in blocks.items()}


@main.command("spectrum")
@click.argument("graph_file")
@click.option("--kmax", type=float, default=10.0, show_default=True)
@click.option("--grid", type=float, default=0.01, show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("-o", "--output", default="spectrum.csv", show_default=True)
@handle_errors
def spectrum_cmd(graph_file, kmax, grid, tol, output):
    """Roots of the secular determinant of a graph document.

    A document that stores its group action is solved one character block
    per irrep label, each root's source naming its label.
    """
    parts = [
        find_roots_unitary(sys_, kmax, grid_step=grid, tol=tol, source=label)
        for label, sys_ in _systems_from_doc(graph_file).items()
    ]
    merged = merge_spectra(parts, tol=1e-7)
    s = Spectrum(merged.roots, kmax, {
        **parts[0].meta,
        "blocks": len(parts),
        "evaluations": sum(p.meta["evaluations"] for p in parts),
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
    keys = [(min(sp.s, n1 - sp.s), min(sp.t, n2 - sp.t)) for sp in specs]
    found, counts = {}, {}
    for spec, key in zip(specs, keys):
        if key not in found:
            found[key] = find_roots_real(
                lambda k: quotient.quotient_dispersion_real(spec, k),
                kmax,
                grid_step=grid,
                tol=tol,
                complex_fn=lambda k: quotient.quotient_secular_closed(spec, k),
            )
            counts[key] = eigenphase_counter(quotient.quotient_system(spec))(kmax)
    # one copy of the roots per label, in label order, so that merged
    # sources list the labels in that order
    parts = [
        Spectrum(tuple(replace(r, source=f"({sp.s},{sp.t})") for r in found[key].roots), kmax)
        for sp, key in zip(specs, keys)
    ]
    merged = merge_spectra(parts, tol=1e-7)
    s = Spectrum(merged.roots, kmax, {
        **found[keys[0]].meta,
        "factors": len(found),
        "evaluations": sum(f.meta["evaluations"] for f in found.values()),
        "root_count": merged.count(),
        "eigenphase_count": sum(counts[key] for key in keys),
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
    """Emit (k, |det(I - S D(k))|) plot data, the product over the document's systems."""
    require_positive(kmax=kmax, grid=grid)
    systems = _systems_from_doc(graph_file).values()
    with open(output, "w") as fh:
        fh.write("k,abs_secular\n")
        for k in np.arange(grid, kmax + grid / 2.0, grid):
            det = math.prod(secular_det(sys_, float(k)) for sys_ in systems)
            fh.write(f"{float(k)!r},{abs(det)!r}\n")
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
