"""In-memory spans around the calls into each qgsym layer.

Functions are wrapped at the attribute through which their callers look
them up (the CLI module's imported names, a module global, a class method,
or `numpy.linalg.eigvals`), so the program runs unmodified.  Each span
records its name, start, end and parent; a layer's self time is its span
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import array
import gzip
import importlib
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (owner, attribute, span name); "module:Class" names a method's class
SPANNED = (
    ("qgsym.io", "load_graph", "io.load_graph"),
    ("qgsym.io", "save_spectrum", "io.save_spectrum"),
    ("qgsym.io", "load_spectrum", "io.load_spectrum"),
    ("qgsym.builders", "torus_action", "builders.torus_action"),
    ("qgsym.builders", "validate_action", "actions.validate_action"),
    ("qgsym.actions:GraphAction", "maps", "actions.maps"),
    ("qgsym.actions", "subdivide_midpoints", "graphs.subdivide_midpoints"),
    ("qgsym.cli", "build_secular_system", "scattering.build_secular_system"),
    ("qgsym.cli", "secular_det", "scattering.secular_det"),
    ("qgsym.scattering:SecularSystem", "unitarity_defect", "scattering.unitarity_defect"),
    ("qgsym.quotient", "quotient_dispersion_real", "quotient.dispersion"),
    ("qgsym.quotient", "quotient_secular_closed", "quotient.closed"),
    ("qgsym.cli", "find_roots_unitary", "spectra.find_roots_unitary"),
    ("numpy.linalg", "eigvals", "spectra.eigvals"),
    ("qgsym.cli", "find_roots_real", "spectra.find_roots_real"),
    ("qgsym.spectra", "winding_number", "spectra.winding_number"),
    ("qgsym.cli", "merge_spectra", "spectra.merge_spectra"),
    ("qgsym.cli", "compare_spectra", "spectra.compare_spectra"),
    ("qgsym.cli", "project", "decompose.project"),
    ("qgsym.decompose", "pull_back", "decompose.pull_back"),
)

# called about a million times per factors-16x16 pipeline: counted, not spanned
COUNTED = (
    ("qgsym.quotient", "irrep_value", "groups.irrep_value_calls"),
    ("qgsym.groups", "irrep_value", "groups.irrep_value_calls"),
)

ROOT = "cli"  # one span per CLI command, opened by the pipeline runner
NAMES = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in SPANNED))

# per-layer metric -> span names whose summed self time it reports
SELF_TIME = {
    "cli.self_s": ("cli",),
    "io.load_graph_s": ("io.load_graph",),
    "io.save_spectrum_s": ("io.save_spectrum",),
    "io.load_spectrum_s": ("io.load_spectrum",),
    "builders.torus_action_s": ("builders.torus_action",),
    "actions.validate_action_s": ("actions.validate_action",),
    "actions.maps_s": ("actions.maps",),
    "graphs.subdivide_midpoints_s": ("graphs.subdivide_midpoints",),
    "scattering.build_secular_system_s": ("scattering.build_secular_system",),
    "scattering.secular_det_s": ("scattering.secular_det",),
    "scattering.unitarity_defect_s": ("scattering.unitarity_defect",),
    "quotient.eval_s": ("quotient.dispersion", "quotient.closed"),
    "spectra.find_roots_unitary_s": ("spectra.find_roots_unitary",),
    "spectra.eigvals_s": ("spectra.eigvals",),
    "spectra.find_roots_real_s": ("spectra.find_roots_real",),
    "spectra.winding_number_s": ("spectra.winding_number",),
    "spectra.merge_spectra_s": ("spectra.merge_spectra",),
    "spectra.compare_spectra_s": ("spectra.compare_spectra",),
    "decompose.project_s": ("decompose.project",),
    "decompose.pull_back_s": ("decompose.pull_back",),
}

# per-layer metric -> span name whose call count it reports
CALLS = {
    "builders.torus_action_calls": "builders.torus_action",
    "actions.validate_action_calls": "actions.validate_action",
    "actions.maps_calls": "actions.maps",
    "scattering.secular_det_calls": "scattering.secular_det",
    "quotient.dispersion_evals": "quotient.dispersion",
    "quotient.closed_evals": "quotient.closed",
    "spectra.eigvals_calls": "spectra.eigvals",
    "spectra.winding_number_calls": "spectra.winding_number",
    "decompose.pull_back_calls": "decompose.pull_back",
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans of one pipeline, plus counters and sizes recorded at the same calls."""

    def __init__(self):
        self.ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.extra = {
            "groups.irrep_value_calls": 0,
            "io.graph_doc_bytes": 0,
            "scattering.S_bytes": 0,
            "scattering.S_nnz_frac": 0.0,
            "spectra.eigvals_flops_computed": 0,
        }
        self._after = {
            "io.load_graph": self._graph_doc_bytes,
            "scattering.build_secular_system": self._s_matrix,
            "spectra.eigvals": self._eigvals_flops,
        }

    def _graph_doc_bytes(self, result, args):
        self.extra["io.graph_doc_bytes"] += os.path.getsize(args[0])

    def _s_matrix(self, result, args):
        S = result.S
        self.extra["scattering.S_bytes"] = max(self.extra["scattering.S_bytes"], S.nbytes)
        self.extra["scattering.S_nnz_frac"] = np.count_nonzero(S) / S.size

    def _eigvals_flops(self, result, args):
        # computed from the n^3 model of a dense eigen-decomposition, not measured
        self.extra["spectra.eigvals_flops_computed"] += np.shape(args[0])[-1] ** 3

    def wrapped(self, name: str, fn):
        """`fn` recording one span per call under `name`."""
        name_id = NAMES.index(name)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self._stack
        after = self._after.get(name)

        def span(*args, **kwargs):
            i = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return span

    def _counted(self, key: str, fn):
        extra = self.extra

        def counted(*args, **kwargs):
            extra[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Replace every traced attribute with its wrapper; restore on exit."""
        saved = []
        try:
            for owner_path, attr, name in SPANNED:
                owner = _owner(owner_path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrapped(name, getattr(owner, attr)))
            for owner_path, attr, key in COUNTED:
                owner = _owner(owner_path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._counted(key, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _self_and_counts(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(self.ids, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(ids))
        self_time = dur - child
        return (
            np.bincount(ids, weights=self_time, minlength=len(NAMES)),
            np.bincount(ids, minlength=len(NAMES)),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and recorded sizes of this pipeline."""
        self_by_name, count_by_name = self._self_and_counts()
        out = {
            metric: float(sum(self_by_name[NAMES.index(n)] for n in names))
            for metric, names in SELF_TIME.items()
        }
        out.update({metric: int(count_by_name[NAMES.index(n)]) for metric, n in CALLS.items()})
        out.update(self.extra)
        return out

    def write_spans(self, fh, pipeline: int) -> None:
        """Append this pipeline's spans as CSV rows, times relative to its first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        for i, (name_id, parent, start, end) in enumerate(zip(self.ids, self.parents, self.starts, self.ends)):
            fh.write(f"{pipeline},{i},{parent},{NAMES[name_id]},{start - t0:.9f},{end - t0:.9f}\n")


def open_spans_file(path: str):
    """A gzip CSV of spans: pipeline, span, parent (-1 for a root), name, start_s, end_s."""
    fh = gzip.open(path, "wt", compresslevel=1)
    fh.write("pipeline,span,parent,name,start_s,end_s\n")
    return fh
