"""The benchmark's tracer finds every name it wraps in the package, and its
workloads every name they import.

`perfbench/tracer.py` looks each wrapped name up with `owner.__dict__[attr]`,
and `perfbench/workloads.py` imports names of the package in its set-up, so
renaming or deleting one of them breaks every benchmark run.  Both files
are only read here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_hooked_name():
    tracer = _load_tracer()
    hooks = [(tracer._owner(owner), attr) for owner, attr, _ in tracer.SPANNED + tracer.COUNTED]
    before = [owner.__dict__[attr] for owner, attr in hooks]
    with tracer.Tracer().installed():
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(hooks, before))
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(hooks, before))


def _benchmark_names() -> list[tuple[str, str]]:
    """(owner, name) of every qgsym name that the tracer wraps or counts, and
    of every one that the workloads import, read from the two files."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPANNED", "COUNTED"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    names = [(owner, attr) for owner, attr, _ in tables["SPANNED"] + tables["COUNTED"]]
    names += [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return list(dict.fromkeys((owner, attr) for owner, attr in names if owner.partition(".")[0] == "qgsym"))


BENCHMARK_NAMES = _benchmark_names()


@pytest.mark.parametrize("owner, attr", BENCHMARK_NAMES, ids=[f"{owner}.{attr}" for owner, attr in BENCHMARK_NAMES])
def test_every_name_the_benchmark_uses_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj)[cls]
    # a module's own name, as the tracer looks it up, or a submodule of a package
    assert attr in vars(obj) or importlib.util.find_spec(f"{module}.{attr}") is not None, (owner, attr)
