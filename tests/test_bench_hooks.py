"""The benchmark's tracer finds every name it wraps in the package.

`perfbench/tracer.py` looks each wrapped name up with `owner.__dict__[attr]`,
so renaming or deleting one of them breaks every traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
