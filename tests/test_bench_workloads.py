"""The benchmark's workloads run once at full size and pass their own checks.

Each workload of `perfbench/workloads.py` writes its inputs, runs its CLI
pipeline in-process and checks the output files, so a change that would
make a benchmark run fail, or mark its outputs incorrect, fails here.  The
module is loaded by path, as `test_bench_hooks.py` loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qgsym import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its own module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](5, str(tmp_path))
    workload.setup()
    for args in workload.commands():
        rc, out = workloads.invoke(cli.main, args)
        assert rc == 0, (args[0], out)
    outcome = workload.check()
    assert outcome.ok, outcome.reason
