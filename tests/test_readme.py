"""The README's examples run as written: every `qgsym` line of its "Command
line" section through the CLI, and its "Library example" block."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from qgsym.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _blocks(_section("Command line"), "sh") for line in block.splitlines()
        if line.startswith("qgsym ")
    ]
    assert [shlex.split(line)[1] for line in lines] == [
        "build", "build", "build", "build", "spectrum", "factors", "compare", "scan", "project",
    ]
    for line in lines:
        res = CliRunner().invoke(main, shlex.split(line)[1:])
        assert res.exit_code == 0, (line, res.output)  # compare exits 0 only when isospectral
        if " compare " in line:
            assert res.output.startswith("isospectral=True ")


def test_readme_library_example_runs():
    (code,) = _blocks(_section("Library example"), "python")
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].isospectral
    assert out.getvalue().startswith("True ")
