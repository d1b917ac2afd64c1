"""The README's library example runs as written."""

import math
import os
import subprocess
import sys

import nlcflow

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _library_example():
    """The ``python`` blocks of the README's "Library use" section, fences
    dropped: the section runs from its heading to the next ``## `` one."""
    lines, section, block = [], False, False
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                section = line.rstrip("\n") == "## Library use"
            elif section and line.rstrip("\n") in ("```python", "```"):
                block = not block and line.startswith("```python")
            elif section and block:
                lines.append(line)
    return "".join(lines)


def test_readme_library_example_runs(tmp_path):
    """The example, run in a fresh interpreter on this ``nlcflow``, exits 0
    and prints a row of three finite numbers per state."""
    code = _library_example()
    assert "sv.run(" in code
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlcflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    rows = [[float(v) for v in line.split()]
            for line in out.stdout.splitlines()]
    assert len(rows) > 1
    assert all(len(row) == 3 and all(map(math.isfinite, row)) for row in rows)
