"""The README's library example runs as written, and its key table is
the config schema."""

import math
import os
import subprocess
import sys

import nlcflow
from nlcflow import config as cf

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _key_table():
    """The ``(key, default)`` rows of the README's key table, the one whose
    header row starts ``| key | default |``, backticks dropped."""
    rows, table = [], False
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("| key | default |"):
                table = True
            elif table and not line.startswith("|"):
                break
            elif table and not line.startswith("| ---"):
                key, default = (cell.strip().strip("`")
                                for cell in line.split("|")[1:3])
                rows.append((key, default))
    return rows


def test_readme_key_table_is_the_schema():
    """The key table lists every config key once, in schema order, with
    its default as ``config.resolved`` writes it, or ``unset``."""
    assert _key_table() == [
        (key, "unset" if default is None else cf._format_value(default))
        for key, (_, default) in cf.SCHEMA.items()]


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
