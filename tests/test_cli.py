"""Command dispatch, exit codes, and output formats."""

import functools
import json
import math
import os
import weakref

import numpy as np
import pytest

from nlcflow import cli
from nlcflow.fields import Grid
from nlcflow.solver import State

from conftest import bump_state, read_csv


RUN_CFG = """\
grid.dim = 1
grid.shape = 32
solver.dt = 1e-3
solver.t_end = 5e-3
reg.eps = 1e-2
reg.delta = 1e-3
reg.n_modes = 6
init.preset = density-bump
init.amplitude = 0.4
output.dir = {out}
output.cadence = 2
output.residuals = identity,T2
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run_cfg(tmp_path, out="out", extra=""):
    return _write(tmp_path, "run.cfg", RUN_CFG.format(out=tmp_path / out)
                  + extra)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_run_success(tmp_path):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "diagnostics.csv").exists()
    assert (out / "config.resolved").exists()
    snaps = sorted(out.glob("snap_*.dat"))
    assert [s.name for s in snaps] == [
        "snap_000000.dat", "snap_000002.dat", "snap_000004.dat",
        "snap_000005.dat"]


@pytest.mark.parametrize("text", [
    "phys.gamma = 1.2\n",
    "reg.beta = 3\nphys.gamma = 2\n",
    "grid.dim = 2\nwho.knows = 1\n",
])
def test_bad_config_exits_2(tmp_path, text, capsys):
    cfg = _write(tmp_path, "bad.cfg", text)
    assert cli.main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_solver_failure_exits_3(tmp_path, capsys):
    cfg = _run_cfg(tmp_path, extra="solver.picard_tol = 1e-300\n"
                                   "solver.picard_max = 2\n")
    assert cli.main(["run", cfg]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("failure", ["picard", "director", "temperature"])
def test_stalled_iteration_exits_3_and_says_where(tmp_path, capsys,
                                                  monkeypatch, failure):
    """Picard iterates that do not settle, and a director fixed point or a
    heat conjugate-gradient solve cut to one iteration, end the run with
    exit code 3 and a message naming the substep, t and dt."""
    from nlcflow import solver as sv
    text = RUN_CFG.format(out=tmp_path / "out")
    if failure == "picard":
        text += "solver.picard_tol = 1e-300\nsolver.picard_max = 1\n"
    elif failure == "director":
        text = text.replace("density-bump", "director-twist")
        monkeypatch.setattr(sv, "_director_update", functools.partial(
            sv._director_update, max_iter=1))
    else:
        monkeypatch.setattr(sv, "_pcg", functools.partial(sv._pcg,
                                                          max_iter=1))
    cfg = _write(tmp_path, "run.cfg", text)
    assert cli.main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and failure in err
    assert "t=0 " in err and "dt=0.001" in err


def test_diagnose_missing_dir_exits_4(tmp_path):
    assert cli.main(["diagnose", str(tmp_path / "nowhere")]) == 4


def test_diagnose_corrupted_snapshot_exits_4(tmp_path, capsys):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    snap = tmp_path / "out" / "snap_000005.dat"
    lines = snap.read_text().splitlines()
    lines[2] = "corrupted zz"
    snap.write_text("\n".join(lines) + "\n")
    assert cli.main(["diagnose", str(tmp_path / "out")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_unknown_mms_case_exits_2(tmp_path):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["mms", "moebius", cfg]) == 2


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_equilibrium_run_constant_diagnostics(tmp_path):
    cfg = _write(tmp_path, "eq.cfg",
                 "grid.dim = 2\nsolver.t_end = 5e-3\n"
                 "init.preset = equilibrium\n"
                 f"output.dir = {tmp_path / 'eq'}\n")
    assert cli.main(["run", cfg]) == 0
    names, rows = read_csv(str(tmp_path / "eq" / "diagnostics.csv"))
    cols = {n: [r[i] for r in rows] for i, n in enumerate(names)}
    for key in ("mass", "energy_total", "entropy_total", "director_sup"):
        assert max(cols[key]) - min(cols[key]) <= 1e-12 * max(
            1.0, abs(cols[key][0]))


def test_csv_columns_and_lossless_round_trip(tmp_path):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    path = tmp_path / "out" / "diagnostics.csv"
    names, rows = read_csv(str(path))
    assert tuple(names[:len(cli._CSV_COLUMNS)]) == cli._CSV_COLUMNS
    assert names[len(cli._CSV_COLUMNS):] == ["res_identity", "res_T2"]
    # every text cell survives float() -> %.17g exactly
    body = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    for line in body[1:]:
        for cell in line.split(","):
            assert cli._fmt(float(cell)) == cell


def test_rerun_outputs_byte_identical(tmp_path):
    cfg1 = _run_cfg(tmp_path, out="one")
    cfg2 = _write(tmp_path, "run2.cfg",
                  RUN_CFG.format(out=tmp_path / "two"))
    assert cli.main(["run", cfg1]) == 0
    assert cli.main(["run", cfg2]) == 0
    for name in ("diagnostics.csv", "snap_000005.dat"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


RESTART_CFG = """\
grid.dim = 2
grid.shape = 32
grid.extents = 2.0
solver.dt = 1e-3
solver.t_end = 0.01
reg.eps = 1e-2
reg.delta = 1e-3
reg.n_modes = 8
init.preset = director-twist
init.amplitude = 0.6
output.dir = {out}
output.cadence = 1
"""


def test_restart_from_snapshot_continues_the_run(tmp_path):
    """Ten steps in one run and 5 + 5 with a restart from the fifth
    snapshot end on byte-identical snapshots."""
    whole = _write(tmp_path, "whole.cfg",
                   RESTART_CFG.format(out=tmp_path / "whole"))
    assert cli.main(["run", whole]) == 0
    restart = _write(tmp_path, "restart.cfg",
                     RESTART_CFG.format(out=tmp_path / "second")
                     + f"init.snapshot = {tmp_path / 'whole'}"
                       "/snap_000005.dat\n")
    assert cli.main(["run", restart]) == 0
    second = sorted(os.listdir(tmp_path / "second"))
    assert second[-1] == "snap_000005.dat"
    a = (tmp_path / "whole" / "snap_000010.dat").read_bytes()
    b = (tmp_path / "second" / "snap_000005.dat").read_bytes()
    assert a == b


def test_mid_run_failure_keeps_what_was_written(tmp_path, capsys,
                                                monkeypatch):
    """Step k of a cadence-1 run failing ends it with exit code 3 and a
    message naming the step.  The rows and snapshots of states 0 to k-1
    stay, equal to the continuous run's, and a restart from the last
    snapshot ends on the continuous run's final snapshot byte for byte."""
    from nlcflow import solver as sv
    from nlcflow.errors import NonFiniteState
    k = 4
    whole = _write(tmp_path, "whole.cfg",
                   RESTART_CFG.format(out=tmp_path / "whole"))
    assert cli.main(["run", whole]) == 0
    calls = []
    step = sv.step_coupled

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == k:
            raise NonFiniteState("director")
        return step(*args, **kwargs)

    monkeypatch.setattr(sv, "step_coupled", failing)
    broken = _write(tmp_path, "broken.cfg",
                    RESTART_CFG.format(out=tmp_path / "broken"))
    capsys.readouterr()
    assert cli.main(["run", broken]) == 3
    assert f"(step {k})" in capsys.readouterr().err
    monkeypatch.undo()

    text = (tmp_path / "broken" / "diagnostics.csv").read_text()
    assert text.endswith("\n")
    names, rows = read_csv(str(tmp_path / "broken" / "diagnostics.csv"))
    assert len(rows) == k and names[0] == "t"
    full = (tmp_path / "whole" / "diagnostics.csv").read_text()
    assert full.startswith(text)
    snaps = sorted(n for n in os.listdir(tmp_path / "broken")
                   if n.startswith("snap_"))
    assert snaps == ["snap_%06d.dat" % i for i in range(k)]
    for name in snaps:
        assert (tmp_path / "broken" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()

    restart = _write(tmp_path, "restart.cfg",
                     RESTART_CFG.format(out=tmp_path / "second")
                     + f"init.snapshot = {tmp_path / 'broken' / snaps[-1]}\n")
    assert cli.main(["run", restart]) == 0
    a = (tmp_path / "whole" / "snap_000010.dat").read_bytes()
    b = (tmp_path / "second" / ("snap_%06d.dat" % (11 - k))).read_bytes()
    assert a == b


def test_run_keeps_at_most_three_states(tmp_path, monkeypatch):
    """``solve run`` streams its states: over 20 steps at 32^2, with a
    snapshot and two residual audits per step, at most three States are
    alive at any time."""
    from nlcflow import solver as sv
    live = weakref.WeakSet()
    made = []

    class Counted(sv.State):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)
            made.append(len(live))

    monkeypatch.setattr(sv, "State", Counted)
    cfg = _write(tmp_path, "long.cfg",
                 RESTART_CFG.format(out=tmp_path / "long").replace(
                     "solver.t_end = 0.01", "solver.t_end = 0.02")
                 + "output.residuals = identity,T2\n")
    assert cli.main(["run", cfg]) == 0
    assert len(os.listdir(tmp_path / "long")) == 21 + 2
    assert len(made) >= 21 and max(made) <= 3


def test_solve_out_overrides_output_dir(tmp_path, monkeypatch):
    cfg = _run_cfg(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SOLVE_OUT", str(override))
    assert cli.main(["run", cfg]) == 0
    assert (override / "diagnostics.csv").exists()
    assert not (tmp_path / "out").exists()


def test_snapshot_round_trip_exact(tmp_path):
    grid = Grid((16, 16), (2.0, 2.0))
    s = bump_state(grid, n_modes=6)
    s = State(grid, 0.125, s.rho, s.u, s.theta, s.d)
    path = str(tmp_path / "state.dat")
    cli.write_snapshot(path, s)
    back = cli.read_snapshot(path, grid)
    assert back.t == s.t
    assert np.array_equal(back.rho, s.rho)
    assert np.array_equal(back.u[1], s.u[1])
    assert np.array_equal(back.d[2], s.d[2])


@pytest.mark.parametrize("field,stored,wrong", [("u0", "dirichlet", "neumann"),
                                                ("d1", "neumann", "dirichlet")])
def test_restart_from_snapshot_with_wrong_parity_exits_2(tmp_path, capsys,
                                                         field, stored, wrong):
    """A snapshot that stores a field with another parity than the state
    layout gives it is rejected input: ``solve run`` exits 2 and names
    ParityMismatch and the field."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    text = (tmp_path / "out" / "snap_000002.dat").read_text()
    header = f"FIELD {field} {stored} "
    assert text.count(header) == 1
    bad = tmp_path / "bad.dat"
    bad.write_text(text.replace(header, f"FIELD {field} {wrong} "))
    cfg = _run_cfg(tmp_path, out="again", extra=f"init.snapshot = {bad}\n")
    capsys.readouterr()
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "ParityMismatch" in err and field in err
    assert not any((tmp_path / "again").iterdir())


def test_cond_floor_above_one_runs(tmp_path):
    """The conductivity prefactor has no upper bound: a config that sets
    only ``phys.cond_floor = 2`` parses and runs."""
    assert cli.main(["run", _run_cfg(tmp_path,
                                     extra="phys.cond_floor = 2\n")]) == 0
    resolved = (tmp_path / "out" / "config.resolved").read_text()
    assert "phys.cond_floor = 2.0\n" in resolved
    assert "cond_cap" not in resolved


def test_diagnose_reads_config_with_retired_cond_cap(tmp_path, capsys):
    """Run directories whose ``config.resolved`` still carries the retired
    ``phys.cond_cap`` replay through ``solve diagnose`` unchanged."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["diagnose", str(out)]) == 0
    want = capsys.readouterr().out
    resolved = out / "config.resolved"
    text = resolved.read_text()
    old = text.replace("phys.cond_floor = 1.0\n",
                       "phys.cond_floor = 1.0\nphys.cond_cap = 1.0\n")
    assert old != text
    resolved.write_text(old)
    assert cli.main(["diagnose", str(out)]) == 0
    assert capsys.readouterr().out == want


def test_diagnose_replays_snapshots(tmp_path, capsys):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "diagnosed 4 snapshots" in out
    data_lines = [ln for ln in out.splitlines()
                  if ln and ln[0].isdigit()]
    assert len(data_lines) == 4


def test_continuation_command_outputs(tmp_path):
    cfg = _write(tmp_path, "cont.cfg", (
        "grid.dim = 2\nsolver.t_end = 5e-3\n"
        "init.preset = density-bump\ninit.amplitude = 0.4\n"
        "continuation.study = pressure\n"
        "continuation.eps = 1e-3\n"
        "continuation.delta = 1e-2,1e-3\n"
        f"output.dir = {tmp_path / 'cont'}\n"))
    assert cli.main(["continuation", cfg]) == 0
    doc = json.loads((tmp_path / "cont" / "report.json").read_text())
    assert doc["study"] == "pressure"
    assert len(doc["runs"]) == 2
    assert (tmp_path / "cont" / "run_00.csv").exists()
    assert (tmp_path / "cont" / "run_01.csv").exists()


def test_mms_command_spatial_order(tmp_path):
    cfg = _write(tmp_path, "mms.cfg", (
        "grid.dim = 1\nsolver.dt = 5e-4\nsolver.t_end = 1e-2\n"
        "reg.eps = 1e-2\nreg.delta = 1e-3\nreg.n_modes = 6\n"
        "mms.resolutions = 16,32\n"
        f"output.dir = {tmp_path / 'mms'}\n"))
    assert cli.main(["mms", "bump-1d", cfg]) == 0
    doc = json.loads((tmp_path / "mms" / "mms_bump-1d_orders.json")
                     .read_text())
    total = doc["orders"]["total"]
    assert total is None or total > 4.0
    names, rows = read_csv(str(tmp_path / "mms" / "mms_bump-1d.csv"))
    assert names == ["resolution"] + list(cli._ERR_KEYS)
    assert len(rows) == 2


def test_finite_or_null_scrubs_nonfinite():
    doc = {"a": [1.0, math.inf], "b": {"c": math.nan, "d": 2.0}}
    clean = cli._finite_or_null(doc)
    assert clean == {"a": [1.0, None], "b": {"c": None, "d": 2.0}}
    json.dumps(clean, allow_nan=False)
