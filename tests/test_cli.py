"""Command dispatch, exit codes, and output formats."""

import json
import math
import os
import re
import shutil
import weakref

import numpy as np
import pytest

from nlcflow import cli
from nlcflow import diagnostics as dg
from nlcflow import mms as mm
from nlcflow.errors import IOFailure, PositivityLoss
from nlcflow.fields import Grid
from nlcflow import solver as sv
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
    snaps = sorted(out.glob("snap_*"))
    assert [s.name for s in snaps] == [
        "snap_000000.dat", "snap_000002.dat", "snap_000004.dat",
        "snap_000005.dat"]
    assert [s.name for s in sorted(out.glob("hist_*"))] == [
        "hist_000000.bin", "hist_000002.bin", "hist_000004.bin",
        "hist_000005.bin"]


@pytest.mark.parametrize("text", [
    "phys.gamma = 1.2\n",
    "reg.beta = 3\nphys.gamma = 2\n",
    "grid.dim = 2\nwho.knows = 1\n",
    "mms.resolutions = 24,48\n",
    "mms.resolutions = 16\nreg.n_modes = 4\n",
    "mms.shape = 24\n",
    "mms.dts = 2e-3,2e-3\n",
    "solver.dealias = false\n",
    "solver.dealias = off\n",
    "solver.dealias = 0\n",
    "output.csv = false\n",
    "solver.picard_tol = 1e-300\n",
    "solver.picard_max = 1\n",
    "init.width = 0.2\n",
    "init.theta_floor = 0.1\n",
    "init.theta_cap = 10.0\n",
    "continuation.snapshots = 0.005,0.01\n",
    pytest.param("continuation.study = viscosity\n"
                 "continuation.eps = 1e-2,1e-1\n",
                 id="viscosity-eps-increasing"),
    pytest.param("continuation.study = pressure\n"
                 "continuation.delta = 1e-4,1e-2\n",
                 id="pressure-delta-increasing"),
    pytest.param("continuation.n = ,\ncontinuation.eps = ,\n"
                 "continuation.delta = ,\n", id="empty-schedule"),
    "solver.t_end = inf\n",
    "solver.t_end = nan\n",
    "init.base = nan\n",
    "reg.eps = nan\n",
    "phys.lam = nan\n",
    "phys.cond_growth = nan\n",
    "continuation.eps = 1e-2,nan\n",
])
def test_bad_config_exits_2(tmp_path, text, capsys):
    """A rejected config exits 2, and its message names one of the keys
    it sets by its full dotted name."""
    cfg = _write(tmp_path, "bad.cfg", text)
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    keys = [line.split("=")[0].strip() for line in text.splitlines()]
    assert any(key in err for key in keys)


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sv, "_PICARD_TOL", 1e-300)
    monkeypatch.setattr(sv, "_PICARD_MAX", 2)
    cfg = _run_cfg(tmp_path)
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
        monkeypatch.setattr(sv, "_PICARD_TOL", 1e-300)
        monkeypatch.setattr(sv, "_PICARD_MAX", 1)
    elif failure == "director":
        text = text.replace("density-bump", "director-twist")
        monkeypatch.setattr(sv, "_DIRECTOR_MAX_ITER", 1)
    else:
        monkeypatch.setattr(sv, "_CG_MAX_ITER", 1)
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


def test_diagnose_nonfinite_snapshot_exits_4(tmp_path, capsys):
    """A stored nan is rejected on reading: ``solve diagnose`` exits 4
    naming the block instead of printing a nan row."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    snap = tmp_path / "out" / "snap_000005.dat"
    text, count = re.subn(r"(FIELD theta neumann 32\n)[^\n]+", r"\1nan",
                          snap.read_text())
    assert count == 1
    snap.write_text(text)
    capsys.readouterr()
    assert cli.main(["diagnose", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "'theta'" in err


def test_unknown_mms_case_exits_2(tmp_path):
    cfg = _run_cfg(tmp_path)
    assert cli.main(["mms", "moebius", cfg]) == 2


def test_mms_too_many_modes_names_key_and_grid(tmp_path, capsys):
    """The default reg.n_modes (8) exceeds the 7 sine modes of the 16-node
    axis a 1-D spatial study starts on: exit 2 naming the key and grid,
    before any file is written."""
    cfg = _write(tmp_path, "mms.cfg",
                 f"grid.dim = 1\noutput.dir = {tmp_path / 'out'}\n")
    assert cli.main(["mms", "bump-1d", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "reg.n_modes = 8" in err and "16-node grid" in err
    assert not (tmp_path / "out").exists()


def test_mms_runs_on_the_config_solver_section(tmp_path, capsys,
                                               monkeypatch):
    """``solve mms`` steps through the solver's Picard loop: a tolerance
    no single sweep can meet ends the study with exit 3, as it ends
    ``solve run``.  Its CSV keeps the version and column lines, and no
    orders file is written."""
    monkeypatch.setattr(sv, "_PICARD_TOL", 1e-300)
    monkeypatch.setattr(sv, "_PICARD_MAX", 1)
    cfg = _write(tmp_path, "mms.cfg", (
        f"grid.dim = 1\noutput.dir = {tmp_path / 'out'}\n"))
    assert cli.main(["mms", "trig-1d", cfg]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and "PicardDivergence" in err
    assert sorted(os.listdir(tmp_path / "out")) == ["mms_trig-1d.csv"]
    assert (tmp_path / "out" / "mms_trig-1d.csv").read_text() \
        == "# nlcflow-csv v1\ndt,rho,theta,u,d,total\n"


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
    assert tuple(names[:len(dg.CSV_COLUMNS)]) == dg.CSV_COLUMNS
    assert names[len(dg.CSV_COLUMNS):] == ["res_identity", "res_T2"]
    # every text cell survives float() -> %.17g exactly
    body = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    for line in body[1:]:
        for cell in line.split(","):
            assert dg.format_float(float(cell)) == cell


def test_rerun_outputs_byte_identical(tmp_path, monkeypatch):
    """A config run twice writes the same files, every one byte for byte:
    a 1-D bump with residual columns and a 2-D twist."""
    twist = RESTART_CFG.format(out=tmp_path / "twist").replace(
        "grid.shape = 32", "grid.shape = 16").replace(
        "solver.t_end = 0.01", "solver.t_end = 4e-3")
    for cfg in (_run_cfg(tmp_path), _write(tmp_path, "twist.cfg", twist)):
        trees = []
        for out in ("one", "two"):
            monkeypatch.setenv("SOLVE_OUT", str(tmp_path / out))
            assert cli.main(["run", cfg]) == 0
            trees.append(_tree_bytes(tmp_path / out))
            shutil.rmtree(tmp_path / out)
        assert "diagnostics.csv" in trees[0] and "hist_000004.bin" in trees[0]
        assert trees[0] == trees[1]


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


def _restarted(tmp_path, k, n_modes=8):
    """The ten-step twist run in ``whole`` and its restart from snapshot k
    in ``second``, the restart on ``n_modes`` velocity modes."""
    whole = _write(tmp_path, "whole.cfg",
                   RESTART_CFG.format(out=tmp_path / "whole"))
    assert cli.main(["run", whole]) == 0
    restart = _write(tmp_path, "restart.cfg",
                     RESTART_CFG.format(out=tmp_path / "second").replace(
                         "reg.n_modes = 8", f"reg.n_modes = {n_modes}")
                     + f"init.snapshot = {tmp_path / 'whole'}"
                       f"/snap_{k:06d}.dat\n")
    assert cli.main(["run", restart]) == 0
    return tmp_path / "whole", tmp_path / "second"


@pytest.mark.parametrize("k", [1, 2, 5])
def test_restart_from_snapshot_continues_the_run(tmp_path, k):
    """Ten steps in one run and k + (10 - k) with a restart from the k-th
    snapshot end on byte-identical snapshots and history files.  Snapshot
    k holds min(k, 5) history levels: from 5 the restart's first step is
    the quintic's, from 2 its history predicts the first step, and from 1
    its one level predicts it linearly, so the restart climbs the
    predictor's orders."""
    whole, second = _restarted(tmp_path, k)
    assert (whole / f"hist_{k:06d}.bin").read_bytes().startswith(
        f"nlcflow-history 2 {min(k, 5)} 8 2 32 32\n".encode())
    last = 10 - k
    assert sorted(os.listdir(second))[-1] == f"snap_{last:06d}.dat"
    for kind, ext in (("snap", "dat"), ("hist", "bin")):
        assert (whole / f"{kind}_000010.{ext}").read_bytes() \
            == (second / f"{kind}_{last:06d}.{ext}").read_bytes()


def test_restart_after_a_halved_step_continues_the_run(tmp_path,
                                                       monkeypatch):
    """A step from t = 3e-3 that loses positivity at the full dt, predicted
    or not, is taken halved.  Its state and the next keep one history
    level each, their own step's: the levels before are of another dt and
    predict nothing.  A restart from the next state's snapshot ends on the
    continuous run's bytes."""
    advance = sv._picard_advance

    def losing(s, reg, p, dt, sources):
        if abs(s.t - 3e-3) < 1e-9 and dt > 6e-4:
            raise PositivityLoss("density", "density undershoot -1")
        return advance(s, reg, p, dt, sources)

    monkeypatch.setattr(sv, "_picard_advance", losing)
    whole, second = _restarted(tmp_path, 5)
    assert cli.read_snapshot(str(whole / "snap_000004.dat"),
                             Grid((32, 32), (2.0, 2.0))).t \
        == pytest.approx(3.5e-3, abs=1e-15)
    for k in (4, 5):
        assert (whole / f"hist_{k:06d}.bin").read_bytes().startswith(
            b"nlcflow-history 2 1 8 2 32 32\n")
    ends = [sorted(os.listdir(out))[-1] for out in (whole, second)]
    assert ends == ["snap_000011.dat", "snap_000006.dat"]
    for kind, ext in (("snap", "dat"), ("hist", "bin")):
        assert (whole / f"{kind}_000011.{ext}").read_bytes() \
            == (second / f"{kind}_000006.{ext}").read_bytes()


@pytest.mark.parametrize("n", [6, 12])
def test_restart_with_another_mode_count(tmp_path, n):
    """A restart with another ``reg.n_modes`` steps from the stored 8-mode
    table truncated (6) or zero-padded (12), and its snapshots hold the
    table of its own count."""
    _, second = _restarted(tmp_path, 8, n_modes=n)
    assert f"FIELD velocity galerkin {n} 2\n" \
        in (second / "snap_000001.dat").read_text()


def test_diagnose_of_a_restart_prints_the_continuous_rows(tmp_path, capsys):
    """Replaying a run restarted from snapshot 2 prints, row for row, the
    replay of the continuous run at the same t."""
    whole, second = _restarted(tmp_path, 2)
    rows = []
    for out in (whole, second):
        capsys.readouterr()
        assert cli.main(["diagnose", str(out)]) == 0
        rows.append([ln for ln in capsys.readouterr().out.splitlines()
                     if ln and ln[0].isdigit()])
    by_t = {ln.split(",")[0]: ln for ln in rows[0]}
    assert len(rows[0]) == 11 and len(rows[1]) == 9
    assert [by_t.get(ln.split(",")[0]) for ln in rows[1]] == rows[1]


@pytest.mark.parametrize("residuals", ["identity,T2", ","],
                         ids=["residuals", "no-residuals"])
def test_rerun_from_config_resolved_reproduces_the_run(tmp_path, monkeypatch,
                                                       residuals):
    """A run reproduces from its output directory alone: ``solve run`` of
    its ``config.resolved`` writes the same files byte for byte, also when
    the config asks for no residual columns."""
    cfg = _write(tmp_path, "first.cfg", RUN_CFG.format(
        out=tmp_path / "first").replace("identity,T2", residuals))
    assert cli.main(["run", cfg]) == 0
    monkeypatch.setenv("SOLVE_OUT", str(tmp_path / "again"))
    assert cli.main(["run", str(tmp_path / "first" / "config.resolved")]) == 0
    first = _tree_bytes(tmp_path / "first")
    assert f"output.residuals = {residuals}\n".encode() \
        in first["config.resolved"]
    assert first == _tree_bytes(tmp_path / "again")


# the lines that older versions wrote to config.resolved after the key
# before them, with those versions' defaults, and that this one refuses
RETIRED_LINES = {
    "solver.t_end": ["solver.picard_tol = 1e-09", "solver.picard_max = 50"],
    "init.amplitude": ["init.theta_floor = 0.1", "init.theta_cap = 10.0"],
    "continuation.delta": ["continuation.snapshots = ,"],
}


def test_old_config_resolved_exits_2_until_its_retired_lines_go(
        tmp_path, monkeypatch, capsys):
    """A ``config.resolved`` written in the former format, every key
    serialized, exits 2 naming the line of ``solver.picard_tol``, its
    first retired key.  With those lines deleted it reruns the run byte
    for byte."""
    assert cli.main(["run", _run_cfg(tmp_path, out="first")]) == 0
    lines = []
    for line in (tmp_path / "first" / "config.resolved").read_text() \
            .splitlines():
        lines.append(line)
        lines += RETIRED_LINES.get(line.split(" = ")[0], [])
    old = _write(tmp_path, "old.resolved", "\n".join(lines) + "\n")
    monkeypatch.setenv("SOLVE_OUT", str(tmp_path / "again"))
    capsys.readouterr()
    assert cli.main(["run", old]) == 2
    lineno = lines.index("solver.picard_tol = 1e-09") + 1
    assert f"line {lineno}: unknown key 'solver.picard_tol'" \
        in capsys.readouterr().err
    retired = {ln for group in RETIRED_LINES.values() for ln in group}
    kept = _write(tmp_path, "kept.resolved", "".join(
        ln + "\n" for ln in lines if ln not in retired))
    assert cli.main(["run", kept]) == 0
    assert _tree_bytes(tmp_path / "first") == _tree_bytes(tmp_path / "again")


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
    for name in snaps + [cli.history_path(name) for name in snaps]:
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
    assert sorted(os.listdir(tmp_path / "long")) == sorted(
        ["config.resolved", "diagnostics.csv"]
        + [f"{kind}_{k:06d}.{ext}" for k in range(21)
           for kind, ext in (("snap", "dat"), ("hist", "bin"))])
    assert len(made) >= 21 and max(made) <= 3


def test_run_closing_line_counts_the_work(tmp_path, capsys, monkeypatch):
    """The closing line of ``solve run`` ends with the Picard sweeps per
    step, the director iterations per sweep and the heat applies per step
    of the StepRecords of its steps, and a rerun prints the same line."""
    records = []
    step = sv.step_coupled

    def recorded(*args, **kwargs):
        out = step(*args, **kwargs)
        records.append(out[1])
        return out

    monkeypatch.setattr(sv, "step_coupled", recorded)
    cfg = _write(tmp_path, "twist.cfg",
                 RESTART_CFG.format(out=tmp_path / "twist"))
    capsys.readouterr()
    assert cli.main(["run", cfg]) == 0
    closing = capsys.readouterr().out.splitlines()[0]
    sweeps = sum(rec.picard_iters for rec in records)
    assert len(records) == 10
    assert closing.startswith("run complete: steps=10 t=0.01 ")
    assert closing.endswith(
        " sweeps/step=%.4f director_iters/sweep=%.4f heat_applies/step=%.4f"
        % (sweeps / 10, sum(rec.director_iters for rec in records) / sweeps,
           sum(rec.heat_applies for rec in records) / 10))
    assert cli.main(["run", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[0] == closing


def test_solve_out_overrides_output_dir(tmp_path, monkeypatch):
    cfg = _run_cfg(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SOLVE_OUT", str(override))
    assert cli.main(["run", cfg]) == 0
    assert (override / "diagnostics.csv").exists()
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

# signed zeros, a subnormal, extremes and values that need 17 digits
SPECIAL_VALUES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
                  0.1, 1.0 / 3.0, -2.0 / 3.0, np.pi, 0.30000000000000004,
                  123456789.12345678, 1.0000000000000002]


def _random_state(grid, t=0.125, history=(), seed=7, n_modes=3):
    """A state whose arrays hold random values of every magnitude, each
    starting with the special values, and whose velocity is a random table
    of ``n_modes`` modes starting with the special values whose
    reconstruction stays finite."""
    rng = np.random.default_rng(seed)

    def values(lead):
        shape = lead + grid.shape
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                              shape)
        v.flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:v.size]
        return v

    U = rng.standard_normal((n_modes, grid.dim))
    finite = [v for v in SPECIAL_VALUES if abs(v) < 1e300]
    U.flat[:len(finite)] = finite[:U.size]
    return State(grid, t, values(()), U, values(()), values((3,)), history)


def _per_row_block(name, kind, values):
    """One block as a writer that formats one value at a time and one row
    per line writes it."""
    lines = [f"FIELD {name} {kind} " + " ".join(map(str, values.shape))]
    for row in values.reshape(values.shape[0], -1):
        lines.append(" ".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def _per_row_theta_d(s):
    """The per-row blocks ``theta`` and ``d0``-``d2`` of ``s``."""
    return _per_row_block("theta", "neumann", s.theta) + "".join(
        _per_row_block(f"d{k}", "neumann", comp) for k, comp in enumerate(s.d))


def _per_row_snapshot(s):
    """The snapshot of ``s`` the per-row writer writes, the reference for
    the bytes of the layout: t as a 1x1 table, ``rho``, ``theta``, the
    director, the ``velocity`` table.  It does not hold the history, which
    goes to its own file."""
    return (_per_row_block("time", "galerkin", np.array([[s.t]]))
            + _per_row_block("rho", "neumann", s.rho) + _per_row_theta_d(s)
            + _per_row_block("velocity", "galerkin", s.U))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_state(back, s):
    assert _same_bits(back.t, s.t)
    for name in ("rho", "theta", "d", "U", "u"):
        assert _same_bits(getattr(back, name), getattr(s, name)), name
    assert len(back.history) == len(s.history)
    for level_back, level in zip(back.history, s.history):
        assert len(level_back) == len(level) == 4
        assert all(_same_bits(a, b) for a, b in zip(level_back, level))


def test_snapshot_round_trip(tmp_path):
    """Every value of every array comes back bit for bit, signed zeros
    included, and each block's header names its kind: t is a 1x1
    ``galerkin`` table, the scalars and the director are ``neumann``, and
    the velocity is its n x dim ``galerkin`` coefficient table.  Beside
    the snapshot is its history file, which for a state without history
    is a header of no levels."""
    grid = Grid((16, 32), (2 * np.pi, 1.5 * np.pi))
    path = tmp_path / "state.dat"
    nodal = [[name, "neumann", "16", "32"]
             for name in ("rho", "theta", "d0", "d1", "d2")]
    for n in (1, 5):
        s = _random_state(grid, n_modes=n)
        cli.write_snapshot(str(path), s)
        _assert_same_state(cli.read_snapshot(str(path), grid), s)
        heads = [ln.split()[1:] for ln in path.read_text().splitlines()
                 if ln.startswith("FIELD ")]
        assert heads == ([["time", "galerkin", "1", "1"]] + nodal
                         + [["velocity", "galerkin", str(n), "2"]])
        assert sorted(os.listdir(tmp_path)) == ["hist_state.bin",
                                                "state.dat"]
        assert (tmp_path / "hist_state.bin").read_bytes() \
            == f"nlcflow-history 2 0 {n} 2 16 32\n".encode()


def test_snapshot_lines_are_headers_or_numbers(tmp_path):
    """Every line of a snapshot is a ``FIELD`` header or a row of plain
    decimal numbers, single-spaced, with an optional lower-case exponent,
    for a state with history: readers that scan the text line by line,
    such as the benchmark's field minima, keep working."""
    grid = Grid((8, 16), (2.0, 2.0))
    s = _random_state(grid, history=((1e-3, np.ones((3, 2)),
                                      np.ones(grid.shape),
                                      np.ones((3,) + grid.shape)),))
    path = tmp_path / "state.dat"
    cli.write_snapshot(str(path), s)
    num = r"-?[0-9]+(\.[0-9]*)?(e[-+][0-9]+)?"
    for line in path.read_text().splitlines():
        if not line.startswith("FIELD "):
            assert re.fullmatch(rf"{num}( {num})*", line), line


def test_snapshot_table_round_trip(tmp_path):
    """The velocity is a ``galerkin`` table: it keeps its own row and
    column counts, and only its header kind exempts it from the grid-shape
    check.  A nodal block whose shape is not the grid's, and a velocity
    table under a nodal kind, are rejected.  The history, two levels of
    8-mode tables, nodal temperatures and directors, one with a dt that
    needs 17 digits, comes back bit for bit from its file."""
    grid = Grid((16, 32), (2 * np.pi, 1.5 * np.pi))
    rng = np.random.default_rng(5)
    levels = tuple((dt, rng.standard_normal((8, 2)),
                    rng.standard_normal(grid.shape),
                    rng.standard_normal((3,) + grid.shape))
                   for dt in (SPECIAL_VALUES[7], 1e-3))
    s = _random_state(grid, history=levels, n_modes=8)
    path = tmp_path / "state.dat"
    cli.write_snapshot(str(path), s)
    text = path.read_text()
    assert "FIELD velocity galerkin 8 2\n" in text
    assert (tmp_path / "hist_state.bin").read_bytes().startswith(
        b"nlcflow-history 2 2 8 2 16 32\n")
    _assert_same_state(cli.read_restart(str(path), grid), s)
    for old, new in [("velocity galerkin 8 2", "velocity neumann 8 2"),
                     ("rho neumann 16 32", "rho neumann 32 16")]:
        path.write_text(text.replace(old, new))
        with pytest.raises(IOFailure,
                           match=f"header 'FIELD {new}' is not 'FIELD {old}'"):
            cli.read_snapshot(str(path), grid)


def test_snapshot_corruption_raises(tmp_path):
    """An unknown kind, a truncated block, a value that is not a number
    and values before any header are IOFailures."""
    grid = Grid((32,), (2 * np.pi,))
    path = tmp_path / "state.dat"
    cli.write_snapshot(str(path), _random_state(grid))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[2] == "FIELD rho neumann 32"
    for broken in [text.replace("FIELD rho neumann", "FIELD rho sideways"),
                   "\n".join(lines[:-5]) + "\n",
                   "\n".join(lines[:40] + ["corrupted zz"] + lines[41:]),
                   "0.5\n" + text]:
        path.write_text(broken)
        with pytest.raises(IOFailure):
            cli.read_snapshot(str(path), grid)


def test_snapshot_history_of_another_width_raises(tmp_path):
    """A history level whose table is not n x ``dim`` Galerkin
    coefficients, whose temperature or director is not on the grid, or
    whose table has another mode count than the newest level's is refused
    by the writer.  A history file whose header is not this version's, or
    gives another ``dim``, another grid, no modes or a negative level
    count, is an IOFailure naming the history."""
    grid = Grid((8, 16), (2.0, 2.0))
    path = tmp_path / "state.dat"
    theta, d = np.ones(grid.shape), np.ones((3,) + grid.shape)
    for levels in [((1e-3, np.arange(3.0), theta, d),),
                   ((1e-3, np.ones((3, 1)), theta, d),),
                   ((1e-3, np.ones((3, 2)), np.ones((16, 8)), d),),
                   ((1e-3, np.ones((3, 2)), theta, np.ones((3, 16, 8))),),
                   ((1e-3, np.ones((3, 2)), theta, d),
                    (1e-3, np.ones((4, 2)), theta, d))]:
        with pytest.raises(ValueError, match="history"):
            cli.write_snapshot(str(path),
                               _random_state(grid, history=levels))
    cli.write_snapshot(str(path), _random_state(
        grid, history=((1e-3, np.ones((3, 2)), theta, d),)))
    hist = tmp_path / "hist_state.bin"
    header, payload = hist.read_bytes().split(b"\n", 1)
    assert header == b"nlcflow-history 2 1 3 2 8 16"
    assert len(payload) == 8 * (1 + 3 * 2 + 4 * 8 * 16)
    for bad in [b"2 1 3 3 8 16", b"2 1 3 2 16 8", b"2 1 3 2 8",
                b"2 1 3 2 8 16 1", b"2 1 0 2 8 16", b"2 -1 3 2 8 16",
                b"1 1 3 2 8 16", b"3 1 3 2 8 16", b"2 1 3 2 8 1x",
                b"2 1 3 2 8 \xff"]:
        hist.write_bytes(b"nlcflow-history " + bad + b"\n" + payload)
        with pytest.raises(IOFailure, match="history"):
            cli.read_restart(str(path), grid)
    for bad in [b"history 2 1 3 2 8 16", b"", b"\xff"]:
        hist.write_bytes(bad + b"\n" + payload)
        with pytest.raises(IOFailure, match="history"):
            cli.read_restart(str(path), grid)
    hist.write_bytes(payload)
    with pytest.raises(IOFailure, match="history"):
        cli.read_restart(str(path), grid)


@pytest.mark.parametrize("shape", [(8,), (8, 16), (32, 32)])
def test_snapshot_matches_per_row_writer(tmp_path, shape):
    """One ``%`` per block writes the bytes of the per-row writer's current
    layout, for random values of every magnitude, the special values, both
    kinds and the velocity table, with each special value of t.  Every
    file reads back bit for bit, with the history from its own file."""
    grid = Grid(shape, (2.0,) * len(shape))
    s = _random_state(grid)
    history = ((1e-3, np.array(SPECIAL_VALUES[:len(shape) * 4])
                .reshape(-1, len(shape)), s.rho, s.d),)
    s = _random_state(grid, history=history)
    path = tmp_path / "state.dat"
    for t in SPECIAL_VALUES + list(s.rho.flat[-5:]):
        s = State(grid, t, s.rho, s.U, s.theta, s.d, s.history)
        cli.write_snapshot(str(path), s)
        assert path.read_text() == _per_row_snapshot(s)
        _assert_same_state(cli.read_restart(str(path), grid), s)


def test_snapshot_round_trip_exact(tmp_path):
    grid = Grid((16, 16), (2.0, 2.0))
    s = bump_state(grid, n_modes=6)
    s = State(grid, 0.125, s.rho, s.U, s.theta, s.d)
    path = str(tmp_path / "state.dat")
    cli.write_snapshot(path, s)
    back = cli.read_snapshot(path, grid)
    assert back.t == s.t
    assert np.array_equal(back.rho, s.rho)
    assert np.array_equal(back.u[1], s.u[1])
    assert np.array_equal(back.d[2], s.d[2])


def test_snapshot_history_round_trip_exact(tmp_path):
    """The solver history, two (dt, U, theta, d) levels after two steps,
    goes to the binary file beside the snapshot, not into its text: a
    header line, then per level its dt, table, temperature and director as
    little-endian float64.  It comes back bit for bit, and rewriting the
    state read gives the same bytes of both files.  A state with no
    history writes a file of no levels, and the snapshot alone reads back
    without history."""
    from nlcflow import solver as sv
    from nlcflow.params import PhysParams, RegParams
    grid = Grid((16, 16), (2.0, 2.0))
    reg = RegParams(eps=1e-2, delta=1e-3, n_modes=6)
    s0 = bump_state(grid, n_modes=6)
    states = [s for s, _ in sv.run(s0, reg, sv.SolverConfig(dt=1e-3,
                                                           t_end=2e-3),
                                   PhysParams())]
    cli.write_snapshot(str(tmp_path / "s0.dat"), states[0])
    assert "history" not in (tmp_path / "s0.dat").read_text()
    assert (tmp_path / "hist_s0.bin").read_bytes() \
        == b"nlcflow-history 2 0 6 2 16 16\n"
    path = str(tmp_path / "s2.dat")
    cli.write_snapshot(path, states[-1])
    text = (tmp_path / "s2.dat").read_text()
    assert text.count("FIELD ") == 7 and "history" not in text
    raw = (tmp_path / "hist_s2.bin").read_bytes()
    header = b"nlcflow-history 2 2 6 2 16 16\n"
    assert raw[:len(header)] == header
    assert len(raw) == len(header) + 8 * 2 * (1 + 6 * 2 + 4 * 16 * 16)
    assert raw[len(header):] == np.concatenate(
        [np.concatenate(([dt], U.ravel(), th.ravel(), d.ravel()))
         for dt, U, th, d in states[-1].history]).astype("<f8").tobytes()
    assert cli.read_snapshot(path, grid).history == ()
    back = cli.read_restart(path, grid)
    assert len(back.history) == 2
    for (dt, U, th, d), (dt_back, U_back, th_back, d_back), old in zip(
            states[-1].history, back.history, states[1::-1]):
        assert dt_back == dt and U_back.shape == U.shape == (6, 2)
        assert np.array_equal(U_back, U) and np.array_equal(U, old.U)
        assert np.array_equal(th_back, th) and np.array_equal(th, old.theta)
        assert np.array_equal(d_back, d) and np.array_equal(d, old.d)
    cli.write_snapshot(str(tmp_path / "again.dat"), back)
    assert (tmp_path / "again.dat").read_text() == text
    assert (tmp_path / "hist_again.bin").read_bytes() == raw


def test_snapshot_stepped_state_round_trip(tmp_path):
    """Regularized initial data and every stepped state carry their
    Galerkin velocity: the snapshot stores it as the ``velocity`` table,
    and reading it back rebuilds ``u`` bit for bit through the cached
    basis.  Rewriting the state read gives the same bytes of the snapshot
    and of its history file."""
    from nlcflow import solver as sv
    from nlcflow.params import PhysParams, RegParams
    grid = Grid((16, 16), (2.0, 2.0))
    reg = RegParams(eps=1e-2, delta=1e-3, n_modes=6)
    raw = bump_state(grid, n_modes=6)
    s0 = sv.regularize_initial_data(grid, raw.rho, raw.rho * raw.u,
                                    raw.theta, raw.d, reg)
    basis = sv.GalerkinBasis(grid, 6)
    for k, (s, _) in enumerate(sv.run(s0, reg, sv.SolverConfig(
            dt=1e-3, t_end=3e-3), PhysParams())):
        assert s.U.shape == (6, 2)
        assert _same_bits(basis.reconstruct(s.U), s.u)
        path = tmp_path / f"s{k}.dat"
        cli.write_snapshot(str(path), s)
        text = path.read_text()
        assert "FIELD velocity galerkin 6 2\n" in text
        assert "FIELD u0 " not in text
        back = cli.read_restart(str(path), grid)
        _assert_same_state(back, s)
        cli.write_snapshot(str(tmp_path / "again.dat"), back)
        assert (tmp_path / "again.dat").read_text() == text
        assert (tmp_path / "hist_again.bin").read_bytes() \
            == (tmp_path / f"hist_s{k}.bin").read_bytes()
    assert k == 3


@pytest.mark.parametrize("edit,match", [
    (lambda text: text.replace("FIELD velocity galerkin 8 2\n",
                               "FIELD velocity galerkin 4 4\n"),
     "header 'FIELD velocity galerkin 4 4' is not 'FIELD velocity galerkin "
     "4 2', n >= 1"),
    (lambda text: text.replace("FIELD velocity galerkin 8 2\n",
                               "FIELD velocity galerkin 16 1\n"),
     "is not 'FIELD velocity galerkin 16 2'"),
    (lambda text: text.replace(
        "FIELD velocity galerkin 8 2\n",
        "FIELD velocity galerkin 800 2\n" + "0.5 0.5\n" * 792),
     "holds 800 modes, the grid \\(32, 32\\) admits 225"),
    (lambda text: text + _block_text(text, "d0").replace("FIELD d0 neumann",
                                                          "FIELD u0 dirichlet")
     + _block_text(text, "d1").replace("FIELD d1 neumann",
                                       "FIELD u1 dirichlet"),
     "header 'FIELD u0 dirichlet 32 32' follows the last block, 'velocity'"),
    (lambda text: text.replace(_block_text(text, "velocity"), ""),
     "ends before the header 'FIELD velocity galerkin n 2'"),
], ids=["columns", "one-column", "too-many-modes", "both", "neither"])
def test_restart_from_snapshot_with_bad_velocity_exits_4(tmp_path, capsys,
                                                         edit, match):
    """A velocity table whose column count is not the grid's dim, or that
    asks for more modes than the grid admits, a file that holds nodal u
    blocks after its velocity table, and a file without the table are
    input failures: reading raises IOFailure and ``solve run`` exits 4,
    not 2."""
    whole = _write(tmp_path, "whole.cfg",
                   RESTART_CFG.format(out=tmp_path / "whole").replace(
                       "solver.t_end = 0.01", "solver.t_end = 0.002"))
    assert cli.main(["run", whole]) == 0
    bad = tmp_path / "bad.dat"
    bad.write_text(edit((tmp_path / "whole" / "snap_000002.dat")
                        .read_text()))
    with pytest.raises(IOFailure, match=match):
        cli.read_snapshot(str(bad), Grid((32, 32), (2.0, 2.0)))
    restart = _write(tmp_path, "restart.cfg",
                     RESTART_CFG.format(out=tmp_path / "again")
                     + f"init.snapshot = {bad}\n")
    capsys.readouterr()
    assert cli.main(["run", restart]) == 4
    assert "i/o error" in capsys.readouterr().err


def _block_text(text, name):
    """The header and rows of block ``name`` in the snapshot ``text``."""
    start = text.index(f"FIELD {name} ")
    end = text.find("\nFIELD ", start)
    return text[start:] if end < 0 else text[start:end + 1]


def test_restart_from_snapshot_without_history(tmp_path, monkeypatch):
    """A snapshot without its history file, such as one copied without
    it, still restarts; its first step starts from u^n and the later ones
    from the predictor, the second from its one level."""
    from nlcflow import solver as sv
    whole = _write(tmp_path, "whole.cfg",
                   RESTART_CFG.format(out=tmp_path / "whole"))
    assert cli.main(["run", whole]) == 0
    old = tmp_path / "old.dat"
    shutil.copy(tmp_path / "whole" / "snap_000005.dat", old)
    assert not (tmp_path / "hist_old.bin").exists()
    records = []
    step = sv.step_coupled

    def recorded(*args, **kwargs):
        out = step(*args, **kwargs)
        records.append(out[1])
        return out

    monkeypatch.setattr(sv, "step_coupled", recorded)
    restart = _write(tmp_path, "restart.cfg",
                     RESTART_CFG.format(out=tmp_path / "second")
                     + f"init.snapshot = {old}\n")
    assert cli.main(["run", restart]) == 0
    assert [rec.predicted for rec in records] == [False, True, True, True,
                                                  True]


@pytest.mark.parametrize("layout,first", [
    ("v1", "header 'FIELD time neumann 32' is not 'FIELD time galerkin 1 1'"),
    ("nodal-velocity", "header 'FIELD u0 dirichlet 32' is not "
     "'FIELD velocity galerkin 32 1', n >= 1"),
    ("text-history", "header 'FIELD history galerkin 2 7' follows the last "
     "block, 'velocity'"),
], ids=["v1", "nodal-velocity", "text-history"])
def test_restart_from_legacy_snapshot_exits_4(tmp_path, capsys, layout,
                                             first):
    """The layouts that older versions wrote are refused, each naming its
    first header that differs from the layout: the v1 files, with t at
    every node and the velocity as nodal ``dirichlet`` blocks ``u<c>``
    after ``rho``; the files with t as a 1x1 table and the velocity still
    nodal; and the files that end with the history as a text table of dt
    and coefficients per level.  A restart from such a file exits 4 with
    an ``i/o error`` line and writes nothing."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    s = cli.read_restart(str(tmp_path / "out" / "snap_000002.dat"),
                         Grid((32,), (2.0,)))
    rho = _per_row_block("rho", "neumann", s.rho)
    u = "".join(_per_row_block(f"u{c}", "dirichlet", comp)
                for c, comp in enumerate(s.u))
    history = np.array([np.concatenate(([dt], U.ravel()))
                        for dt, U, _, _ in s.history])
    old = tmp_path / "old.dat"
    old.write_text({
        "v1": _per_row_block("time", "neumann", np.full(s.grid.shape, s.t))
        + rho + u + _per_row_theta_d(s),
        "nodal-velocity": _per_row_block("time", "galerkin",
                                         np.array([[s.t]]))
        + rho + _per_row_theta_d(s) + u,
        "text-history": _per_row_snapshot(s)
        + _per_row_block("history", "galerkin", history),
    }[layout])
    cfg = _run_cfg(tmp_path, out="again", extra=f"init.snapshot = {old}\n")
    capsys.readouterr()
    assert cli.main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and first in err
    assert not any((tmp_path / "again").iterdir())


@pytest.mark.parametrize("old,new,first", [
    ("FIELD rho neumann 32\n", "FIELD rho neumann 3x\n",
     "'FIELD rho neumann 3x' is not 'FIELD rho neumann 32'"),
    ("FIELD rho neumann 32\n", "FIELD rho sideways 32\n",
     "'FIELD rho sideways 32' is not 'FIELD rho neumann 32'"),
    ("FIELD theta neumann 32\n", "FIELD rho neumann 32\n",
     "'FIELD rho neumann 32' is not 'FIELD theta neumann 32'"),
    (r"(FIELD rho neumann 32\n)[^\n]+", r"\1nan", "'rho' holds a non-finite"),
    ("FIELD time galerkin 1 1\n0.002\n", "FIELD time galerkin 1 1\ninf\n",
     "'time' holds a non-finite"),
    (rb"(?<=\n)" + re.escape(np.float64(1e-3).tobytes()),
     lambda m: np.float64(np.nan).tobytes(), "hist_bad.bin"),
    ("FIELD theta neumann 32\n",
     "FIELD rho neumann 32\n" + "2 " * 31 + "2\nFIELD theta neumann 32\n",
     "'FIELD rho neumann 32' is not 'FIELD theta neumann 32'"),
    ("FIELD theta neumann 32\n", "FIELD zeta neumann 32\n",
     "'FIELD zeta neumann 32' is not 'FIELD theta neumann 32'"),
    ("FIELD d1 neumann 32\n", "FIELD d1 dirichlet 32\n",
     "'FIELD d1 dirichlet 32' is not 'FIELD d1 neumann 32'"),
    (r"(FIELD rho neumann 32\n(?:[^F].*\n)+)(FIELD theta neumann 32\n"
     r"(?:[^F].*\n)+)", r"\2\1",
     "'FIELD theta neumann 32' is not 'FIELD rho neumann 32'"),
], ids=["non-integer-dims", "unknown-kind", "missing-field", "nan-rho",
        "inf-time", "nan-history", "repeated-rho", "renamed-theta",
        "wrong-kind", "reordered"])
def test_restart_from_malformed_snapshot_exits_4(tmp_path, capsys, old,
                                                 new, first):
    """A snapshot whose header dims are not integers, whose kind is
    unknown or another than the layout's, that lacks a field, repeats one
    (here a second, altered ``rho``) or stores two in another order, or
    that holds a non-finite value (in the ``nan-history`` case the first
    dt of its history file) is an input failure: ``solve run`` exits 4
    with an ``i/o error`` line naming the first header that differs from
    the layout, or the block or file holding the value, and writes
    nothing."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    snap = tmp_path / "out" / "snap_000002.dat"
    bad = tmp_path / "bad.dat"
    if isinstance(old, bytes):      # an edit of the history file
        shutil.copy(snap, bad)
        data, count = re.subn(old, new, (tmp_path / "out" /
                                         "hist_000002.bin").read_bytes())
        (tmp_path / "hist_bad.bin").write_bytes(data)
    else:
        text, count = re.subn(old, new, snap.read_text())
        bad.write_text(text)
    assert count == 1
    cfg = _run_cfg(tmp_path, out="again", extra=f"init.snapshot = {bad}\n")
    capsys.readouterr()
    assert cli.main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and first in err
    assert not any((tmp_path / "again").iterdir())


# the last 8-byte value of the last level's temperature in the history
# file of snapshot 2 of RUN_CFG: after it come the level's 3 x 32 director
# values
_LAST_THETA = slice(-8 * (1 + 3 * 32), -8 * 3 * 32)


def _version_1(raw):
    """The version-1 file of the history of snapshot 2 of RUN_CFG: its two
    levels of dt, 6 x 1 table and 32 temperatures, without the director."""
    line, payload = raw.split(b"\n", 1)
    rows = np.frombuffer(payload, dtype="<f8").reshape(2, 1 + 6 + 4 * 32)
    return (line.replace(b"history 2 ", b"history 1 ") + b"\n"
            + rows[:, :1 + 6 + 32].tobytes())


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:-8],
    lambda raw: raw + bytes(8),
    lambda raw: (raw[:_LAST_THETA.start] + np.float64(np.inf).tobytes()
                 + raw[_LAST_THETA.stop:]),
    lambda raw: raw.replace(b" 6 1 32\n", b" 6 1 16\n", 1),
    lambda raw: raw.replace(b" 6 1 32\n", b" 3 2 32\n", 1),
    lambda raw: raw.split(b"\n", 1)[1],
    lambda raw: raw[:-8] + np.float64(np.inf).tobytes(),
    _version_1,
], ids=["truncated", "too-long", "inf-theta", "other-grid", "other-dim",
        "headless", "inf-director", "version-1"])
def test_restart_from_malformed_history_exits_4(tmp_path, capsys, edit):
    """A history file shorter or longer than its header says, holding a
    non-finite value, written on another grid or in another dim, without
    its header, or in version 1, without director levels, is an input
    failure: ``solve run`` exits 4 with an ``i/o error`` line naming the
    history file and writes nothing."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    raw = (tmp_path / "out" / "hist_000002.bin").read_bytes()
    assert raw.startswith(b"nlcflow-history 2 2 6 1 32\n")
    assert len(raw) == len(b"nlcflow-history 2 2 6 1 32\n") \
        + 8 * 2 * (1 + 6 + 4 * 32)
    shutil.copy(tmp_path / "out" / "snap_000002.dat", tmp_path / "bad.dat")
    (tmp_path / "hist_bad.bin").write_bytes(edit(raw))
    cfg = _run_cfg(tmp_path, out="again",
                   extra=f"init.snapshot = {tmp_path / 'bad.dat'}\n")
    capsys.readouterr()
    assert cli.main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and "hist_bad.bin" in err
    if edit is _version_1:
        assert "header b'nlcflow-history 1 2 6 1 32' is not " \
            "nlcflow-history 2" in err
    assert not any((tmp_path / "again").iterdir())


def test_diagnose_reads_no_history(tmp_path, capsys, monkeypatch):
    """``solve diagnose`` replays the snapshots alone: with every history
    file of the run deleted it prints the same rows, and it opens none."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["diagnose", str(out)]) == 0
    printed = capsys.readouterr().out
    opened = []
    real_open = open

    def spy_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy_open)
    for hist in out.glob("hist_*.bin"):
        hist.unlink()
    assert cli.main(["diagnose", str(out)]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == printed
    assert "diagnosed 4 snapshots" in printed
    assert not any(name.startswith("hist_") for name in opened)
    assert sum(name.startswith("snap_") for name in opened) == 4


def test_one_galerkin_basis_per_grid_and_mode_count(tmp_path,
                                                    monkeypatch):
    """``solve run`` and a three-entry continuation build each Galerkin
    basis they use once: the preset's velocity modes (n = 4), the
    regularization of the initial data and the time steps of every run
    share the cached basis of their (grid, n)."""
    built = []
    cls = sv.GalerkinBasis

    def counted(grid, n_modes):
        built.append((grid.shape, n_modes))
        return cls(grid, n_modes)

    monkeypatch.setattr(sv, "GalerkinBasis", counted)
    sv.galerkin_basis.cache_clear()
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    assert built == [((32,), 4), ((32,), 6)]
    built.clear()
    sv.galerkin_basis.cache_clear()
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c")
                 .replace("1e-2,1e-3", "1e-2,1e-3,1e-4"))
    assert cli.main(["continuation", cfg]) == 0
    assert len(json.loads((tmp_path / "c" / "report.json").read_text())
               ["runs"]) == 3
    assert built == [((16, 16), 4), ((16, 16), 6)]


def test_cond_floor_above_one_runs(tmp_path):
    """The conductivity prefactor has no upper bound: a config that sets
    only ``phys.cond_floor = 2`` parses and runs."""
    assert cli.main(["run", _run_cfg(tmp_path,
                                     extra="phys.cond_floor = 2\n")]) == 0
    resolved = (tmp_path / "out" / "config.resolved").read_text()
    assert "phys.cond_floor = 2.0\n" in resolved
    assert "cond_cap" not in resolved


def test_diagnose_replays_snapshots(tmp_path, capsys):
    """Each replayed row is, as text, the run's ``diagnostics.csv`` row at
    the same t in the columns ``solve diagnose`` prints, although the run
    and the replay differentiate their states separately."""
    cfg = _run_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "diagnosed 4 snapshots" in out
    lines = out.splitlines()
    columns = lines[0].split(",")
    assert columns == ["t", "mass", "energy_total", "entropy_total",
                       "director_sup"]
    data_lines = [ln for ln in lines if ln and ln[0].isdigit()]
    assert len(data_lines) == 4
    with open(tmp_path / "out" / "diagnostics.csv", encoding="utf-8") as fh:
        csv_lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    names = csv_lines[0].split(",")
    picked = [names.index(c) for c in columns]
    by_t = {}
    for ln in csv_lines[1:]:
        cells = ln.split(",")
        by_t[cells[0]] = ",".join(cells[i] for i in picked)
    assert [by_t.get(ln.split(",")[0]) for ln in data_lines] == data_lines


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


def test_continuation_from_a_snapshot_reads_no_history(tmp_path):
    """A continuation from a snapshot regularizes the stored state afresh
    for each entry and reads none of its history: beside a truncated
    history file it writes, report and every run file, what it writes from
    a copy of the snapshot without one."""
    assert cli.main(["run", _run_cfg(tmp_path)]) == 0
    snap = tmp_path / "out" / "snap_000002.dat"
    hist = tmp_path / "out" / "hist_000002.bin"
    hist.write_bytes(hist.read_bytes()[:-8])
    shutil.copy(snap, tmp_path / "alone.dat")
    trees = []
    for source in (snap, tmp_path / "alone.dat"):
        out = tmp_path / f"cont_{source.stem}"
        cfg = _write(tmp_path, "cont.cfg", (
            "grid.dim = 1\ngrid.shape = 32\nsolver.t_end = 3e-3\n"
            "continuation.study = pressure\ncontinuation.n = 6\n"
            "continuation.eps = 1e-3\ncontinuation.delta = 1e-2,1e-3\n"
            f"init.snapshot = {source}\noutput.dir = {out}\n"))
        assert cli.main(["continuation", cfg]) == 0
        tree = _tree_bytes(out)
        del tree["config.resolved"]     # names its snapshot
        trees.append(tree)
    assert sorted(trees[0]) == ["report.json", "run_00.csv", "run_01.csv"]
    assert trees[0] == trees[1]


CONT_CFG = """\
grid.dim = 2
grid.shape = 16
solver.t_end = 5e-3
init.preset = density-bump
init.amplitude = 0.4
continuation.study = pressure
continuation.n = 6
continuation.eps = 1e-3
continuation.delta = 1e-2,1e-3
output.dir = {out}
"""


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_continuation_rerun_outputs_byte_identical(tmp_path, capsys):
    """A two-entry study rerun into a fresh directory writes the same
    ``config.resolved``, ``report.json``, ``run_XX.csv`` and stdout."""
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c"))
    seen = []
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(["continuation", cfg]) == 0
        seen.append((_tree_bytes(tmp_path / "c"), capsys.readouterr().out))
        shutil.rmtree(tmp_path / "c")
    assert sorted(seen[0][0]) == ["config.resolved", "report.json",
                                  "run_00.csv", "run_01.csv"]
    assert seen[0] == seen[1]


def _post_processing_counts(monkeypatch):
    """Per state handed out by ``solver.run``, whether it was stepped and
    the ``SpectralPlan.deriv`` and ``constitutive.stress_power`` calls made
    while its consumer held it: its post-processing, not its step."""
    from nlcflow import constitutive as cst
    from nlcflow.fields import SpectralPlan
    calls = {"deriv": 0, "power": 0}
    holding = [False]

    def counting(key, inner):
        def wrapper(*args):
            calls[key] += holding[0]
            return inner(*args)
        return wrapper

    monkeypatch.setattr(SpectralPlan, "deriv",
                        counting("deriv", SpectralPlan.deriv))
    monkeypatch.setattr(cst, "stress_power",
                        counting("power", cst.stress_power))
    per_state = []
    run = sv.run

    def observed(*args):
        for s, rec in run(*args):
            before = dict(calls)
            holding[0] = True
            yield s, rec
            holding[0] = False
            per_state.append((rec is not None,
                              calls["deriv"] - before["deriv"],
                              calls["power"] - before["power"]))

    monkeypatch.setattr(sv, "run", observed)
    return per_state


@pytest.mark.parametrize("residuals", ["identity", "identity,T2,zlog"])
def test_post_processing_differentiates_each_state_once(tmp_path,
                                                        monkeypatch,
                                                        residuals):
    """One derivative pass per state feeds its record, its residual audit
    and the continuation tallies.  At 2-D, counted in per-axis ``deriv``
    calls: the pass takes grad rho, grad theta and grad d, 2 each, and
    laplace d as the divergence of that grad d, 2, so 8; grad u comes from
    the Galerkin coefficients, with no ``deriv``, and so does the div u of
    the step's velocity table that the residual audit reads.  Per stepped
    state, ``solve run`` with m residual ids, ``identity`` among them,
    adds grad b(rho') per id but ``identity``, whose grad rho' is the
    pass's, 2 (m - 1): 6 + 2 m (8 + 2 m when the audit took div u of the
    nodal velocity); a continuation entry adds
    laplace rho as the divergence of the pass's grad rho, 2: 10 (12 when
    the tally took its own grad rho).  The stress power is evaluated once
    per record."""
    m = len(residuals.split(","))
    per_state = _post_processing_counts(monkeypatch)
    cfg = _write(tmp_path, "run.cfg",
                 RESTART_CFG.format(out=tmp_path / "run").replace(
                     "grid.shape = 32", "grid.shape = 16").replace(
                     "solver.t_end = 0.01", "solver.t_end = 3e-3")
                 + f"output.residuals = {residuals}\n")
    assert cli.main(["run", cfg]) == 0
    stepped = [(d, w) for was_stepped, d, w in per_state if was_stepped]
    assert per_state[0] == (False, 8 + 6, 1)   # with the battery's 6
    assert stepped == [(6 + 2 * m, 1)] * 3

    per_state.clear()
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c"))
    assert cli.main(["continuation", cfg]) == 0
    stepped = [(d, w) for was_stepped, d, w in per_state if was_stepped]
    assert len(per_state) == 2 * 6 and len(stepped) == 2 * 5
    assert stepped == [(10, 1)] * 10
    assert [(d, w) for was_stepped, d, w in per_state
            if not was_stepped] == [(8, 1)] * 2


def test_continuation_failure_names_its_entry(tmp_path, capsys,
                                              monkeypatch):
    """A solver failure on the first step of schedule entry 1 exits 3 with
    a message that names the entry and its delta besides the step, t and
    dt.  The files written before it, ``config.resolved`` and
    ``run_00.csv``, are the unfailed study's, ``run_01.csv`` holds the
    unfailed study's header and state-0 row, flushed before the step
    failed, and no report is written."""
    from nlcflow import solver as sv
    from nlcflow.errors import NonFiniteState
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c"))
    monkeypatch.setenv("SOLVE_OUT", str(tmp_path / "whole"))
    assert cli.main(["continuation", cfg]) == 0
    step = sv.step_coupled

    def failing(s, reg, cfg, p, *args):
        if reg.delta == 1e-3:
            raise NonFiniteState("director", t=s.t, dt=cfg.dt)
        return step(s, reg, cfg, p, *args)

    monkeypatch.setattr(sv, "step_coupled", failing)
    monkeypatch.setenv("SOLVE_OUT", str(tmp_path / "broken"))
    capsys.readouterr()
    assert cli.main(["continuation", cfg]) == 3
    err = capsys.readouterr().err
    assert "solver failure: NonFiniteState" in err
    assert "step 1 from t=0 with dt=0.001" in err
    assert "schedule entry 1 (n=6, eps=0.001, delta=0.001)" in err
    for name in ("config.resolved", "run_00.csv"):
        assert (tmp_path / "broken" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()
    whole = (tmp_path / "whole" / "run_01.csv").read_text()
    head = "".join(whole.splitlines(keepends=True)[:3])
    assert head.startswith("# nlcflow-csv v1\nt,") and len(head) < len(whole)
    assert (tmp_path / "broken" / "run_01.csv").read_text() == head
    assert not (tmp_path / "broken" / "report.json").exists()


def test_continuation_entry_is_the_run_of_its_regularization(tmp_path):
    """A continuation entry is the run ``solve run`` makes with the entry's
    ``reg.n_modes``, ``reg.eps`` and ``reg.delta``: entry 1's
    ``run_01.csv`` is, header and every row, the run's ``diagnostics.csv``
    with its trailing ``res_*`` column dropped."""
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c"))
    assert cli.main(["continuation", cfg]) == 0
    cfg = _write(tmp_path, "run.cfg", CONT_CFG.format(out=tmp_path / "r")
                 + "reg.n_modes = 6\nreg.eps = 1e-3\nreg.delta = 1e-3\n")
    assert cli.main(["run", cfg]) == 0
    width = len(dg.CSV_COLUMNS)
    lines = (tmp_path / "r" / "diagnostics.csv").read_text().splitlines()
    assert lines[1].split(",")[width:] == ["res_identity"]
    cut = [lines[0]] + [",".join(ln.split(",")[:width]) for ln in lines[1:]]
    assert len(cut) == 2 + 6
    assert (tmp_path / "c" / "run_01.csv").read_text() \
        == "\n".join(cut) + "\n"


def test_continuation_entry_is_regularized_with_its_own_delta(tmp_path):
    """An entry's initial data are clamped with the entry's delta, not
    with ``reg.delta``: at delta = 0.1 the upper clamp
    0.1^(-1/10) ~ 1.259 cuts the 0.4-amplitude bump's peak of 1.4, which
    the config's ``reg.delta = 1e-3`` (clamp ~ 1.995) and entry 1's
    delta = 1e-2 (~ 1.585) leave whole.  So entry 0 starts with less mass
    than entry 1, and its ``run_00.csv`` is, header and every row, the
    ``diagnostics.csv`` of ``solve run`` with ``reg.delta = 0.1`` with its
    trailing ``res_*`` column dropped."""
    cfg = _write(tmp_path, "cont.cfg", CONT_CFG.format(out=tmp_path / "c")
                 .replace("1e-2,1e-3", "0.1,1e-2") + "reg.delta = 1e-3\n")
    assert cli.main(["continuation", cfg]) == 0
    names, rows = read_csv(str(tmp_path / "c" / "run_00.csv"))
    _, next_rows = read_csv(str(tmp_path / "c" / "run_01.csv"))
    mass = names.index("mass")
    assert rows[0][mass] < next_rows[0][mass]
    cfg = _write(tmp_path, "run.cfg", CONT_CFG.format(out=tmp_path / "r")
                 + "reg.n_modes = 6\nreg.eps = 1e-3\nreg.delta = 0.1\n")
    assert cli.main(["run", cfg]) == 0
    width = len(dg.CSV_COLUMNS)
    lines = (tmp_path / "r" / "diagnostics.csv").read_text().splitlines()
    cut = [lines[0]] + [",".join(ln.split(",")[:width]) for ln in lines[1:]]
    assert (tmp_path / "c" / "run_00.csv").read_text() \
        == "\n".join(cut) + "\n"


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


@pytest.mark.parametrize("case,text", [
    ("bump-1d", "grid.dim = 1\nreg.n_modes = 6\n"),
    ("trig-2d", "grid.dim = 2\nmms.shape = 16\n"),
], ids=["spatial", "temporal"])
def test_mms_rerun_outputs_byte_identical(tmp_path, capsys, case, text):
    """An mms study run twice writes the same CSV, orders file and stdout:
    a spatial study in 1-D and a temporal one in 2-D."""
    cfg = _write(tmp_path, "mms.cfg",
                 text + f"output.dir = {tmp_path / 'm'}\n")
    seen = []
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(["mms", case, cfg]) == 0
        seen.append((_tree_bytes(tmp_path / "m"), capsys.readouterr().out))
        shutil.rmtree(tmp_path / "m")
    assert sorted(seen[0][0]) == [f"mms_{case}.csv",
                                  f"mms_{case}_orders.json"]
    assert seen[0] == seen[1]


MMS_STUDY_CFG = """\
grid.dim = 1
solver.dt = 5e-4
solver.t_end = 2e-3
reg.eps = 1e-2
reg.delta = 1e-3
reg.n_modes = 6
output.dir = {out}
"""


def test_failed_mms_study_keeps_its_finished_rows(tmp_path, capsys,
                                                  monkeypatch):
    """A solver failure in the 32-node run of a 16,32 study exits 3 there,
    and its CSV keeps the row of the 16-node run, which ended first, while
    no orders file is written."""
    from nlcflow.errors import NonFiniteState
    run_case = mm.run_case

    def failing(case, n, *args):
        if n == 32:
            raise NonFiniteState("director")
        return run_case(case, n, *args)

    monkeypatch.setattr(mm, "run_case", failing)
    cfg = _write(tmp_path, "mms.cfg", MMS_STUDY_CFG.format(
        out=tmp_path / "mms") + "mms.resolutions = 16,32\n")
    assert cli.main(["mms", "bump-1d", cfg]) == 3
    assert "solver failure: NonFiniteState" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "mms")) == ["mms_bump-1d.csv"]
    lines = (tmp_path / "mms" / "mms_bump-1d.csv").read_text().splitlines()
    assert lines[:2] == dg.csv_header(
        ["resolution", *cli._ERR_KEYS]).splitlines()
    assert len(lines) == 3 and lines[2].split(",")[0] == "16"


def test_mms_mode_count_checked_before_any_run(tmp_path, capsys,
                                               monkeypatch):
    """The 8-node grid of a 16,8 study admits only 3 modes: the study exits
    2 naming ``reg.n_modes`` and that grid before its first run, and writes
    no file."""
    monkeypatch.setattr(mm, "run_case",
                        lambda *args: pytest.fail("a run started"))
    cfg = _write(tmp_path, "mms.cfg", MMS_STUDY_CFG.format(
        out=tmp_path / "mms") + "mms.resolutions = 16,8\n")
    assert cli.main(["mms", "bump-1d", cfg]) == 2
    err = capsys.readouterr().err
    assert "reg.n_modes = 6" in err and "8-node grid" in err
    assert not (tmp_path / "mms").exists()


def test_finite_or_null_scrubs_nonfinite():
    doc = {"a": [1.0, math.inf], "b": {"c": math.nan, "d": 2.0}}
    clean = cli._finite_or_null(doc)
    assert clean == {"a": [1.0, None], "b": {"c": None, "d": 2.0}}
    json.dumps(clean, allow_nan=False)
