"""Run families along regularization schedules and their reports."""

import json
import math
import os

import pytest

from nlcflow import config as cf
from nlcflow import continuation as ct
from nlcflow import diagnostics as dg
from nlcflow import presets
from nlcflow import solver as sv
from nlcflow.errors import MismatchedSnapshots, TooManyModes
from nlcflow.fields import Grid

from conftest import equilibrium_state, read_csv


def _study(out, study, schedule, t_end=0.01, preset="density-bump",
           amplitude=0.4, dt=1e-3, shape=(32, 32)):
    """The report of ``study`` along ``schedule``, run the way
    ``solve continuation`` runs it: from a parsed config and a raw
    preset, its ``run_XX.csv`` files written to the directory ``out``."""
    def listed(values):
        return ",".join(repr(v) for v in values)

    n, eps, delta = zip(*schedule)
    text = (f"grid.dim = {len(shape)}\ngrid.shape = {listed(shape)}\n"
            f"solver.dt = {dt!r}\nsolver.t_end = {t_end!r}\n"
            f"init.preset = {preset}\ninit.amplitude = {amplitude!r}\n"
            f"continuation.study = {study}\n"
            f"continuation.n = {listed(n)}\n"
            f"continuation.eps = {listed(eps)}\n"
            f"continuation.delta = {listed(delta)}\n")
    cfg = cf.parse_config_text(text)
    raw = presets.build(preset, cfg.grid, amplitude=amplitude)
    return ct.run_study(cfg, raw, out)


def _assert_finite(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            _assert_finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _assert_finite(v)
    elif isinstance(obj, float):
        assert math.isfinite(obj)


# ---------------------------------------------------------------------------
# study reports
# ---------------------------------------------------------------------------

def test_repeated_schedule_identical_runs(tmp_path):
    report = _study(tmp_path, "galerkin",
                    [(8, 1e-2, 1e-3), (8, 1e-2, 1e-3)], t_end=5e-3)
    a, b = report["runs"]
    assert a == b
    for row in report["distances"]:
        assert row["rho_l1"] == 0.0
        assert row["u_l2"] == 0.0
        assert row["theta_l2"] == 0.0
        assert row["d_h1"] == 0.0


def test_galerkin_refinement_self_convergence(tmp_path):
    report = _study(tmp_path, "galerkin",
                    [(4, 1e-2, 1e-3), (8, 1e-2, 1e-3), (16, 1e-2, 1e-3)],
                    t_end=0.02, preset="director-twist", amplitude=0.6)
    gaps = [row["u_l2"] for row in report["distances"]]
    assert gaps[1] < gaps[0]
    # each pair is compared at the final states of its runs
    assert [row["t"] for row in report["distances"]] \
        == [run["final_time"] for run in report["runs"][:-1]]
    assert report["uniform_bounds"]["energy_max_ratio"] <= 1.0 + 1e-6
    # each run streamed its rows: the initial state and 20 steps
    assert sorted(os.listdir(tmp_path)) == [
        "run_00.csv", "run_01.csv", "run_02.csv"]
    for i, run in enumerate(report["runs"]):
        names, rows = read_csv(str(tmp_path / ("run_%02d.csv" % i)))
        assert tuple(names) == dg.CSV_COLUMNS
        assert len(rows) == run["steps"] + 1 == 21
        assert rows[-1][0] == run["final_time"]


def test_viscosity_family_bounds_and_decay(tmp_path):
    report = _study(tmp_path, "viscosity",
                    [(8, 1e-1, 1e-3), (8, 5e-2, 1e-3), (8, 2.5e-2, 1e-3)])
    assert report["uniform_bounds"]["eps_grad_rho_sq_spread"] < 10.0
    assert report["decay"]["eps_lap_rho"]["nonincreasing_5pct"]
    assert report["uniform_bounds"]["energy_max_ratio"] <= 1.0 + 1e-6
    # pressure-weight functional is reported for every run
    assert all(r["pressure_weight"] > 0 for r in report["runs"])


def test_viscosity_eps_zero_terms_vanish(tmp_path):
    report = _study(tmp_path, "viscosity", [(6, 0.0, 1e-3)], t_end=2e-3,
                    shape=(16, 16))
    (run,) = report["runs"]
    assert run["eps_grad_rho_sq"] == 0.0
    assert run["eps_lap_rho"] == 0.0
    assert math.isfinite(report["uniform_bounds"]["eps_grad_rho_sq_spread"])


def test_pressure_family_decay(tmp_path):
    report = _study(tmp_path, "pressure",
                    [(8, 1e-3, 1e-2), (8, 1e-3, 1e-3), (8, 1e-3, 1e-4)])
    vals = report["decay"]["delta_rho_beta"]["values"]
    assert vals[0] > vals[1] > vals[2] > 0
    assert report["decay"]["delta_theta_pow"]["nonincreasing_5pct"]
    assert report["uniform_bounds"]["theta_norm_spread"] < 2.0
    for row in report["distances"]:
        assert row["rho_oscillation"] >= 0.0


def test_pressure_delta_zero_terms_vanish(tmp_path):
    report = _study(tmp_path, "pressure", [(6, 1e-3, 0.0)], t_end=2e-3,
                    shape=(16, 16))
    (run,) = report["runs"]
    assert run["delta_rho_beta"] == 0.0
    assert run["delta_theta_pow"] == 0.0


def test_report_json_shape_and_finiteness(tmp_path):
    doc = _study(tmp_path, "viscosity",
                 [(8, 1e-1, 1e-3), (8, 5e-2, 1e-3)], t_end=5e-3)
    assert set(doc) == {"study", "runs", "uniform_bounds", "decay",
                        "distances"}
    _assert_finite(doc)
    json.dumps(doc, allow_nan=False)   # strict JSON must not raise
    entry = doc["decay"]["eps_lap_rho"]
    assert len(entry["rates"]) == len(entry["values"]) - 1


def test_reports_are_deterministic(tmp_path):
    """Two studies of one config report the same and write the same
    ``run_00.csv``."""
    docs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        docs.append(_study(tmp_path / name, "galerkin", [(8, 1e-2, 1e-3)],
                           t_end=5e-3))
    a, b = docs
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (tmp_path / "a" / "run_00.csv").read_bytes() \
        == (tmp_path / "b" / "run_00.csv").read_bytes()


def test_too_many_modes_names_the_schedule_key_and_entry(tmp_path):
    """A schedule entry asking for more modes than the grid admits names
    ``continuation.n`` and the entry, not ``reg.n_modes``, which the
    config never set.  Its state is prepared before its CSV is opened, so
    the entries before it keep their CSVs and it leaves none."""
    with pytest.raises(TooManyModes) as info:
        _study(tmp_path, "pressure", [(6, 1e-3, 1e-2), (60, 1e-3, 1e-3)],
               t_end=2e-3, shape=(16, 16))
    msg = str(info.value)
    assert msg == ("continuation.n = 60 exceeds the 49 admissible modes on "
                   "a 16x16-node grid, in schedule entry 1 (n=60, "
                   "eps=0.001, delta=0.001)")
    assert sorted(os.listdir(tmp_path)) == ["run_00.csv"]


def test_too_many_modes_command_exits_2_without_a_run_file(tmp_path,
                                                           capsys):
    """``solve continuation`` on a 16^2 grid with ``continuation.n = 60``
    exits 2 naming the key and the entry, and writes no ``run_00.csv``."""
    from nlcflow import cli
    cfg = tmp_path / "cont.cfg"
    cfg.write_text("grid.dim = 2\ngrid.shape = 16\ncontinuation.study = "
                   "pressure\ncontinuation.n = 60\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert cli.main(["continuation", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: continuation.n = 60 exceeds" in err
    assert "schedule entry 0 (n=60," in err and "reg.n_modes" not in err
    assert os.listdir(tmp_path / "out") == ["config.resolved"]


# ---------------------------------------------------------------------------
# distances between the final states of two runs
# ---------------------------------------------------------------------------

def convergence_report(finals):
    """Distance rows between consecutive members of a run family, folded
    over the per-pair kernel the studies call as each run ends."""
    return [ct._pair_distances(i, a, b)
            for i, (a, b) in enumerate(zip(finals, finals[1:]))]


def test_convergence_report_identical_runs_zero(grid2d):
    s = equilibrium_state(grid2d)
    twin = sv.State(grid2d, s.t, s.rho.copy(), s.U.copy(), s.theta.copy(),
                    s.d.copy())
    (row,) = convergence_report([s, twin])
    assert row["rho_l1"] == 0.0 and row["d_h1"] == 0.0


def test_convergence_report_mismatched_times(grid2d):
    a = equilibrium_state(grid2d)
    b = equilibrium_state(grid2d)
    b = sv.State(grid2d, 1.0, b.rho, b.U, b.theta, b.d)
    with pytest.raises(MismatchedSnapshots):
        convergence_report([a, b])


def test_convergence_report_mismatched_grids(grid2d):
    a = equilibrium_state(grid2d)
    b = equilibrium_state(Grid((16, 16), (2.0, 2.0)))
    with pytest.raises(MismatchedSnapshots):
        convergence_report([a, b])


def test_convergence_report_perturbed_pair_positive(grid2d):
    a = equilibrium_state(grid2d, rho=1.0)
    b = equilibrium_state(grid2d, rho=1.1)
    (row,) = convergence_report([a, b])
    assert row["rho_l1"] == pytest.approx(0.1 * 4.0, rel=1e-12)
    assert row["u_l2"] == 0.0
