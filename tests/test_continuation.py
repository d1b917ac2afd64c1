"""Run families along regularization schedules and their reports."""

import json
import math

import numpy as np
import pytest

from nlcflow import continuation as ct
from nlcflow import presets
from nlcflow import solver as sv
from nlcflow.errors import MismatchedSnapshots, ValidationError
from nlcflow.fields import Grid
from nlcflow.params import PhysParams

from conftest import equilibrium_state


P = PhysParams()


def _plan(schedule, t_end=0.01, preset="density-bump", amplitude=0.4,
          dt=1e-3, shape=(32, 32), snapshot_times=()):
    grid = Grid(shape, (2.0,) * len(shape))
    return ct.ContinuationPlan(
        grid=grid, phys=P, solver=sv.SolverConfig(dt=dt, t_end=t_end),
        schedule=schedule,
        initial=lambda g: presets.build(preset, g, amplitude=amplitude),
        snapshot_times=snapshot_times)


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
# plan validation
# ---------------------------------------------------------------------------

def test_empty_schedule_rejected():
    with pytest.raises(ValidationError):
        _plan([]).validate()


def test_bad_schedule_entry_rejected():
    with pytest.raises(ValidationError):
        _plan([(8, 1e-2)]).validate()


def test_increasing_eps_rejected_for_viscosity_study():
    plan = _plan([(8, 1e-2, 1e-3), (8, 1e-1, 1e-3)])
    with pytest.raises(ValidationError):
        ct.run_viscosity_vanishing(plan)


def test_increasing_delta_rejected_for_pressure_study():
    plan = _plan([(8, 1e-3, 1e-4), (8, 1e-3, 1e-2)])
    with pytest.raises(ValidationError):
        ct.run_pressure_vanishing(plan)


# ---------------------------------------------------------------------------
# study reports
# ---------------------------------------------------------------------------

def test_repeated_schedule_identical_runs():
    plan = _plan([(8, 1e-2, 1e-3), (8, 1e-2, 1e-3)], t_end=5e-3)
    report = ct.run_galerkin_refinement(plan)
    a, b = report.runs
    assert a == b
    for row in report.distances:
        assert row["rho_l1"] == 0.0
        assert row["u_l2"] == 0.0
        assert row["theta_l2"] == 0.0
        assert row["d_h1"] == 0.0


def test_galerkin_refinement_self_convergence():
    plan = ct.ContinuationPlan(
        grid=Grid((32, 32), (2.0, 2.0)), phys=P,
        solver=sv.SolverConfig(dt=1e-3, t_end=0.02),
        schedule=[(4, 1e-2, 1e-3), (8, 1e-2, 1e-3), (16, 1e-2, 1e-3)],
        initial=lambda g: presets.build("director-twist", g, amplitude=0.6))
    report = ct.run_galerkin_refinement(plan)
    gaps = [row["u_l2"] for row in report.distances]
    assert gaps[1] < gaps[0]
    assert report.uniform_bounds["energy_max_ratio"] <= 1.0 + 1e-6
    assert len(report.run_records) == 3


def test_viscosity_family_bounds_and_decay():
    plan = _plan([(8, 1e-1, 1e-3), (8, 5e-2, 1e-3), (8, 2.5e-2, 1e-3)])
    report = ct.run_viscosity_vanishing(plan)
    assert report.uniform_bounds["eps_grad_rho_sq_spread"] < 10.0
    assert report.decay["eps_lap_rho"]["nonincreasing_5pct"]
    assert report.uniform_bounds["energy_max_ratio"] <= 1.0 + 1e-6
    # pressure-weight functional is reported for every run
    assert all(r["pressure_weight"] > 0 for r in report.runs)


def test_viscosity_eps_zero_terms_vanish():
    plan = _plan([(6, 0.0, 1e-3)], t_end=2e-3, shape=(16, 16))
    report = ct.run_viscosity_vanishing(plan)
    (run,) = report.runs
    assert run["eps_grad_rho_sq"] == 0.0
    assert run["eps_lap_rho"] == 0.0
    assert math.isfinite(report.uniform_bounds["eps_grad_rho_sq_spread"])


def test_pressure_family_decay():
    plan = _plan([(8, 1e-3, 1e-2), (8, 1e-3, 1e-3), (8, 1e-3, 1e-4)])
    report = ct.run_pressure_vanishing(plan)
    vals = report.decay["delta_rho_beta"]["values"]
    assert vals[0] > vals[1] > vals[2] > 0
    assert report.decay["delta_theta_pow"]["nonincreasing_5pct"]
    assert report.uniform_bounds["theta_norm_spread"] < 2.0
    for row in report.distances:
        assert row["rho_oscillation"] >= 0.0


def test_pressure_delta_zero_terms_vanish():
    plan = _plan([(6, 1e-3, 0.0)], t_end=2e-3, shape=(16, 16))
    report = ct.run_pressure_vanishing(plan)
    (run,) = report.runs
    assert run["delta_rho_beta"] == 0.0
    assert run["delta_theta_pow"] == 0.0


def test_report_json_shape_and_finiteness():
    plan = _plan([(8, 1e-1, 1e-3), (8, 5e-2, 1e-3)], t_end=5e-3)
    report = ct.run_viscosity_vanishing(plan)
    doc = report.to_json()
    assert set(doc) == {"study", "runs", "uniform_bounds", "decay",
                        "distances"}
    _assert_finite(doc)
    json.dumps(doc, allow_nan=False)   # strict JSON must not raise
    entry = doc["decay"]["eps_lap_rho"]
    assert len(entry["rates"]) == len(entry["values"]) - 1


def test_reports_are_deterministic():
    plan = _plan([(8, 1e-2, 1e-3)], t_end=5e-3)
    a = ct.run_galerkin_refinement(plan).to_json()
    b = ct.run_galerkin_refinement(_plan([(8, 1e-2, 1e-3)],
                                         t_end=5e-3)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_snapshot_times_selected():
    plan = _plan([(8, 1e-2, 1e-3), (8, 1e-2, 1e-3)], t_end=0.01,
                 snapshot_times=(0.005, 0.01))
    report = ct.run_galerkin_refinement(plan)
    times = sorted({row["t"] for row in report.distances})
    assert times == pytest.approx([0.005, 0.01])


# ---------------------------------------------------------------------------
# distances between the matched snapshots of two runs
# ---------------------------------------------------------------------------

def convergence_report(runs_snapshots):
    """Distance rows between consecutive members of a run family, folded
    over the per-pair kernel the studies call as each run ends."""
    return [row for i, (a, b) in enumerate(zip(runs_snapshots,
                                               runs_snapshots[1:]))
            for row in ct._pair_distances(i, a, b)]


def test_convergence_report_identical_runs_zero(grid2d):
    s = equilibrium_state(grid2d)
    (row,) = convergence_report([[s], [s.copy()]])
    assert row["rho_l1"] == 0.0 and row["d_h1"] == 0.0


def test_convergence_report_mismatched_times(grid2d):
    a = equilibrium_state(grid2d)
    b = equilibrium_state(grid2d)
    b = sv.State(1.0, b.rho, b.u, b.theta, b.d)
    with pytest.raises(MismatchedSnapshots):
        convergence_report([[a], [b]])


def test_convergence_report_mismatched_grids(grid2d):
    a = equilibrium_state(grid2d)
    b = equilibrium_state(Grid((16, 16), (2.0, 2.0)))
    with pytest.raises(MismatchedSnapshots):
        convergence_report([[a], [b]])


def test_convergence_report_perturbed_pair_positive(grid2d):
    a = equilibrium_state(grid2d, rho=1.0)
    b = equilibrium_state(grid2d, rho=1.1)
    (row,) = convergence_report([[a], [b]])
    assert row["rho_l1"] == pytest.approx(0.1 * 4.0, rel=1e-12)
    assert row["u_l2"] == 0.0
