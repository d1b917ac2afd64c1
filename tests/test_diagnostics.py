"""Monitored functionals: energy, entropy, budgets, residual batteries."""

import numpy as np
import pytest
from scipy.integrate import quad

from nlcflow.errors import (GridMismatch, MismatchedSnapshots,
                            NonPositiveTemperature)
from nlcflow.fields import Grid, spectral_plan
from nlcflow.params import PhysParams, RegParams
from nlcflow import diagnostics as dg
from nlcflow import presets
from nlcflow import solver as sv

from conftest import (bump_state, equilibrium_state, renorm_rows,
                      residual_series_max, run_lists, trajectory_records,
                      unit_director, weak_series)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_total_energy_constant_state_pin(grid2d):
    p = PhysParams(gamma=2.0)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    total, parts = dg.total_energy(s, reg, p)
    area = 4.0
    assert total == pytest.approx(2.0 * area, rel=1e-14)
    assert parts["elastic"] == pytest.approx(area, rel=1e-14)
    assert parts["thermal"] == pytest.approx(area, rel=1e-14)
    assert parts["kinetic"] == 0.0 and parts["artificial"] == 0.0


def test_total_energy_vacuum_is_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d, rho=0.0, theta=0.0)
    total, parts = dg.total_energy(s, reg, p)
    assert total == 0.0
    assert all(v == 0.0 for v in parts.values())


def test_total_energy_parts_sum_exactly(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    total, parts = dg.total_energy(s, reg, p)
    assert total == sum(parts.values())
    assert all(v >= 0.0 for v in parts.values())


def test_frank_energy_gauge_invariance(grid2d):
    """Adding a constant to a director component leaves the gradient part."""
    p = PhysParams()
    reg = RegParams(n_modes=4)
    s = bump_state(grid2d)
    _, parts = dg.total_energy(s, reg, p)
    shifted = s.d.copy()
    shifted[0] += 0.7
    s2 = sv.State(grid2d, s.t, s.rho, s.u, s.theta, shifted)
    _, parts2 = dg.total_energy(s2, reg, p)
    assert parts2["frank"] == pytest.approx(parts["frank"], rel=1e-12)
    assert parts2["penalty"] != pytest.approx(parts["penalty"], rel=1e-3)


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

def test_budget_equilibrium_exact_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-3)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    r = dg.energy_budget_residual(s, s1, reg, p, rec.dt, rec)
    assert r == 0.0
    assert dg.energy_budget_residual(s, s1, reg, p, rec.dt) == 0.0


def test_budget_equilibrium_with_sink(grid2d):
    """delta > 0: theta decays through the sink; the ledger form of the
    budget still closes to solver noise."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=1e-3, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-3)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert float(s1.theta.max()) < 1.0
    r = dg.energy_budget_residual(s, s1, reg, p, rec.dt, rec)
    assert abs(r) <= 5e-12


def test_budget_one_sided_on_bump_run(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d)
    e0, _ = dg.total_energy(s0, reg, p)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3)
    states, records = run_lists(s0, reg, cfg, p)
    for k in range(1, len(states)):
        r = dg.energy_budget_residual(states[k - 1], states[k], reg, p,
                                      records[k].dt, records[k])
        assert r <= 1e-8 * e0


def test_dissipation_parts_nonnegative(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    parts = dg.dissipation_parts(bump_state(grid2d), reg, p)
    assert set(parts) == {"viscous", "director", "thermal_sink", "density"}
    assert all(v >= 0.0 for v in parts.values())


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_total_constant_pin(grid2d):
    s = equilibrium_state(grid2d, rho=np.e, theta=1.0)
    assert dg.entropy_total(s) == pytest.approx(-np.e * 4.0, rel=1e-13)


def test_entropy_total_vacuum_convention(grid2d):
    s = equilibrium_state(grid2d, rho=0.0, theta=0.0)
    assert dg.entropy_total(s) == 0.0


def test_entropy_production_quadrature_oracle():
    grid = Grid((64,), (2.0,))
    p = PhysParams(cond_floor=0.5, cond_growth=2)
    theta = 1.0 + 0.5 * np.cos(np.pi * grid.axis_nodes[0] / 2.0)
    s = sv.State(grid, 0.0, np.ones(grid.shape), np.zeros((1,) + grid.shape),
                 theta, unit_director(grid))
    total, mn = dg.entropy_production(s, p)

    def integrand(x):
        th = 1.0 + 0.5 * np.cos(np.pi * x / 2.0)
        dth = -0.5 * (np.pi / 2.0) * np.sin(np.pi * x / 2.0)
        return 0.5 * (1.0 + th ** 2) * dth ** 2 / th ** 2

    oracle, _ = quad(integrand, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    assert total == pytest.approx(oracle, abs=1e-9)
    assert mn >= 0.0


def test_entropy_production_requires_positive_theta(grid2d):
    s = equilibrium_state(grid2d, theta=0.0)
    with pytest.raises(NonPositiveTemperature):
        dg.entropy_production(s, PhysParams())


# ---------------------------------------------------------------------------
# auxiliary operators
# ---------------------------------------------------------------------------

def test_pressure_weight_constant_run(grid2d):
    p = PhysParams(gamma=2.0, gas_const=1.0)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-2)
    total = sum(r.pressure_weight_increment
                for r in trajectory_records(sv.run(s, reg, cfg, p), reg, p))
    assert total == pytest.approx(2.0 * 4.0 * 1e-2, rel=1e-12)


def test_pressure_weight_monotone_in_density(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=1e-2, beta=5.0, n_modes=4)
    lo = dg.pressure_weight_density(equilibrium_state(grid2d, rho=1.0), reg, p)
    hi = dg.pressure_weight_density(equilibrium_state(grid2d, rho=1.5), reg, p)
    assert hi > lo


def test_oscillation_defect_zero_and_shift_oracle(grid2d):
    gamma = 2.0
    rho = np.ones(grid2d.shape)
    assert dg.oscillation_defect(grid2d, [rho], rho, gamma) == 0.0
    for c in (1e-2, 5e-3):
        shifted = np.full(grid2d.shape, 1.0 + c)
        val = dg.oscillation_defect(grid2d, [shifted], rho, gamma)
        # the k=8 truncation is the identity on [1, 1+c]: exact value
        assert val == pytest.approx(4.0 * c ** (gamma + 1.0), rel=1e-12)


def test_oscillation_defect_mismatch_errors(grid2d):
    rho = np.ones(grid2d.shape)
    with pytest.raises(MismatchedSnapshots):
        dg.oscillation_defect(grid2d, [rho, rho], [rho], 2.0)
    other = np.ones(Grid((16, 16), (2.0, 2.0)).shape)
    with pytest.raises(GridMismatch):
        dg.oscillation_defect(grid2d, [rho], [other], 2.0)


def test_cosine_battery_fixed_order(grid2d):
    names = [name for name, _, _ in dg.cosine_battery(grid2d)]
    assert names == ["cos00", "cos01", "cos10"]
    const = dg.cosine_battery(grid2d)[0][1]
    assert np.allclose(const, 1.0)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_trajectory_records_equilibrium(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    states, records = run_lists(s, reg, sv.SolverConfig(dt=1e-3, t_end=5e-3),
                                p)
    recs = trajectory_records(zip(states, records), reg, p)
    assert len(recs) == len(states)
    first = recs[1]
    for r in recs[2:]:
        assert r.mass == first.mass
        assert r.energy_total == first.energy_total
        assert r.entropy_total == first.entropy_total
        assert r.director_sup == first.director_sup
        assert r.pressure_weight_increment == first.pressure_weight_increment


def test_run_t_end_zero_gives_one_record(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    recs = trajectory_records(
        sv.run(s, reg, sv.SolverConfig(dt=1e-3, t_end=0.0), p), reg, p)
    assert len(recs) == 1
    assert recs[0].t == 0.0 and recs[0].mass == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# renormalized continuity residuals
# ---------------------------------------------------------------------------

def test_renorm_identity_machine_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d, rho_base=3.0, rho_amp=2.2)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3)
    states, records = run_lists(s0, reg, cfg, p)
    rows = renorm_rows(states, records, reg.eps, "identity")
    _, worst = residual_series_max(rows)
    assert worst <= 1e-10


def test_renorm_constant_state_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=2e-3)
    states, records = run_lists(s, reg, cfg, p)
    for b_id in ("identity", "T1", "T4", "zlog"):
        rows = renorm_rows(states, records, reg.eps, b_id)
        _, worst = residual_series_max(rows)
        assert worst <= 1e-12


def test_renorm_smooth_kernel_first_order(grid2d):
    """zlog has no curvature kinks, so the parabolic-form residual is O(dt)."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    worst = []
    for dt in (1e-3, 5e-4):
        s0 = bump_state(grid2d, rho_base=3.0, rho_amp=2.2)
        states, records = run_lists(s0, reg,
                                    sv.SolverConfig(dt=dt, t_end=1e-2), p)
        rows = renorm_rows(states, records, reg.eps, "zlog")
        worst.append(residual_series_max(rows)[1])
    ratio = worst[0] / worst[1]
    assert 1.6 <= ratio <= 2.4


def test_renorm_residual_takes_battery_gradients_once(grid2d, monkeypatch):
    """The test functions' gradients are taken once per run, and div u_lag
    and grad rho' once per step for all requested ids.  At 2-D with the
    three-function cosine battery, m ids and k steps the audit takes
      6       battery gradients, once per run (3 functions x 2 axes)
      4 k     per step: div u_lag 2, grad rho' 2
      2 m k   per step and id: grad b(rho') 2
    which is 6 + 2 (4 + 4) = 22 for two steps and two ids (36 when each
    id took its own pass over the steps, with the battery's gradients per
    pass)."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d, rho_base=3.0, rho_amp=2.2)
    cfg = sv.SolverConfig(dt=1e-3, t_end=2e-3)
    states, records = run_lists(s0, reg, cfg, p)
    calls = []
    plan = spectral_plan(grid2d)
    deriv = plan.deriv

    def counted(values, axis, par):
        calls.append(axis)
        return deriv(values, axis, par)

    monkeypatch.setattr(plan, "deriv", counted)
    battery = dg.cosine_battery(grid2d)
    rows = [dg.renormalized_continuity_residual(a, b, rec, reg.eps,
                                                ("T1", "identity"), battery)
            for a, b, rec in zip(states, states[1:], records[1:])]
    steps = len(rows)
    assert steps == 2 and all(list(r) == ["T1", "identity"] for r in rows)
    assert len(calls) == 6 + steps * (4 + 2 * 2) == 22
    monkeypatch.undo()
    assert [r["T1"] for r in rows] == renorm_rows(states, records, reg.eps,
                                                  "T1")


def test_renorm_unknown_kernel_rejected():
    with pytest.raises(KeyError):
        dg._truncation_triple("T3x")


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

def test_weak_residuals_equilibrium_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=2e-3)
    states, records = run_lists(s, reg, cfg, p)
    series = weak_series(states, records, reg, p)
    for key, vals in series.items():
        assert max(abs(v) for v in vals) <= 1e-11, key


@pytest.mark.parametrize("dealias", [True, False])
def test_weak_residuals_scheme_consistent_families(grid2d, dealias):
    """Heat and director residuals evaluated with the step's own kernels
    sit at solver tolerance, with or without the 2/3 rule; the heat defect
    is one-sided within noise.  The twisted director gives the transport
    enough aliasing that an audit dealiasing a step that did not misses
    the heat bound."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("director-twist", grid2d, amplitude=0.6)
    s0 = sv.regularize_initial_data(grid2d, raw.rho, raw.rho * raw.u,
                                    raw.theta, raw.d, reg)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3, dealias=dealias)
    states, records = run_lists(s0, reg, cfg, p)
    series = weak_series(states, records, reg, p)
    scale = max(abs(v) for v in series["heat_cos00"]) + 1.0
    for key, vals in series.items():
        if key.startswith("heat_"):
            assert max(abs(v) for v in vals) <= 1e-8 * scale, key
        if key.startswith("dir_"):
            assert max(abs(v) for v in vals) <= 1e-10, key


def test_weak_momentum_residual_first_order(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    worst = []
    for dt in (1e-3, 5e-4):
        s0 = bump_state(grid2d)
        states, records = run_lists(s0, reg,
                                    sv.SolverConfig(dt=dt, t_end=1e-2), p)
        series = weak_series(states, records, reg, p)
        worst.append(max(max(abs(v) for v in vals)
                         for key, vals in series.items()
                         if key.startswith("mom_")))
    ratio = worst[0] / worst[1]
    assert 1.5 <= ratio <= 2.6
