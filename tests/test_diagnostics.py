"""Monitored functionals: energy, entropy, budgets, residual batteries."""

from dataclasses import replace

import numpy as np
import pytest

from nlcflow.errors import GridMismatch, NonPositiveTemperature
from nlcflow import constitutive as cst
from nlcflow.fields import COS, Grid, integrate_values, spectral_plan
from nlcflow.params import PhysParams, RegParams
from nlcflow import diagnostics as dg
from nlcflow import presets
from nlcflow import solver as sv

from conftest import (bump_state, director_gradient, equilibrium_state,
                      renorm_rows, residual_series_max, run_lists,
                      trajectory_records, unit_director, weak_series)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_total_energy_constant_state_pin(grid2d):
    p = PhysParams(gamma=2.0)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    total, parts = dg.total_energy(s, director_gradient(s), reg, p)
    area = 4.0
    assert total == pytest.approx(2.0 * area, rel=1e-14)
    assert parts["elastic"] == pytest.approx(area, rel=1e-14)
    assert parts["thermal"] == pytest.approx(area, rel=1e-14)
    assert parts["kinetic"] == 0.0 and parts["artificial"] == 0.0


def test_total_energy_vacuum_is_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d, rho=0.0, theta=0.0)
    total, parts = dg.total_energy(s, director_gradient(s), reg, p)
    assert total == 0.0
    assert all(v == 0.0 for v in parts.values())


def test_total_energy_parts_sum_exactly(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    total, parts = dg.total_energy(s, director_gradient(s), reg, p)
    assert total == sum(parts.values())
    assert all(v >= 0.0 for v in parts.values())


def test_frank_energy_gauge_invariance(grid2d):
    """Adding a constant to a director component leaves the gradient part."""
    p = PhysParams()
    reg = RegParams(n_modes=4)
    s = bump_state(grid2d)
    _, parts = dg.total_energy(s, director_gradient(s), reg, p)
    shifted = s.d.copy()
    shifted[0] += 0.7
    s2 = sv.State(grid2d, s.t, s.rho, s.U, s.theta, shifted)
    _, parts2 = dg.total_energy(s2, director_gradient(s2), reg, p)
    assert parts2["frank"] == pytest.approx(parts["frank"], rel=1e-12)
    assert parts2["penalty"] != pytest.approx(parts["penalty"], rel=1e-3)


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

def _budget(s_prev, s_next, reg, p, dt):
    """The audit's defect of one step, each state's record made from its
    derivative pass, as a run loop makes them."""
    der = dg.derivatives(s_next, p)
    return dg.energy_budget_residual(
        s_prev, dg.make_record(s_prev, dg.derivatives(s_prev, p), reg, p),
        s_next, der, dg.make_record(s_next, der, reg, p, dt=dt), reg, p, dt)


def test_budget_equilibrium_exact_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-3)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert _budget(s, s1, reg, p, rec.dt) == 0.0


def test_budget_equilibrium_with_sink(grid2d):
    """delta > 0: theta decays through the sink; the budget still closes to
    solver noise."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=1e-3, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-3)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert float(s1.theta.max()) < 1.0
    assert abs(_budget(s, s1, reg, p, rec.dt)) <= 5e-12


def test_budget_one_sided_on_bump_run(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d)
    e0, _ = dg.total_energy(s0, director_gradient(s0), reg, p)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3)
    states, records = run_lists(s0, reg, cfg, p)
    for k in range(1, len(states)):
        r = _budget(states[k - 1], states[k], reg, p, records[k].dt)
        assert r <= 1e-8 * e0


def test_budget_reads_the_records_energies(grid2d):
    """On a stepped pair, the defect read off the records' energies is
    bit for bit the one whose energies ``total_energy`` takes afresh."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d)
    s1, rec = sv.step_coupled(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.0),
                              p)
    der0, der1 = dg.derivatives(s0, p), dg.derivatives(s1, p)
    diag0 = dg.make_record(s0, der0, reg, p)
    diag1 = dg.make_record(s1, der1, reg, p, dt=rec.dt)
    fresh0 = replace(diag0, energy_total=dg.total_energy(
        s0, dg.derivatives(s0, p).d, reg, p)[0])
    fresh1 = replace(diag1, energy_total=dg.total_energy(
        s1, dg.derivatives(s1, p).d, reg, p)[0])
    got = dg.energy_budget_residual(s0, diag0, s1, der1, diag1, reg, p,
                                    rec.dt)
    want = dg.energy_budget_residual(s0, fresh0, s1, der1, fresh1, reg, p,
                                     rec.dt)
    assert got == want and got != 0.0


def _ledger_budget(s_prev, s_next, reg, p, dt, basis):
    """Reference budget defect whose viscous dissipation is the Galerkin
    form U'^T K U' of the accepted velocity's coefficients."""
    grid = s_next.grid
    plan = spectral_plan(grid)
    U = basis.project(s_next.u).reshape(-1)
    visc = float(U @ basis.stiffness(p) @ U)
    sink = integrate_values(
        grid, np.maximum(s_prev.theta, 0.0) ** p.cond_growth * s_next.theta)
    grad_rho = [plan.deriv(s_next.rho, b, COS) for b in range(grid.dim)]
    safe = np.maximum(s_next.rho, 0.0)

    def interp_form(exponent):
        bp = cst.convex_pressure_enthalpy(safe, exponent)
        return sum(integrate_values(grid, plan.deriv(bp, b, COS) * grad_rho[b])
                   for b in range(grid.dim))

    eps_beta = interp_form(reg.beta) if reg.delta > 0 else 0.0
    d_net = (reg.delta * visc + reg.delta * sink
             + reg.eps * interp_form(p.gamma) + reg.eps * reg.delta * eps_beta)
    e_next, _ = dg.total_energy(s_next, director_gradient(s_next), reg, p)
    e_prev, _ = dg.total_energy(s_prev, director_gradient(s_prev), reg, p)
    return (e_next - e_prev) / dt + d_net


@pytest.mark.parametrize("eps,delta", [(1e-2, 1e-3), (5e-2, 1e-2)])
def test_budget_from_states_matches_galerkin_ledger(grid2d, eps, delta):
    """The audit's quadrature of S(u'):grad u' gives the defect the Galerkin
    stiffness form gives, step by step on a bump run."""
    p = PhysParams()
    reg = RegParams(eps=eps, delta=delta, beta=5.0, n_modes=8)
    basis = sv.GalerkinBasis(grid2d, reg.n_modes)
    states, records = run_lists(bump_state(grid2d), reg,
                                sv.SolverConfig(dt=1e-3, t_end=1e-2), p)
    assert len(states) == 11
    for a, b, rec in zip(states, states[1:], records[1:]):
        got = _budget(a, b, reg, p, rec.dt)
        want = _ledger_budget(a, b, reg, p, rec.dt, basis)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_dissipation_parts_nonnegative(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    parts = dg.dissipation_parts(s, dg.derivatives(s, p), reg, p)
    assert set(parts) == {"viscous", "director", "thermal_sink", "density"}
    assert all(v >= 0.0 for v in parts.values())


def test_record_differentiates_its_state_once(grid2d, monkeypatch):
    """A record takes each derivative of its state once, counted as
    per-axis matrix products (``fields._along``), a product on a k-array
    stack weighing k units.  At 2-D: grad rho 2 products (2 units), grad
    theta 2 (2), grad d 2 (6) and laplace d as the divergence of that same
    grad d, 2 (6): 8 products, 16 units; grad u comes from the Galerkin
    coefficients through the basis's per-axis tables."""
    from nlcflow import fields
    s = presets.build("director-twist", grid2d)
    units = []
    inner = fields._along

    def counted(mat, values, axis, dim):
        units.append(values.size // np.prod(grid2d.shape))
        return inner(mat, values, axis, dim)

    monkeypatch.setattr(fields, "_along", counted)
    p = PhysParams()
    dg.make_record(s, dg.derivatives(s, p), RegParams(), p, dt=1e-3)
    assert len(units) == 8 and sum(units) == 16


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_total_constant_pin(grid2d):
    s = equilibrium_state(grid2d, rho=np.e, theta=1.0)
    assert dg.entropy_total(s) == pytest.approx(-np.e * 4.0, rel=1e-13)


def test_entropy_total_vacuum_convention(grid2d):
    s = equilibrium_state(grid2d, rho=0.0, theta=0.0)
    assert dg.entropy_total(s) == 0.0


def test_entropy_production_requires_positive_theta(grid2d):
    s, p = equilibrium_state(grid2d, theta=0.0), PhysParams()
    with pytest.raises(NonPositiveTemperature):
        dg.entropy_production(s, dg.derivatives(s, p), p)


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
    assert dg.oscillation_defect(grid2d, rho, rho, gamma) == 0.0
    for c in (1e-2, 5e-3):
        shifted = np.full(grid2d.shape, 1.0 + c)
        val = dg.oscillation_defect(grid2d, shifted, rho, gamma)
        # the k=8 truncation is the identity on [1, 1+c]: exact value
        assert val == pytest.approx(4.0 * c ** (gamma + 1.0), rel=1e-12)


def test_oscillation_defect_mismatch_errors(grid2d):
    rho = np.ones(grid2d.shape)
    other = np.ones(Grid((16, 16), (2.0, 2.0)).shape)
    with pytest.raises(GridMismatch):
        dg.oscillation_defect(grid2d, rho, other, 2.0)


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
    rows = renorm_rows(states, records, reg.eps, "identity", p)
    _, worst = residual_series_max(rows)
    assert worst <= 1e-10


def test_renorm_constant_state_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=2e-3)
    states, records = run_lists(s, reg, cfg, p)
    for b_id in ("identity", "T1", "T4", "zlog"):
        rows = renorm_rows(states, records, reg.eps, b_id, p)
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
        rows = renorm_rows(states, records, reg.eps, "zlog", p)
        worst.append(residual_series_max(rows)[1])
    ratio = worst[0] / worst[1]
    assert 1.6 <= ratio <= 2.4


def test_renorm_residual_takes_battery_gradients_once(grid2d, monkeypatch):
    """The test functions' gradients are taken once per run, grad rho'
    not at all, and div u with no ``deriv``: the audit reads
    |grad rho'|^2, and grad b(rho') = grad rho' of the ``identity`` id,
    off the derivative pass of the new state, computed before the count,
    and div u off the Galerkin gradient of the step's velocity table.  At
    2-D with the three-function cosine battery, m ids other than
    ``identity`` and k steps the audit takes
      6       battery gradients, once per run (3 functions x 2 axes)
      2 m k   per step and id: grad b(rho') 2
    which is 6 + 2 * 2 = 10 for two steps with ``T1`` and ``identity``
    (14 when div u was taken of the nodal velocity, 18 when ``identity``
    took its own grad b(rho') too).  The ``identity`` rows are those of
    its own gradient, bit for bit."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d, rho_base=3.0, rho_amp=2.2)
    cfg = sv.SolverConfig(dt=1e-3, t_end=2e-3)
    states, records = run_lists(s0, reg, cfg, p)
    ders = [dg.derivatives(s, p) for s in states]
    calls = []
    plan = spectral_plan(grid2d)
    deriv = plan.deriv

    def counted(values, axis, par):
        calls.append(axis)
        return deriv(values, axis, par)

    monkeypatch.setattr(plan, "deriv", counted)
    battery = dg.cosine_battery(grid2d)
    rows = [dg.renormalized_continuity_residual(a, b, der, rec, reg.eps,
                                                ("T1", "identity"), battery)
            for a, b, der, rec in zip(states, states[1:], ders[1:],
                                      records[1:])]
    steps = len(rows)
    assert steps == 2 and all(list(r) == ["T1", "identity"] for r in rows)
    assert len(calls) == 6 + steps * 2 * 1 == 10
    monkeypatch.undo()
    for b_id in ("T1", "identity"):
        assert [r[b_id] for r in rows] == renorm_rows(states, records,
                                                      reg.eps, b_id, p)


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


def test_weak_residuals_scheme_consistent_families(grid2d):
    """Heat and director residuals evaluated with the step's own kernels
    sit at solver tolerance; the heat defect is one-sided within noise.
    The twisted director gives the transport enough aliasing that an audit
    whose products differed from the step's would miss the heat bound."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("director-twist", grid2d, amplitude=0.6)
    s0 = sv.regularize_initial_data(grid2d, raw.rho, raw.rho * raw.u,
                                    raw.theta, raw.d, reg)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3)
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
