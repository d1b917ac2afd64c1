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

from conftest import (bump_state, cosine_modes, equilibrium_state,
                      reference_record, reference_renorm_terms, renorm_rows,
                      residual_series_max, run_lists, trajectory_records,
                      unit_director, weak_series)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _energy(s, reg, p):
    rec = dg.make_record(s, reg, p)
    return rec.energy_total, rec.energy_parts


def test_total_energy_constant_state_pin(grid2d):
    p = PhysParams(gamma=2.0)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    total, parts = _energy(s, reg, p)
    area = 4.0
    assert total == pytest.approx(2.0 * area, rel=1e-14)
    assert parts["elastic"] == pytest.approx(area, rel=1e-14)
    assert parts["thermal"] == pytest.approx(area, rel=1e-14)
    assert parts["kinetic"] == 0.0 and parts["artificial"] == 0.0


def test_total_energy_vacuum_is_zero(grid2d):
    """Vacuum (rho = 0) at theta = 1, the record needing theta > 0 for
    its entropy production."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d, rho=0.0, theta=1.0)
    total, parts = _energy(s, reg, p)
    assert total == 0.0
    assert all(v == 0.0 for v in parts.values())


def test_total_energy_parts_sum_exactly(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    total, parts = _energy(s, reg, p)
    assert total == sum(parts.values())
    assert all(v >= 0.0 for v in parts.values())


def test_frank_energy_gauge_invariance(grid2d):
    """Adding a constant to a director component leaves the gradient part."""
    p = PhysParams()
    reg = RegParams(n_modes=4)
    s = bump_state(grid2d)
    _, parts = _energy(s, reg, p)
    shifted = s.d.copy()
    shifted[0] += 0.7
    s2 = sv.State(grid2d, s.t, s.rho, s.U, s.theta, shifted)
    _, parts2 = _energy(s2, reg, p)
    assert parts2["frank"] == pytest.approx(parts["frank"], rel=1e-12)
    assert parts2["penalty"] != pytest.approx(parts["penalty"], rel=1e-3)


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

def _budget(s_prev, s_next, reg, p, dt):
    """The audit's defect of one step, read off its two states and their
    records, as a run loop makes them."""
    return dg.energy_budget_residual(
        s_prev, dg.make_record(s_prev, reg, p),
        s_next, dg.make_record(s_next, reg, p, dt=dt), reg, p, dt)


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
    e0, _ = _energy(s0, reg, p)
    cfg = sv.SolverConfig(dt=1e-3, t_end=5e-3)
    states, records = run_lists(s0, reg, cfg, p)
    for k in range(1, len(states)):
        r = _budget(states[k - 1], states[k], reg, p, records[k].dt)
        assert r <= 1e-8 * e0


def test_budget_reads_the_records_energies(grid2d):
    """On a stepped pair, the defect reads E(prev), E(next) and the
    viscous dissipation off the two records: raising the later record's
    energy by dt raises the defect by 1, raising its viscous dissipation
    by 1 raises it by delta, and the records' energies are those taken law
    by law (``reference_record``)."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s0 = bump_state(grid2d)
    s1, rec = sv.step_coupled(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.0),
                              p)
    diag0 = dg.make_record(s0, reg, p)
    diag1 = dg.make_record(s1, reg, p, dt=rec.dt)
    got = dg.energy_budget_residual(s0, diag0, s1, diag1, reg, p, rec.dt)
    raised = replace(diag1, energy_total=diag1.energy_total + rec.dt)
    assert dg.energy_budget_residual(
        s0, diag0, s1, raised, reg, p, rec.dt) - got == pytest.approx(
            1.0, rel=1e-9)
    viscous = dict(diag1.dissipation_parts,
                   viscous=diag1.dissipation_parts["viscous"] + 1.0)
    raised = replace(diag1, dissipation_parts=viscous)
    assert dg.energy_budget_residual(
        s0, diag0, s1, raised, reg, p, rec.dt) - got == pytest.approx(
            reg.delta, rel=1e-9)
    for s, diag in ((s0, diag0), (s1, diag1)):
        want = reference_record(s, reg, p)["energy_total"]
        assert diag.energy_total == pytest.approx(want, rel=1e-13)
    assert got != 0.0


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
    e_next, _ = _energy(s_next, reg, p)
    e_prev, _ = _energy(s_prev, reg, p)
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
    parts = dg.make_record(s, reg, p).dissipation_parts
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
    dg.make_record(s, RegParams(), p, dt=1e-3)
    assert len(units) == 8 and sum(units) == 16


def _prepared(preset, grid, reg, amplitude):
    raw = presets.build(preset, grid, amplitude=amplitude)
    return sv.regularize_initial_data(grid, raw.rho, raw.rho * raw.u,
                                      raw.theta, raw.d, reg)


def _record_case(case, grid):
    """(state, reg, dt) of a record oracle: a stepped ``density-bump``
    state (uniform unit director, eps > 0, the density gradient handed over
    by the step), a stepped ``director-twist`` state (live director) or a
    state whose density vanishes on part of the grid."""
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    if case == "vacuum":
        s = bump_state(grid)
        return sv.State(grid, 0.0, np.maximum(s.rho - 1.2, 0.0), s.U,
                        s.theta, s.d), reg, None
    preset, amplitude = {"bump": ("density-bump", 0.4),
                         "twist": ("director-twist", 0.6)}[case]
    s, _ = sv.step_coupled(_prepared(preset, grid, reg, amplitude), reg,
                           sv.SolverConfig(dt=1e-3, t_end=1.0), PhysParams())
    return s, reg, 1e-3


@pytest.mark.parametrize("case", ["bump", "twist", "vacuum"])
def test_record_matches_the_laws_one_by_one(grid2d, case):
    """Every column of a record is the sum its laws give when each is
    evaluated on its own from the ``constitutive`` functions on full nodal
    arrays (``reference_record``), within 1e-13 relative; the production
    minimum, which may sit near zero, within 1e-13 of the production's
    quadrature."""
    s, reg, dt = _record_case(case, grid2d)
    p = PhysParams()
    if case == "bump":
        assert s.uniform_d
    elif case == "vacuum":
        assert (s.rho == 0.0).any() and (s.rho > 0.0).any()
    row = dict(zip(dg.CSV_COLUMNS, dg._record_row(
        dg.make_record(s, reg, p, dt=dt))))
    want = reference_record(s, reg, p, dt=dt)
    for key in dg.CSV_COLUMNS[1:]:
        if key == "entropy_production_min":
            scale = 1.0 + abs(want["entropy_production"])
            assert abs(row[key] - want[key]) <= 1e-13 * scale, key
        else:
            assert row[key] == pytest.approx(want[key], rel=1e-13,
                                             abs=0.0), key


def test_uniform_director_costs_the_record_one_node(monkeypatch):
    """The record of a stepped ``density-bump`` state, whose unit
    director is uniform, evaluates the director laws at one node: every
    array passed to ``gl_force`` and ``gl_potential`` holds 3 values, on
    the 128^2 grid of the ``run-bump-128`` benchmark."""
    grid = Grid((128, 128), (2.0, 2.0))
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s, _ = sv.step_coupled(_prepared("density-bump", grid, reg, 0.4), reg,
                           sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    sizes = {"gl_force": [], "gl_potential": []}
    for name, seen in sizes.items():
        inner = getattr(cst, name)

        def counted(d, sigma0, inner=inner, seen=seen):
            seen.append(np.size(d))
            return inner(d, sigma0)

        monkeypatch.setattr(cst, name, counted)
    rec = dg.make_record(s, reg, p, dt=1e-3)
    assert sizes == {"gl_force": [3], "gl_potential": [3]}
    assert rec.energy_parts["frank"] == 0.0
    assert rec.energy_parts["penalty"] == 0.0
    assert rec.dissipation_parts["director"] == 0.0


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _entropy_total(s):
    return dg.make_record(s, RegParams(n_modes=1), PhysParams()).entropy_total


def test_entropy_total_constant_pin(grid2d):
    s = equilibrium_state(grid2d, rho=np.e, theta=1.0)
    assert _entropy_total(s) == pytest.approx(-np.e * 4.0, rel=1e-13)


def test_entropy_total_vacuum_convention(grid2d):
    """rho log rho -> 0: a density vanishing on half the nodes adds
    nothing there, at theta = 1 (the record needs theta > 0)."""
    s = equilibrium_state(grid2d, rho=0.0, theta=1.0)
    assert _entropy_total(s) == 0.0
    rho = np.where(grid2d.mesh()[0] < 1.0, np.e, 0.0)
    half = sv.State(grid2d, 0.0, rho, s.U, s.theta, s.d)
    assert _entropy_total(half) == pytest.approx(-np.e * 2.0, rel=1e-13)


def test_entropy_production_requires_positive_theta(grid2d):
    s, p = equilibrium_state(grid2d, theta=0.0), PhysParams()
    with pytest.raises(NonPositiveTemperature):
        dg.make_record(s, RegParams(n_modes=1), p)


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
    lo, hi = (dg.make_record(equilibrium_state(grid2d, rho=rho), reg, p,
                             dt=1.0).pressure_weight_increment
              for rho in (1.0, 1.5))
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
    """Names in order, the constant first, and per axis a one read-only
    (modes, 1 + 2 dim, N_a) factor stack, 3 (1 + 2 dim) sum_a N_a floats
    in all, on a square, a non-square and a 1-D grid.  Each entry's outer
    product over the axes is the mode's psi sampled on the mesh,
    ``plan.grad(psi)`` and the mass flux's sine projection of that
    gradient (``solver._mass_flux``), within 4 N ulps of the entry's
    largest value: the round-off of an N-term matrix product summed in
    another order."""
    two = ("cos00", "cos01", "cos10")
    for grid, want_names in ((grid2d, two),
                             (Grid((32, 16), (2.0, 1.0)), two),
                             (Grid((32,), (2.0,)), ("cos0", "cos1", "cos2"))):
        dim = grid.dim
        names, factors = dg.cosine_battery(grid)
        assert names == want_names
        assert [f.shape for f in factors] == [(3, 1 + 2 * dim, n)
                                              for n in grid.shape]
        assert not any(f.flags.writeable for f in factors)
        assert sum(f.nbytes for f in factors) \
            <= 8 * 3 * (1 + 2 * dim) * sum(grid.shape)
        for ax, f in enumerate(factors):
            assert np.all(f[0, 0] == 1.0) and not f[0, 1 + ax].any()
        plan = spectral_plan(grid)
        ulps = 4 * max(grid.shape) * np.finfo(float).eps
        for i, (name, psi, grad) in enumerate(cosine_modes(grid)):
            assert name == names[i]
            want = np.concatenate(
                [psi[None], grad, sv._mass_flux(plan, 1.0, grad)])
            entry = factors[0][i]
            for f in factors[1:]:
                entry = entry[:, :, None] * f[i][:, None, :]
            for got_j, want_j in zip(entry, want):
                largest = np.abs(want_j).max()
                assert np.abs(got_j - want_j).max() <= ulps * largest, name


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
    """The test functions' gradients take no ``deriv`` (the battery applies
    the per-axis derivative matrix to each mode's factor once per run),
    grad rho' none either, and div u none: the audit reads
    |grad rho'|^2, and grad b(rho') = grad rho' of the ``identity`` id,
    off the grad rho' the step handed to the new state
    (``State.grad_rho``), and div u off the Galerkin gradient of the
    step's velocity table.  At 2-D with m ids other than ``identity`` and
    k steps the audit takes
      2 m k   per step and id: grad b(rho') 2
    which is 2 * 2 = 4 for two steps with ``T1`` and ``identity``
    (10 when the battery took its 3 functions x 2 axes by ``plan.grad``,
    8 when div u was taken of the nodal velocity, 8 when ``identity``
    took its own grad b(rho') too).  The ``identity`` rows are those of
    its own gradient, bit for bit."""
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
    assert len(calls) == steps * 2 * 1 == 4
    monkeypatch.undo()
    for b_id in ("T1", "identity"):
        assert [r[b_id] for r in rows] == renorm_rows(states, records,
                                                      reg.eps, b_id)


@pytest.mark.parametrize("b_id", ["identity", "T1"])
def test_renorm_contraction_matches_the_terms(grid2d, b_id):
    """Each residual, one contraction of the id's integrand stack with the
    battery's factors, is the sum of its separate quadratures
    (``reference_renorm_terms``) within N ulps of the largest of them,
    measured as the quadrature of its absolute integrand, on a bump run
    whose density crosses the truncation level of ``T1``: on the square
    grid, on a non-square one, whose two axes' factors differ in length,
    and on a 1-D grid.  The reference takes its own nodal psi and
    ``plan.grad(psi)``, whose round-off grows with N (see
    ``test_cosine_battery_fixed_order``); the largest gap seen is about 5
    ulps at N = 32 and 64."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    for grid in (grid2d, Grid((32, 16), (2.0, 1.0)), Grid((32,), (2.0,))):
        s0 = bump_state(grid, rho_base=1.5, rho_amp=1.0)
        states, records = run_lists(s0, reg, sv.SolverConfig(dt=1e-3,
                                                             t_end=3e-3), p)
        battery = dg.cosine_battery(grid)
        ulps = max(grid.shape) * np.finfo(float).eps
        for a, b, rec in zip(states, states[1:], records[1:]):
            got = dg.renormalized_continuity_residual(
                a, b, rec, reg.eps, (b_id,), battery)[b_id]
            terms = reference_renorm_terms(a, b, rec, reg.eps, b_id)
            assert list(got) == list(terms)
            for name, parts in terms.items():
                want = sum(value for value, _ in parts)
                largest = max(scale for _, scale in parts)
                assert abs(got[name] - want) <= ulps * largest, \
                    (grid, name)


def test_stream_residual_columns_are_the_audits(grid2d, tmp_path):
    """The run loop writes one ``res_*`` column per distinct id, 0 for the
    first state; every later row's are the largest |residual| of a direct
    audit of its step's pair of states against one battery, bit for bit."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("director-twist", grid2d, amplitude=0.6)
    s0 = sv.regularize_initial_data(grid2d, raw.rho, raw.rho * raw.u,
                                    raw.theta, raw.d, reg)
    ids = ("identity", "T1", "T2", "T4", "T1")
    path = tmp_path / "diagnostics.csv"
    pairs = [(s, rec) for s, rec, _ in dg.stream(
        s0, reg, sv.SolverConfig(dt=1e-3, t_end=3e-3), p, path, ids)]
    distinct = list(dict.fromkeys(ids))
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    assert header[len(dg.CSV_COLUMNS):] == [f"res_{b}" for b in distinct]
    rows = [line.split(",")[len(dg.CSV_COLUMNS):] for line in lines[2:]]
    assert len(rows) == 4 and rows[0] == ["0"] * len(distinct)
    battery = dg.cosine_battery(grid2d)
    for (a, _), (b, rec), row in zip(pairs, pairs[1:], rows[1:]):
        audit = dg.renormalized_continuity_residual(
            a, b, rec, reg.eps, distinct, battery)
        assert row == [dg.format_float(max(abs(v) for v in audit[i].values()))
                       for i in distinct]


def test_renorm_unknown_kernel_rejected():
    """Only a finite truncation level k > 0 makes a truncation id."""
    for kind in ("T3x", "T0", "T-1", "Tinf", "T1e999", "Tnan"):
        with pytest.raises(KeyError):
            dg._truncation_triple(kind)


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
