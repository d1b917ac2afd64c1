import math

import numpy as np
import pytest

from nlcflow import constitutive as cst
from nlcflow.fields import SIN, Grid, integrate_values, spectral_plan
from nlcflow import diagnostics as dg
from nlcflow.params import PhysParams
from nlcflow import solver as sv


@pytest.fixture
def grid2d():
    return Grid((32, 32), (2.0, 2.0))


def director_gradient(s):
    """The gradient stack of the director of ``s``, the one derivative
    ``diagnostics.total_energy`` reads."""
    return spectral_plan(s.grid).grad(s.d)


def sine_gradient(plan, values):
    """Gradient stack ``(dim, ...)`` of an all-sine array (or stack), such
    as a nodal velocity: entry a is its derivative along axis a."""
    return np.stack([plan.deriv(values, a, SIN) for a in range(plan.dim)])


def director_step(grid, d, u, dt, p=PhysParams()):
    """The director substep from ``d`` with lagged velocity ``u``."""
    plan = spectral_plan(grid)
    d_new, *_ = sv._director_update(plan, d, u, plan.grad(d), dt, p)
    return d_new


def heat_step(s, u, reg, dt, p):
    """One heat substep from ``s`` with lagged velocity ``u``; the director
    of every state used here is a unit constant, so it heats nothing."""
    plan = spectral_plan(s.grid)
    rho = s.rho
    frozen = sv._FrozenHeat(plan, s.theta, rho, reg, p, dt)
    m = sv._mass_flux(plan, rho, u)
    return sv._temperature_update(frozen, rho, sine_gradient(plan, u), m,
                                  np.zeros(s.grid.shape), reg, p, dt,
                                  s.theta)[0]


def unit_director(grid, first=1.0):
    """Director stack (first, 0, 0) of constant components."""
    d = np.zeros((3,) + grid.shape)
    d[0] = first
    return d


def equilibrium_state(grid, rho=1.0, theta=1.0):
    return sv.State(grid, 0.0, np.full(grid.shape, float(rho)),
                    np.zeros((1, grid.dim)),
                    np.full(grid.shape, float(theta)), unit_director(grid))


def bump_state(grid, n_modes=8, rho_base=1.0, rho_amp=0.5, u_amp=0.05):
    """Smooth perturbed state used by the regression runs."""
    Ls = grid.extents
    mesh = grid.mesh()
    rho = rho_base + rho_amp * np.prod(
        [np.cos(np.pi * x / L) for x, L in zip(mesh, Ls)], axis=0)
    theta = 1.0 + 0.25 * np.cos(np.pi * mesh[-1] / Ls[-1])
    U = np.zeros((n_modes, grid.dim))
    U[0, 0] = u_amp
    if n_modes > 1 and grid.dim > 1:
        U[1, 1] = -0.6 * u_amp
    ang = 0.3 * np.cos(np.pi * mesh[0] / Ls[0])
    d = np.stack([np.cos(ang), np.sin(ang), np.zeros(grid.shape)])
    return sv.State(grid, 0.0, rho, U, theta, d)


def trajectory_records(pairs, reg, p):
    """DiagRecords of the ``(state, record)`` pairs of a run."""
    return [dg.make_record(s, dg.derivatives(s, p), reg, p,
                           dt=None if rec is None else rec.dt)
            for s, rec in pairs]


def read_csv(path):
    """Parse a CSV written by ``solve``: (column names, rows of floats).
    Every row must have one float per column."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    assert all(len(row) == len(names) for row in rows)
    return names, rows


def run_lists(s0, reg, cfg, p, **kwargs):
    """The whole trajectory of ``solver.run`` as (states, records) lists,
    ``records[k]`` being the StepRecord of the step ending at ``states[k]``
    (None for the initial state)."""
    states, records = [], []
    for s, rec in sv.run(s0, reg, cfg, p, **kwargs):
        states.append(s)
        records.append(rec)
    return states, records


def renorm_rows(states, records, eps, b_id, p):
    """Per-step renormalized-residual rows of one id over a trajectory."""
    battery = dg.cosine_battery(states[0].grid)
    return [dg.renormalized_continuity_residual(
                a, b, dg.derivatives(b, p), rec, eps, (b_id,),
                battery)[b_id]
            for a, b, rec in zip(states, states[1:], records[1:])]


def residual_series_max(rows):
    """Max |residual| over tests for each step, and the overall max."""
    per_step = [max(abs(v) for v in row.values()) for row in rows]
    return per_step, (max(per_step) if per_step else 0.0)


def weak_series(states, records, reg, p):
    """Per-step weak-form residuals over a trajectory, as {id: series}."""
    grid = states[0].grid
    battery = (_sine_battery(grid), dg.cosine_battery(grid))
    series = {}
    for a, b, rec in zip(states, states[1:], records[1:]):
        for key, val in weak_form_residuals(a, b, rec, reg, p,
                                            battery).items():
            series.setdefault(key, []).append(val)
    return series


# ---------------------------------------------------------------------------
# oracles the package itself does not need
# ---------------------------------------------------------------------------

class NonZeroMean(Exception):
    """Neumann Poisson problem fed a right-hand side with nonzero mean."""


def inverse_laplacian_neumann(grid, values):
    """Solve ``Laplacian(phi) = values`` for an all-cosine array with Neumann
    data and zero mean.

    Raises NonZeroMean unless ``integrate_values(grid, values)`` vanishes
    within ``1e-10 * max|values| * |Omega|``.
    """
    measure = float(np.prod(grid.extents))
    mean_tol = 1e-10 * max(float(np.abs(values).max()), 1e-300) * measure
    total = integrate_values(grid, values)
    if abs(total) > mean_tol:
        raise NonZeroMean(f"right-hand side has mean {total / measure:.3e}")
    plan = spectral_plan(grid)
    c = plan.forward(values)
    flat = c.reshape(-1)
    symf = plan.symbol.reshape(-1)
    out = np.zeros_like(flat)
    np.divide(flat[1:], -symf[1:], out=out[1:])  # zero-frequency slot stays 0
    return plan.inverse(out.reshape(c.shape))


def truncation_companion(z, k=1.0):
    """Companion L_k of ``constitutive.soft_truncation`` with
    L_k(z) = z log z below k; above k it continues so that
    z L_k'(z) - L_k(z) = T_k(z) everywhere."""
    zz = cst._clip_nonneg(z, "z")
    s = zz / k
    below = np.where(zz > 0.0, zz * np.log(np.where(zz > 0.0, zz, 1.0)), 0.0)
    s_safe = np.where(s > 0.0, s, 1.0)
    g_mid = 1.5 * np.log(s_safe) - 0.25 * s_safe + 0.25 / s_safe
    g_far = 1.5 * math.log(3.0) - 2.0 / s_safe
    g = np.where(s >= 3.0, g_far, g_mid)
    above = zz * math.log(k) + zz * g
    return np.where(s < 1.0, below, above)


def pressure(rho, theta, p):
    """Total pressure rho**gamma + R * rho * theta."""
    r = cst._clip_nonneg(rho, "rho")
    t = cst._clip_nonneg(theta, "theta")
    return r ** p.gamma + p.gas_const * r * t


def artificial_pressure(rho, delta, beta):
    """Stabilizing pressure delta * rho**beta (vanishes with delta)."""
    r = cst._clip_nonneg(rho, "rho")
    if delta == 0.0:
        return np.zeros_like(r)
    return delta * r ** beta


def viscous_stress(grad_u, p):
    """Newtonian stress mu*(G + G^T) + lam*tr(G)*I for G = grad u with
    layout G[a, c, ...] = d u_c / d x_a (any trailing point axes)."""
    g = np.asarray(grad_u, dtype=float)
    dim = g.shape[0]
    if g.shape[1] != dim:
        raise ValueError("grad_u must have shape (dim, dim, ...)")
    div = np.einsum("aa...->...", g)
    s = p.mu * (g + np.swapaxes(g, 0, 1))
    for a in range(dim):
        s[a, a] = s[a, a] + p.lam * div
    return s


def ericksen_stress(grad_d, potential):
    """Elastic director stress (grad d ⊙ grad d) - (|grad d|^2/2 + F) I with
    grad_d[a, k, ...] = d d_k / d x_a and F the potential values."""
    g = np.asarray(grad_d, dtype=float)
    dim = g.shape[0]
    out = np.einsum("ak...,bk...->ab...", g, g)
    iso = 0.5 * np.einsum("ak...,ak...->...", g, g) + np.asarray(potential)
    for a in range(dim):
        out[a, a] = out[a, a] - iso
    return out


def _sine_battery(grid, count=3):
    """The first ``count`` Galerkin velocity modes as (name, phi, [d_a phi])
    test functions of the momentum balance."""
    basis = sv.GalerkinBasis(grid, count)
    out = []
    for i, tpl in enumerate(basis.modes):
        unit = np.zeros((count, 1))
        unit[i, 0] = 1.0
        name = "sin" + "".join(str(m) for m in tpl)
        out.append((name, basis.reconstruct(unit)[0],
                    list(basis.gradient(unit)[:, 0])))
    return out


def weak_form_residuals(s_prev, s_next, rec, reg, p, battery):
    """Weak residuals of one step against the fixed test battery, as
    {residual id: value}; ``battery`` is the pair (:func:`_sine_battery`,
    ``diagnostics.cosine_battery``) of the grid, built once per run.

    Momentum residuals use the standalone conservative placements, so they
    decay first order in dt.  Heat and director residuals evaluate the
    step's own kernels at the accepted state (the lagged velocity is read
    off the step record) and stay at
    solver-tolerance level.  The heat entry pairs the nodal residual
    rhs - (c0 theta' - div(kappa grad theta')) of the solved balance with a
    positive test function, so its sign is that of the defect
    rhs-of-balance minus lhs and a one-sided check of the limiting
    inequality is possible.
    """
    grid = s_prev.grid
    dim = grid.dim
    plan = spectral_plan(grid)
    sin_tests, cos_tests = battery
    out = {}
    dt = rec.dt
    rho_n, rho_p = s_prev.rho, s_next.rho
    th_p = s_next.theta
    u_lag = sv.galerkin_basis(grid, len(rec.U_lag)).reconstruct(rec.U_lag)

    # --- momentum against retained sine modes, one residual per mode
    grad_u_p = sine_gradient(plan, s_next.u)
    stress = viscous_stress(grad_u_p, p)
    press = pressure(rho_p, th_p, p) \
        + artificial_pressure(rho_p, reg.delta, reg.beta)
    d_vals = s_next.d
    grad_d = plan.grad(d_vals)
    erick = ericksen_stress(
        grad_d, cst.gl_potential(d_vals, p.penalty_scale))
    grad_rho_p = plan.grad(rho_p)
    for name, phi, gphi in sin_tests:
        worst = 0.0
        for c in range(dim):
            val = integrate_values(
                grid, (rho_p * s_next.u[c] - rho_n * s_prev.u[c]) / dt * phi)
            for a in range(dim):
                val -= integrate_values(
                    grid, rho_n * s_prev.u[c] * s_prev.u[a] * gphi[a])
                val += integrate_values(grid, stress[a, c] * gphi[a])
                val -= p.elastic_coupling * integrate_values(
                    grid, erick[a, c] * gphi[a])
                if reg.eps > 0:
                    val += reg.eps * integrate_values(
                        grid, grad_u_p[a, c] * grad_rho_p[a] * phi)
            val -= integrate_values(grid, press * gphi[c])
            worst = max(worst, abs(val))
        out[f"mom_{name}"] = worst

    # --- heat: signed defect of the solved discrete balance
    heat = sv._FrozenHeat(plan, s_prev.theta, rho_n, reg, p, dt)
    m = sv._mass_flux(plan, rho_n, u_lag)
    d_prev = s_prev.d
    w = sv._director_transport(plan, u_lag, plan.grad(d_prev))
    gtilde = sv._director_relaxation(d_vals, d_prev, w, dt, p)
    c0, rhs = sv._heat_system(heat, rho_p,
                              sine_gradient(plan, u_lag), m,
                              np.sum(gtilde * gtilde, axis=0), reg, p,
                              dt)
    defect = rhs - heat.apply(c0, th_p)
    for name, psi, _ in cos_tests:
        shifted = 1.0 + 0.5 * psi / max(1.0, float(np.abs(psi).max()))
        out[f"heat_{name}"] = integrate_values(grid, defect * shifted)

    # --- director: exact discrete balance against the cosine battery
    f_pair = cst.gl_force_two_point(d_prev, d_vals, p.penalty_scale)
    for name, psi, grad_psi in cos_tests:
        worst = 0.0
        for k in range(3):
            val = integrate_values(
                grid, ((d_vals[k] - d_prev[k]) / dt + w[k]) * psi)
            for a in range(dim):
                val += p.relax_rate * integrate_values(
                    grid, grad_d[a, k] * grad_psi[a])
            val += p.relax_rate * integrate_values(
                grid, f_pair[k] * psi)
            worst = max(worst, abs(val))
        out[f"dir_{name}"] = worst
    return out
