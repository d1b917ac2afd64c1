import math

import numpy as np
import pytest

from nlcflow import constitutive as cst
from nlcflow.fields import Grid, integrate_values, neumann, spectral_plan
from nlcflow.params import PhysParams, RegParams
from nlcflow import diagnostics as dg
from nlcflow import solver as sv


@pytest.fixture
def grid2d():
    return Grid((32, 32), (2.0, 2.0))


def unit_director(grid, first=1.0):
    """Director stack (first, 0, 0) of constant components."""
    d = np.zeros((3,) + grid.shape)
    d[0] = first
    return d


def equilibrium_state(grid, rho=1.0, theta=1.0):
    return sv.State(grid, 0.0, np.full(grid.shape, float(rho)),
                    np.zeros((grid.dim,) + grid.shape),
                    np.full(grid.shape, float(theta)), unit_director(grid))


def bump_state(grid, n_modes=8, rho_base=1.0, rho_amp=0.5, u_amp=0.05):
    """Smooth perturbed state used by the regression runs."""
    Ls = grid.extents
    mesh = grid.mesh()
    rho = rho_base + rho_amp * np.prod(
        [np.cos(np.pi * x / L) for x, L in zip(mesh, Ls)], axis=0)
    theta = 1.0 + 0.25 * np.cos(np.pi * mesh[-1] / Ls[-1])
    basis = sv.GalerkinBasis(grid, n_modes)
    U = np.zeros((n_modes, grid.dim))
    U[0, 0] = u_amp
    if n_modes > 1 and grid.dim > 1:
        U[1, 1] = -0.6 * u_amp
    ang = 0.3 * np.cos(np.pi * mesh[0] / Ls[0])
    d = np.stack([np.cos(ang), np.sin(ang), np.zeros(grid.shape)])
    return sv.State(grid, 0.0, rho, basis.reconstruct(U), theta, d)


def trajectory_records(pairs, reg, p):
    """DiagRecords of the ``(state, record)`` pairs of a run."""
    return [dg.make_record(s, reg, p, dt=None if rec is None else rec.dt)
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


def renorm_rows(states, records, eps, b_id):
    """Per-step renormalized-residual rows of one id over a trajectory."""
    battery = dg.cosine_battery(states[0].grid)
    return [dg.renormalized_continuity_residual(a, b, rec, eps, (b_id,),
                                                battery)[b_id]
            for a, b, rec in zip(states, states[1:], records[1:])]


def residual_series_max(rows):
    """Max |residual| over tests for each step, and the overall max."""
    per_step = [max(abs(v) for v in row.values()) for row in rows]
    return per_step, (max(per_step) if per_step else 0.0)


def weak_series(states, records, reg, p):
    """Per-step weak-form residuals over a trajectory, as {id: series}."""
    grid = states[0].grid
    battery = (dg._sine_battery(grid), dg.cosine_battery(grid))
    series = {}
    for a, b, rec in zip(states, states[1:], records[1:]):
        for key, val in dg.weak_form_residuals(a, b, rec, reg, p,
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
    mean_tol = 1e-10 * max(float(np.abs(values).max()), 1e-300) * grid.measure
    total = integrate_values(grid, values)
    if abs(total) > mean_tol:
        raise NonZeroMean(f"right-hand side has mean {total / grid.measure:.3e}")
    plan = spectral_plan(grid)
    parity = neumann(grid.dim)
    c = plan.forward(values, parity)
    flat = c.reshape(-1)
    symf = plan.symbol(parity).reshape(-1)
    out = np.zeros_like(flat)
    np.divide(flat[1:], -symf[1:], out=out[1:])  # zero-frequency slot stays 0
    return plan.inverse(out.reshape(c.shape), parity)


def truncation_companion(z, k=1.0):
    """Companion L_k of ``constitutive.soft_truncation`` with
    L_k(z) = z log z below k; above k it continues so that
    z L_k'(z) - L_k(z) = T_k(z) everywhere."""
    zz, zs = cst._wrap(z)
    zz = cst._clip_nonneg(zz, "z")
    s = zz / k
    below = np.where(zz > 0.0, zz * np.log(np.where(zz > 0.0, zz, 1.0)), 0.0)
    s_safe = np.where(s > 0.0, s, 1.0)
    g_mid = 1.5 * np.log(s_safe) - 0.25 * s_safe + 0.25 / s_safe
    g_far = 1.5 * math.log(3.0) - 2.0 / s_safe
    g = np.where(s >= 3.0, g_far, g_mid)
    above = zz * math.log(k) + zz * g
    return cst._unwrap(np.where(s < 1.0, below, above), zs)
