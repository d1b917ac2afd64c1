import numpy as np
import pytest

from nlcflow.fields import Grid
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
    ``records[k]`` being the ledger of the step ending at ``states[k]``."""
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
