"""Substep and diagnostic results against scipy's ODE and quadrature
solvers.  The only test file that imports scipy, so that every other file
runs on a numpy-only install."""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from nlcflow import diagnostics as dg
from nlcflow.fields import Grid
from nlcflow.params import PhysParams, RegParams
from nlcflow import solver as sv

from conftest import (director_step, equilibrium_state, heat_step,
                      reference_record, unit_director)


def test_director_relaxation_ode_oracle(grid2d):
    """Spatially uniform director against the scalar relaxation equation."""
    sigma0 = 1.0
    eta0 = 1e-3
    dt, T = 1e-3, 0.1
    u = np.zeros((2,) + grid2d.shape)
    d = unit_director(grid2d, eta0)
    steps = int(round(T / dt))
    for _ in range(steps):
        d = director_step(grid2d, d, u, dt, PhysParams(penalty_scale=sigma0))
    eta_num = float(d[0].flat[0])
    sol = solve_ivp(lambda t, y: -(y ** 2 - 1.0) * y / sigma0 ** 2,
                    (0.0, T), [eta0], rtol=1e-12, atol=1e-14)
    assert abs(eta_num - sol.y[0, -1]) < 1e-6


def test_temperature_sink_vs_ode(grid2d):
    reg = RegParams(eps=0.0, delta=0.05, beta=5.0, n_modes=4)
    p = PhysParams(cond_growth=2)
    dt = 1e-4
    s = equilibrium_state(grid2d, rho=1.0, theta=2.0)
    th1 = heat_step(s, s.u, reg, dt, p)
    sol = solve_ivp(
        lambda t, y: -reg.delta * y ** 3 / (reg.delta + 1.0),
        (0.0, dt), [2.0], rtol=1e-12, atol=1e-14)
    assert abs(float(th1.flat[0]) - sol.y[0, -1]) < 1e-8


def test_entropy_production_quadrature_oracle():
    grid = Grid((64,), (2.0,))
    p = PhysParams(cond_floor=0.5, cond_growth=2)
    theta = 1.0 + 0.5 * np.cos(np.pi * grid.axis_nodes[0] / 2.0)
    s = sv.State(grid, 0.0, np.ones(grid.shape), np.zeros((1, 1)), theta,
                 unit_director(grid))
    reg = RegParams(n_modes=1)
    mn = dg.make_record(s, reg, p).entropy_production_min
    total = reference_record(s, reg, p)["entropy_production"]

    def integrand(x):
        th = 1.0 + 0.5 * np.cos(np.pi * x / 2.0)
        dth = -0.5 * (np.pi / 2.0) * np.sin(np.pi * x / 2.0)
        return 0.5 * (1.0 + th ** 2) * dth ** 2 / th ** 2

    oracle, _ = quad(integrand, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)
    assert total == pytest.approx(oracle, abs=1e-9)
    assert mn >= 0.0
    assert mn == pytest.approx(float(integrand(grid.axis_nodes[0]).min()),
                               abs=1e-12)
