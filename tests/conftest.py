import numpy as np
import pytest

from nlcflow.fields import (Grid, ScalarField, VectorField, constant_field,
                            from_function, neumann, dirichlet)
from nlcflow.params import PhysParams, RegParams
from nlcflow import solver as sv


@pytest.fixture
def grid2d():
    return Grid((32, 32), (2.0, 2.0))


def equilibrium_state(grid, rho=1.0, theta=1.0):
    u = VectorField.velocity(
        [constant_field(grid, 0.0, dirichlet(grid.dim))
         for _ in range(grid.dim)])
    d = VectorField.director([constant_field(grid, 1.0),
                              constant_field(grid, 0.0),
                              constant_field(grid, 0.0)])
    return sv.State(0.0, constant_field(grid, rho),
                    u, constant_field(grid, theta), d)


def bump_state(grid, n_modes=8, rho_base=1.0, rho_amp=0.5, u_amp=0.05):
    """Smooth perturbed state used by the regression runs."""
    Ls = grid.extents
    mesh = grid.mesh()
    rho = from_function(grid, lambda *xs: rho_base + rho_amp * np.prod(
        [np.cos(np.pi * x / L) for x, L in zip(xs, Ls)], axis=0))
    theta = from_function(grid, lambda *xs: 1.0
                          + 0.25 * np.cos(np.pi * xs[-1] / Ls[-1]))
    basis = sv.GalerkinBasis(grid, n_modes)
    U = np.zeros((n_modes, grid.dim))
    U[0, 0] = u_amp
    if n_modes > 1 and grid.dim > 1:
        U[1, 1] = -0.6 * u_amp
    u = VectorField.from_values("velocity", grid, basis.reconstruct(U))
    ang = 0.3 * np.cos(np.pi * mesh[0] / Ls[0])
    d = VectorField.director([
        ScalarField(grid, neumann(grid.dim), np.cos(ang)),
        ScalarField(grid, neumann(grid.dim), np.sin(ang)),
        constant_field(grid, 0.0),
    ])
    return sv.State(0.0, rho, u, theta, d)
