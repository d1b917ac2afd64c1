"""Named initial-data families.

Each builder returns a State at t = 0 from three knobs (base, amplitude,
width) so config files can select initial data by name.  Closed forms:

equilibrium     rho = base, theta = base, u = 0, d = e1.
density-bump    rho = base + amplitude * prod_a cos(pi x_a / L_a),
                theta = 1 + amplitude/2 * cos(pi x_last / L_last),
                u = 0.1*amplitude on the lowest velocity mode and
                -0.06*amplitude on the next (second axis, 2-D only);
                width > 0 mollifies the density profile.
director-twist  rho = base, theta = 1, planar director
                d = (cos a, sin a, 0) with a = amplitude cos(pi x_0 / L_0)
                (unit length pointwise), u = 0.1*amplitude on the lowest
                mode; width > 0 mollifies the twist angle.
thermal-spot    rho = base, u = 0, d = e1,
                theta = 1 + amplitude * prod_a exp(width (cos(pi x_a/L_a)-1)).
"""

import numpy as np

from .fields import (ScalarField, VectorField, constant_field, dirichlet,
                     from_function, neumann, smooth)
from .solver import GalerkinBasis, State


def _unit_director(grid):
    return VectorField.director([
        constant_field(grid, 1.0),
        constant_field(grid, 0.0),
        constant_field(grid, 0.0),
    ])


def _zero_velocity(grid):
    return VectorField.velocity(
        [constant_field(grid, 0.0, dirichlet(grid.dim))] * grid.dim)


def _mode_velocity(grid, coeffs):
    """Velocity from {(mode_index, component): coefficient} on a small basis."""
    basis = GalerkinBasis(grid, 4)
    U = np.zeros((basis.n, grid.dim))
    for (i, c), val in coeffs.items():
        U[i, c] = val
    return VectorField.from_values("velocity", grid, basis.reconstruct(U))


def equilibrium(grid, base=1.0, amplitude=0.0, width=0.0):
    rho = constant_field(grid, base)
    theta = constant_field(grid, base)
    return State(0.0, rho, _zero_velocity(grid), theta, _unit_director(grid))


def density_bump(grid, base=1.0, amplitude=0.5, width=0.0):
    ext = grid.extents

    def rho_fn(*xs):
        out = np.ones_like(xs[0]) * base
        bump = np.ones_like(xs[0])
        for a, x in enumerate(xs):
            bump = bump * np.cos(np.pi * x / ext[a])
        return out + amplitude * bump

    rho = smooth(from_function(grid, rho_fn), width)
    theta = from_function(
        grid, lambda *xs: 1.0 + 0.5 * amplitude * np.cos(
            np.pi * xs[-1] / ext[-1]))
    coeffs = {(0, 0): 0.1 * amplitude}
    if grid.dim == 2:
        coeffs[(1, 1)] = -0.06 * amplitude
    u = _mode_velocity(grid, coeffs)
    return State(0.0, rho, u, theta, _unit_director(grid))


def director_twist(grid, base=1.0, amplitude=0.3, width=0.0):
    rho = constant_field(grid, base)
    theta = constant_field(grid, 1.0)
    angle = smooth(from_function(
        grid, lambda *xs: amplitude * np.cos(np.pi * xs[0] / grid.extents[0])),
        width)
    d = VectorField.director([
        ScalarField(grid, neumann(grid.dim), np.cos(angle.values)),
        ScalarField(grid, neumann(grid.dim), np.sin(angle.values)),
        constant_field(grid, 0.0),
    ])
    u = _mode_velocity(grid, {(0, 0): 0.1 * amplitude})
    return State(0.0, rho, u, theta, d)


def thermal_spot(grid, base=1.0, amplitude=0.5, width=3.0):
    ext = grid.extents

    def theta_fn(*xs):
        spot = np.ones_like(xs[0])
        for a, x in enumerate(xs):
            spot = spot * np.exp(width * (np.cos(np.pi * x / ext[a]) - 1.0))
        return 1.0 + amplitude * spot

    theta = from_function(grid, theta_fn)
    rho = constant_field(grid, base)
    return State(0.0, rho, _zero_velocity(grid), theta, _unit_director(grid))


PRESETS = {
    "equilibrium": equilibrium,
    "density-bump": density_bump,
    "director-twist": director_twist,
    "thermal-spot": thermal_spot,
}


def build(name, grid, base=1.0, amplitude=None, width=None):
    """Build the named preset; unknown names raise KeyError."""
    if name not in PRESETS:
        raise KeyError(f"unknown initial-data preset {name!r}")
    fn = PRESETS[name]
    kwargs = {"base": base}
    if amplitude is not None:
        kwargs["amplitude"] = amplitude
    if width is not None:
        kwargs["width"] = width
    return fn(grid, **kwargs)
