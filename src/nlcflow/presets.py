"""Named initial-data families.

Each builder returns a State at t = 0 from two knobs (base, amplitude) so
config files can select initial data by name.  The velocity is a Galerkin
table: four modes, or one zero mode at rest.  Closed forms:

equilibrium     rho = base, theta = base, u = 0, d = e1.
density-bump    rho = base + amplitude * prod_a cos(pi x_a / L_a),
                theta = 1 + amplitude/2 * cos(pi x_last / L_last),
                u = 0.1*amplitude on the lowest velocity mode and
                -0.06*amplitude on the next (second axis, 2-D only).
director-twist  rho = base, theta = 1, planar director
                d = (cos a, sin a, 0) with a = amplitude cos(pi x_0 / L_0)
                (unit length pointwise), u = 0.1*amplitude on the lowest
                mode.
thermal-spot    rho = base, u = 0, d = e1,
                theta = 1 + amplitude * prod_a exp(3 (cos(pi x_a/L_a) - 1)).
"""

import numpy as np

from .solver import State


def _unit_director(grid):
    d = np.zeros((3,) + grid.shape)
    d[0] = 1.0
    return d


def _zero_velocity(grid):
    return np.zeros((1, grid.dim))


def _mode_velocity(grid, coeffs):
    """Four-mode table from {(mode_index, component): coefficient}."""
    U = np.zeros((4, grid.dim))
    for (i, c), val in coeffs.items():
        U[i, c] = val
    return U


def equilibrium(grid, base=1.0, amplitude=0.0):
    return State(grid, 0.0, np.full(grid.shape, float(base)),
                 _zero_velocity(grid), np.full(grid.shape, float(base)),
                 _unit_director(grid))


def density_bump(grid, base=1.0, amplitude=0.5):
    ext = grid.extents
    xs = grid.mesh()
    bump = np.ones_like(xs[0])
    for a, x in enumerate(xs):
        bump = bump * np.cos(np.pi * x / ext[a])
    rho = base + amplitude * bump
    theta = 1.0 + 0.5 * amplitude * np.cos(np.pi * xs[-1] / ext[-1])
    coeffs = {(0, 0): 0.1 * amplitude}
    if grid.dim == 2:
        coeffs[(1, 1)] = -0.06 * amplitude
    U = _mode_velocity(grid, coeffs)
    return State(grid, 0.0, rho, U, theta, _unit_director(grid))


def director_twist(grid, base=1.0, amplitude=0.3):
    angle = amplitude * np.cos(np.pi * grid.mesh()[0] / grid.extents[0])
    d = np.stack([np.cos(angle), np.sin(angle), np.zeros(grid.shape)])
    U = _mode_velocity(grid, {(0, 0): 0.1 * amplitude})
    return State(grid, 0.0, np.full(grid.shape, float(base)), U,
                 np.ones(grid.shape), d)


def thermal_spot(grid, base=1.0, amplitude=0.5):
    ext = grid.extents
    spot = np.ones(grid.shape)
    for a, x in enumerate(grid.mesh()):
        spot = spot * np.exp(3.0 * (np.cos(np.pi * x / ext[a]) - 1.0))
    return State(grid, 0.0, np.full(grid.shape, float(base)),
                 _zero_velocity(grid), 1.0 + amplitude * spot,
                 _unit_director(grid))


PRESETS = {
    "equilibrium": equilibrium,
    "density-bump": density_bump,
    "director-twist": director_twist,
    "thermal-spot": thermal_spot,
}


def build(name, grid, base=1.0, amplitude=None):
    """Build the named preset; unknown names raise KeyError."""
    if name not in PRESETS:
        raise KeyError(f"unknown initial-data preset {name!r}")
    fn = PRESETS[name]
    kwargs = {"base": base}
    if amplitude is not None:
        kwargs["amplitude"] = amplitude
    return fn(grid, **kwargs)
