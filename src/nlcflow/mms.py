"""Manufactured-solution harness.

Closed-form fields are injected into the discrete system together with
source terms built by composing the solver's own spatial operators, so a
simulation started on the manufactured data measures pure discretization
error against a known answer.

Two study modes:

* temporal cases ("trig-1d", "trig-2d"): band-limited trigonometric fields
  with polynomial closures and a constant director.  Sources are assembled
  on the run grid itself, which makes the manufactured fields an exact
  solution of the spatially discrete system; the measured error is the time
  discretization alone and must shrink first order in dt.
* spatial cases ("bump-1d", "bump-2d"): steady, quiescent (u* = 0) profiles
  driven by analytically non-band-limited bumps exp(w(cos(pi x/L) - 1)).
  Sources are assembled on a refined grid and restricted to the run grid by
  evaluating each term's interpolant (with its true per-axis parity) at the
  coarse nodes, so the defect left on the run grid is exactly the spatial
  truncation error of the run-grid operators.  Doubling the resolution must
  shrink the error far faster than any fixed algebraic order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import (COS, SIN, Grid, ScalarField, VectorField, constant_field,
                     deriv, dirichlet, divergence, evaluate, integrate_values,
                     laplacian, neumann)
from .params import PhysParams, RegParams
from . import constitutive as cst
from . import solver as sv


@dataclass(frozen=True)
class MMSCase:
    """Analytic fields (callables of (mesh, t)) plus exact time derivatives.

    ``kind`` is "temporal" (moving, band-limited) or "spatial" (steady,
    quiescent).  The director is time-independent in every registered case.
    """

    name: str
    dim: int
    kind: str
    rho: object
    u: tuple
    theta: object
    d: tuple
    drho_dt: object = None
    du_dt: tuple = None
    dtheta_dt: object = None


def _zero(mesh, t):
    return np.zeros_like(mesh[0])


def _make_trig_case(name, dim):
    om = np.pi

    def g(t):
        return 1.0 + 0.5 * np.sin(om * t)

    def gdot(t):
        return 0.5 * om * np.cos(om * t)

    def h(t):
        return np.cos(om * t)

    def hdot(t):
        return -om * np.sin(om * t)

    def cosx(mesh):
        out = np.ones_like(mesh[0])
        for x in mesh:
            out = out * np.cos(np.pi * x / 2.0)
        return out

    def sinx(mesh):
        out = np.ones_like(mesh[0])
        for x in mesh:
            out = out * np.sin(np.pi * x / 2.0)
        return out

    rho = lambda mesh, t: 1.0 + 0.3 * g(t) * cosx(mesh)
    drho = lambda mesh, t: 0.3 * gdot(t) * cosx(mesh)
    theta = lambda mesh, t: 1.0 + 0.2 * g(t) * np.cos(np.pi * mesh[-1] / 2.0)
    dtheta = lambda mesh, t: 0.2 * gdot(t) * np.cos(np.pi * mesh[-1] / 2.0)
    u = [lambda mesh, t: 0.05 * h(t) * sinx(mesh)]
    du = [lambda mesh, t: 0.05 * hdot(t) * sinx(mesh)]
    if dim == 2:
        u.append(lambda mesh, t: -0.03 * h(t) * sinx(mesh))
        du.append(lambda mesh, t: -0.03 * hdot(t) * sinx(mesh))
    d = (lambda mesh, t: np.ones_like(mesh[0]), _zero, _zero)
    return MMSCase(name=name, dim=dim, kind="temporal", rho=rho, u=tuple(u),
                   theta=theta, d=d, drho_dt=drho, du_dt=tuple(du),
                   dtheta_dt=dtheta)


def _make_bump_case(name, dim, width=4.0):
    def bump(mesh):
        out = np.ones_like(mesh[0])
        for x in mesh:
            out = out * np.exp(width * (np.cos(np.pi * x / 2.0) - 1.0))
        return out

    rho = lambda mesh, t: 1.0 + 0.3 * bump(mesh)
    theta = lambda mesh, t: 1.0 + 0.2 * bump(mesh)
    angle = lambda mesh: 0.25 * bump(mesh)
    d = (lambda mesh, t: np.cos(angle(mesh)),
         lambda mesh, t: np.sin(angle(mesh)),
         _zero)
    u = tuple(_zero for _ in range(dim))
    return MMSCase(name=name, dim=dim, kind="spatial", rho=rho, u=u,
                   theta=theta, d=d)


CASES = {
    "trig-1d": _make_trig_case("trig-1d", 1),
    "trig-2d": _make_trig_case("trig-2d", 2),
    "bump-1d": _make_bump_case("bump-1d", 1),
    "bump-2d": _make_bump_case("bump-2d", 2),
}


def get_case(name):
    if name not in CASES:
        known = ", ".join(sorted(CASES))
        raise ValidationError(f"unknown manufactured case {name!r}; one of: {known}")
    return CASES[name]


def analytic_state(case, grid, t):
    """The manufactured fields sampled on ``grid`` at time ``t``."""
    mesh = grid.mesh()
    rho = ScalarField(grid, neumann(grid.dim), case.rho(mesh, t))
    theta = ScalarField(grid, neumann(grid.dim), case.theta(mesh, t))
    u = VectorField.velocity([
        ScalarField(grid, dirichlet(grid.dim), fc(mesh, t))
        for fc in case.u])
    d = VectorField.director([
        ScalarField(grid, neumann(grid.dim), fc(mesh, t))
        for fc in case.d])
    return sv.State(t, rho, u, theta, d)


def _term_parity(grid, sin_axes):
    return tuple(SIN if a in sin_axes else COS for a in range(grid.dim))


def _restrict_terms(terms, grid_from, grid_to):
    """Sum term arrays, interpolating each with its own parity if needed."""
    if grid_from is grid_to or grid_from == grid_to:
        total = np.zeros(grid_to.shape)
        for arr, _ in terms:
            total = total + arr
        return total
    coords = [grid_to.axis_nodes[a] for a in range(grid_to.dim)]
    total = np.zeros(grid_to.shape)
    for arr, parity in terms:
        f = ScalarField(grid_from, parity, arr, project=False)
        total = total + evaluate(f, coords)
    return total


def _density_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    cos_par = frozenset()
    terms = []
    if case.drho_dt is not None:
        terms.append((case.drho_dt(grid.mesh(), t), _term_parity(grid, cos_par)))
    m = sv._mass_flux(s.rho, s.u, dealias_on)
    for b in range(grid.dim):
        terms.append((deriv(m[b], b).values,
                      _term_parity(grid, frozenset(range(grid.dim)) - {b})))
    if reg.eps > 0:
        terms.append((-reg.eps * laplacian(s.rho).values,
                      _term_parity(grid, cos_par)))
    return terms


def _temperature_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    mesh = grid.mesh()
    dim = grid.dim
    cos_par = _term_parity(grid, frozenset())
    terms = []
    if case.dtheta_dt is not None:
        dth = (reg.delta + s.rho.values) * case.dtheta_dt(mesh, t)
        terms.append((dth, cos_par))
    if case.drho_dt is not None:
        terms.append((case.drho_dt(mesh, t) * s.theta.values, cos_par))
    m = sv._mass_flux(s.rho, s.u, dealias_on)
    for b, term in enumerate(sv._heat_convection(s.theta, m, dealias_on)):
        terms.append((term, _term_parity(grid, frozenset(range(dim)) - {b})))
    if reg.delta > 0:
        terms.append((reg.delta * np.maximum(s.theta.values, 0.0)
                      ** (p.cond_growth + 1.0), cos_par))
    # R rho theta div u and the stress-power heating, term by term so each
    # addend carries a definite parity
    grad_u = sv._velocity_gradient(s.u)
    q = (s.rho * s.theta).values
    for b in range(dim):
        terms.append((p.gas_const * q * grad_u[b, b],
                      _term_parity(grid, frozenset(range(dim)) - {b})))
    kappa = cst.heat_conductivity(s.theta.values, p)
    terms.append((sv._conduction_apply(s.theta.values, kappa, grid),
                  cos_par))
    if any(fc is not _zero for fc in case.u):
        terms.append((-(1.0 - reg.delta) * cst.stress_power(grad_u, p),
                      _term_parity(grid, frozenset())))
    return terms


def _director_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    d_vals = np.stack([c.values for c in s.d])
    force = cst.gl_force(d_vals, p.penalty_scale)
    out = []
    for k in range(3):
        terms = [(-p.relax_rate * (laplacian(s.d[k]).values - force[k]),
                  _term_parity(grid, frozenset()))]
        out.append(terms)
    return out


def _momentum_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    mesh = grid.mesh()
    dim = grid.dim
    out = []
    if case.kind == "temporal":
        # full force assembly on the run grid; single mixed-parity array is
        # fine because no restriction will happen
        m = sv._mass_flux(s.rho, s.u, dealias_on)
        gtilde = np.zeros((3,) + grid.shape)
        force = sv._momentum_forces(s.u, sv._velocity_gradient(s.u), s.rho,
                                    s.rho, m, s.theta,
                                    sv._director_gradient(s.d), gtilde, reg,
                                    p, dealias_on)
        div_u = divergence(s.u)
        for c in range(dim):
            arr = s.rho.values * case.du_dt[c](mesh, t)
            arr -= p.mu * laplacian(s.u[c]).values
            arr -= (p.mu + p.lam) * deriv(div_u, c).values
            arr -= force[c]
            out.append([(arr, None)])
        return out
    # spatial (steady, quiescent): only the pressure-gradient forces remain
    bp = cst.convex_pressure_enthalpy(s.rho.values, p.gamma)
    if reg.delta > 0:
        bp = bp + reg.delta * cst.convex_pressure_enthalpy(s.rho.values,
                                                           reg.beta)
    bp_field = ScalarField(grid, neumann(dim), bp, project=False)
    q = s.rho * s.theta
    for c in range(dim):
        par = _term_parity(grid, frozenset({c}))
        terms = [
            (s.rho.values * deriv(bp_field, c).values, par),
            (p.gas_const * deriv(q, c).values, par),
        ]
        out.append(terms)
    return out


def build_sources(case, grid, reg, p, dealias_on=True, refine=1):
    """Per-equation source callables composed from the solver's operators.

    ``refine`` > 1 assembles on a grid with that many times the resolution
    and restricts by parity-aware interpolation (spatial studies); 1 uses
    the run grid itself (exact discrete cancellation, temporal studies).
    """
    if refine < 1:
        raise ValidationError("refine must be a positive integer")
    if refine == 1:
        fine = grid
    else:
        fine = Grid([n * refine for n in grid.shape], grid.extents)

    steady = case.kind == "spatial"
    cache = {}

    def density(t):
        key = ("rho", 0.0 if steady else t)
        if key not in cache:
            cache[key] = _restrict_terms(
                _density_terms(case, fine, reg, p, key[1], dealias_on),
                fine, grid)
        return cache[key]

    def temperature(t):
        key = ("theta", 0.0 if steady else t)
        if key not in cache:
            cache[key] = _restrict_terms(
                _temperature_terms(case, fine, reg, p, key[1], dealias_on),
                fine, grid)
        return cache[key]

    def momentum(t):
        key = ("u", 0.0 if steady else t)
        if key not in cache:
            per_comp = _momentum_terms(case, fine, reg, p, key[1], dealias_on)
            cache[key] = [_restrict_terms(terms, fine, grid)
                          if terms[0][1] is not None else terms[0][0]
                          for terms in per_comp]
        return cache[key]

    def director(t):
        key = ("d", 0.0 if steady else t)
        if key not in cache:
            per_comp = _director_terms(case, fine, reg, p, key[1], dealias_on)
            cache[key] = [_restrict_terms(terms, fine, grid)
                          for terms in per_comp]
        return cache[key]

    return sv.Sources(density=density, momentum=momentum,
                      temperature=temperature, director=director)


def mms_sources(case, p, reg, grid=None, t=0.0, dealias_on=True, refine=None):
    """Per-equation source arrays at one time level (dict of nodal data)."""
    if grid is None:
        grid = Grid((32,) * case.dim, (2.0,) * case.dim)
    if refine is None:
        refine = 2 if case.kind == "spatial" else 1
    src = build_sources(case, grid, reg, p, dealias_on, refine)
    return {
        "density": src.density(t),
        "momentum": src.momentum(t),
        "temperature": src.temperature(t),
        "director": src.director(t),
    }


def _l2(grid, a, b):
    return float(np.sqrt(integrate_values(grid, (a - b) ** 2)))


def solution_errors(case, state, reference):
    """L2 errors of a computed state against the manufactured fields."""
    grid = state.grid
    errs = {
        "rho": _l2(grid, state.rho.values, reference.rho.values),
        "theta": _l2(grid, state.theta.values, reference.theta.values),
        "u": max(_l2(grid, state.u[c].values, reference.u[c].values)
                 for c in range(grid.dim)),
        "d": max(_l2(grid, state.d[k].values, reference.d[k].values)
                 for k in range(3)),
    }
    errs["total"] = max(errs.values())
    return errs


def run_case(case, shape, reg, p, dt, t_end, dealias_on=True, refine=None,
             n_modes=None):
    """Run the manufactured problem and return the error table entry."""
    if isinstance(shape, int):
        shape = (shape,) * case.dim
    if len(shape) != case.dim:
        raise ValidationError(f"case {case.name} needs {case.dim} axis sizes")
    if refine is None:
        refine = 2 if case.kind == "spatial" else 1
    grid = Grid(shape, (2.0,) * case.dim)
    use_reg = reg if n_modes is None else RegParams(
        eps=reg.eps, delta=reg.delta, beta=reg.beta, n_modes=n_modes)
    sources = build_sources(case, grid, use_reg, p, dealias_on, refine)
    s0 = analytic_state(case, grid, 0.0)
    cfg = sv.SolverConfig(dt=dt, t_end=t_end, dealias=dealias_on)
    states, _ = sv.run(s0, use_reg, cfg, p, sources=sources)
    ref = analytic_state(case, grid, states[-1].t)
    return solution_errors(case, states[-1], ref)


def spatial_study(case, reg, p, resolutions=(16, 32), dt=5e-4, t_end=2e-2):
    """Error at each resolution plus the coarse/fine ratio per field."""
    rows = []
    for n in resolutions:
        rows.append((n, run_case(case, n, reg, p, dt, t_end)))
    ratios = {}
    for key in rows[0][1]:
        coarse, fine = rows[0][1][key], rows[-1][1][key]
        ratios[key] = coarse / fine if fine > 0 else float("inf")
    return {"rows": rows, "ratios": ratios}


def temporal_study(case, reg, p, dts=(4e-3, 2e-3, 1e-3), shape=32,
                   t_end=4e-2):
    """Error at each step size plus observed orders between neighbours."""
    rows = [(dt, run_case(case, shape, reg, p, dt, t_end)) for dt in dts]
    orders = []
    for (dt0, e0), (dt1, e1) in zip(rows, rows[1:]):
        orders.append(np.log(e0["total"] / e1["total"]) / np.log(dt0 / dt1))
    return {"rows": rows, "orders": orders}
