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
from .fields import (COS, SIN, Grid, _strip_sine_nyquist, dirichlet,
                     evaluate, integrate_values, neumann, spectral_plan)
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
    """The manufactured fields sampled on ``grid`` at time ``t``; the
    sampled velocity loses its sine Nyquist mode, as stored sine data
    must."""
    mesh = grid.mesh()
    u = _strip_sine_nyquist(np.stack([fc(mesh, t) for fc in case.u]),
                            dirichlet(grid.dim), grid)
    return sv.State(grid, t, case.rho(mesh, t), u, case.theta(mesh, t),
                    np.stack([fc(mesh, t) for fc in case.d]))


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
        total = total + evaluate(grid_from, arr, parity, coords)
    return total


def _density_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    cos_par = frozenset()
    terms = []
    if case.drho_dt is not None:
        terms.append((case.drho_dt(grid.mesh(), t), _term_parity(grid, cos_par)))
    plan = spectral_plan(grid)
    m = sv._mass_flux(plan, s.rho, s.u, dealias_on)
    for b in range(grid.dim):
        terms.append((plan.deriv(m[b], b, SIN),
                      _term_parity(grid, frozenset(range(grid.dim)) - {b})))
    if reg.eps > 0:
        terms.append((-reg.eps * plan.laplacian(s.rho, neumann(grid.dim)),
                      _term_parity(grid, cos_par)))
    return terms


def _temperature_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    mesh = grid.mesh()
    dim = grid.dim
    cos_par = _term_parity(grid, frozenset())
    terms = []
    if case.dtheta_dt is not None:
        dth = (reg.delta + s.rho) * case.dtheta_dt(mesh, t)
        terms.append((dth, cos_par))
    if case.drho_dt is not None:
        terms.append((case.drho_dt(mesh, t) * s.theta, cos_par))
    plan = spectral_plan(grid)
    u = s.u
    m = sv._mass_flux(plan, s.rho, u, dealias_on)
    for b, term in enumerate(sv._heat_convection(plan, s.theta, m,
                                                 dealias_on)):
        terms.append((term, _term_parity(grid, frozenset(range(dim)) - {b})))
    if reg.delta > 0:
        terms.append((reg.delta * np.maximum(s.theta, 0.0)
                      ** (p.cond_growth + 1.0), cos_par))
    # R rho theta div u and the stress-power heating, term by term so each
    # addend carries a definite parity
    grad_u = sv._velocity_gradient(plan, u)
    q = s.rho * s.theta
    for b in range(dim):
        terms.append((p.gas_const * q * grad_u[b, b],
                      _term_parity(grid, frozenset(range(dim)) - {b})))
    kappa = cst.heat_conductivity(s.theta, p)
    terms.append((sv._conduction_apply(plan, s.theta, kappa), cos_par))
    if any(fc is not _zero for fc in case.u):
        terms.append((-(1.0 - reg.delta) * cst.stress_power(grad_u, p),
                      _term_parity(grid, frozenset())))
    return terms


def _director_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    plan = spectral_plan(grid)
    force = cst.gl_force(s.d, p.penalty_scale)
    out = []
    for k in range(3):
        lap = plan.laplacian(s.d[k], neumann(grid.dim))
        terms = [(-p.relax_rate * (lap - force[k]),
                  _term_parity(grid, frozenset()))]
        out.append(terms)
    return out


def _momentum_terms(case, grid, reg, p, t, dealias_on):
    s = analytic_state(case, grid, t)
    mesh = grid.mesh()
    dim = grid.dim
    plan = spectral_plan(grid)
    rho = s.rho
    out = []
    if case.kind == "temporal":
        # full force assembly on the run grid; single mixed-parity array is
        # fine because no restriction will happen
        u = s.u
        grad_u = sv._velocity_gradient(plan, u)
        m = sv._mass_flux(plan, rho, u, dealias_on)
        gtilde = np.zeros((3,) + grid.shape)
        force = sv._momentum_forces(plan, u, grad_u, rho, rho, m, s.theta,
                                    sv._director_gradient(plan, s.d),
                                    gtilde, reg, p, dealias_on)
        div_u = sum(grad_u[a, a] for a in range(dim))
        for c in range(dim):
            arr = rho * case.du_dt[c](mesh, t)
            arr -= p.mu * plan.laplacian(u[c], dirichlet(dim))
            arr -= (p.mu + p.lam) * plan.deriv(div_u, c, COS)
            arr -= force[c]
            out.append([(arr, None)])
        return out
    # spatial (steady, quiescent): only the pressure-gradient forces remain
    bp = cst.convex_pressure_enthalpy(rho, p.gamma)
    if reg.delta > 0:
        bp = bp + reg.delta * cst.convex_pressure_enthalpy(rho, reg.beta)
    q = rho * s.theta
    for c in range(dim):
        par = _term_parity(grid, frozenset({c}))
        terms = [
            (rho * plan.deriv(bp, c, COS), par),
            (p.gas_const * plan.deriv(q, c, COS), par),
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


def _l2(grid, a, b):
    return float(np.sqrt(integrate_values(grid, (a - b) ** 2)))


def solution_errors(case, state, reference):
    """L2 errors of a computed state against the manufactured fields."""
    grid = state.grid
    errs = {
        "rho": _l2(grid, state.rho, reference.rho),
        "theta": _l2(grid, state.theta, reference.theta),
        "u": max(_l2(grid, state.u[c], reference.u[c])
                 for c in range(grid.dim)),
        "d": max(_l2(grid, state.d[k], reference.d[k]) for k in range(3)),
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
    cfg = sv.SolverConfig(dt=dt, t_end=t_end, dealias=dealias_on)
    for last, _ in sv.run(analytic_state(case, grid, 0.0), use_reg, cfg, p,
                          sources=sources):
        pass
    return solution_errors(case, last, analytic_state(case, grid, last.t))


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
