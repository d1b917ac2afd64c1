"""Manufactured-solution harness.

Closed-form fields are injected into the discrete system together with
source terms built by composing the solver's own spatial operators, so a
simulation started on the manufactured data measures pure discretization
error against a known answer.

The sources are one callable ``t -> (rho, momentum stack, theta, director
stack)`` (:func:`build_sources`); each assembly composes all four
equations' terms from one analytic state on the assembly grid.

Two study modes:

* temporal cases ("trig-1d", "trig-2d"): band-limited trigonometric fields
  with polynomial closures and a constant director.  Sources are assembled
  at every t on the run grid itself, which makes the manufactured fields
  an exact solution of the spatially discrete system; the measured error
  is the time discretization alone and must shrink first order in dt.
* spatial cases ("bump-1d", "bump-2d"): steady, quiescent (u* = 0) profiles
  driven by analytically non-band-limited bumps exp(w(cos(pi x/L) - 1)).
  Sources are assembled once, on the twice-refined grid, and restricted to
  the run grid by evaluating each term's interpolant (with its true
  per-axis parity) at the coarse nodes, so the defect left on the run grid
  is exactly the spatial truncation error of the run-grid operators.
  Doubling the resolution must shrink the error far faster than any fixed
  algebraic order.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .fields import COS, SIN, Grid, evaluate, integrate_values, spectral_plan
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


def analytic_state(case, grid, t, n_modes):
    """The manufactured fields sampled on ``grid`` at time ``t``, the
    velocity projected onto the ``n_modes`` Galerkin modes.  Every
    registered velocity is the lowest sine mode or zero, so the projection
    is exact to round-off."""
    mesh = grid.mesh()
    U = sv.galerkin_basis(grid, n_modes).project(
        np.stack([fc(mesh, t) for fc in case.u]))
    return sv.State(grid, t, case.rho(mesh, t), U, case.theta(mesh, t),
                    np.stack([fc(mesh, t) for fc in case.d]))


def _term_parity(grid, sin_axes):
    return tuple(SIN if a in sin_axes else COS for a in range(grid.dim))


def _restrict_terms(terms, grid_from, grid_to):
    """Sum term arrays, interpolating each with its own parity if needed."""
    same = grid_from == grid_to
    coords = [grid_to.axis_nodes[a] for a in range(grid_to.dim)]
    total = np.zeros(grid_to.shape)
    for arr, parity in terms:
        total = total + (arr if same
                         else evaluate(grid_from, arr, parity, coords))
    return total


def _density_terms(case, s, plan, reg):
    grid = s.grid
    cos_par = _term_parity(grid, frozenset())
    terms = []
    if case.drho_dt is not None:
        terms.append((case.drho_dt(grid.mesh(), s.t), cos_par))
    m = sv._mass_flux(plan, s.rho, s.u)
    for b in range(grid.dim):
        terms.append((plan.deriv(m[b], b, SIN),
                      _term_parity(grid, frozenset(range(grid.dim)) - {b})))
    if reg.eps > 0:
        terms.append((-reg.eps * plan.div(plan.grad(s.rho)), cos_par))
    return terms


def _temperature_terms(case, s, plan, reg, p):
    grid, t = s.grid, s.t
    mesh = grid.mesh()
    dim = grid.dim
    cos_par = _term_parity(grid, frozenset())
    terms = []
    if case.dtheta_dt is not None:
        dth = (reg.delta + s.rho) * case.dtheta_dt(mesh, t)
        terms.append((dth, cos_par))
    if case.drho_dt is not None:
        terms.append((case.drho_dt(mesh, t) * s.theta, cos_par))
    m = sv._mass_flux(plan, s.rho, s.u)
    for b, term in enumerate(sv._heat_convection(plan, s.theta, m)):
        terms.append((term, _term_parity(grid, frozenset(range(dim)) - {b})))
    if reg.delta > 0:
        terms.append((reg.delta * np.maximum(s.theta, 0.0)
                      ** (p.cond_growth + 1.0), cos_par))
    # R rho theta div u and the stress-power heating, term by term so each
    # addend carries a definite parity; grad u as the step takes it
    grad_u = sv.galerkin_basis(grid, len(s.U)).gradient(s.U)
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


def _director_terms(s, plan, p):
    par = _term_parity(s.grid, frozenset())
    force = cst.gl_force(s.d, p.penalty_scale)
    return [[(-p.relax_rate * (plan.div(plan.grad(s.d[k])) - force[k]),
              par)] for k in range(3)]


def _momentum_terms(case, s, plan, reg, p):
    grid, t = s.grid, s.t
    dim = grid.dim
    rho = s.rho
    out = []
    if case.kind == "temporal":
        # full force assembly on the run grid; single mixed-parity array is
        # fine because no restriction will happen
        u = s.u
        mesh = grid.mesh()
        grad_u = sv.galerkin_basis(grid, len(s.U)).gradient(s.U)
        m = sv._mass_flux(plan, rho, u)
        gtilde = np.zeros((3,) + grid.shape)
        force = sv._momentum_forces(plan, u, grad_u, rho, rho, m, s.theta,
                                    plan.grad(s.d), gtilde, reg, p)
        div_u = sum(grad_u[a, a] for a in range(dim))
        for c in range(dim):
            arr = rho * case.du_dt[c](mesh, t)
            # the sine Laplacian, d_a of d_a u_c summed over the axes
            arr -= p.mu * sum(plan.deriv(plan.deriv(u[c], a, SIN), a, COS)
                              for a in range(dim))
            arr -= (p.mu + p.lam) * plan.deriv(div_u, c, COS)
            arr -= force[c]
            out.append([(arr, None)])
        return out
    # spatial (steady, quiescent): only the pressure-gradient forces remain
    bp = sv._pressure_enthalpy(rho, reg, p)
    q = rho * s.theta
    for c in range(dim):
        par = _term_parity(grid, frozenset({c}))
        out.append([(rho * plan.deriv(bp, c, COS), par),
                    (p.gas_const * plan.deriv(q, c, COS), par)])
    return out


def _assemble(case, fine, grid, reg, p, t):
    """The sources ``(rho, momentum stack, theta, director stack)`` at
    ``t``: every term is composed from one analytic state on ``fine`` and
    restricted to ``grid``."""
    s = analytic_state(case, fine, t, reg.n_modes)
    plan = spectral_plan(fine)

    def restrict(terms):
        return _restrict_terms(terms, fine, grid)

    def stack(per_component):
        return np.stack([restrict(terms) for terms in per_component])

    return (restrict(_density_terms(case, s, plan, reg)),
            stack(_momentum_terms(case, s, plan, reg, p)),
            restrict(_temperature_terms(case, s, plan, reg, p)),
            stack(_director_terms(s, plan, p)))


def build_sources(case, grid, reg, p):
    """The manufactured sources on ``grid`` as one callable
    ``t -> (rho, momentum stack, theta, director stack)``.

    A temporal case assembles them on the run grid on every call (exact
    discrete cancellation); a spatial case assembles them once, on the
    twice-refined grid, and restricts them by parity-aware interpolation.
    """
    if case.kind != "spatial":
        return lambda t: _assemble(case, grid, grid, reg, p, t)
    fine = Grid([2 * n for n in grid.shape], grid.extents)
    steady = _assemble(case, fine, grid, reg, p, 0.0)
    return lambda t: steady


def _l2(grid, a, b):
    return float(np.sqrt(integrate_values(grid, (a - b) ** 2)))


def solution_errors(state, reference):
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


def run_case(case, n, reg, p, cfg):
    """Run the manufactured problem on n nodes per axis under the solver
    settings ``cfg`` (a SolverConfig: dt, t_end and the Picard controls)
    and return the error table entry (sources from :func:`build_sources`)."""
    grid = Grid((n,) * case.dim, (2.0,) * case.dim)
    sources = build_sources(case, grid, reg, p)
    for last, _ in sv.run(analytic_state(case, grid, 0.0, reg.n_modes), reg,
                          cfg, p, sources=sources):
        pass
    return solution_errors(last, analytic_state(case, grid, last.t,
                                                reg.n_modes))


def spatial_study(case, reg, p, resolutions, cfg):
    """Error at each resolution, every run under the solver settings
    ``cfg``, plus the coarse/fine ratio per field."""
    rows = [(n, run_case(case, n, reg, p, cfg)) for n in resolutions]
    ratios = {}
    for key in rows[0][1]:
        coarse, fine = rows[0][1][key], rows[-1][1][key]
        ratios[key] = coarse / fine if fine > 0 else float("inf")
    return {"rows": rows, "ratios": ratios}


def temporal_study(case, reg, p, dts, shape, cfg):
    """Error at each step size, every run under the solver settings ``cfg``
    with its dt replaced by the entry of ``dts``, plus observed orders
    between neighbours."""
    rows = [(dt, run_case(case, shape, reg, p, replace(cfg, dt=dt)))
            for dt in dts]
    orders = []
    for (dt0, e0), (dt1, e1) in zip(rows, rows[1:]):
        orders.append(np.log(e0["total"] / e1["total"]) / np.log(dt0 / dt1))
    return {"rows": rows, "orders": orders}
