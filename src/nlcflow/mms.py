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
  the run grid by evaluating each equation's interpolant (with that
  equation's one per-axis parity) at the coarse nodes, so the defect left
  on the run grid is exactly the spatial truncation error of the run-grid
  operators.  Doubling the resolution must shrink the error far faster
  than any fixed algebraic order.
Both run through :func:`study`, which yields each run's errors as it ends,
and :func:`summarize`, which turns the rows into observed orders.
"""

import math
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


def _density_terms(case, s, plan, reg):
    grid = s.grid
    terms = []
    if case.drho_dt is not None:
        terms.append(case.drho_dt(grid.mesh(), s.t))
    m = sv._mass_flux(plan, s.rho, s.u)
    terms += [plan.deriv(m[b], b, SIN) for b in range(grid.dim)]
    if reg.eps > 0:
        terms.append(-reg.eps * plan.div(plan.grad(s.rho)))
    return sum(terms)


def _temperature_terms(case, s, plan, reg, p):
    grid, t = s.grid, s.t
    mesh = grid.mesh()
    terms = []
    if case.dtheta_dt is not None:
        terms.append((reg.delta + s.rho) * case.dtheta_dt(mesh, t))
    if case.drho_dt is not None:
        terms.append(case.drho_dt(mesh, t) * s.theta)
    m = sv._mass_flux(plan, s.rho, s.u)
    terms += sv._heat_convection(plan, s.theta, m)
    if reg.delta > 0:
        terms.append(reg.delta * np.maximum(s.theta, 0.0)
                     ** (p.cond_growth + 1.0))
    # grad u as the step takes it
    grad_u = sv.galerkin_basis(grid, len(s.U)).gradient(s.U)
    q = s.rho * s.theta
    terms += [p.gas_const * q * grad_u[b, b] for b in range(grid.dim)]
    kappa = cst.heat_conductivity(s.theta, p)
    terms.append(sv._conduction_apply(plan, s.theta, kappa))
    terms.append(-(1.0 - reg.delta) * cst.stress_power(grad_u, p))
    return sum(terms)


def _director_terms(s, plan, p):
    force = cst.gl_force(s.d, p.penalty_scale)
    return np.stack([-p.relax_rate * (plan.div(plan.grad(s.d[k])) - force[k])
                     for k in range(3)])


def _momentum_terms(case, s, plan, reg, p):
    """The momentum source stack.  A temporal case takes the step's own
    forces (:func:`solver._momentum_forces`).  A steady, quiescent spatial
    case keeps only the pressure forces, and must write them out here: the
    step's force is only ever paired with the sine Galerkin modes, so it
    projects grad bp onto the all-sine band along every axis.  That is not
    a nodal field of component c's parity (sine along axis c, cosine
    elsewhere), the one :func:`_restrict` interpolates, and through it
    acceptance criterion 07's spatial ratio falls from 8e5 to about 3."""
    grid, t = s.grid, s.t
    dim = grid.dim
    rho = s.rho
    if case.kind == "temporal":
        u = s.u
        mesh = grid.mesh()
        grad_u = sv.galerkin_basis(grid, len(s.U)).gradient(s.U)
        m = sv._mass_flux(plan, rho, u)
        gtilde = np.zeros((3,) + grid.shape)
        force = sv._momentum_forces(
            plan, u, grad_u, rho, rho, m, s.theta, s.grad_d, gtilde,
            s.grad_rho if reg.eps > 0 else None, reg, p)
        div_u = sum(grad_u[a, a] for a in range(dim))
        out = []
        for c in range(dim):
            arr = rho * case.du_dt[c](mesh, t)
            # the sine Laplacian, d_a of d_a u_c summed over the axes
            arr -= p.mu * sum(plan.deriv(plan.deriv(u[c], a, SIN), a, COS)
                              for a in range(dim))
            arr -= (p.mu + p.lam) * plan.deriv(div_u, c, COS)
            arr -= force[c]
            out.append(arr)
        return np.stack(out)
    bp = sv._pressure_enthalpy(rho, reg, p)
    q = rho * s.theta
    return np.stack([rho * plan.deriv(bp, c, COS)
                     + p.gas_const * plan.deriv(q, c, COS)
                     for c in range(dim)])


def _assemble(case, grid, reg, p, t):
    """The sources ``(rho, momentum stack, theta, director stack)`` at
    ``t``, every equation's terms composed from one analytic state on
    ``grid`` and summed in one fixed order."""
    s = analytic_state(case, grid, t, reg.n_modes)
    plan = spectral_plan(grid)
    return (_density_terms(case, s, plan, reg),
            _momentum_terms(case, s, plan, reg, p),
            _temperature_terms(case, s, plan, reg, p),
            _director_terms(s, plan, p))


def _restrict(sources, fine, grid):
    """``sources`` assembled on ``fine``, each equation's sum evaluated
    through its interpolant at the nodes of ``grid``: cosine for rho, theta
    and each director component, sine along axis c (cosine elsewhere) for
    momentum component c.  One parity per equation is exact for a
    quiescent case, whose terms of any other parity all vanish."""
    rho, mom, theta, d = sources

    def at_nodes(arr, sin_axis=None):
        parity = tuple(SIN if a == sin_axis else COS for a in range(grid.dim))
        return evaluate(fine, arr, parity, grid.axis_nodes)

    return (at_nodes(rho),
            np.stack([at_nodes(m, c) for c, m in enumerate(mom)]),
            at_nodes(theta), np.stack([at_nodes(dk) for dk in d]))


def build_sources(case, grid, reg, p):
    """The manufactured sources on ``grid`` as one callable
    ``t -> (rho, momentum stack, theta, director stack)``.

    A temporal case assembles them on the run grid on every call (exact
    discrete cancellation), and they are never restricted; a spatial case
    assembles them once, on the twice-refined grid, and restricts them
    (:func:`_restrict`).
    """
    if case.kind != "spatial":
        return lambda t: _assemble(case, grid, reg, p, t)
    fine = Grid([2 * n for n in grid.shape], grid.extents)
    steady = _restrict(_assemble(case, fine, reg, p, 0.0), fine, grid)
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


def case_grid(case, n):
    """The grid of a run of ``case`` on n nodes per axis."""
    return Grid((n,) * case.dim, (2.0,) * case.dim)


def run_case(case, n, reg, p, cfg):
    """Run the manufactured problem on n nodes per axis under the solver
    settings ``cfg`` (a SolverConfig: dt and t_end) and return the error
    table entry (sources from :func:`build_sources`)."""
    grid = case_grid(case, n)
    sources = build_sources(case, grid, reg, p)
    for last, _ in sv.run(analytic_state(case, grid, 0.0, reg.n_modes), reg,
                          cfg, p, sources=sources):
        pass
    return solution_errors(last, analytic_state(case, grid, last.t,
                                                reg.n_modes))


def study(case, reg, p, cfg, resolutions=(), dts=(), shape=None):
    """Yield ``(value, errors)`` for each run of the study as that run
    ends, every run under the solver settings ``cfg``: a spatial case on
    each of ``resolutions`` nodes per axis, a temporal case on ``shape``
    nodes per axis with dt replaced by each entry of ``dts``."""
    if case.kind == "spatial":
        for n in resolutions:
            yield n, run_case(case, n, reg, p, cfg)
    else:
        for dt in dts:
            yield dt, run_case(case, shape, reg, p, replace(cfg, dt=dt))


def summarize(case, rows):
    """The orders document of a finished study's ``rows`` and the orders
    to print.  A spatial study reports the coarse/fine error ratio per
    field and the order per doubling it implies, and prints the total's;
    a temporal study reports and prints the observed order of the total
    error between neighbouring step sizes."""
    if case.kind == "spatial":
        (n0, coarse), (n1, fine) = rows[0], rows[-1]
        doublings = math.log2(n1 / n0)
        ratios = {k: coarse[k] / fine[k] if fine[k] > 0 else math.inf
                  for k in coarse}
        orders = {k: math.log2(v) / doublings if 0 < v < math.inf else v
                  for k, v in ratios.items()}
        return {"ratios": ratios, "orders": orders}, [orders["total"]]
    orders = [np.log(e0["total"] / e1["total"]) / np.log(dt0 / dt1)
              for (dt0, e0), (dt1, e1) in zip(rows, rows[1:])]
    return {"orders": {"total": orders}}, orders
