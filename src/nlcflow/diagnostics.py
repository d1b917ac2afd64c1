"""Monitored functionals, budget audits and renormalized residuals, and the
CSV row format of the records.

Everything here is read-only over solver states, each differentiated once
by :func:`derivatives`.  The energy budget residual of a step is read off
its two states and their passes alone: its dissipation is the one the
scheme's ledger exchanges, evaluated with the step's own kernels, so the
residual is a genuine audit of the discrete inequality, small and one-sided.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import solver as sv
from .errors import GridMismatch, NonPositiveTemperature
from .fields import dirichlet, integrate_values, neumann, spectral_plan
from .params import PhysParams, RegParams


# ---------------------------------------------------------------------------
# record container
# ---------------------------------------------------------------------------

@dataclass
class DiagRecord:
    t: float
    mass: float
    energy_total: float
    energy_parts: dict
    dissipation_parts: dict
    entropy_total: float
    entropy_production_min: float
    director_sup: float
    pressure_weight_increment: float


# ---------------------------------------------------------------------------
# CSV rows: one per record, written by ``solve run`` and by every run of
# ``solve continuation``
# ---------------------------------------------------------------------------

CSV_VERSION = 1

# frozen column order for run diagnostics
CSV_COLUMNS = (
    "t", "mass", "energy_total",
    "energy_kinetic", "energy_elastic", "energy_artificial",
    "energy_frank", "energy_penalty", "energy_thermal",
    "dissip_viscous", "dissip_director", "dissip_thermal_sink",
    "dissip_density",
    "entropy_total", "entropy_production_min",
    "director_sup", "pressure_weight_increment",
)


def format_float(x):
    """``%.17g``: the text survives ``float()`` exactly."""
    return "%.17g" % float(x)


def _record_row(rec):
    vals = [rec.t, rec.mass, rec.energy_total]
    for key in ("kinetic", "elastic", "artificial", "frank", "penalty",
                "thermal"):
        vals.append(rec.energy_parts[key])
    for key in ("viscous", "director", "thermal_sink", "density"):
        vals.append(rec.dissipation_parts[key])
    vals += [rec.entropy_total, rec.entropy_production_min,
             rec.director_sup, rec.pressure_weight_increment]
    return vals


def csv_header(res_ids=()):
    """Version line and column names, with one ``res_<id>`` column per
    renormalization id."""
    names = list(CSV_COLUMNS) + [f"res_{b}" for b in res_ids]
    return f"# nlcflow-csv v{CSV_VERSION}\n" + ",".join(names) + "\n"


def csv_line(rec, residuals=()):
    """The row of one record, followed by its residual values."""
    return ",".join(format_float(v)
                    for v in _record_row(rec) + list(residuals)) + "\n"


# ---------------------------------------------------------------------------
# the derivative pass of a state, and energy
# ---------------------------------------------------------------------------

Derivatives = namedtuple("Derivatives",
                         "rho theta d grad_rho_sq stress_power relax_sq")


def derivatives(s, p: PhysParams):
    """The one derivative pass of a state ``s``, read by its record and its
    audits: the gradient stacks ``(dim, ...)`` of rho, theta and d, and the
    pointwise |grad rho|^2, S(grad u):grad u and |laplace d - f(d)|^2, each
    taken once; laplace d is the divergence of that same grad d, and grad u
    is taken from the Galerkin coefficients, as the step takes it."""
    plan = spectral_plan(s.grid)
    cos, sin = neumann(s.grid.dim), dirichlet(s.grid.dim)
    grad_rho, grad_d = plan.grad(s.rho, cos), plan.grad(s.d, cos)
    relax = plan.div(grad_d, sin) - cst.gl_force(s.d, p.penalty_scale)
    grad_u = sv.galerkin_basis(s.grid, len(s.U)).gradient(s.U)
    return Derivatives(
        grad_rho, plan.grad(s.theta, cos), grad_d, _sum_sq(s.grid, grad_rho),
        cst.stress_power(grad_u, p), np.sum(relax * relax, axis=0))


def _sum_sq(grid, stack):
    """Pointwise sum of the squares of a stack's arrays, taken in the
    order of its leading indices."""
    out = np.zeros(grid.shape)
    for index in np.ndindex(stack.shape[:stack.ndim - grid.dim]):
        out += stack[index] ** 2
    return out


def total_energy(s, grad_d, reg: RegParams, p: PhysParams):
    """Total energy and its named parts, ``grad_d`` being the director's
    gradient stack ``plan.grad(s.d, neumann(dim))``; the total is the exact
    float sum of the parts."""
    grid = s.grid
    rho = s.rho
    speed2 = _sum_sq(grid, s.u)
    d_vals = s.d
    # component by component, each over the axes
    grad_d2 = _sum_sq(grid, grad_d.swapaxes(0, 1))
    nu = p.elastic_coupling
    parts = {
        "kinetic": 0.5 * integrate_values(grid, rho * speed2),
        "elastic": integrate_values(
            grid, cst.convex_pressure_potential(rho, p.gamma)),
        "artificial": reg.delta * integrate_values(
            grid, cst.convex_pressure_potential(rho, reg.beta))
        if reg.delta > 0 else 0.0,
        "frank": 0.5 * nu * integrate_values(grid, grad_d2),
        "penalty": nu * integrate_values(
            grid, cst.gl_potential(d_vals, p.penalty_scale)),
        "thermal": integrate_values(
            grid, (rho + reg.delta) * s.theta),
    }
    return sum(parts.values()), parts


def dissipation_parts(s, der, reg: RegParams, p: PhysParams):
    """Instantaneous nonnegative dissipation functionals of one state,
    ``der`` being :func:`derivatives` of it."""
    grid = s.grid
    theta = np.maximum(s.theta, 0.0)
    rho = np.maximum(s.rho, 0.0)

    def power(expo):
        out = np.zeros_like(rho)
        mask = rho > 0
        out[mask] = rho[mask] ** (expo - 2.0)
        return out

    density_term = reg.eps * p.gamma * integrate_values(
        grid, power(p.gamma) * der.grad_rho_sq)
    if reg.delta > 0:
        density_term += reg.eps * reg.delta * reg.beta * integrate_values(
            grid, power(reg.beta) * der.grad_rho_sq)
    return {
        "viscous": integrate_values(grid, der.stress_power),
        "director": integrate_values(grid, der.relax_sq),
        "thermal_sink": reg.delta * integrate_values(
            grid, theta ** (p.cond_growth + 1.0)),
        "density": density_term,
    }


def energy_budget_residual(s_prev, der_prev, s_next, der_next,
                           reg: RegParams, p: PhysParams, dt):
    """Defect r = [E(next) - E(prev)]/dt + D of the discrete energy balance
    of the step of size dt from s_prev to s_next, ``der_prev`` and
    ``der_next`` being their :func:`derivatives`.

    D is the dissipation the scheme's ledger exchanges,

      delta <S(u'):grad u'> + delta <(theta^n)^alpha theta'>
      + eps sum_b <d_b h_gamma(rho'), d_b rho'>
      + eps delta sum_b <d_b h_beta(rho'), d_b rho'>

    with primes on s_next, theta^n from s_prev and h the convex pressure
    enthalpy, so r collects only the nonnegative numerical defects (and
    must stay below a small one-sided tolerance).
    """
    grid = s_next.grid
    plan = spectral_plan(grid)
    e_next, _ = total_energy(s_next, der_next.d, reg, p)
    e_prev, _ = total_energy(s_prev, der_prev.d, reg, p)
    visc = integrate_values(grid, der_next.stress_power)
    sink = integrate_values(
        grid, np.maximum(s_prev.theta, 0.0) ** p.cond_growth * s_next.theta)
    safe = np.maximum(s_next.rho, 0.0)

    def interp_form(exponent):
        grad_bp = plan.grad(cst.convex_pressure_enthalpy(safe, exponent),
                            neumann(grid.dim))
        return sum(integrate_values(grid, grad_bp[b] * der_next.rho[b])
                   for b in range(grid.dim))

    eps_beta = interp_form(reg.beta) if reg.delta > 0 else 0.0
    d_net = (reg.delta * visc + reg.delta * sink
             + reg.eps * interp_form(p.gamma)
             + reg.eps * reg.delta * eps_beta)
    return (e_next - e_prev) / dt + d_net


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def entropy_total(s):
    """Integral of rho * (log theta - log rho), with the vacuum convention
    rho log rho -> 0."""
    rho, theta = s.rho, s.theta
    mask = rho > 0.0
    if np.any(mask & (theta <= 0.0)):
        raise NonPositiveTemperature("entropy needs theta > 0 where rho > 0")
    out = np.zeros_like(rho)
    out[mask] = rho[mask] * (np.log(theta[mask]) - np.log(rho[mask]))
    return integrate_values(s.grid, out)


def entropy_production(s, der, p: PhysParams):
    """Quadrature and pointwise minimum of the production integrand
    kappa(theta)|grad theta|^2/theta^2 + S:grad u / theta + coupled director
    relaxation |laplace d - f(d)|^2 / theta, ``der`` being
    :func:`derivatives` of ``s``."""
    grid = s.grid
    theta = s.theta
    if float(theta.min()) <= 0.0:
        raise NonPositiveTemperature("entropy production needs theta > 0")
    grad_t2 = _sum_sq(grid, der.theta)
    integrand = (cst.heat_conductivity(theta, p) * grad_t2 / theta ** 2
                 + der.stress_power / theta
                 + p.elastic_coupling * p.relax_rate * der.relax_sq / theta)
    return integrate_values(grid, integrand), float(integrand.min())


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def director_sup(s):
    return float(np.sqrt(_sum_sq(s.grid, s.d).max()))


def pressure_weight_density(s, reg: RegParams, p: PhysParams):
    """Instantaneous integral of (rho^gamma + R rho theta + delta rho^beta) rho."""
    rho = np.maximum(s.rho, 0.0)
    theta = np.maximum(s.theta, 0.0)
    integ = (rho ** p.gamma + p.gas_const * rho * theta) * rho
    if reg.delta > 0:
        integ = integ + reg.delta * rho ** reg.beta * rho
    return integrate_values(s.grid, integ)


def make_record(s, der, reg: RegParams, p: PhysParams, dt=None):
    """The diagnostics record of one state, ``der`` being its derivative
    pass (:func:`derivatives`)."""
    e_total, parts = total_energy(s, der.d, reg, p)
    incr = 0.0
    if dt is not None:
        incr = dt * pressure_weight_density(s, reg, p)
    _, prod_min = entropy_production(s, der, p)
    return DiagRecord(
        t=s.t,
        mass=integrate_values(s.grid, s.rho),
        energy_total=e_total,
        energy_parts=parts,
        dissipation_parts=dissipation_parts(s, der, reg, p),
        entropy_total=entropy_total(s),
        entropy_production_min=prod_min,
        director_sup=director_sup(s),
        pressure_weight_increment=incr,
    )


# ---------------------------------------------------------------------------
# auxiliary operators
# ---------------------------------------------------------------------------

def oscillation_defect(grid, rho, rho_ref, gamma):
    """sup over k in {1,2,4,8} of the space quadrature of
    |T_k(rho) - T_k(rho_ref)|^(gamma+1) for two density arrays on
    ``grid``."""
    if np.shape(rho) != grid.shape or np.shape(rho_ref) != grid.shape:
        raise GridMismatch("oscillation defect needs a common grid")
    worst = 0.0
    for k in (1.0, 2.0, 4.0, 8.0):
        diff = np.abs(cst.soft_truncation(rho, k)
                      - cst.soft_truncation(rho_ref, k))
        worst = max(worst, integrate_values(grid, diff ** (gamma + 1.0)))
    return worst


# ---------------------------------------------------------------------------
# test-function battery
# ---------------------------------------------------------------------------

def cosine_battery(grid):
    """The three lowest all-cosine tensor modes (constant first), fixed
    ordering: by total frequency then lexicographic, as (name, psi,
    [d_a psi]) with nodal arrays; an audit builds it once per run."""
    cand = sorted(itertools.product(range(4), repeat=grid.dim),
                  key=lambda t: (sum(t), t))
    mesh = grid.mesh()
    out = []
    for tpl in cand[:3]:
        psi = np.ones(grid.shape)
        for ax, k in enumerate(tpl):
            psi = psi * np.cos(k * np.pi * mesh[ax] / grid.extents[ax])
        out.append((f"cos{''.join(str(k) for k in tpl)}", psi,
                    spectral_plan(grid).grad(psi, neumann(grid.dim))))
    return out


# ---------------------------------------------------------------------------
# renormalized continuity residuals
# ---------------------------------------------------------------------------

def _truncation_triple(kind):
    """(b, b', b'') callables for a registered renormalization id."""
    if kind.startswith("T"):
        try:
            k = float(kind[1:])
        except ValueError:
            raise KeyError(f"unknown renormalization id {kind!r}") from None
        if not k > 0:
            raise KeyError(f"unknown renormalization id {kind!r}")

        def b(z):
            return cst.soft_truncation(z, k)

        def bp(z):
            s = np.asarray(z, dtype=float) / k
            return np.where(s <= 1.0, 1.0,
                            np.where(s >= 3.0, 0.0, 1.0 - 0.5 * (s - 1.0)))

        def bpp(z):
            s = np.asarray(z, dtype=float) / k
            return np.where((s > 1.0) & (s < 3.0), -0.5 / k, 0.0)

        return b, bp, bpp
    if kind == "identity":
        return (lambda z: np.asarray(z, dtype=float),
                lambda z: np.ones_like(np.asarray(z, dtype=float)),
                lambda z: np.zeros_like(np.asarray(z, dtype=float)))
    if kind == "zlog":
        floor = 1e-8

        def b(z):
            z = np.asarray(z, dtype=float)
            return z * np.log(np.maximum(z, floor))

        def bp(z):
            z = np.asarray(z, dtype=float)
            return np.where(z >= floor,
                            np.log(np.maximum(z, floor)) + 1.0,
                            np.log(floor))

        def bpp(z):
            z = np.asarray(z, dtype=float)
            return np.where(z >= floor, 1.0 / np.maximum(z, floor), 0.0)

        return b, bp, bpp
    raise KeyError(f"unknown renormalization id {kind!r}")


def renormalized_continuity_residual(s_prev, s_next, der_next, rec, eps,
                                     b_ids, battery):
    """Weak residuals of the renormalized mass balance over one step.

    The discrete form pairs, for the step n -> n+1 and test function psi:

      <[b(rho') - b(rho)]/dt, psi>                    (difference quotient)
      - sum_a <P_sin[b(rho) u_a], d_a psi>            (transport, lagged u)
      + <(b'(rho) rho - b(rho)) div u, psi>           (dilation)
      + eps <grad b(rho'), grad psi>                  (diffusion, implicit)
      + eps <b''(rho') |grad rho'|^2, psi>            (renormalization burn)

    where u is the lagged velocity the step actually used (its Galerkin
    table is read off the StepRecord ``rec``) and P_sin the 2/3 rule of the
    mass flux.  For b = identity this telescopes against the scheme to
    roundoff.  ``battery`` is :func:`cosine_battery`; |grad rho'|^2, and
    grad rho' for ``identity``, are read off ``der_next``, the
    :func:`derivatives` of ``s_next``, and the nodal u and its divergence
    come from the table once for all the ids ``b_ids``.  Returns
    {b_id: {test id: residual}}.
    """
    grid = s_prev.grid
    dim = grid.dim
    plan = spectral_plan(grid)
    dt = rec.dt
    basis = sv.galerkin_basis(grid, len(rec.U_lag))
    u_lag = basis.reconstruct(rec.U_lag)
    grad_u = basis.gradient(rec.U_lag)
    div_u = sum(grad_u[a, a] for a in range(dim))
    rho_n, rho_p = s_prev.rho, s_next.rho
    out = {}
    for b_id in b_ids:
        b, bp, bpp = _truncation_triple(b_id)
        b_n, b_p = b(rho_n), b(rho_p)
        db = (b_p - b_n) / dt
        flux = sv._mass_flux(plan, b_n, u_lag)
        dil = (bp(rho_n) * rho_n - b_n) * div_u
        grad_b = der_next.rho if b_id == "identity" \
            else plan.grad(b_p, neumann(dim))
        burn = bpp(rho_p) * der_next.grad_rho_sq
        row = {}
        for name, psi, grad in battery:
            val = integrate_values(grid, db * psi)
            for a in range(dim):
                val -= integrate_values(grid, flux[a] * grad[a])
                val += eps * integrate_values(grid, grad_b[a] * grad[a])
            val += integrate_values(grid, dil * psi)
            val += eps * integrate_values(grid, burn * psi)
            row[name] = val
        out[b_id] = row
    return out
