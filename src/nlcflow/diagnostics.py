"""Monitored functionals, budget audits and renormalized residuals, the
CSV rows of the records, and :func:`stream`, the one run loop.

Everything else is read-only over solver states.  A record differentiates
its state once (:func:`derivatives`); the audits and the records read the
gradients of rho and d that the state keeps (``State.grad_rho``,
``State.grad_d``).  The energy budget residual of a step is read off its
two states and their records alone: its dissipation is the one the
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
from .fields import integrate_values, spectral_plan
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
# the run loop and its CSV rows, one per record
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


def csv_header(names):
    """The version line and the line of column ``names`` that open every
    CSV the package writes."""
    return f"# nlcflow-csv v{CSV_VERSION}\n" + ",".join(names) + "\n"


def csv_line(values):
    """One CSV row of ``values``, each :func:`format_float`."""
    return ",".join(map(format_float, values)) + "\n"


def stream(s0, reg: RegParams, solver_cfg, phys: PhysParams, csv_path,
           res_ids=()):
    """``solver.run`` from ``s0`` as ``(s, rec, diag)``: each state, its
    StepRecord and its record.  Each row, with the largest
    renormalized residual per id of ``res_ids`` (0 for ``s0``), is appended
    to ``csv_path`` and flushed before its state is yielded; the file opens
    when the first state arrives and closes on exit or failure."""
    res_ids = list(dict.fromkeys(res_ids))
    states = sv.run(s0, reg, solver_cfg, phys)
    del s0      # ``solver.run`` hands it out and lets it go
    csv = prev = None
    try:
        for s, rec in states:
            if rec is None:
                csv = open(csv_path, "w", encoding="utf-8")
                csv.write(csv_header(
                    list(CSV_COLUMNS) + [f"res_{b}" for b in res_ids]))
                battery = cosine_battery(s.grid) if res_ids else None
                residuals = [0.0] * len(res_ids)
            elif res_ids:
                rows = renormalized_continuity_residual(
                    prev, s, rec, reg.eps, res_ids, battery)
                residuals = [max(abs(v) for v in rows[b].values())
                             for b in res_ids]
            diag = make_record(s, reg, phys,
                               dt=None if rec is None else rec.dt)
            csv.write(csv_line(_record_row(diag) + residuals))
            csv.flush()
            prev = s
            yield s, rec, diag
    finally:
        if csv is not None:
            csv.close()


# ---------------------------------------------------------------------------
# the derivative pass of a state, and energy
# ---------------------------------------------------------------------------

Derivatives = namedtuple("Derivatives",
                         "theta grad_rho_sq stress_power relax_sq")


def derivatives(s, p: PhysParams):
    """The derivative pass of a state ``s`` that its record reads: the
    gradient stack ``(dim, ...)`` of theta and the pointwise |grad rho|^2,
    S(grad u):grad u and |laplace d - f(d)|^2, each taken once.  grad rho
    and grad d are the state's own (``State.grad_rho``, which the step that
    made ``s`` hands over when eps > 0, and ``State.grad_d``, which the
    step from ``s`` shares); laplace d is the divergence of that same
    grad d, or zero for a uniform d (``State.uniform_d``), whose gradient
    is zero.  So the pass of a stepped state with eps > 0 and a uniform
    director takes grad theta alone."""
    plan = spectral_plan(s.grid)
    force = cst.gl_force(s.d, p.penalty_scale)
    relax = -force if s.uniform_d else plan.div(s.grad_d) - force
    return Derivatives(plan.grad(s.theta), _sum_sq(s.grid, s.grad_rho),
                       _stress_power(s, p), np.sum(relax * relax, axis=0))


def _stress_power(s, p: PhysParams):
    """Pointwise S(grad u):grad u of ``s``, grad u taken from the Galerkin
    coefficients, as the step takes it."""
    return cst.stress_power(
        sv.galerkin_basis(s.grid, len(s.U)).gradient(s.U), p)


def _sum_sq(grid, stack):
    """Pointwise sum of the squares of a stack's arrays, taken in the
    order of its leading indices."""
    out = np.zeros(grid.shape)
    for index in np.ndindex(stack.shape[:stack.ndim - grid.dim]):
        out += stack[index] ** 2
    return out


def total_energy(s, reg: RegParams, p: PhysParams):
    """Total energy and its named parts, the Frank part read off the
    state's director gradient (``State.grad_d``); the total is the exact
    float sum of the parts."""
    grid = s.grid
    rho = s.rho
    speed2 = _sum_sq(grid, s.u)
    d_vals = s.d
    # component by component, each over the axes
    grad_d2 = _sum_sq(grid, s.grad_d.swapaxes(0, 1))
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
        return np.power(rho, expo - 2.0, out=np.zeros_like(rho),
                        where=rho > 0)

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


def energy_budget_residual(s_prev, diag_prev, s_next, diag_next,
                           reg: RegParams, p: PhysParams, dt):
    """Defect r = [E(next) - E(prev)]/dt + D of the discrete energy balance
    of the step of size dt from s_prev to s_next, ``diag_prev`` and
    ``diag_next`` being their records (:func:`make_record`), whose
    ``energy_total`` are E(prev) and E(next).

    D is the dissipation the scheme's ledger exchanges,

      delta <S(u'):grad u'> + delta <(theta^n)^alpha theta'>
      + eps sum_b <d_b bp(rho'), d_b rho'>

    with primes on s_next, theta^n from s_prev and bp = h_gamma + delta
    h_beta the convex pressure enthalpy the step takes
    (``solver._pressure_enthalpy``), so r collects only the nonnegative
    numerical defects (and must stay below a small one-sided tolerance).
    """
    grid = s_next.grid
    plan = spectral_plan(grid)
    visc = integrate_values(grid, _stress_power(s_next, p))
    sink = integrate_values(
        grid, np.maximum(s_prev.theta, 0.0) ** p.cond_growth * s_next.theta)
    grad_bp = plan.grad(sv._pressure_enthalpy(np.maximum(s_next.rho, 0.0),
                                              reg, p))
    interp = sum(integrate_values(grid, grad_bp[b] * s_next.grad_rho[b])
                 for b in range(grid.dim))
    d_net = reg.delta * visc + reg.delta * sink + reg.eps * interp
    return (diag_next.energy_total - diag_prev.energy_total) / dt + d_net


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
    # node by node where rho > 0; the other nodes stay zero, unevaluated
    log_rho = np.log(rho, out=np.empty_like(rho), where=mask)
    out = np.log(theta, out=np.zeros_like(rho), where=mask)
    np.subtract(out, log_rho, out=out, where=mask)
    np.multiply(rho, out, out=out, where=mask)
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


def make_record(s, reg: RegParams, p: PhysParams, dt=None):
    """The diagnostics record of one state, read off its one derivative
    pass (:func:`derivatives`)."""
    der = derivatives(s, p)
    e_total, parts = total_energy(s, reg, p)
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
                    spectral_plan(grid).grad(psi)))
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


def renormalized_continuity_residual(s_prev, s_next, rec, eps, b_ids,
                                     battery):
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
    roundoff.  ``battery`` is :func:`cosine_battery`; grad rho' is the
    state's own (``State.grad_rho``), read as grad b(rho') for
    ``identity``, and |grad rho'|^2, the nodal u and its divergence are
    taken once for all the ids ``b_ids``.  Returns
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
    grad_rho = s_next.grad_rho
    grad_rho_sq = _sum_sq(grid, grad_rho)
    out = {}
    for b_id in b_ids:
        b, bp, bpp = _truncation_triple(b_id)
        b_n, b_p = b(rho_n), b(rho_p)
        db = (b_p - b_n) / dt
        flux = sv._mass_flux(plan, b_n, u_lag)
        dil = (bp(rho_n) * rho_n - b_n) * div_u
        grad_b = grad_rho if b_id == "identity" else plan.grad(b_p)
        burn = bpp(rho_p) * grad_rho_sq
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
