"""Monitored functionals, budget audits and renormalized residuals, the
CSV rows of the records, and :func:`stream`, the one run loop.

Everything else is read-only over solver states and keeps nothing from
one call to the next.  A record (:func:`make_record`) takes each pointwise
array of its state once, grad theta its one derivative, and every integral
of its energy, dissipation and entropy ledgers reads those arrays; a
uniform director's terms are taken at one node.  The audits and the
records read the gradients of rho and d that the state keeps
(``State.grad_rho``, ``State.grad_d``).  A renormalized residual audit is
one contraction per id of its integrand stack with the test-function
battery, which is one stack built once per run (:func:`cosine_battery`).
The energy budget residual of a step is read off its two states and their
records alone, its viscous dissipation the later record's: its dissipation
is the one the scheme's ledger exchanges, evaluated with the step's own
kernels, so the residual is a genuine audit of the discrete inequality,
small and one-sided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import solver as sv
from .errors import GridMismatch, NonPositiveTemperature
from .fields import _readonly, integrate_values, spectral_plan
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
            diag = make_record(s, reg, phys, None if rec is None else rec.dt)
            csv.write(csv_line(_record_row(diag) + residuals))
            csv.flush()
            prev = s
            yield s, rec, diag
    finally:
        if csv is not None:
            csv.close()


# ---------------------------------------------------------------------------
# the record of a state
# ---------------------------------------------------------------------------

def _sum_sq(grid, stack):
    """Pointwise sum of the squares of a stack's arrays, taken in the
    order of its leading indices."""
    arrays = stack.reshape((-1,) + grid.shape)
    return np.sum(arrays * arrays, axis=0)


# the integrands a record forms itself, one row each of the stack that
# :func:`make_record` sums in one reduction
_FORMED = ("kinetic", "thermal", "thermal_sink", "density_gamma",
           "density_beta", "entropy", "pressure_weight")


def make_record(s, reg: RegParams, p: PhysParams, dt=None):
    """The diagnostics record of one state.  Each pointwise array is taken
    once and read by every integral that needs it: the clipped density
    rho+, its powers rho+^e = (e - 1) P_e read off the convex potentials
    P_e(rho) = rho^e / (e - 1) for e = gamma and beta, theta^alpha,
    |grad rho|^2, S(grad u):grad u, |d|^2 and the director relaxation
    laplace d - f(d); each law of ``constitutive`` is evaluated once, on
    the state's arrays, grad u taken from the Galerkin coefficients, as the
    step takes it.  A uniform director (``State.uniform_d``) has an exactly
    zero Frank term, and its penalty and relaxation are taken at one node.
    The integrands the record forms itself are the rows of one stack
    (``_FORMED``), summed in one reduction; the arrays the laws return are
    integrated as they are.

    Energy: kinetic, elastic, artificial, Frank, penalty and thermal parts
    and their exact float sum.  Dissipation: viscous, director relaxation,
    thermal sink delta theta^(alpha+1) and density eps (gamma
    rho^(gamma-2) + delta beta rho^(beta-2)) |grad rho|^2.  Entropy: the
    integral of rho (log theta - log rho), rho log rho -> 0 in vacuum, and
    the pointwise minimum of the production kappa(theta)|grad theta|^2 /
    theta^2 + S:grad u / theta + nu relax_rate |laplace d - f(d)|^2 /
    theta, which needs theta > 0.  With ``dt``, the pressure weight
    increment dt * integral of (rho^gamma + R rho theta + delta rho^beta)
    rho."""
    grid = s.grid
    plan = spectral_plan(grid)
    nu = p.elastic_coupling
    rho, theta, d = s.rho, s.theta, s.d
    pot_g = cst.convex_pressure_potential(rho, p.gamma)
    pot_b = cst.convex_pressure_potential(rho, reg.beta) \
        if reg.delta > 0 else np.zeros_like(rho)
    if float(theta.min()) <= 0.0:
        raise NonPositiveTemperature("entropy production needs theta > 0")
    rho_c = np.maximum(rho, 0.0)
    positive = rho_c > 0
    stress = cst.stress_power(
        sv.galerkin_basis(grid, len(s.U)).gradient(s.U), p)

    # a uniform director's penalty and relaxation are taken at its first
    # node and integrated as the uniform fields they are, bit for bit the
    # sums over every node
    if s.uniform_d:
        d = d[plan.corner]
        frank = 0.0
        relax = -cst.gl_force(d, p.penalty_scale)
    else:
        # component by component, each over the axes
        frank = 0.5 * nu * integrate_values(
            grid, _sum_sq(grid, s.grad_d.swapaxes(0, 1)))
        relax = plan.div(s.grad_d) - cst.gl_force(d, p.penalty_scale)
    relax_sq = np.sum(relax * relax, axis=0)
    penalty, relax_int = (
        integrate_values(grid, np.broadcast_to(values, grid.shape))
        for values in (cst.gl_potential(d, p.penalty_scale), relax_sq))

    stack = np.empty((len(_FORMED),) + grid.shape)
    row = dict(zip(_FORMED, stack))
    np.multiply(rho, _sum_sq(grid, s.u), out=row["kinetic"])
    np.multiply(rho + reg.delta, theta, out=row["thermal"])
    np.multiply(theta ** p.cond_growth, theta, out=row["thermal_sink"])
    # rho^e / rho^2 |grad rho|^2 where rho > 0, and zero in vacuum
    rho_sq = rho_c * rho_c
    grad_rho_sq = _sum_sq(grid, s.grad_rho)
    pres_g, pres_b = (p.gamma - 1.0) * pot_g, (reg.beta - 1.0) * pot_b
    for key, pres in (("density_gamma", pres_g), ("density_beta", pres_b)):
        row[key].fill(0.0)
        np.divide(pres, rho_sq, out=row[key], where=positive)
        row[key] *= grad_rho_sq
    # node by node where rho > 0; the other nodes stay zero, unevaluated
    log_rho = np.log(rho, out=np.empty_like(rho), where=positive)
    entropy = row["entropy"]
    entropy.fill(0.0)
    np.log(theta, out=entropy, where=positive)
    np.subtract(entropy, log_rho, out=entropy, where=positive)
    np.multiply(rho, entropy, out=entropy, where=positive)
    np.multiply(pres_g + p.gas_const * rho_c * theta, rho_c,
                out=row["pressure_weight"])
    row["pressure_weight"] += reg.delta * pres_b * rho_c
    q = dict(zip(_FORMED, (
        grid.weight * stack.reshape(len(stack), -1).sum(axis=1)).tolist()))

    production = (
        cst.heat_conductivity(theta, p) * _sum_sq(grid, plan.grad(theta))
        / theta ** 2
        + stress / theta + nu * p.relax_rate * relax_sq / theta)
    parts = {
        "kinetic": 0.5 * q["kinetic"],
        "elastic": integrate_values(grid, pot_g),
        "artificial": reg.delta * integrate_values(grid, pot_b),
        "frank": frank,
        "penalty": nu * penalty,
        "thermal": q["thermal"],
    }
    return DiagRecord(
        t=s.t,
        mass=integrate_values(grid, rho),
        energy_total=sum(parts.values()),
        energy_parts=parts,
        dissipation_parts={
            "viscous": integrate_values(grid, stress),
            "director": relax_int,
            "thermal_sink": reg.delta * q["thermal_sink"],
            "density": reg.eps * p.gamma * q["density_gamma"]
            + reg.eps * reg.delta * reg.beta * q["density_beta"],
        },
        entropy_total=q["entropy"],
        entropy_production_min=float(production.min()),
        director_sup=float(np.sqrt(np.sum(d * d, axis=0).max())),
        pressure_weight_increment=0.0 if dt is None
        else dt * q["pressure_weight"],
    )


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
    <S(u'):grad u'> is the viscous dissipation of ``diag_next``.
    """
    grid = s_next.grid
    plan = spectral_plan(grid)
    visc = diag_next.dissipation_parts["viscous"]
    sink = integrate_values(
        grid, np.maximum(s_prev.theta, 0.0) ** p.cond_growth * s_next.theta)
    grad_bp = plan.grad(sv._pressure_enthalpy(np.maximum(s_next.rho, 0.0),
                                              reg, p))
    interp = sum(integrate_values(grid, grad_bp[b] * s_next.grad_rho[b])
                 for b in range(grid.dim))
    d_net = reg.delta * visc + reg.delta * sink + reg.eps * interp
    return (diag_next.energy_total - diag_prev.energy_total) / dt + d_net


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
    ordering: by total frequency then lexicographic, as ``(names, stack)``
    with ``stack[i]`` the ``(1 + 2 dim, *grid.shape)`` stack of mode i's
    nodal values psi, its gradient d_a psi and the 2/3-rule sine
    projections P_sin[d_a psi] of the gradient (the projection of the mass
    flux, ``solver._mass_flux``), the layout of an audit's integrand; an
    audit builds it once per run."""
    cand = sorted(itertools.product(range(4), repeat=grid.dim),
                  key=lambda t: (sum(t), t))[:3]
    mesh = grid.mesh()
    plan = spectral_plan(grid)
    stack = np.ones((len(cand), 1 + 2 * grid.dim) + grid.shape)
    for row, tpl in zip(stack, cand):
        for ax, k in enumerate(tpl):
            row[0] *= np.cos(k * np.pi * mesh[ax] / grid.extents[ax])
        row[1:1 + grid.dim] = plan.grad(row[0])
        row[1 + grid.dim:] = sv._mass_flux(plan, 1.0, row[1:1 + grid.dim])
    return (tuple(f"cos{''.join(str(k) for k in tpl)}" for tpl in cand),
            _readonly(stack))


# ---------------------------------------------------------------------------
# renormalized continuity residuals
# ---------------------------------------------------------------------------

def _truncation_triple(kind):
    """(b, b', b'') callables of a density array for a registered
    renormalization id; for ``identity`` b' and b'' are None, its dilation
    b'(z) z - b(z) and b''(z) being exactly zero."""
    if kind.startswith("T"):
        try:
            k = float(kind[1:])
        except ValueError:
            raise KeyError(f"unknown renormalization id {kind!r}") from None
        if not (k > 0 and math.isfinite(k)):
            raise KeyError(f"unknown renormalization id {kind!r}")

        def b(z):
            return cst.soft_truncation(z, k)

        def bp(z):
            s = z / k
            return np.where(s <= 1.0, 1.0,
                            np.where(s >= 3.0, 0.0, 1.0 - 0.5 * (s - 1.0)))

        def bpp(z):
            s = z / k
            return np.where((s > 1.0) & (s < 3.0), -0.5 / k, 0.0)

        return b, bp, bpp
    if kind == "identity":
        return (lambda z: z), None, None
    if kind == "zlog":
        floor = 1e-8

        def b(z):
            return z * np.log(np.maximum(z, floor))

        def bp(z):
            return np.where(z >= floor, np.log(np.maximum(z, floor)) + 1.0,
                            np.log(floor))

        def bpp(z):
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
    mass flux, a symmetric operator, so the transport is read as
    <b(rho) u_a, P_sin[d_a psi]>.  For b = identity this telescopes against
    the scheme to roundoff, and its dilation and burn are exactly zero and
    skipped.

    Per id, the terms paired with psi, d_a psi and P_sin[d_a psi] fill one
    ``(1 + 2 dim, *grid.shape)`` integrand stack, contracted in one
    product against the stack of ``battery`` (:func:`cosine_battery`),
    which holds P_sin[d_a psi] once per run.  grad rho' is the state's
    own (``State.grad_rho``), read as grad b(rho') for ``identity``.
    Returns {b_id: {test id: residual}}.
    """
    grid = s_prev.grid
    dim = grid.dim
    plan = spectral_plan(grid)
    names, tests = battery
    tests = tests.reshape(len(names), -1)
    basis = sv.galerkin_basis(grid, len(rec.U_lag))
    u_lag = basis.reconstruct(rec.U_lag)
    rho_n, rho_p = s_prev.rho, s_next.rho
    div_u = grad_rho_sq = None
    out = {}
    for b_id in b_ids:
        b, bp, bpp = _truncation_triple(b_id)
        b_n, b_p = b(rho_n), b(rho_p)
        integrand = np.empty((1 + 2 * dim,) + grid.shape)
        lead = integrand[0]
        np.divide(b_p - b_n, rec.dt, out=lead)
        if bp is None:
            grad_b = s_next.grad_rho
        else:
            if div_u is None:
                grad_u = basis.gradient(rec.U_lag)
                div_u = sum(grad_u[a, a] for a in range(dim))
                grad_rho_sq = _sum_sq(grid, s_next.grad_rho)
            lead += (bp(rho_n) * rho_n - b_n) * div_u
            lead += eps * (bpp(rho_p) * grad_rho_sq)
            grad_b = plan.grad(b_p)
        np.multiply(eps, grad_b, out=integrand[1:1 + dim])
        np.multiply(-b_n, u_lag, out=integrand[1 + dim:])
        vals = grid.weight * (tests @ integrand.reshape(-1))
        out[b_id] = dict(zip(names, map(float, vals)))
    return out
