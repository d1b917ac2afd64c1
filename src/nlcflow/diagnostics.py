"""Monitored functionals, budget audits and weak-form residuals, and the
CSV row format of the records.

Everything here is read-only over solver states.  The energy budget residual
of a step is read off its two states alone: its dissipation is the one the
scheme's ledger exchanges, evaluated with the step's own kernels, so the
residual is a genuine audit of the discrete inequality, small and one-sided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import solver as sv
from .errors import GridMismatch, MismatchedSnapshots, NonPositiveTemperature
from .fields import COS, SIN, integrate_values, neumann, spectral_plan
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
# energy
# ---------------------------------------------------------------------------

def _grad_arrays(grid, values):
    """Gradient components of a cosine array, one product per axis."""
    plan = spectral_plan(grid)
    return [plan.deriv(values, a, COS) for a in range(grid.dim)]


def _grad_sq(grid, values):
    """|grad f|^2 of a cosine array, the axes summed in order."""
    out = np.zeros(grid.shape)
    for g in _grad_arrays(grid, values):
        out += g ** 2
    return out


def total_energy(s, reg: RegParams, p: PhysParams):
    """Total energy and its named parts; the total is the exact float sum of
    the parts."""
    grid = s.grid
    rho = s.rho
    speed2 = np.zeros(grid.shape)
    for c in s.u:
        speed2 += c ** 2
    d_vals = s.d
    grad_d2 = np.zeros(grid.shape)
    grad_d = sv._director_gradient(spectral_plan(grid), d_vals)
    for g in grad_d.reshape((-1,) + grid.shape):
        grad_d2 += g ** 2
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


def _rate_fields(s, p: PhysParams):
    """The velocity gradient and the director relaxation field
    laplace d - f(d) of one state, shared by the dissipation and the
    entropy production."""
    plan = spectral_plan(s.grid)
    relax = plan.laplacian(s.d, neumann(s.grid.dim)) \
        - cst.gl_force(s.d, p.penalty_scale)
    return sv._velocity_gradient(plan, s.u), relax


def dissipation_parts(s, reg: RegParams, p: PhysParams, rates=None):
    """Instantaneous nonnegative dissipation functionals of one state;
    ``rates`` is :func:`_rate_fields` of ``s`` when already at hand."""
    grid = s.grid
    grad_u, relax = _rate_fields(s, p) if rates is None else rates
    theta = np.maximum(s.theta, 0.0)
    grad_rho2 = _grad_sq(grid, s.rho)
    rho = np.maximum(s.rho, 0.0)

    def power(expo):
        out = np.zeros_like(rho)
        mask = rho > 0
        out[mask] = rho[mask] ** (expo - 2.0)
        return out

    density_term = reg.eps * p.gamma * integrate_values(
        grid, power(p.gamma) * grad_rho2)
    if reg.delta > 0:
        density_term += reg.eps * reg.delta * reg.beta * integrate_values(
            grid, power(reg.beta) * grad_rho2)
    return {
        "viscous": integrate_values(grid, cst.stress_power(grad_u, p)),
        "director": integrate_values(grid, np.sum(relax * relax, axis=0)),
        "thermal_sink": reg.delta * integrate_values(
            grid, theta ** (p.cond_growth + 1.0)),
        "density": density_term,
    }


def energy_budget_residual(s_prev, s_next, reg: RegParams, p: PhysParams,
                           dt):
    """Defect r = [E(next) - E(prev)]/dt + D of the discrete energy balance
    of the step of size dt from s_prev to s_next.

    D is the dissipation the scheme's ledger exchanges,

      delta <S(u'):grad u'> + delta <(theta^n)^alpha theta'>
      + eps sum_b <d_b h_gamma(rho'), d_b rho'>
      + eps delta sum_b <d_b h_beta(rho'), d_b rho'>

    with primes on s_next, theta^n from s_prev and h the convex pressure
    enthalpy, so r collects only the nonnegative numerical defects (and
    must stay below a small one-sided tolerance).
    """
    e_next, _ = total_energy(s_next, reg, p)
    e_prev, _ = total_energy(s_prev, reg, p)
    grid = s_next.grid
    plan = spectral_plan(grid)
    visc = integrate_values(grid, cst.stress_power(
        sv._velocity_gradient(plan, s_next.u), p))
    sink = integrate_values(
        grid, np.maximum(s_prev.theta, 0.0) ** p.cond_growth * s_next.theta)
    grad_rho = _grad_arrays(grid, s_next.rho)
    safe = np.maximum(s_next.rho, 0.0)

    def interp_form(exponent):
        bp = cst.convex_pressure_enthalpy(safe, exponent)
        return sum(integrate_values(grid, plan.deriv(bp, b, COS) * grad_rho[b])
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


def entropy_production(s, p: PhysParams, rates=None):
    """Quadrature and pointwise minimum of the production integrand
    kappa(theta)|grad theta|^2/theta^2 + S:grad u / theta + coupled director
    relaxation |laplace d - f(d)|^2 / theta; ``rates`` is
    :func:`_rate_fields` of ``s`` when already at hand."""
    grid = s.grid
    theta = s.theta
    if float(theta.min()) <= 0.0:
        raise NonPositiveTemperature("entropy production needs theta > 0")
    grad_t2 = _grad_sq(grid, theta)
    grad_u, relax = _rate_fields(s, p) if rates is None else rates
    integrand = (cst.heat_conductivity(theta, p) * grad_t2 / theta ** 2
                 + cst.stress_power(grad_u, p) / theta
                 + p.elastic_coupling * p.relax_rate
                 * np.sum(relax * relax, axis=0) / theta)
    return integrate_values(grid, integrand), float(integrand.min())


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def director_sup(s):
    mag2 = np.zeros(s.grid.shape)
    for c in s.d:
        mag2 += c ** 2
    return float(np.sqrt(mag2.max()))


def pressure_weight_density(s, reg: RegParams, p: PhysParams):
    """Instantaneous integral of (rho^gamma + R rho theta + delta rho^beta) rho."""
    rho = np.maximum(s.rho, 0.0)
    theta = np.maximum(s.theta, 0.0)
    integ = (rho ** p.gamma + p.gas_const * rho * theta) * rho
    if reg.delta > 0:
        integ = integ + reg.delta * rho ** reg.beta * rho
    return integrate_values(s.grid, integ)


def make_record(s, reg: RegParams, p: PhysParams, dt=None):
    e_total, parts = total_energy(s, reg, p)
    incr = 0.0
    if dt is not None:
        incr = dt * pressure_weight_density(s, reg, p)
    rates = _rate_fields(s, p)
    _, prod_min = entropy_production(s, p, rates)
    return DiagRecord(
        t=s.t,
        mass=integrate_values(s.grid, s.rho),
        energy_total=e_total,
        energy_parts=parts,
        dissipation_parts=dissipation_parts(s, reg, p, rates),
        entropy_total=entropy_total(s),
        entropy_production_min=prod_min,
        director_sup=director_sup(s),
        pressure_weight_increment=incr,
    )


# ---------------------------------------------------------------------------
# auxiliary operators
# ---------------------------------------------------------------------------

def oscillation_defect(grid, rho_seq, rho_ref, gamma):
    """sup over k in {1,2,4,8} of the time-averaged space quadrature of
    |T_k(rho_seq) - T_k(rho_ref)|^(gamma+1) for density arrays on ``grid``;
    rho_ref may be a single array or a matched sequence."""
    seq = list(rho_seq)
    if np.shape(rho_ref) == grid.shape:
        refs = [rho_ref] * len(seq)
    else:
        refs = list(rho_ref)
        if len(refs) != len(seq):
            raise MismatchedSnapshots("reference sequence length differs")
    worst = 0.0
    for k in (1.0, 2.0, 4.0, 8.0):
        acc = 0.0
        for a, b in zip(seq, refs):
            if np.shape(a) != grid.shape or np.shape(b) != grid.shape:
                raise GridMismatch("oscillation defect needs a common grid")
            diff = np.abs(cst.soft_truncation(a, k)
                          - cst.soft_truncation(b, k))
            acc += integrate_values(grid, diff ** (gamma + 1.0))
        worst = max(worst, acc / max(len(seq), 1))
    return worst


# ---------------------------------------------------------------------------
# test-function battery
# ---------------------------------------------------------------------------

def cosine_battery(grid, count=3):
    """The `count` lowest all-cosine tensor modes (constant first), fixed
    ordering: by total frequency then lexicographic, as (name, psi,
    [d_a psi]) with nodal arrays; an audit builds it once per run."""
    tuples = []
    rng = range(0, 4)
    if grid.dim == 1:
        cand = [(k,) for k in rng]
    else:
        cand = [(k1, k2) for k1 in rng for k2 in rng]
    cand.sort(key=lambda t: (sum(t), t))
    tuples = cand[:count]
    mesh = grid.mesh()
    out = []
    for tpl in tuples:
        psi = np.ones(grid.shape)
        for ax, k in enumerate(tpl):
            psi = psi * np.cos(k * np.pi * mesh[ax] / grid.extents[ax])
        out.append((f"cos{''.join(str(k) for k in tpl)}", psi,
                    _grad_arrays(grid, psi)))
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

    where u is the lagged velocity the step actually used (read off its
    StepRecord ``rec``) and P_sin the 2/3 rule of the mass flux.
    For b = identity this telescopes against the scheme to roundoff.
    ``battery`` is :func:`cosine_battery`; div u and grad rho' are taken
    once for all the ids ``b_ids``.  Returns {b_id: {test id: residual}}.
    """
    grid = s_prev.grid
    dim = grid.dim
    plan = spectral_plan(grid)
    dt = rec.dt
    u_lag = rec.u_lag
    rho_n, rho_p = s_prev.rho, s_next.rho
    div_u = np.zeros(grid.shape)
    for a in range(dim):
        div_u += plan.deriv(u_lag[a], a, SIN)
    grad_rho2 = _grad_sq(grid, rho_p)
    out = {}
    for b_id in b_ids:
        b, bp, bpp = _truncation_triple(b_id)
        b_n, b_p = b(rho_n), b(rho_p)
        db = (b_p - b_n) / dt
        flux = sv._mass_flux(plan, b_n, u_lag)
        dil = (bp(rho_n) * rho_n - b_n) * div_u
        grad_b = _grad_arrays(grid, b_p)
        burn = bpp(rho_p) * grad_rho2
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


# ---------------------------------------------------------------------------
# weak-form residuals of the full system
# ---------------------------------------------------------------------------

def _sine_battery(grid, count=3):
    basis = sv.GalerkinBasis(grid, count)
    out = []
    for i, tpl in enumerate(basis.modes):
        name = "sin" + "".join(str(m) for m in tpl)
        vals = basis.phi[i]
        grads = [basis.grad[i, a] for a in range(grid.dim)]
        out.append((name, vals, grads))
    return out


def weak_form_residuals(s_prev, s_next, rec, reg: RegParams, p: PhysParams,
                        battery):
    """Weak residuals of one step against the fixed test battery, as
    {residual id: value}; ``battery`` is the pair (``_sine_battery``,
    :func:`cosine_battery`) of the grid, built once per run.

    Momentum residuals use the standalone conservative placements, so they
    decay first order in dt.  Heat and director residuals evaluate the
    step's own kernels at the accepted state (the lagged velocity is read
    off the step record) and stay at
    solver-tolerance level.  The heat entry pairs the nodal residual
    rhs - (c0 theta' - div(kappa grad theta')) of the solved balance with a
    positive test function, so its sign is that of the defect
    rhs-of-balance minus lhs and a one-sided check of the limiting
    inequality is possible.
    """
    grid = s_prev.grid
    dim = grid.dim
    plan = spectral_plan(grid)
    sin_tests, cos_tests = battery
    out = {}
    dt = rec.dt
    rho_n, rho_p = s_prev.rho, s_next.rho
    th_p = s_next.theta
    u_lag = rec.u_lag

    # --- momentum against retained sine modes, one residual per mode
    grad_u_p = sv._velocity_gradient(plan, s_next.u)
    stress = cst.viscous_stress(grad_u_p, p)
    pressure = cst.pressure(rho_p, th_p, p) \
        + cst.artificial_pressure(rho_p, reg.delta, reg.beta)
    d_vals = s_next.d
    grad_d = sv._director_gradient(plan, d_vals).swapaxes(0, 1)
    erick = cst.ericksen_stress(
        grad_d, cst.gl_potential(d_vals, p.penalty_scale))
    grad_rho_p = _grad_arrays(grid, rho_p)
    for name, phi, gphi in sin_tests:
        worst = 0.0
        for c in range(dim):
            val = integrate_values(
                grid, (rho_p * s_next.u[c] - rho_n * s_prev.u[c]) / dt * phi)
            for a in range(dim):
                val -= integrate_values(
                    grid, rho_n * s_prev.u[c] * s_prev.u[a] * gphi[a])
                val += integrate_values(grid, stress[a, c] * gphi[a])
                val -= p.elastic_coupling * integrate_values(
                    grid, erick[a, c] * gphi[a])
                if reg.eps > 0:
                    val += reg.eps * integrate_values(
                        grid, grad_u_p[a, c] * grad_rho_p[a] * phi)
            val -= integrate_values(grid, pressure * gphi[c])
            worst = max(worst, abs(val))
        out[f"mom_{name}"] = worst

    # --- heat: signed defect of the solved discrete balance
    heat = sv._FrozenHeat(plan, s_prev.theta, rho_n, reg, p, dt)
    m = sv._mass_flux(plan, rho_n, u_lag)
    d_prev = s_prev.d
    w = sv._director_transport(plan, u_lag,
                               sv._director_gradient(plan, d_prev))
    gtilde = sv._director_relaxation(d_vals, d_prev, w, dt, p)
    c0, rhs = sv._heat_system(heat, rho_p,
                              sv._velocity_gradient(plan, u_lag), m,
                              np.sum(gtilde * gtilde, axis=0), reg, p,
                              dt)
    defect = rhs - heat.apply(c0, th_p)
    for name, psi, _ in cos_tests:
        shifted = 1.0 + 0.5 * psi / max(1.0, float(np.abs(psi).max()))
        out[f"heat_{name}"] = integrate_values(grid, defect * shifted)

    # --- director: exact discrete balance against the cosine battery
    f_pair = cst.gl_force_two_point(d_prev, d_vals, p.penalty_scale)
    for name, psi, grad_psi in cos_tests:
        worst = 0.0
        for k in range(3):
            val = integrate_values(
                grid, ((d_vals[k] - d_prev[k]) / dt + w[k]) * psi)
            for a in range(dim):
                val += p.relax_rate * integrate_values(
                    grid, grad_d[a, k] * grad_psi[a])
            val += p.relax_rate * integrate_values(
                grid, f_pair[k] * psi)
            worst = max(worst, abs(val))
        out[f"dir_{name}"] = worst
    return out
