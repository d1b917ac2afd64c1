"""Semi-implicit time stepping for the regularized coupled system.

One step advances density, director, temperature and momentum in that order
inside a Picard loop that re-freezes coefficients until the velocity iterates
settle.  The substeps are arranged so that the discrete total-energy ledger
telescopes exactly: every force placement in the momentum equation is the
summation-by-parts partner of a flux in one of the scalar equations, and the
remaining defect is a sum of nonnegative terms of size O(dt) (quadratic
iterate increments and convexity gaps), never a spurious gain.

Key discrete facts this file relies on (established in fields.py):

* nodal summation by parts is exact for stored fields of opposite parity;
* the 2/3-rule projections are orthogonal in the nodal inner product, so
  they can be moved across pairings;
* the retained velocity modes keep per-axis frequencies at or below half the
  stored band, so squares of velocities are alias-free on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from .errors import (
    GridMismatch,
    InvalidInitialData,
    NonFiniteState,
    PicardDivergence,
    PositivityLoss,
    SingularMassMatrix,
    SolverFailure,
    StepUnderflow,
    ValidationError,
)
from .fields import (
    ScalarField,
    VectorField,
    dealias,
    dealias_values,
    deriv,
    dirichlet,
    divergence,
    inner,
    integrate_values,
    laplace_symbol,
    laplacian,
    neumann,
    r2r_forward,
    r2r_inverse,
    smooth,
    solve_helmholtz,
    spectral_plan,
)
from .params import PhysParams, RegParams

_REJECT_SLACK = 1e-12


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class State:
    """One snapshot of the coupled unknowns at a common time."""

    __slots__ = ("t", "rho", "u", "theta", "d")

    def __init__(self, t, rho, u, theta, d):
        grid = rho.grid
        if u.grid != grid or theta.grid != grid or d.grid != grid:
            raise GridMismatch("state fields live on different grids")
        self.t = float(t)
        self.rho = rho
        self.u = u
        self.theta = theta
        self.d = d

    @property
    def grid(self):
        return self.rho.grid

    def copy(self):
        return State(self.t, self.rho.copy(), self.u.copy(),
                     self.theta.copy(), self.d.copy())


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_tol: float = 1e-9
    picard_max: int = 50
    dealias: bool = True

    def validate(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.t_end < 0:
            raise ValidationError("t_end must be nonnegative")
        if not self.picard_tol > 0:
            raise ValidationError("picard_tol must be positive")
        if self.picard_max < 1:
            raise ValidationError("picard_max must be at least 1")
        return self


@dataclass
class StepRecord:
    """Per-step bookkeeping needed to audit the energy ledger."""

    t_new: float
    dt: float
    picard_iters: int
    halvings: int
    visc_prime: float        # <S(u'):grad u'> for the accepted velocity
    visc_lag: float          # same functional at the lagged iterate fed to theta
    director_sq: float       # <|relaxation rate field|^2>
    theta_sink: float        # <theta_old^alpha * theta_new>
    eps_gamma_interp: float  # <grad of enthalpy interpolant . grad rho'>
    eps_beta_interp: float
    eps_gamma_direct: float  # gamma <rho^{gamma-2} |grad rho|^2>
    eps_beta_direct: float
    u_lag: VectorField       # velocity the accepted sweep was frozen at
    dealias: bool            # whether the step applied the 2/3 rule


@dataclass
class Sources:
    """Optional manufactured right-hand sides, evaluated at the implicit
    time level.  Each callable maps t -> nodal array(s)."""

    density: object = None      # t -> array
    momentum: object = None     # t -> list of dim arrays
    temperature: object = None  # t -> array
    director: object = None     # t -> list of 3 arrays


# ---------------------------------------------------------------------------
# Galerkin velocity basis
# ---------------------------------------------------------------------------

class GalerkinBasis:
    """The n lowest sine tensor modes, ordered by Laplacian eigenvalue with
    lexicographic tie-breaking.

    Per-axis frequencies are capped at floor((N-1)/2) so that products of two
    retained modes stay inside the stored band: squares of velocities are
    then exactly representable on the grid, which the energy ledger needs.
    """

    def __init__(self, grid, n_modes):
        self.grid = grid
        cand = []
        caps = [min((n - 1) // 2, cut - 1)
                for n, cut in zip(grid.shape, grid.dealias_cut)]
        rngs = [range(1, cap + 1) for cap in caps]
        if grid.dim == 1:
            tuples = [(m,) for m in rngs[0]]
        else:
            tuples = [(m1, m2) for m1 in rngs[0] for m2 in rngs[1]]
        for tpl in tuples:
            lam = sum((np.pi * m / L) ** 2 for m, L in zip(tpl, grid.extents))
            cand.append((lam, tpl))
        cand.sort(key=lambda it: (it[0], it[1]))
        if n_modes > len(cand):
            raise ValidationError(
                f"n_modes = {n_modes} exceeds the {len(cand)} admissible "
                f"modes on this grid")
        self.modes = tuple(tpl for _, tpl in cand[:n_modes])
        self.eigenvalues = np.array([lam for lam, _ in cand[:n_modes]])
        self.n = n_modes
        self.gram = float(np.prod([L / 2.0 for L in grid.extents]))

        axes_sin = []
        axes_cos = []
        for ax in range(grid.dim):
            x = grid.axis_nodes[ax]
            freqs = np.arange(1, caps[ax] + 1) * np.pi / grid.extents[ax]
            axes_sin.append(np.sin(np.outer(freqs, x)))
            axes_cos.append(np.cos(np.outer(freqs, x)) * freqs[:, None])

        phi = np.empty((n_modes,) + grid.shape)
        grad = np.empty((n_modes, grid.dim) + grid.shape)
        for i, tpl in enumerate(self.modes):
            if grid.dim == 1:
                (m,) = tpl
                phi[i] = axes_sin[0][m - 1]
                grad[i, 0] = axes_cos[0][m - 1]
            else:
                m1, m2 = tpl
                phi[i] = np.outer(axes_sin[0][m1 - 1], axes_sin[1][m2 - 1])
                grad[i, 0] = np.outer(axes_cos[0][m1 - 1], axes_sin[1][m2 - 1])
                grad[i, 1] = np.outer(axes_sin[0][m1 - 1], axes_cos[1][m2 - 1])
        self.phi = phi
        self.grad = grad
        self._phi_flat = phi.reshape(n_modes, -1)
        self._stiffness = {}

    def project(self, component_values):
        """L2 projection of nodal component arrays onto the basis; returns
        coefficients U with shape (n_modes, dim)."""
        w = self.grid.weight
        cols = [w * (self._phi_flat @ np.asarray(v).ravel()) / self.gram
                for v in component_values]
        return np.stack(cols, axis=1)

    def reconstruct(self, coeffs):
        comps = []
        for c in range(self.grid.dim):
            vals = np.tensordot(coeffs[:, c], self.phi, axes=(0, 0))
            comps.append(ScalarField(self.grid, dirichlet(self.grid.dim),
                                     vals, project=False))
        return VectorField.velocity(comps)

    def pair(self, component_values):
        """Pairing data F[i, c] = <g_c, phi_i> (no Gram division)."""
        w = self.grid.weight
        cols = [w * (self._phi_flat @ np.asarray(v).ravel())
                for v in component_values]
        return np.stack(cols, axis=1)

    def mass_matrix(self, rho_values):
        weighted = self._phi_flat * (self.grid.weight * rho_values.ravel())
        return weighted @ self._phi_flat.T

    def stiffness(self, p: PhysParams):
        """Viscous form K with U^T K U = <S(u):grad u> exactly.

        Built once per basis and viscosity pair; the result is read-only.
        """
        key = (p.mu, p.lam)
        if key in self._stiffness:
            return self._stiffness[key]
        dim = self.grid.dim
        g = self.grad.reshape(self.n, dim, -1)
        w = self.grid.weight
        lap = w * np.einsum("iap,jap->ij", g, g)
        cross = w * np.einsum("iap,jbp->iajb", g, g)
        n = self.n
        K = np.zeros((n, dim, n, dim))
        for c in range(dim):
            K[:, c, :, c] += p.mu * lap
        for c in range(dim):
            for e in range(dim):
                K[:, c, :, e] += p.mu * cross[:, e, :, c]
                K[:, c, :, e] += p.lam * cross[:, c, :, e]
        K = K.reshape(n * dim, n * dim)
        K.flags.writeable = False
        self._stiffness[key] = K
        return K


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def _mass_flux(rho, u, dealias_on):
    """Dealiased flux components m_b = P_sin[rho * u_b] (all-sine fields)."""
    out = []
    for ub in u:
        prod = rho * ub
        out.append(dealias(prod) if dealias_on else prod)
    return out


def _density_update(rho, u, eps, dt, dealias_on=True, source=None):
    m = _mass_flux(rho, u, dealias_on)
    rhs = rho - dt * divergence(m)
    if source is not None:
        rhs = rhs + ScalarField(rho.grid, rho.parity, dt * source)
    rho_new = solve_helmholtz(rhs, 1.0, eps * dt) if eps > 0 else rhs
    lo = float(rho_new.values.min())
    if not math.isfinite(lo):
        raise NonFiniteState("density")
    if lo < -_REJECT_SLACK * max(rho.norm_inf(), 1e-300):
        raise PositivityLoss(f"density undershoot {lo:g}")
    return rho_new, m


def _velocity_gradient(u):
    """Nodal velocity gradient G[a, c] = d u_c / d x_a."""
    return np.stack([
        np.stack([deriv(uc, a).values for uc in u]) for a in range(u.grid.dim)
    ])


def _director_gradient(d):
    """Nodal director gradient D[k, a] = d d_k / d x_a."""
    return np.stack([
        np.stack([deriv(dk, a).values for a in range(d.grid.dim)]) for dk in d
    ])


def _director_transport(u, grad_d, dealias_on):
    """Transport arrays w_k = u . grad d_k, dealiased when the step is."""
    grid = u.grid
    out = []
    for k in range(3):
        adv = np.zeros(grid.shape)
        for b, ub in enumerate(u):
            adv += ub.values * grad_d[k, b]
        if dealias_on:
            adv = dealias_values(grid, adv, neumann(grid.dim))
        out.append(adv)
    return np.stack(out)


def _director_relaxation(d_new, d_prev, w, dt, p: PhysParams):
    """Nodal relaxation field ((d' - d)/dt + w) / relax_rate of a step."""
    return np.stack([
        ((d_new[k].values - d_prev[k].values) / dt + w[k]) / p.relax_rate
        for k in range(3)
    ])


def _director_update(d, u, grad_d, dt, p: PhysParams, dealias_on=True,
                     source=None, tol=1e-13, max_iter=100):
    """Implicit-diffusion director step with a two-point penalty force.

    ``grad_d`` is the gradient of ``d`` (see :func:`_director_gradient`).
    Returns (d_new, gtilde) where gtilde is the nodal relaxation field
    (diffusion minus penalty force, exact by construction of the solve).
    """
    grid = d.grid
    kappa = p.relax_rate
    w = _director_transport(u, grad_d, dealias_on)

    dn_vals = np.stack([c.values for c in d])
    lag = dn_vals.copy()
    scale = max(1.0, float(np.abs(dn_vals).max()))
    d_new = None
    for _ in range(max_iter):
        force = cst.gl_force_two_point(dn_vals, lag, p.penalty_scale)
        comps = []
        for k in range(3):
            rhs_vals = dn_vals[k] - dt * (w[k] + kappa * force[k])
            if source is not None:
                rhs_vals = rhs_vals + dt * source[k]
            rhs = ScalarField(grid, neumann(grid.dim), rhs_vals, project=False)
            comps.append(solve_helmholtz(rhs, 1.0, kappa * dt))
        new_vals = np.stack([c.values for c in comps])
        gap = float(np.abs(new_vals - lag).max())
        if not math.isfinite(gap):
            raise NonFiniteState("director")
        lag = new_vals
        d_new = comps
        if gap <= tol * scale:
            break
    else:
        raise SolverFailure("director fixed point did not settle")

    return VectorField.director(d_new), _director_relaxation(d_new, d, w, dt, p)


def _conduction_apply(theta_vals, kappa_vals, grid):
    """Nodal values of -div(kappa grad theta) for a cosine-parity theta.

    Fused on raw arrays: one forward transform of theta; per axis the
    gradient as an index shift and wavenumber product, one mixed inverse
    transform, the nodal product with kappa and one mixed forward transform
    of the flux; the divergence summed in coefficient space; one inverse
    transform.  The flux's sine Nyquist slot is never read, which is exactly
    the projection a stored sine field would apply.
    """
    c = r2r_forward(theta_vals)
    div = np.zeros_like(c)
    for a, (w, lo, hi) in enumerate(spectral_plan(grid).shifts):
        grad = np.zeros_like(c)
        grad[lo] = -w * c[hi]
        flux = r2r_forward(kappa_vals * r2r_inverse(grad, a), a)
        div[hi] += w * flux[lo]
    return -r2r_inverse(div)


def _pcg(apply_op, precond, b, x0, tol, max_iter=400):
    """Preconditioned conjugate gradients from ``x0`` to the relative
    residual ``tol``."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = x0.copy()
    r = b - apply_op(x)
    pvec = rz = None
    for it in range(max_iter + 1):
        rnorm = float(np.linalg.norm(r))
        if not math.isfinite(rnorm):
            raise NonFiniteState("temperature")
        if rnorm <= tol * bnorm:
            return x
        if it == max_iter:
            break
        z = precond(r)
        rz_new = float(np.sum(r * z))
        pvec = z if pvec is None else z + (rz_new / rz) * pvec
        rz = rz_new
        ap = apply_op(pvec)
        alpha = rz / float(np.sum(pvec * ap))
        x += alpha * pvec
        r -= alpha * ap
    raise SolverFailure("conjugate gradients stalled in the heat solve")


class _FrozenHeat:
    """The parts of the heat operator that stay fixed over one step.

    kappa(theta^n), theta^n^alpha, the old-time part of the right-hand side
    and the preconditioner symbol ``cbar + kbar * lambda``.  ``cbar`` is the
    mean of the step-fixed part of the diagonal coefficient c0,
    (delta + rho^n) / dt + delta * theta^n^alpha; the swept part,
    R rho div u, has nearly zero mean, and mass conservation keeps the mean
    of the new density equal to that of rho^n.
    """

    def __init__(self, theta, rho_prev, reg, p, dt):
        grid = theta.grid
        th_n = theta.values
        self.theta = theta
        self.th_alpha = np.maximum(th_n, 0.0) ** p.cond_growth
        self.kappa = cst.heat_conductivity(th_n, p)
        self.rhs = (reg.delta + rho_prev.values) * th_n / dt
        cbar = ((reg.delta + float(rho_prev.values.mean())) / dt
                + reg.delta * float(self.th_alpha.mean()))
        self.symbol = cbar + float(self.kappa.mean()) * laplace_symbol(
            grid, neumann(grid.dim))

    def precondition(self, vals):
        """Solve (cbar - kbar * Laplacian) z = vals with Neumann data."""
        return r2r_inverse(r2r_forward(vals) / self.symbol)

    def apply(self, c0, vals):
        """The heat operator c0 * theta - div(kappa(theta^n) grad theta)."""
        return c0 * vals + _conduction_apply(vals, self.kappa, self.theta.grid)


def _heat_convection(theta, m, dealias_on):
    """Per-axis divergence terms d_b P[theta m_b] of the convective flux."""
    out = []
    for b, mb in enumerate(m):
        flux = theta * mb
        if dealias_on:
            flux = dealias(flux)
        out.append(deriv(flux, b).values)
    return out


def _heat_system(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                 dealias_on=True, source=None):
    """Diagonal coefficient c0 and right-hand side of the implicit balance
    ``frozen.apply(c0, theta') = rhs`` for the conserved variable
    (delta + rho) theta.

    ``grad_u`` is the gradient of the lagged velocity (see
    :func:`_velocity_gradient`) and ``m`` the step's mass flux.  source_sq
    holds the nodal director heating |relaxation|^2 (coefficient applied
    here); the sink is lagged-coefficient implicit so positivity holds.
    """
    delta = reg.delta
    div_u = sum(grad_u[a, a] for a in range(rho_new.grid.dim))
    c0 = (delta + rho_new.values) / dt + delta * frozen.th_alpha \
        + p.gas_const * rho_new.values * div_u
    rhs = frozen.rhs.copy()
    for term in _heat_convection(frozen.theta, m, dealias_on):
        rhs -= term
    rhs += (1.0 - delta) * cst.stress_power(grad_u, p)
    rhs += p.elastic_coupling * p.relax_rate * source_sq
    if source is not None:
        rhs = rhs + source
    return c0, rhs


def _temperature_update(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                        guess, dealias_on=True, source=None):
    """Implicit update of the conserved variable (delta + rho) theta.

    ``frozen`` carries the step-fixed parts of the operator (built once per
    step by :class:`_FrozenHeat`) and :func:`_heat_system` assembles the
    rest.  The conjugate-gradient solve is warm started from ``guess``:
    theta^n on the first Picard sweep and the previous sweep's temperature
    after that.
    """
    c0, rhs = _heat_system(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                           dealias_on, source)
    lo = float(c0.min())
    if not math.isfinite(lo):
        raise NonFiniteState("temperature")
    if lo <= 0.0:
        raise PositivityLoss("temperature operator lost positivity")

    sol = _pcg(lambda vals: frozen.apply(c0, vals), frozen.precondition,
               rhs, guess, tol=1e-13)
    lo = float(sol.min())
    th_n = frozen.theta.values
    if lo < -_REJECT_SLACK * max(float(np.abs(th_n).max()), 1e-300):
        raise PositivityLoss(f"temperature undershoot {lo:g}")
    return ScalarField(rho_new.grid, neumann(rho_new.grid.dim), sol,
                       project=False)


def _momentum_forces(u_minus, grad_u, rho_prev, rho_new, m, theta_new,
                     grad_d_prev, gtilde, reg, p, dealias_on):
    """Nodal force arrays G_c whose pairings with the velocity are the exact
    summation-by-parts partners of the scalar-equation fluxes.

    ``grad_u`` and ``grad_d_prev`` are the gradients of ``u_minus`` and of
    the old director (see :func:`_velocity_gradient`,
    :func:`_director_gradient`)."""
    grid = rho_prev.grid
    dim = grid.dim
    eps, delta = reg.eps, reg.delta

    force = [np.zeros(grid.shape) for _ in range(dim)]

    # transport of momentum: -sum_b m_b d_b u_a
    for a in range(dim):
        for b in range(dim):
            force[a] -= m[b].values * grad_u[b, a]

    # compensation for the nonconservative discrete time derivative
    if eps > 0:
        lap_rho = laplacian(rho_new).values
        grad_rho = [deriv(rho_new, b) for b in range(dim)]
        for a in range(dim):
            force[a] -= eps * lap_rho * u_minus[a].values
            for b in range(dim):
                force[a] -= eps * grad_rho[b].values * grad_u[b, a]

    # elastic + artificial pressure via the convex enthalpy
    bp = cst.convex_pressure_enthalpy(rho_new.values, p.gamma)
    if delta > 0:
        bp = bp + delta * cst.convex_pressure_enthalpy(rho_new.values, reg.beta)
    bp_field = ScalarField(grid, neumann(dim), bp, project=False)
    for a in range(dim):
        gb = deriv(bp_field, a).values
        if dealias_on:
            gb = dealias_values(grid, gb, dirichlet(dim))
        force[a] -= rho_prev.values * gb

    # thermal pressure
    q = rho_new * theta_new
    for a in range(dim):
        force[a] -= p.gas_const * deriv(q, a).values

    # director (Ericksen) force
    nu = p.elastic_coupling
    for k in range(3):
        gk = gtilde[k]
        if dealias_on:
            gk = dealias_values(grid, gk, neumann(dim))
        for a in range(dim):
            force[a] -= nu * grad_d_prev[k, a] * gk
    return force


def _momentum_update(u_minus, grad_u, U_prev, rho_prev, rho_new, m,
                     theta_new, grad_d_prev, gtilde, reg, basis, dt, p,
                     mass_mat, stiff, dealias_on=True, source=None):
    force = _momentum_forces(u_minus, grad_u, rho_prev, rho_new, m,
                             theta_new, grad_d_prev, gtilde, reg, p,
                             dealias_on)
    if source is not None:
        force = [f + s for f, s in zip(force, source)]
    F = basis.pair(force)
    n, dim = basis.n, basis.grid.dim
    A = mass_mat_expand(mass_mat, dim) / dt + stiff
    rhs = (mass_mat @ U_prev) / dt + F
    U_new = np.linalg.solve(A, rhs.reshape(n * dim)).reshape(n, dim)
    return basis.reconstruct(U_new), U_new


def mass_mat_expand(mass, dim):
    """Block-diagonal expansion of the scalar mass matrix over components."""
    n = mass.shape[0]
    out = np.zeros((n, dim, n, dim))
    for c in range(dim):
        out[:, c, :, c] = mass
    return out.reshape(n * dim, n * dim)


def _checked_mass_matrix(basis, rho_values):
    mass = basis.mass_matrix(rho_values)
    eigs = np.linalg.eigvalsh(mass)
    if eigs[0] < 1e-14 * max(1.0, eigs[-1]):
        raise SingularMassMatrix(
            f"velocity mass matrix near-singular (min eig {eigs[0]:.3e})")
    return mass


# ---------------------------------------------------------------------------
# coupled step and time loop
# ---------------------------------------------------------------------------

def _picard_advance(s, reg, cfg, p, basis, dt, sources):
    t_new = s.t + dt
    src_rho = sources.density(t_new) if sources and sources.density else None
    src_mom = sources.momentum(t_new) if sources and sources.momentum else None
    src_th = sources.temperature(t_new) if sources and sources.temperature else None
    src_dir = sources.director(t_new) if sources and sources.director else None

    mass = _checked_mass_matrix(basis, s.rho.values)
    stiff = basis.stiffness(p)
    grad_d_prev = _director_gradient(s.d)
    U0 = basis.project([c.values for c in s.u])
    heat = _FrozenHeat(s.theta, s.rho, reg, p, dt)

    u_minus, U_minus = s.u, U0
    theta_new = s.theta
    deal = cfg.dealias
    for it in range(1, cfg.picard_max + 1):
        grad_u = _velocity_gradient(u_minus)
        rho_new, m = _density_update(s.rho, u_minus, reg.eps, dt, deal, src_rho)
        d_new, gtilde = _director_update(s.d, u_minus, grad_d_prev, dt, p,
                                         deal, src_dir)
        gsq = np.sum(gtilde * gtilde, axis=0)
        theta_new = _temperature_update(heat, rho_new, grad_u, m, gsq, reg,
                                        p, dt, theta_new.values, deal, src_th)
        u_entered = u_minus
        u_new, U_new = _momentum_update(u_minus, grad_u, U0, s.rho, rho_new,
                                        m, theta_new, grad_d_prev, gtilde,
                                        reg, basis, dt, p, mass, stiff,
                                        deal, src_mom)
        diff = float(np.linalg.norm(U_new - U_minus))
        u_minus, U_minus = u_new, U_new
        if diff <= cfg.picard_tol * max(float(np.linalg.norm(U_new)), 1.0):
            break
    else:
        raise PicardDivergence(
            f"velocity iterates did not settle in {cfg.picard_max} sweeps")

    new_state = State(t_new, rho_new, u_new, theta_new, d_new)
    record = _make_step_record(new_state, heat, u_entered, grad_u, U_new,
                               stiff, gsq, reg, p, dt, it, deal)
    return new_state, record


def _make_step_record(s_new, heat, u_lag, grad_lag, U_new, stiff, gsq, reg,
                      p, dt, iters, dealias_on):
    """Ledger of an accepted step; ``grad_lag`` is the gradient of the
    lagged velocity ``u_lag`` of the last sweep."""
    grid = s_new.grid
    dim = grid.dim
    visc_prime = float(U_new.reshape(-1) @ stiff @ U_new.reshape(-1))
    visc_lag = integrate_values(grid, cst.stress_power(grad_lag, p))
    director_sq = integrate_values(grid, gsq)
    theta_sink = integrate_values(grid, heat.th_alpha * s_new.theta.values)

    rho = s_new.rho
    grad_rho = [deriv(rho, b) for b in range(dim)]
    safe = np.maximum(rho.values, 0.0)

    def interp_form(exponent):
        bp = ScalarField(grid, neumann(dim),
                         cst.convex_pressure_enthalpy(safe, exponent),
                         project=False)
        return sum(inner(deriv(bp, b), grad_rho[b]) for b in range(dim))

    def direct_form(exponent):
        dens = np.zeros(grid.shape)
        for b in range(dim):
            dens += grad_rho[b].values ** 2
        base = np.zeros_like(safe)
        mask = safe > 0
        base[mask] = safe[mask] ** (exponent - 2.0)
        return exponent * integrate_values(grid, base * dens)

    return StepRecord(
        t_new=s_new.t, dt=dt, picard_iters=iters, halvings=0,
        visc_prime=visc_prime, visc_lag=visc_lag,
        director_sq=director_sq, theta_sink=theta_sink,
        eps_gamma_interp=interp_form(p.gamma),
        eps_beta_interp=interp_form(reg.beta) if reg.delta > 0 else 0.0,
        eps_gamma_direct=direct_form(p.gamma),
        eps_beta_direct=direct_form(reg.beta) if reg.delta > 0 else 0.0,
        u_lag=u_lag, dealias=dealias_on,
    )


def step_coupled(s: State, reg: RegParams, cfg: SolverConfig, p: PhysParams,
                 basis: GalerkinBasis = None, sources: Sources = None):
    """One time step of the fully coupled scheme.

    Returns (new_state, StepRecord).  On a positivity rejection the step is
    retried with a halved dt, up to ten times; non-finite data is never
    retried, and its error names the substep, t and dt.
    """
    if basis is None:
        basis = GalerkinBasis(s.grid, reg.n_modes)
    dt = cfg.dt
    remaining = cfg.t_end - s.t
    if 0 < remaining < dt:
        dt = remaining
    for halving in range(11):
        try:
            state, record = _picard_advance(s, reg, cfg, p, basis, dt, sources)
            record.halvings = halving
            return state, record
        except PositivityLoss:
            dt *= 0.5
        except NonFiniteState as exc:
            raise NonFiniteState(exc.substep, s.t, dt) from exc
    raise StepUnderflow("step rejected after 10 dt halvings")


def run(s0: State, reg: RegParams, cfg: SolverConfig, p: PhysParams,
        monitors=None, basis=None, sources=None):
    """Advance to t_end; returns (states, records) with records[k] the
    ledger data for the step ending at states[k] (records[0] is None)."""
    cfg.validate()
    if basis is None:
        basis = GalerkinBasis(s0.grid, reg.n_modes)
    states = [s0]
    records = [None]
    s = s0
    guard = 0
    max_steps = max(1, int(np.ceil(cfg.t_end / cfg.dt)) * 2 ** 11 + 4)
    while s.t < cfg.t_end - 1e-12 * max(cfg.t_end, 1.0):
        s, rec = step_coupled(s, reg, cfg, p, basis, sources)
        states.append(s)
        records.append(rec)
        if monitors:
            for mon in monitors:
                mon(s, rec)
        guard += 1
        if guard > max_steps:
            raise SolverFailure("time loop failed to reach t_end")
    return states, records


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def regularize_initial_data(rho0, m0, theta0, d0, reg: RegParams,
                            theta_bounds=(0.1, 10.0), mollify_width=0.0,
                            basis: GalerkinBasis = None):
    """Build an admissible starting state from raw data.

    Pipeline: mollify and clamp the density to [delta, delta^(-1/(2 beta))],
    zero the momentum wherever the clamp pulled the density below its raw
    value, divide by the clamped density, project the velocity onto the
    retained modes, and clamp the temperature to the given bounds.  Raw
    momentum must vanish on the vacuum set of the raw density.
    """
    grid = rho0.grid
    if float(rho0.values.min()) < -_REJECT_SLACK * max(rho0.norm_inf(), 1e-300):
        raise InvalidInitialData("initial density must be nonnegative")
    if basis is None:
        basis = GalerkinBasis(grid, reg.n_modes)

    smoothed = smooth(rho0, mollify_width)
    raw = np.maximum(rho0.values, 0.0)
    lo = reg.delta
    hi = reg.delta ** (-1.0 / (2.0 * reg.beta)) if reg.delta > 0 else np.inf
    clamped = np.clip(smoothed.values, lo, hi)
    rho = ScalarField(grid, neumann(grid.dim), clamped, project=False)

    m_vals = [np.asarray(c.values if isinstance(c, ScalarField) else c,
                         dtype=float) for c in m0]
    vac = raw <= 1e-12 * max(1.0, float(raw.max()))
    for mv in m_vals:
        if np.any(np.abs(mv[vac]) > 1e-12 * max(1.0, float(np.abs(mv).max()))):
            raise InvalidInitialData("momentum must vanish on the vacuum set")

    masked = [np.where(clamped >= raw, mv, 0.0) for mv in m_vals]
    u_vals = [np.where(clamped > 0.0, mv / np.maximum(clamped, 1e-300), 0.0)
              for mv in masked]
    u = basis.reconstruct(basis.project(u_vals))

    th = np.clip(theta0.values, theta_bounds[0], theta_bounds[1])
    theta = ScalarField(grid, neumann(grid.dim), th, project=False)
    return State(0.0, rho, u, theta, d0)
