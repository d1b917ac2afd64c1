"""Semi-implicit time stepping for the regularized coupled system.

One step advances density, director, temperature and momentum in that order
inside a Picard loop that re-freezes coefficients until the velocity iterates
settle.  The substeps are arranged so that the discrete total-energy ledger
telescopes exactly: every force placement in the momentum equation is the
summation-by-parts partner of a flux in one of the scalar equations, and the
remaining defect is a sum of nonnegative terms of size O(dt) (quadratic
iterate increments and convexity gaps), never a spurious gain.

The substep kernels work on raw nodal arrays and take the grid's cached
SpectralPlan: the velocity is a (dim, *grid.shape) stack, the director a
(3, *grid.shape) stack, and a derivative, projection or Helmholtz solve of
every component is one matrix product per axis pass.  A director
fixed-point iteration therefore costs 4 products on a 2-D grid.  A State
holds its fields in that same layout, so a step reads and builds it with no
conversion, and the diagnostics and the manufactured-solution harness call
these same kernels, so an audit cannot drift from the step it audits.

There is one scheme, the 2/3 rule: each nodal product that becomes a stored
field or is paired against the velocity (the mass and heat fluxes, the
director transport, the pressure-gradient and Ericksen forces) is projected
onto the retained band of its parity.  Besides the time step and the
Picard controls of SolverConfig, its only knobs are the paper's
regularization levels in RegParams: the Galerkin modes n, the artificial
diffusion eps and the artificial pressure delta (with its exponent beta).

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
    IterationStall,
    NonFiniteState,
    PicardDivergence,
    PositivityLoss,
    SingularMassMatrix,
    SolverFailure,
    StepFailure,
    StepUnderflow,
    ValidationError,
)
from .fields import (
    COS,
    SIN,
    _strip_sine_nyquist,
    dirichlet,
    neumann,
    spectral_plan,
)
from .params import PhysParams, RegParams

_REJECT_SLACK = 1e-12

# Inner-solve tolerances of a Picard sweep: the relative residual of the heat
# conjugate gradients and the director fixed-point gap relative to its scale.
# A sweep solves to _INNER_TOL_LOOSE unless _picard_advance expects it to be
# the last, and only a sweep whose solves reached _INNER_TOL is accepted.
_INNER_TOL = 1e-13
_INNER_TOL_LOOSE = 1e-8


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class State:
    """One snapshot of the coupled unknowns at a common time, as nodal
    arrays in the layout of the substep kernels: ``rho`` and ``theta`` are
    cosine arrays of shape ``grid.shape``, ``u`` is the sine stack
    ``(dim, *grid.shape)`` and ``d`` the cosine stack ``(3, *grid.shape)``.

    ``history`` holds what the velocity predictor reads from earlier steps:
    at most two ``(dt, U)`` pairs, newest first, where ``U`` is the Galerkin
    coefficient array of the state a step started from and ``dt`` the step
    it took (see :func:`_predicts`).  A state with no past, such as
    an initial one, has ``()``.
    """

    __slots__ = ("grid", "t", "rho", "u", "theta", "d", "history")

    def __init__(self, grid, t, rho, u, theta, d, history=()):
        self.grid = grid
        self.t = float(t)
        self.history = tuple(history)
        lead = {"rho": (), "u": (grid.dim,), "theta": (), "d": (3,)}
        for name, values in zip(lead, (rho, u, theta, d)):
            values = np.ascontiguousarray(values, dtype=np.float64)
            if values.shape != lead[name] + grid.shape:
                raise GridMismatch(
                    f"state field {name} has shape {values.shape}, the "
                    f"grid {grid.shape} needs {lead[name] + grid.shape}")
            setattr(self, name, values)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_tol: float = 1e-9
    picard_max: int = 50

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
    """What only the step itself knows: the dt it took, its Picard sweeps
    and dt halvings, the velocity stack its accepted sweep was frozen at,
    the work and accuracy of its inner solves, and whether its first sweep
    started from the velocity predictor.  The time it reached is
    the ``t`` of the state it is paired with; the energy ledger is read off
    the two states (see ``diagnostics.energy_budget_residual``)."""

    dt: float
    picard_iters: int
    halvings: int
    u_lag: np.ndarray        # velocity stack the accepted sweep was frozen at
    heat_applies: int        # heat-operator applies over all sweeps
    director_iters: int      # director fixed-point iterations, all sweeps
    heat_residual: float     # relative CG residual the accepted sweep reached
    director_gap: float      # relative fixed-point gap it reached
    predicted: bool          # the first sweep started from the predictor


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
        """L2 projection of a component stack (dim, *grid.shape) onto the
        basis; returns coefficients U with shape (n_modes, dim)."""
        return self.pair(component_values) / self.gram

    def reconstruct(self, coeffs):
        """Nodal component stack (dim, *grid.shape) of coefficients U."""
        return (coeffs.T @ self._phi_flat).reshape(
            (self.grid.dim,) + self.grid.shape)

    def pair(self, component_values):
        """Pairing data F[i, c] = <g_c, phi_i> of a component stack (no
        Gram division)."""
        vals = np.asarray(component_values)
        return self.grid.weight * (
            self._phi_flat @ vals.reshape(len(vals), -1).T)

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
# substeps (raw arrays and component stacks; see the module docstring)
# ---------------------------------------------------------------------------

def _mass_flux(plan, rho, u):
    """Flux stack m_b = P_sin[rho * u_b] (all-sine arrays)."""
    return plan.project(rho * u, dirichlet(plan.dim))


def _density_update(plan, rho, u, eps, dt, source=None):
    m = _mass_flux(plan, rho, u)
    div_m = np.zeros(rho.shape)
    for b in range(plan.dim):
        div_m += plan.deriv(m[b], b, SIN)
    rhs = rho - dt * div_m
    if source is not None:
        rhs = rhs + dt * source
    rho_new = plan.helmholtz(rhs, neumann(plan.dim), 1.0, eps * dt) \
        if eps > 0 else rhs
    lo = float(rho_new.min())
    if not math.isfinite(lo):
        raise NonFiniteState("density")
    if lo < -_REJECT_SLACK * max(float(np.abs(rho).max()), 1e-300):
        raise PositivityLoss("density", f"density undershoot {lo:g}")
    return rho_new, m


def _velocity_gradient(plan, u):
    """Nodal velocity gradient G[a, c] = d u_c / d x_a of a velocity stack."""
    return np.stack([plan.deriv(u, a, SIN) for a in range(plan.dim)])


def _director_gradient(plan, d):
    """Nodal director gradient D[k, a] = d d_k / d x_a of a director stack."""
    return np.stack([plan.deriv(d, a, COS) for a in range(plan.dim)], axis=1)


def _director_transport(plan, u, grad_d):
    """Transport stack w_k = P_cos[u . grad d_k]."""
    adv = np.zeros(grad_d[:, 0].shape)
    for b in range(plan.dim):
        adv += u[b] * grad_d[:, b]
    return plan.project(adv, neumann(plan.dim))


def _director_relaxation(d_new, d_prev, w, dt, p: PhysParams):
    """Nodal relaxation stack ((d' - d)/dt + w) / relax_rate of a step."""
    return ((d_new - d_prev) / dt + w) / p.relax_rate


def _director_update(plan, d, u, grad_d, dt, p: PhysParams, source=None,
                     lag=None, tol=_INNER_TOL, max_iter=100):
    """Implicit-diffusion director step with a two-point penalty force.

    ``d`` is the director stack and ``grad_d`` its gradient (see
    :func:`_director_gradient`).  The fixed point starts from ``lag`` (the
    previous Picard sweep's director; ``d`` when None) and stops once one
    application moves the iterate by at most ``tol`` times its scale.  Each
    iteration solves the three Helmholtz problems as one stack.  Returns
    (d_new, gtilde, iterations, gap) where gtilde is the nodal relaxation
    stack (diffusion minus penalty force, exact by construction of the
    solve) and gap the last move relative to the scale.
    """
    kappa = p.relax_rate
    parity = neumann(plan.dim)
    w = _director_transport(plan, u, grad_d)

    lag = d if lag is None else lag
    scale = max(1.0, float(np.abs(d).max()))
    for it in range(1, max_iter + 1):
        force = cst.gl_force_two_point(d, lag, p.penalty_scale)
        rhs = d - dt * (w + kappa * force)
        if source is not None:
            rhs = rhs + dt * source
        d_new = plan.helmholtz(rhs, parity, 1.0, kappa * dt)
        gap = float(np.abs(d_new - lag).max())
        if not math.isfinite(gap):
            raise NonFiniteState("director")
        lag = d_new
        if gap <= tol * scale:
            break
    else:
        raise IterationStall("director", max_iter, gap, "increment")

    return d_new, _director_relaxation(d_new, d, w, dt, p), it, gap / scale


def _conduction_apply(plan, theta, kappa):
    """Nodal values of -div(kappa grad theta) for a cosine-parity theta.

    Fused on raw arrays: per axis one derivative matrix product from cosine
    to sine values, the nodal product with kappa and one product back, so
    the operator is symmetric up to round-off.  The flux's sine Nyquist
    content is never read, which is exactly the projection a stored sine
    field would apply.
    """
    out = np.zeros(theta.shape)
    for a in range(plan.dim):
        flux = kappa * plan.deriv(theta, a, COS)
        out -= plan.deriv(flux, a, SIN)
    return out


def _pcg(apply_op, precond, b, x0, tol, max_iter=400):
    """Preconditioned conjugate gradients from ``x0`` to the relative
    residual ``tol``.  Returns the solution, the relative residual it
    reached and the number of operator applies."""
    bnorm = math.sqrt(float(np.sum(b * b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = x0.copy()
    r = b - apply_op(x)
    pvec = rz = None
    for it in range(max_iter + 1):
        rnorm = math.sqrt(float(np.sum(r * r)))
        if not math.isfinite(rnorm):
            raise NonFiniteState("temperature")
        if rnorm <= tol * bnorm:
            return x, rnorm / bnorm, it + 1
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
    raise IterationStall("temperature", max_iter, rnorm / bnorm,
                         "relative residual")


class _FrozenHeat:
    """The parts of the heat operator that stay fixed over one step.

    kappa(theta^n), theta^n^alpha, the old-time part of the right-hand side
    and the preconditioner symbol ``cbar + kbar * lambda``.  ``cbar`` is the
    mean of the step-fixed part of the diagonal coefficient c0,
    (delta + rho^n) / dt + delta * theta^n^alpha; the swept part,
    R rho div u, has nearly zero mean, and mass conservation keeps the mean
    of the new density equal to that of rho^n.
    """

    def __init__(self, plan, theta, rho_prev, reg, p, dt):
        self.plan = plan
        self.theta = theta
        self.th_alpha = np.maximum(theta, 0.0) ** p.cond_growth
        self.kappa = cst.heat_conductivity(theta, p)
        self.rhs = (reg.delta + rho_prev) * theta / dt
        cbar = ((reg.delta + float(rho_prev.mean())) / dt
                + reg.delta * float(self.th_alpha.mean()))
        self.parity = neumann(plan.dim)
        self.symbol = cbar + float(self.kappa.mean()) * plan.symbol(
            self.parity)

    def precondition(self, vals):
        """Solve (cbar - kbar * Laplacian) z = vals with Neumann data."""
        plan = self.plan
        return plan.inverse(plan.forward(vals, self.parity) / self.symbol,
                            self.parity)

    def scaled_preconditioner(self, c0):
        """The symmetric preconditioner r -> s * precondition(s * r) for
        the operator with diagonal coefficient c0, where
        s = (c0 / mean c0)^(-1/2): a diagonal scaling around the
        constant-coefficient solve that takes out the spatial variation of
        c0, which dominates the low modes.  It costs no matrix product."""
        s = np.sqrt(float(c0.mean()) / c0)
        return lambda vals: s * self.precondition(s * vals)

    def apply(self, c0, vals):
        """The heat operator c0 * theta - div(kappa(theta^n) grad theta)."""
        return c0 * vals + _conduction_apply(self.plan, vals, self.kappa)


def _heat_convection(plan, theta, m):
    """Per-axis divergence terms d_b P[theta m_b] of the convective flux."""
    flux = plan.project(theta * m, dirichlet(plan.dim))
    return [plan.deriv(flux[b], b, SIN) for b in range(plan.dim)]


def _heat_system(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                 source=None):
    """Diagonal coefficient c0 and right-hand side of the implicit balance
    ``frozen.apply(c0, theta') = rhs`` for the conserved variable
    (delta + rho) theta.

    ``grad_u`` is the gradient of the lagged velocity (see
    :func:`_velocity_gradient`) and ``m`` the step's mass flux.  source_sq
    holds the nodal director heating |relaxation|^2 (coefficient applied
    here); the sink is lagged-coefficient implicit so positivity holds.
    """
    delta = reg.delta
    div_u = sum(grad_u[a, a] for a in range(frozen.plan.dim))
    c0 = (delta + rho_new) / dt + delta * frozen.th_alpha \
        + p.gas_const * rho_new * div_u
    rhs = frozen.rhs.copy()
    for term in _heat_convection(frozen.plan, frozen.theta, m):
        rhs -= term
    rhs += (1.0 - delta) * cst.stress_power(grad_u, p)
    rhs += p.elastic_coupling * p.relax_rate * source_sq
    if source is not None:
        rhs = rhs + source
    return c0, rhs


def _temperature_update(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                        guess, source=None, tol=_INNER_TOL):
    """Implicit update of the conserved variable (delta + rho) theta.

    ``frozen`` carries the step-fixed parts of the operator (built once per
    step by :class:`_FrozenHeat`) and :func:`_heat_system` assembles the
    rest.  The conjugate-gradient solve runs to the relative residual
    ``tol`` with the diagonally scaled preconditioner and is warm started
    from ``guess``: theta^n on the first Picard sweep and the previous
    sweep's temperature after that.  Returns the temperature, the relative
    residual reached and the number of operator applies.
    """
    c0, rhs = _heat_system(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                           source)
    lo = float(c0.min())
    if not math.isfinite(lo):
        raise NonFiniteState("temperature")
    if lo <= 0.0:
        raise PositivityLoss("temperature",
                             "temperature operator lost positivity")

    sol, res, applies = _pcg(lambda vals: frozen.apply(c0, vals),
                             frozen.scaled_preconditioner(c0), rhs, guess,
                             tol=tol)
    lo = float(sol.min())
    if lo < -_REJECT_SLACK * max(float(np.abs(frozen.theta).max()), 1e-300):
        raise PositivityLoss("temperature",
                             f"temperature undershoot {lo:g}")
    return sol, res, applies


def _momentum_forces(plan, u_minus, grad_u, rho_prev, rho_new, m, theta_new,
                     grad_d_prev, gtilde, reg, p):
    """Nodal force stack G_c whose pairings with the velocity are the exact
    summation-by-parts partners of the scalar-equation fluxes.

    ``grad_u`` and ``grad_d_prev`` are the gradients of ``u_minus`` and of
    the old director (see :func:`_velocity_gradient`,
    :func:`_director_gradient`)."""
    dim = plan.dim
    eps, delta = reg.eps, reg.delta

    force = np.zeros(u_minus.shape)

    # transport of momentum: -sum_b m_b d_b u_a
    for b in range(dim):
        force -= m[b] * grad_u[b]

    # compensation for the nonconservative discrete time derivative
    if eps > 0:
        grad_rho = [plan.deriv(rho_new, b, COS) for b in range(dim)]
        lap_rho = np.zeros(rho_new.shape)
        for b in range(dim):
            lap_rho += plan.deriv(grad_rho[b], b, SIN)
        force -= eps * lap_rho * u_minus
        for b in range(dim):
            force -= eps * grad_rho[b] * grad_u[b]

    # elastic + artificial pressure via the convex enthalpy, and the thermal
    # pressure: both gradients in one product per axis
    bp = cst.convex_pressure_enthalpy(rho_new, p.gamma)
    if delta > 0:
        bp = bp + delta * cst.convex_pressure_enthalpy(rho_new, reg.beta)
    pot = np.stack([bp, rho_new * theta_new])
    grad_bp, grad_q = np.stack([plan.deriv(pot, a, COS) for a in range(dim)],
                               axis=1)
    force -= rho_prev * plan.project(grad_bp, dirichlet(dim))
    force -= p.gas_const * grad_q

    # director (Ericksen) force
    nu = p.elastic_coupling
    gk = plan.project(gtilde, neumann(dim))
    for k in range(3):
        force -= nu * grad_d_prev[k] * gk[k]
    return force


def _momentum_update(plan, u_minus, grad_u, U_prev, rho_prev, rho_new, m,
                     theta_new, grad_d_prev, gtilde, reg, basis, dt, p,
                     mass_mat, stiff, source=None):
    force = _momentum_forces(plan, u_minus, grad_u, rho_prev, rho_new, m,
                             theta_new, grad_d_prev, gtilde, reg, p)
    if source is not None:
        force = force + source
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
        raise SingularMassMatrix(float(eigs[0]))
    return mass


# ---------------------------------------------------------------------------
# coupled step and time loop
# ---------------------------------------------------------------------------

def _sweep_is_last(inc, tol):
    """Whether the next sweep of a step is expected to be the last, from
    the relative velocity increments ``inc`` of the sweeps before it: the
    last one met ``tol`` already, or the increments contract fast enough
    that the next one, extrapolated as inc[-1]**2 / inc[-2], will.  With
    no increment yet the answer is no, and with one the increment before it
    counts as 1, since increments are relative to max(|U|, 1).  Started
    from u^n, the increments of the benchmark workloads run about 2e-3,
    2e-7 and 2e-11, so such a step takes 3 sweeps and only the third is
    full.  Started from the predictor, the first increment is at most
    9e-7, whose square is below the default tol of 1e-9, so a predicted
    step takes 2 sweeps and only the second is full."""
    return bool(inc) and (inc[-1] <= tol or inc[-1] ** 2 <= tol * (
        inc[-2] if len(inc) > 1 else 1.0))


def _predicts(history, dt, shape):
    """Whether a state's ``history`` predicts the velocity of a step of
    ``dt`` whose Galerkin coefficients have ``shape``.  It does not with
    fewer than two levels (the first two steps, a snapshot written without
    history), with a level whose dt is not this step's (after a dt
    halving, or for a truncated last step), or with one of another shape
    (a restart with other Galerkin modes).  The dts are compared up to the
    round-off of the accumulated t: a last step that lands on t_end a few
    ulps short of dt is still an equal step."""
    return len(history) >= 2 and all(
        abs(level_dt - dt) <= 1e-9 * dt and U.shape == shape
        for level_dt, U in history[:2])


def _picard_advance(s, reg, cfg, p, basis, dt, sources):
    """One Picard-coupled step on the raw arrays of ``s``; the accepted
    iterates make the new State.

    When the history of ``s`` predicts the step (see :func:`_predicts`),
    the first sweep starts from the quadratic extrapolation
    U* = 3 U^n - 3 U^(n-1) + U^(n-2) of the Galerkin coefficients, and
    otherwise from u^n.  The momentum equation's old level stays U^n
    either way: the prediction only moves the first sweep's frozen
    coefficients closer to the converged ones.  On the benchmark workloads it cuts the first
    increment from about 2e-3 to at most 9e-7 and the second from about
    2e-7 to at most 1e-10, so a predicted step takes 2 sweeps.

    The heat and director solves of a sweep run to _INNER_TOL_LOOSE or to
    _INNER_TOL: fully for the sweep :func:`_sweep_is_last` expects to be
    the last, predicted or not, and for the last sweep ``picard_max``
    allows.  A sweep is accepted when its velocity increment meets
    ``picard_tol`` and its inner solves reached _INNER_TOL, so a loose
    sweep that converges is followed by a full one.

    The new state's history is ``((dt, U^n),)`` followed by the newest
    level of ``s`` when it has the shape of U^n.  The step reads nothing
    but ``s``, so a restart from a snapshot that stores the history
    repeats the run exactly."""
    grid = s.grid
    plan = spectral_plan(grid)
    t1 = s.t + dt

    def source(name):
        fn = getattr(sources, name) if sources else None
        return None if fn is None else np.asarray(fn(t1))

    src_rho, src_mom = source("density"), source("momentum")
    src_th, src_dir = source("temperature"), source("director")

    rho, d, u_minus = s.rho, s.d, s.u
    mass = _checked_mass_matrix(basis, rho)
    stiff = basis.stiffness(p)
    grad_d_prev = _director_gradient(plan, d)
    U0 = U_minus = basis.project(u_minus)
    predicted = _predicts(s.history, dt, U0.shape)
    if predicted:
        (_, U1), (_, U2) = s.history[:2]
        U_minus = 3.0 * U0 - 3.0 * U1 + U2
        u_minus = basis.reconstruct(U_minus)
    heat = _FrozenHeat(plan, s.theta, rho, reg, p, dt)

    theta_new, d_new = heat.theta, d
    inc = []
    heat_applies = director_iters = 0
    for it in range(1, cfg.picard_max + 1):
        full = it == cfg.picard_max or _sweep_is_last(inc, cfg.picard_tol)
        tol = _INNER_TOL if full else _INNER_TOL_LOOSE
        grad_u = _velocity_gradient(plan, u_minus)
        rho_new, m = _density_update(plan, rho, u_minus, reg.eps, dt, src_rho)
        d_new, gtilde, iters, gap = _director_update(
            plan, d, u_minus, grad_d_prev, dt, p, src_dir, lag=d_new, tol=tol)
        gsq = np.sum(gtilde * gtilde, axis=0)
        theta_new, heat_res, applies = _temperature_update(
            heat, rho_new, grad_u, m, gsq, reg, p, dt, theta_new, src_th,
            tol=tol)
        heat_applies += applies
        director_iters += iters
        u_entered = u_minus
        u_new, U_new = _momentum_update(plan, u_minus, grad_u, U0, rho,
                                        rho_new, m, theta_new, grad_d_prev,
                                        gtilde, reg, basis, dt, p, mass,
                                        stiff, src_mom)
        diff = float(np.linalg.norm(U_new - U_minus))
        size = max(float(np.linalg.norm(U_new)), 1.0)
        u_minus, U_minus = u_new, U_new
        inc.append(diff / size)
        if (diff <= cfg.picard_tol * size and heat_res <= _INNER_TOL
                and gap <= _INNER_TOL):
            break
    else:
        raise PicardDivergence(cfg.picard_max, diff / size)

    record = StepRecord(dt=dt, picard_iters=it, halvings=0, u_lag=u_entered,
                        heat_applies=heat_applies,
                        director_iters=director_iters, heat_residual=heat_res,
                        director_gap=gap, predicted=predicted)
    history = ((dt, U0),) + tuple(
        level for level in s.history[:1] if level[1].shape == U0.shape)
    return State(grid, t1, rho_new, u_new, theta_new, d_new,
                 history), record


def step_coupled(s: State, reg: RegParams, cfg: SolverConfig, p: PhysParams,
                 basis: GalerkinBasis = None, sources: Sources = None):
    """One time step of the fully coupled scheme.

    Returns (new_state, StepRecord).  On a positivity rejection of a
    predicted step, the step is retried once at the same dt from ``s``
    with its history dropped, so unpredicted, and a prediction never costs
    a halving; any other positivity rejection retries the step with a
    halved dt, up to ten times.  Any other failure inside the step
    (non-finite data, a stalled inner iteration, Picard iterates that do
    not settle) is never retried, and its error names the substep, the
    last increment or residual, t and dt.
    """
    if basis is None:
        basis = GalerkinBasis(s.grid, reg.n_modes)
    dt = cfg.dt
    remaining = cfg.t_end - s.t
    if 0 < remaining < dt:
        dt = remaining
    start = s
    halving = 0
    while True:
        try:
            state, record = _picard_advance(start, reg, cfg, p, basis, dt,
                                            sources)
            record.halvings = halving
            return state, record
        except PositivityLoss as exc:
            if _predicts(start.history, dt, (basis.n, s.grid.dim)):
                start = State(s.grid, s.t, s.rho, s.u, s.theta, s.d)
                continue
            if halving == 10:
                raise StepUnderflow(exc.substep, halving, exc, s.t, dt) \
                    from exc
            halving += 1
            dt *= 0.5
        except StepFailure as exc:
            exc.t, exc.dt = s.t, dt
            raise


def run(s0: State, reg: RegParams, cfg: SolverConfig, p: PhysParams,
        sources=None):
    """Advance to t_end, yielding ``(s0, None)`` and then each accepted
    state with the StepRecord of the step ending there.

    Only the current state is kept, so memory does not grow with the step
    count unless the consumer keeps the pairs.  ``(s0, None)`` comes once
    the first step has returned or failed, so a consumer's work on it is
    not set-up.  Steps go through this module's ``step_coupled``, looked up
    at call time; a SolverFailure of a step carries its index ``step``.
    """
    cfg.validate()
    basis = GalerkinBasis(s0.grid, reg.n_modes)
    s, held = s0, [(s0, None)]
    del s0      # the initial state lives on in ``held`` until handed out
    n = 0
    max_steps = max(1, int(np.ceil(cfg.t_end / cfg.dt)) * 2 ** 11 + 4)
    while s.t < cfg.t_end - 1e-12 * max(cfg.t_end, 1.0):
        n += 1
        try:
            if n > max_steps:
                raise SolverFailure("time loop failed to reach t_end")
            s, rec = step_coupled(s, reg, cfg, p, basis, sources)
        except SolverFailure as exc:
            exc.step = n
            yield from held
            raise
        yield from held
        held = []
        yield s, rec
    yield from held


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def regularize_initial_data(grid, rho0, m0, theta0, d0, reg: RegParams,
                            theta_bounds=(0.1, 10.0)):
    """Build an admissible starting state from raw nodal data on ``grid``:
    the density ``rho0``, the momentum stack ``m0`` (dim sine components,
    such as ``rho0 * u0``), the temperature ``theta0`` and the director
    stack ``d0``.

    Pipeline: drop the sine Nyquist mode of the momentum, clamp the density
    to [delta, delta^(-1/(2 beta))], zero the momentum wherever
    the clamp pulled the density below its raw value, divide by the clamped
    density, project the velocity onto the retained modes, and clamp the
    temperature to the given bounds.  Raw momentum must vanish on the
    vacuum set of the raw density.
    """
    rho0 = np.asarray(rho0, dtype=np.float64)
    if float(rho0.min()) < -_REJECT_SLACK * max(float(np.abs(rho0).max()),
                                                1e-300):
        raise InvalidInitialData("initial density must be nonnegative")
    basis = GalerkinBasis(grid, reg.n_modes)

    raw = np.maximum(rho0, 0.0)
    lo = reg.delta
    hi = reg.delta ** (-1.0 / (2.0 * reg.beta)) if reg.delta > 0 else np.inf
    clamped = np.clip(rho0, lo, hi)

    m_vals = _strip_sine_nyquist(np.asarray(m0, dtype=np.float64),
                                 dirichlet(grid.dim), grid)
    vac = raw <= 1e-12 * max(1.0, float(raw.max()))
    for mv in m_vals:
        if np.any(np.abs(mv[vac]) > 1e-12 * max(1.0, float(np.abs(mv).max()))):
            raise InvalidInitialData("momentum must vanish on the vacuum set")

    masked = [np.where(clamped >= raw, mv, 0.0) for mv in m_vals]
    u_vals = [np.where(clamped > 0.0, mv / np.maximum(clamped, 1e-300), 0.0)
              for mv in masked]
    u = basis.reconstruct(basis.project(u_vals))

    th = np.clip(theta0, theta_bounds[0], theta_bounds[1])
    return State(grid, 0.0, clamped, u, th, d0)
