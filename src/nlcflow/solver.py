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
onto the retained band of its parity.  Besides the time step and end time
of SolverConfig, its only knobs are the paper's regularization levels in
RegParams: the Galerkin modes n, the artificial diffusion eps and the
artificial pressure delta (with its exponent beta).

Key discrete facts this file relies on (established in fields.py):

* nodal summation by parts is exact for stored fields of opposite parity;
* the 2/3-rule projections are orthogonal in the nodal inner product, so
  they can be moved across pairings;
* the retained velocity modes keep per-axis frequencies at or below half the
  stored band, so squares of velocities are alias-free on the grid.
"""

from __future__ import annotations

import functools
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
    TooManyModes,
    ValidationError,
)
from .fields import (
    _readonly,
    _strip_sine_nyquist,
    dirichlet,
    neumann,
    spectral_plan,
)
from .params import PhysParams, RegParams

_REJECT_SLACK = 1e-12

# Inner-solve tolerance of every Picard sweep: the relative residual of the
# heat conjugate gradients and the director fixed-point gap relative to its
# scale.  Both solves return only once they reach it within their caps, and
# raise IterationStall otherwise.
_INNER_TOL = 1e-13
_DIRECTOR_MAX_ITER = 100
_CG_MAX_ITER = 400

# A sweep is accepted once its velocity increment is at most _PICARD_TOL
# relative to the new table; a step with no accepted sweep within
# _PICARD_MAX raises PicardDivergence.
_PICARD_TOL = 1e-9
_PICARD_MAX = 50

# The temperature clamp of a regularized initial state.
_THETA_BOUNDS = (0.1, 10.0)

# Levels a State keeps for the predictor: with five, a step extrapolates
# the Galerkin coefficients, the temperature and the director by the
# quintic through six points.
_HISTORY_LEVELS = 5


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class State:
    """One snapshot of the coupled unknowns at a common time, in the layout
    of the substep kernels: ``rho`` and ``theta`` are cosine arrays of
    shape ``grid.shape`` and ``d`` the cosine stack ``(3, *grid.shape)``.
    The velocity is given only as its Galerkin coefficient table ``U``,
    shape ``(n, dim)``; its nodal sine stack ``u``, ``(dim, *grid.shape)``,
    is ``galerkin_basis(grid, n).reconstruct(U)``, built once here.

    ``history`` holds what the predictor reads from earlier steps: at most
    ``_HISTORY_LEVELS`` (five) ``(dt, U, theta, d)`` levels, newest first,
    where ``U``, ``theta`` and ``d`` are the Galerkin coefficient table,
    the temperature and the director of the state a step started from and
    ``dt`` the step it took (see :func:`_predicts`); a step keeps only
    levels of one dt and one table shape.  A predicted step starts its
    first sweep from all three extrapolated (:func:`_picard_advance`).  A
    state with no past, such as an initial one, has ``()``.

    ``grad_d``, the director's gradient stack ``plan.grad(d)``, is taken
    on first use and kept, so the step from this state and its record
    (``diagnostics.make_record``) share it, whichever asks first.  A
    uniform director (``uniform_d``: every node equals the first, compared
    exactly, checked once and kept) has an exactly zero gradient, which is
    a zero stack with no product.  The step reads ``grad_d`` only for a
    live director: an inert one (:func:`_inert_director`) is uniform, and
    the step never reads its gradient.

    ``grad_rho``, the density's gradient ``plan.grad(rho)``, is likewise
    kept once taken.  A step with eps > 0 takes it on every sweep and hands
    the accepted sweep's to the new state (``grad_rho`` here), so the
    record and the audits of that state do not take it again; any other
    state takes it on first use.
    """

    __slots__ = ("grid", "t", "rho", "U", "theta", "d", "history", "u",
                 "_grad_d", "_grad_rho", "_uniform_d")

    def __init__(self, grid, t, rho, U, theta, d, history=(),
                 grad_rho=None):
        self.grid = grid
        self.t = float(t)
        self.history = tuple(history)
        lead = {"rho": (), "theta": (), "d": (3,)}
        for name, values in zip(lead, (rho, theta, d)):
            values = np.ascontiguousarray(values, dtype=np.float64)
            if values.shape != lead[name] + grid.shape:
                raise GridMismatch(
                    f"state field {name} has shape {values.shape}, the "
                    f"grid {grid.shape} needs {lead[name] + grid.shape}")
            setattr(self, name, values)
        self.U = U = np.ascontiguousarray(U, dtype=np.float64)
        if U.ndim != 2 or U.shape[0] < 1 or U.shape[1] != grid.dim:
            raise GridMismatch(
                f"state field U has shape {U.shape}, the grid "
                f"{grid.shape} needs (n, {grid.dim}) with n >= 1")
        self.u = galerkin_basis(grid, len(U)).reconstruct(U)
        self._grad_d = self._uniform_d = None
        self._grad_rho = None if grad_rho is None else _readonly(grad_rho)

    @property
    def uniform_d(self):
        """Whether every node of d equals its first node, compared exactly
        (so NaN data never is), checked on first use and kept."""
        if self._uniform_d is None:
            d = self.d
            corner = spectral_plan(self.grid).corner
            self._uniform_d = bool(np.all(d == d[corner]))
        return self._uniform_d

    @property
    def grad_d(self):
        """``plan.grad(d)``, taken on first use and kept (read-only); for a
        uniform d, a zero stack with no product."""
        if self._grad_d is None:
            self._grad_d = _readonly(
                np.zeros((self.grid.dim,) + self.d.shape) if self.uniform_d
                else spectral_plan(self.grid).grad(self.d))
        return self._grad_d

    @property
    def grad_rho(self):
        """``plan.grad(rho)``, handed over by the step or taken on first
        use, and kept (read-only)."""
        if self._grad_rho is None:
            self._grad_rho = _readonly(spectral_plan(self.grid).grad(self.rho))
        return self._grad_rho


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float

    def validate(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.t_end < 0:
            raise ValidationError("t_end must be nonnegative")
        return self


@dataclass
class StepRecord:
    """What only the step itself knows: the dt it took, its Picard sweeps
    and dt halvings, the Galerkin coefficient table of the velocity its
    accepted sweep was frozen at, the work of its inner solves and the
    residual and gap its accepted sweep reached (each at most _INNER_TOL,
    to which every sweep solves), and whether its first sweep started from
    the predictor.  The time it reached is the ``t`` of the state it is
    paired with; the energy ledger is read off the two states (see
    ``diagnostics.energy_budget_residual``)."""

    dt: float
    picard_iters: int
    halvings: int
    U_lag: np.ndarray        # (n, dim) table the accepted sweep was frozen at
    heat_applies: int        # heat-operator applies over all sweeps
    director_iters: int      # director fixed-point iterations, all sweeps
    heat_residual: float     # relative CG residual the accepted sweep reached
    director_gap: float      # relative fixed-point gap it reached
    predicted: bool          # the first sweep started from the predictor


# ---------------------------------------------------------------------------
# Galerkin velocity basis
# ---------------------------------------------------------------------------

def _per_axis(mats, values):
    """``mats[a]`` applied along grid axis a of an array or of a stack of
    them: one small product per axis with a basis table, which is not one
    of the grid's N x N operators (``fields._along``)."""
    for ax, mat in enumerate(mats):
        values = values @ mat.T if ax == len(mats) - 1 else mat @ values
    return values


class GalerkinBasis:
    """The n lowest sine tensor modes, ordered by Laplacian eigenvalue with
    lexicographic tie-breaking.  The order does not depend on n, so the
    modes of n are a prefix of those of any larger count.

    Per-axis frequencies are capped at floor((N-1)/2) so that products of two
    retained modes stay inside the stored band: squares of velocities are
    then exactly representable on the grid, which the energy ledger needs.

    A mode is a tensor product of one row per axis, so the basis keeps only
    per-axis tables and every operation is a few small products per axis:
    row k - 1 of ``_sin[a]`` is sin(k pi x / L) at the nodes of axis a, of
    ``_cos[a]`` its derivative, and ``_pairs[a]`` holds the products of
    pairs of sine rows.  Nothing it holds grows with n times the nodes.
    """

    def __init__(self, grid, n_modes):
        self.grid = grid
        caps = [min((n - 1) // 2, cut - 1)
                for n, cut in zip(grid.shape, grid.dealias_cut)]
        # every candidate tuple, one column per axis, and its eigenvalue
        # summed over the axes in order; np.lexsort sorts by its last key
        # first, so by the eigenvalue and then by m_0, m_1, ...
        axes = np.meshgrid(*[np.arange(1, c + 1) for c in caps],
                           indexing="ij")
        cand = np.stack([m.ravel() for m in axes], axis=1)
        eig = sum((np.pi * m / L) ** 2 for m, L in zip(cand.T, grid.extents))
        if n_modes > len(cand):
            raise TooManyModes(n_modes, len(cand), grid.shape)
        order = np.lexsort(tuple(cand.T[::-1]) + (eig,))
        self.modes = tuple(map(tuple, cand[order[:n_modes]].tolist()))
        self.n = n_modes
        self.gram = float(np.prod([L / 2.0 for L in grid.extents]))

        # per axis, the row of each mode in the tables, which are shared
        # through galerkin_basis and so read-only like a SpectralPlan
        self._index = tuple(np.array(ks) - 1 for ks in zip(*self.modes))
        freqs = [np.arange(1, i.max() + 2) * np.pi / L
                 for i, L in zip(self._index, grid.extents)]
        self._sin = tuple(_readonly(np.sin(np.outer(f, x)))
                          for f, x in zip(freqs, grid.axis_nodes))
        self._cos = tuple(_readonly(np.cos(np.outer(f, x)) * f[:, None])
                          for f, x in zip(freqs, grid.axis_nodes))
        # and the row of each pair of modes in the products of pairs
        self._pairs = tuple(_readonly((t[:, None] * t[None]).reshape(
            -1, t.shape[1])) for t in self._sin)
        self._pair_index = tuple(i[:, None] * len(t) + i[None]
                                 for i, t in zip(self._index, self._sin))
        self._stiffness = {}

    def _spread(self, coeffs):
        """Coefficients (n, dim) as a (dim, *row counts) array, zero off
        the modes."""
        out = np.zeros((coeffs.shape[1],) + tuple(len(t) for t in self._sin))
        out[(slice(None),) + self._index] = coeffs.T
        return out

    def reconstruct(self, coeffs):
        """Nodal component stack (dim, *grid.shape) of coefficients U."""
        return _per_axis([t.T for t in self._sin], self._spread(coeffs))

    def gradient(self, coeffs):
        """Gradient stack (dim, dim, *grid.shape) of the velocity with
        coefficients U, entry [a, c] being d u_c / d x_a, the layout of
        :meth:`~nlcflow.fields.SpectralPlan.grad`."""
        spread = self._spread(coeffs)
        dim = self.grid.dim
        # filled in place: np.stack of the rows made this about eight times
        # as slow at 128^2
        out = np.empty((dim, dim) + self.grid.shape)
        for a in range(dim):
            out[a] = _per_axis([(self._cos if b == a else self._sin)[b].T
                                for b in range(dim)], spread)
        return out

    def pair(self, component_values):
        """Pairing data F[i, c] = <g_c, phi_i> of a component stack (no
        Gram division)."""
        rows = _per_axis(self._sin, np.asarray(component_values))
        return self.grid.weight * rows[(slice(None),) + self._index].T

    def project(self, component_values):
        """L2 projection of a component stack (dim, *grid.shape) onto the
        basis; returns coefficients U with shape (n_modes, dim)."""
        return self.pair(component_values) / self.gram

    def mass_matrix(self, rho_values):
        """M[i, j] = <rho phi_i, phi_j>: rho summed one axis at a time
        against the products of pairs of per-axis sine rows, then read at
        the modes' pairs."""
        summed = _per_axis(self._pairs, self.grid.weight * rho_values)
        return summed[self._pair_index]

    def stiffness(self, p: PhysParams):
        """Viscous form K with U^T K U = <S(u):grad u> exactly, entry
        [(i, c), (j, e)] being mu <grad phi_i, grad phi_j> delta_ce
        + mu <d_e phi_i, d_c phi_j> + lam <d_c phi_i, d_e phi_j>.

        Built once per basis and viscosity pair; the result is read-only.
        """
        key = (p.mu, p.lam)
        if key not in self._stiffness:
            dim, n = self.grid.dim, self.n
            # cross[a, b] = <d_a phi_i, d_b phi_j>, a product over the axes
            # e of Gram matrices of the modes' sine rows (0), or of their
            # derivative rows (1) on axis a for phi_i and on axis b for phi_j
            gram = [[[(lt @ rt.T)[np.ix_(i, i)] for rt in (s, c)]
                     for lt in (s, c)]
                    for s, c, i in zip(self._sin, self._cos, self._index)]
            cross = self.grid.weight * np.array([[np.prod(
                [gram[e][e == a][e == b] for e in range(dim)], axis=0)
                for b in range(dim)] for a in range(dim)])
            K = (np.kron(p.mu * np.trace(cross), np.eye(dim))
                 + (p.mu * cross.transpose(2, 1, 3, 0)
                    + p.lam * cross.transpose(2, 0, 3, 1)).reshape(
                        n * dim, n * dim))
            K.flags.writeable = False
            self._stiffness[key] = K
        return self._stiffness[key]


@functools.lru_cache(maxsize=32)
def galerkin_basis(grid, n_modes):
    """The cached :class:`GalerkinBasis` of ``n_modes`` modes on ``grid``,
    built once per pair, as :func:`nlcflow.fields.spectral_plan` caches
    plans."""
    return GalerkinBasis(grid, n_modes)


# ---------------------------------------------------------------------------
# substeps (raw arrays and component stacks; see the module docstring)
# ---------------------------------------------------------------------------

def _mass_flux(plan, rho, u):
    """Flux stack m_b = P_sin[rho * u_b] (all-sine arrays)."""
    return plan.project(rho * u, dirichlet(plan.dim))


def _density_update(plan, rho, u, diffuse, dt, source=None):
    """The new density and the mass flux of one sweep; ``diffuse`` is the
    step's artificial-diffusion solve ``plan.helmholtz(1, eps dt)``, or None
    when eps is 0."""
    m = _mass_flux(plan, rho, u)
    rhs = rho - dt * plan.div(m)
    if source is not None:
        rhs = rhs + dt * source
    rho_new = rhs if diffuse is None else diffuse(rhs)
    lo = float(rho_new.min())
    if not math.isfinite(lo):
        raise NonFiniteState("density")
    if lo < -_REJECT_SLACK * max(float(np.abs(rho).max()), 1e-300):
        raise PositivityLoss("density", f"density undershoot {lo:g}")
    return rho_new, m


def _inert_director(s, source, p: PhysParams):
    """Whether the director of state ``s`` is inert over a step: it has no
    ``source``, it is uniform (``State.uniform_d``: every node equals the
    first, compared exactly, so NaN data is never inert), and the penalty
    force of that value is exactly zero, that is |d|^2 == 1 in floating
    point, or d = 0.  Such a d solves the discrete director map exactly for
    any velocity: its gradient, transport and penalty force are zero, and a
    constant solves the Helmholtz problem exactly, so the step's new
    director is d itself and its relaxation, director heating and Ericksen
    force are zero."""
    if source is not None or not s.uniform_d:
        return False
    d0 = s.d[spectral_plan(s.grid).corner]
    return not np.any(cst.gl_force(d0, p.penalty_scale))


def _director_transport(plan, u, grad_d):
    """Transport stack w_k = P_cos[u . grad d_k]."""
    adv = np.zeros(grad_d[0].shape)
    for b in range(plan.dim):
        adv += u[b] * grad_d[b]
    return plan.project(adv, neumann(plan.dim))


def _director_relaxation(d_new, d_prev, w, dt, p: PhysParams):
    """Nodal relaxation stack ((d' - d)/dt + w) / relax_rate of a step."""
    return ((d_new - d_prev) / dt + w) / p.relax_rate


def _director_update(plan, d, u, grad_d, relax, dt, p: PhysParams,
                     source, lag):
    """Implicit-diffusion director step with a two-point penalty force.

    ``d`` is the director stack, ``grad_d`` its gradient stack
    ``plan.grad(d)``, ``relax`` the step's solve
    ``plan.helmholtz(1, relax_rate dt)`` and ``source`` the manufactured
    director forcing or None.  The fixed point starts from ``lag`` (the
    previous Picard sweep's director) and stops once one application moves
    the iterate by at most _INNER_TOL times its scale.  Each iteration
    solves the three Helmholtz problems as one stack.  Returns (d_new,
    gtilde, iterations, gap) where gtilde is the nodal relaxation stack
    (diffusion minus penalty force, exact by construction of the solve)
    and gap the last move relative to the scale.
    """
    kappa = p.relax_rate
    w = _director_transport(plan, u, grad_d)

    scale = max(1.0, float(np.abs(d).max()))
    for it in range(1, _DIRECTOR_MAX_ITER + 1):
        force = cst.gl_force_two_point(d, lag, p.penalty_scale)
        rhs = d - dt * (w + kappa * force)
        if source is not None:
            rhs = rhs + dt * source
        d_new = relax(rhs)
        gap = float(np.abs(d_new - lag).max())
        if not math.isfinite(gap):
            raise NonFiniteState("director")
        lag = d_new
        if gap <= _INNER_TOL * scale:
            break
    else:
        raise IterationStall("director", _DIRECTOR_MAX_ITER, gap, "increment")

    return d_new, _director_relaxation(d_new, d, w, dt, p), it, gap / scale


def _conduction_apply(plan, theta, kappa):
    """Nodal values of -div(kappa grad theta) for a cosine-parity theta.

    Fused on raw arrays: per axis one derivative matrix product from cosine
    to sine values, the nodal product with kappa and one product back, so
    the operator is symmetric up to round-off.  The flux's sine Nyquist
    content is never read, which is exactly the projection a stored sine
    field would apply.
    """
    # scaled in place: every CG iteration applies this, and a fresh
    # (dim, N, N) product per apply made it about 1.5 times as slow at 128^2
    flux = plan.grad(theta)
    flux *= kappa
    out = plan.div(flux)
    return np.negative(out, out=out)


def _pcg(apply_op, precond, b, x0):
    """Preconditioned conjugate gradients from ``x0`` to the relative
    residual _INNER_TOL in at most _CG_MAX_ITER iterations.  Returns the
    solution, the relative residual it reached and the number of operator
    applies.

    Each inner product is one pass (``np.vdot``) and the updates are made
    in place through one work array.  The search direction has its own
    array, so ``precond`` may return ``r`` itself or any array of its own.
    """
    bnorm = math.sqrt(np.vdot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = x0.copy()
    r = b - apply_op(x)
    pvec = np.empty_like(b)
    work = np.empty_like(b)
    rz = None
    for it in range(_CG_MAX_ITER + 1):
        rnorm = math.sqrt(np.vdot(r, r))
        if not math.isfinite(rnorm):
            raise NonFiniteState("temperature")
        if rnorm <= _INNER_TOL * bnorm:
            return x, rnorm / bnorm, it + 1
        if it == _CG_MAX_ITER:
            break
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        if rz is None:
            np.copyto(pvec, z)
        else:
            pvec *= rz_new / rz
            pvec += z
        rz = rz_new
        ap = apply_op(pvec)
        alpha = rz / float(np.vdot(pvec, ap))
        x += np.multiply(pvec, alpha, out=work)
        r -= np.multiply(ap, alpha, out=work)
    raise IterationStall("temperature", _CG_MAX_ITER, rnorm / bnorm,
                         "relative residual")


class _FrozenHeat:
    """The parts of the heat operator that stay fixed over one step.

    kappa(theta^n), theta^n^alpha, the old-time part of the right-hand side
    and the preconditioner's constants ``cbar`` and ``kbar``, the mean of
    kappa.  ``cbar`` is the mean of the step-fixed part of the diagonal
    coefficient c0,
    (delta + rho^n) / dt + delta * theta^n^alpha; the swept part,
    R rho div u, has nearly zero mean, and mass conservation keeps the mean
    of the new density equal to that of rho^n.  ``precondition`` solves
    (cbar - kbar * Laplacian) z = vals with Neumann data, its denominator
    built once per step.
    """

    def __init__(self, plan, theta, rho_prev, reg, p, dt):
        self.plan = plan
        self.theta = theta
        self.th_alpha = np.maximum(theta, 0.0) ** p.cond_growth
        self.kappa = cst.heat_conductivity(theta, p)
        self.rhs = (reg.delta + rho_prev) * theta / dt
        self.cbar = ((reg.delta + float(rho_prev.mean())) / dt
                     + reg.delta * float(self.th_alpha.mean()))
        self.kbar = float(self.kappa.mean())
        self.precondition = plan.helmholtz(self.cbar, self.kbar)
        # kappa * Lambda with Lambda = cbar / kbar, so that kbar * Lambda
        # is cbar (see scaled_preconditioner)
        self._kappa_lambda = self.kappa * (self.cbar / self.kbar)

    def scaled_preconditioner(self, c0):
        """The symmetric preconditioner r -> s * precondition(s * r) for
        the operator with diagonal coefficient c0, where
        s = ((mean c0 + kbar Lambda) / (c0 + kappa Lambda))^(1/2) and
        Lambda = cbar / kbar: the diagonal of the operator at the squared
        wavenumber Lambda, where the mean diagonal and the mean conduction
        balance, over its mean.  Below Lambda, where c0 dominates, it takes
        out c0's variation, and above it kappa's, so near-vacuum density
        contrast in c0 does not reach the conduction-dominated modes.  It
        costs no matrix product."""
        s = np.sqrt((float(c0.mean()) + self.cbar)
                    / (c0 + self._kappa_lambda))

        def apply(vals):
            out = self.precondition(s * vals)
            out *= s
            return out

        return apply

    def apply(self, c0, vals):
        """The heat operator c0 * theta - div(kappa(theta^n) grad theta)."""
        out = _conduction_apply(self.plan, vals, self.kappa)
        out += c0 * vals
        return out


def _heat_convection(plan, theta, m):
    """Per-axis divergence terms d_b P[theta m_b] of the convective flux,
    each projected and differentiated in one product per axis
    (:meth:`~nlcflow.fields.SpectralPlan.projected_deriv`)."""
    flux = theta * m
    return [plan.projected_deriv(flux[b], b) for b in range(plan.dim)]


def _heat_system(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                 source=None):
    """Diagonal coefficient c0 and right-hand side of the implicit balance
    ``frozen.apply(c0, theta') = rhs`` for the conserved variable
    (delta + rho) theta.

    ``grad_u`` is the gradient stack of the lagged velocity, entry [a, c]
    being d u_c / d x_a, and ``m`` the step's mass flux.  source_sq holds
    the nodal director heating |relaxation|^2 (coefficient applied here),
    or None for an inert director (:func:`_inert_director`), which heats
    nothing; the sink is lagged-coefficient implicit so positivity holds.
    """
    delta = reg.delta
    div_u = sum(grad_u[a, a] for a in range(frozen.plan.dim))
    c0 = (delta + rho_new) / dt + delta * frozen.th_alpha \
        + p.gas_const * rho_new * div_u
    rhs = frozen.rhs.copy()
    for term in _heat_convection(frozen.plan, frozen.theta, m):
        rhs -= term
    rhs += (1.0 - delta) * cst.stress_power(grad_u, p)
    if source_sq is not None:
        rhs += p.elastic_coupling * p.relax_rate * source_sq
    if source is not None:
        rhs = rhs + source
    return c0, rhs


def _temperature_update(frozen, rho_new, grad_u, m, source_sq, reg, p, dt,
                        guess, source=None):
    """Implicit update of the conserved variable (delta + rho) theta.

    ``frozen`` carries the step-fixed parts of the operator (built once per
    step by :class:`_FrozenHeat`) and :func:`_heat_system` assembles the
    rest.  The conjugate-gradient solve runs to the relative residual
    _INNER_TOL with the diagonally scaled preconditioner and is warm started
    from ``guess``: on the first Picard sweep the extrapolated temperature
    of a predicted step and theta^n of any other, and the previous sweep's
    temperature after that.  Returns the temperature, the relative residual
    reached and the number of operator applies.
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
                             frozen.scaled_preconditioner(c0), rhs, guess)
    lo = float(sol.min())
    if lo < -_REJECT_SLACK * max(float(np.abs(frozen.theta).max()), 1e-300):
        raise PositivityLoss("temperature",
                             f"temperature undershoot {lo:g}")
    return sol, res, applies


def _pressure_enthalpy(rho, reg, p):
    """The convex enthalpy h_gamma(rho) + delta h_beta(rho) of the elastic
    and artificial pressures.  The momentum step weighs its gradient by the
    old density; the energy ledger pairs its gradient with the new
    density's."""
    bp = cst.convex_pressure_enthalpy(rho, p.gamma)
    if reg.delta > 0:
        bp = bp + reg.delta * cst.convex_pressure_enthalpy(rho, reg.beta)
    return bp


def _momentum_forces(plan, u_minus, grad_u, rho_prev, rho_new, m, theta_new,
                     grad_d_prev, gtilde, grad_rho, reg, p):
    """Nodal force stack G_c whose pairings with the velocity are the exact
    summation-by-parts partners of the scalar-equation fluxes.

    ``grad_u`` and ``grad_d_prev`` are the gradient stacks
    (:meth:`~nlcflow.fields.SpectralPlan.grad`) of ``u_minus`` and of the
    old director.  The step of an inert director (:func:`_inert_director`)
    passes None for both ``grad_d_prev`` and ``gtilde``: its Ericksen force
    is zero.  ``grad_rho`` is ``plan.grad(rho_new)``, which the caller
    takes and passes when eps > 0, and None when eps = 0."""
    dim = plan.dim
    eps = reg.eps

    force = np.zeros(u_minus.shape)

    # transport of momentum: -sum_b m_b d_b u_a
    for b in range(dim):
        force -= m[b] * grad_u[b]

    # compensation for the nonconservative discrete time derivative
    if eps > 0:
        force -= eps * plan.div(grad_rho) * u_minus
        for b in range(dim):
            force -= eps * grad_rho[b] * grad_u[b]

    # elastic + artificial pressure via the convex enthalpy, and the thermal
    # pressure: both gradients in one product per axis
    pot = np.stack([_pressure_enthalpy(rho_new, reg, p), rho_new * theta_new])
    grad_bp, grad_q = plan.grad(pot).swapaxes(0, 1)
    force -= rho_prev * plan.project(grad_bp, dirichlet(dim))
    force -= p.gas_const * grad_q

    # director (Ericksen) force
    if gtilde is not None:
        nu = p.elastic_coupling
        gk = plan.project(gtilde, neumann(dim))
        for k in range(3):
            force -= nu * grad_d_prev[:, k] * gk[k]
    return force


def _momentum_system(mass_mat, stiff, U_prev, dt):
    """The parts of the Galerkin momentum system that stay fixed over one
    step: the matrix A = K + M (x) I / dt, the mass matrix acting on each
    velocity component alike, and the old-level term M U^n / dt."""
    A, dim = stiff.copy(), U_prev.shape[1]
    for c in range(dim):
        A[c::dim, c::dim] += mass_mat / dt
    return A, (mass_mat @ U_prev) / dt


def _momentum_update(plan, u_minus, grad_u, rho_prev, rho_new, m, theta_new,
                     grad_d_prev, gtilde, grad_rho, reg, basis, p, system,
                     source=None):
    """The new coefficient table U' of one sweep, solving ``system``
    (:func:`_momentum_system`) with the pairings of the sweep's forces."""
    force = _momentum_forces(plan, u_minus, grad_u, rho_prev, rho_new, m,
                             theta_new, grad_d_prev, gtilde, grad_rho, reg, p)
    if source is not None:
        force = force + source
    F = basis.pair(force)
    A, old = system
    return np.linalg.solve(A, (old + F).ravel()).reshape(F.shape)


def _checked_mass_matrix(basis, rho_values):
    mass = basis.mass_matrix(rho_values)
    eigs = np.linalg.eigvalsh(mass)
    if eigs[0] < 1e-14 * max(1.0, eigs[-1]):
        raise SingularMassMatrix(float(eigs[0]))
    return mass


# ---------------------------------------------------------------------------
# coupled step and time loop
# ---------------------------------------------------------------------------

def _predicts(history, dt, shape):
    """The order k of the predictor that a state's ``history`` gives a
    step of ``dt`` whose Galerkin coefficients have ``shape``: the number
    of its leading levels, at most ``_HISTORY_LEVELS``, whose dt is this
    step's and whose table has ``shape``.  A level of another dt
    (after a dt halving, or for a truncated last step) or of another shape
    (a restart with other Galerkin modes) ends the run.  Any k >= 1
    predicts, k = 1 linearly; k = 0 means the step is not predicted (the
    first step of a run, a restart from a snapshot written without
    history).  The dts are compared up to the round-off of the accumulated
    t: a last step that lands on t_end a few ulps short of dt is still an
    equal step."""
    k = 0
    for level_dt, U, *_ in history[:_HISTORY_LEVELS]:
        if abs(level_dt - dt) > 1e-9 * dt or U.shape != shape:
            break
        k += 1
    return k


def _extrapolate(now, past, k):
    """The polynomial in the step index through the level n array ``now``
    and the k newest arrays of ``past`` (levels n - 1, n - 2, ...),
    evaluated one step ahead: X* = sum_j (-1)^j C(k+1, j+1) X^(n-j):
    2 X^n - X^(n-1) at k = 1, 3 X^n - 3 X^(n-1) + X^(n-2) at k = 2, and
    weights 6, -15, 20, -15, 6, -1 at k = 5.  The step predicts its
    Galerkin table, its temperature and its director by this one rule.
    The terms are formed and summed in the order of the levels, in place
    in one result and one work array."""
    out = (k + 1) * now
    work = np.empty_like(out)
    for j, level in enumerate(past[:k], start=1):
        out += np.multiply((-1) ** j * math.comb(k + 1, j + 1), level,
                           out=work)
    return out


def _with_modes(U, n):
    """The coefficient table ``U`` on ``n`` modes: the bases are nested,
    so rows beyond n are dropped and missing ones are zero."""
    return U if len(U) == n else np.pad(U[:n], ((0, max(n - len(U), 0)),
                                                (0, 0)))


def _picard_advance(s, reg, p, dt, sources):
    """One Picard-coupled step on the raw arrays of ``s``; the accepted
    iterates make the new State.

    The step starts from U^n, the table ``s.U`` on the ``reg.n_modes``
    modes (:func:`_with_modes`), so a state of another mode count enters
    it truncated or zero-padded.  When the history of ``s`` predicts the
    step, with order k (see :func:`_predicts`), the first sweep starts
    from the extrapolation U* through U^n and those k levels
    (:func:`_extrapolate`), and otherwise from U^n; every sweep takes its
    velocity gradient from its coefficients.  The first sweep's heat CG
    starts from the same order-k extrapolation of theta through theta^n
    and the k levels, and its director fixed point (the ``lag`` of
    :func:`_director_update`) from that of d through d^n and the k levels;
    otherwise they start from theta^n and d^n.  The old levels stay U^n,
    theta^n and d^n either way, and so do the director's transport term
    and the energy ledger: the prediction only moves the first sweep's
    frozen coefficients and its inner solves' starts closer to the
    converged ones.  On the benchmark workloads the quintic (k = 5) cuts
    the first increment from about 2e-3 to at most about 1e-10, so a step
    predicted from five levels is accepted after one sweep, and its
    director takes about two fixed-point iterations instead of five.

    Every sweep solves its heat and director problems to _INNER_TOL, and
    a sweep is accepted when its velocity increment meets _PICARD_TOL.
    The momentum matrix and old-level term depend only on rho^n, dt and
    the stiffness, so they are built once per step
    (:func:`_momentum_system`), and so are the denominators of the step's
    three Helmholtz solves (density diffusion, director, heat
    preconditioner).  The old director's gradient is ``s.grad_d``, which
    the record of ``s`` may already have taken.

    A director that is inert over the step (:func:`_inert_director`: no
    director source and d^n a uniform field of exactly unit length, or
    zero) is the fixed point of the discrete director map, so the step
    does none of the director work: no fixed point and no extrapolation
    of d, d' is d^n itself, no Ericksen force and no director heating, and
    it never reads ``s.grad_d``.  Its record reports ``director_iters`` 0
    and ``director_gap`` 0.0.  The outputs are the same bits as with the
    fixed point run, which returns d^n after one iteration.

    With eps > 0 each sweep takes grad rho' once, for its momentum forces,
    and the accepted sweep's is the new state's ``grad_rho``, so the
    record and the audits of that state read it instead of taking it
    again.

    The new state's history is ``((dt, U^n, theta^n, d^n),)`` followed by
    the k levels of ``s`` that predicted the step, at most
    ``_HISTORY_LEVELS - 1`` of them, so every history holds levels of one
    dt and one table shape.  The step reads nothing but ``s``, so a restart from a snapshot that
    stores the history repeats the run exactly."""
    grid = s.grid
    plan = spectral_plan(grid)
    basis = galerkin_basis(grid, reg.n_modes)
    t1 = s.t + dt

    src_rho, src_mom, src_th, src_dir = (
        (None,) * 4 if sources is None else sources(t1))

    rho, d = s.rho, s.d
    inert = _inert_director(s, src_dir, p)
    U0 = U_minus = _with_modes(s.U, basis.n)
    momentum = _momentum_system(_checked_mass_matrix(basis, rho),
                                basis.stiffness(p), U0, dt)
    diffuse = plan.helmholtz(1.0, reg.eps * dt) if reg.eps > 0 else None
    grad_d_prev = gtilde = gsq = None
    gap = 0.0
    if not inert:
        grad_d_prev = s.grad_d
        relax = plan.helmholtz(1.0, p.relax_rate * dt)
    u_minus = s.u if U0 is s.U else basis.reconstruct(U0)
    heat = _FrozenHeat(plan, s.theta, rho, reg, p, dt)
    theta_new, d_new = heat.theta, d
    order = _predicts(s.history, dt, U0.shape)
    if order:
        _, tables, thetas, directors = zip(*s.history)
        U_minus = _extrapolate(U0, tables, order)
        u_minus = basis.reconstruct(U_minus)
        theta_new = _extrapolate(s.theta, thetas, order)
        if not inert:
            d_new = _extrapolate(d, directors, order)
    heat_applies = director_iters = 0
    for it in range(1, _PICARD_MAX + 1):
        grad_u = basis.gradient(U_minus)
        rho_new, m = _density_update(plan, rho, u_minus, diffuse, dt, src_rho)
        grad_rho = plan.grad(rho_new) if reg.eps > 0 else None
        if not inert:
            d_new, gtilde, iters, gap = _director_update(
                plan, d, u_minus, grad_d_prev, relax, dt, p, src_dir,
                lag=d_new)
            director_iters += iters
            gsq = np.sum(gtilde * gtilde, axis=0)
        theta_new, heat_res, applies = _temperature_update(
            heat, rho_new, grad_u, m, gsq, reg, p, dt, theta_new, src_th)
        heat_applies += applies
        U_new = _momentum_update(plan, u_minus, grad_u, rho, rho_new, m,
                                 theta_new, grad_d_prev, gtilde, grad_rho,
                                 reg, basis, p, momentum, src_mom)
        diff = float(np.linalg.norm(U_new - U_minus))
        size = max(float(np.linalg.norm(U_new)), 1.0)
        if diff <= _PICARD_TOL * size:
            break
        U_minus = U_new
        u_minus = basis.reconstruct(U_new)
    else:
        raise PicardDivergence(_PICARD_MAX, diff / size)

    record = StepRecord(dt=dt, picard_iters=it, halvings=0, U_lag=U_minus,
                        heat_applies=heat_applies,
                        director_iters=director_iters, heat_residual=heat_res,
                        director_gap=gap, predicted=order > 0)
    history = ((dt, U0, s.theta, d),) + s.history[
        :min(order, _HISTORY_LEVELS - 1)]
    return State(grid, t1, rho_new, U_new, theta_new, d_new, history,
                 grad_rho), record


def step_coupled(s: State, reg: RegParams, cfg: SolverConfig, p: PhysParams,
                 sources=None):
    """One time step of the fully coupled scheme.

    Returns (new_state, StepRecord).  On a positivity rejection of a
    predicted step, the step is retried once at the same dt from ``s``
    with its history dropped, so unpredicted, and a prediction never costs
    a halving; any other positivity rejection retries the step with a
    halved dt, up to ten times.  Any other failure inside the step
    (non-finite data, a stalled inner iteration, Picard iterates that do
    not settle) is never retried, and its error names the substep, the
    last increment or residual, t and dt.

    ``sources``, when given, maps t to the manufactured right-hand sides
    ``(rho, momentum stack, theta, director stack)``, each added at the
    step's implicit time level (see :func:`nlcflow.mms.build_sources`).
    """
    dt = cfg.dt
    remaining = cfg.t_end - s.t
    if 0 < remaining < dt:
        dt = remaining
    start = s
    halving = 0
    while True:
        try:
            state, record = _picard_advance(start, reg, p, dt, sources)
            record.halvings = halving
            return state, record
        except PositivityLoss as exc:
            if _predicts(start.history, dt, (reg.n_modes, s.grid.dim)):
                start = State(s.grid, s.t, s.rho, s.U, s.theta, s.d)
                continue
            if halving == 10:
                underflow = StepUnderflow(exc.substep, halving, exc)
                underflow.t, underflow.dt = s.t, dt
                raise underflow from exc
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
    s, held = s0, [(s0, None)]
    del s0      # the initial state lives on in ``held`` until handed out
    n = 0
    max_steps = max(1, int(np.ceil(cfg.t_end / cfg.dt)) * 2 ** 11 + 4)
    while s.t < cfg.t_end - 1e-12 * max(cfg.t_end, 1.0):
        n += 1
        try:
            if n > max_steps:
                raise SolverFailure("time loop failed to reach t_end")
            s, rec = step_coupled(s, reg, cfg, p, sources)
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

def regularize_initial_data(grid, rho0, m0, theta0, d0, reg: RegParams):
    """Build an admissible starting state from raw nodal data on ``grid``:
    the density ``rho0``, the momentum stack ``m0`` (dim sine components,
    such as ``rho0 * u0``), the temperature ``theta0`` and the director
    stack ``d0``.

    Pipeline: drop the sine Nyquist mode of the momentum, clamp the density
    to [delta, delta^(-1/(2 beta))], zero the momentum wherever
    the clamp pulled the density below its raw value, divide by the clamped
    density, project the velocity onto the retained modes, and clamp the
    temperature to _THETA_BOUNDS.  Raw momentum must vanish on the vacuum
    set of the raw density.
    """
    rho0 = np.asarray(rho0, dtype=np.float64)
    if float(rho0.min()) < -_REJECT_SLACK * max(float(np.abs(rho0).max()),
                                                1e-300):
        raise InvalidInitialData("initial density must be nonnegative")
    raw = np.maximum(rho0, 0.0)
    lo = reg.delta
    hi = reg.delta ** (-1.0 / (2.0 * reg.beta)) if reg.delta > 0 else np.inf
    clamped = np.clip(rho0, lo, hi)

    m_vals = _strip_sine_nyquist(np.asarray(m0, dtype=np.float64), grid)
    vac = raw <= 1e-12 * max(1.0, float(raw.max()))
    for mv in m_vals:
        if np.any(np.abs(mv[vac]) > 1e-12 * max(1.0, float(np.abs(mv).max()))):
            raise InvalidInitialData("momentum must vanish on the vacuum set")

    masked = [np.where(clamped >= raw, mv, 0.0) for mv in m_vals]
    u_vals = [np.where(clamped > 0.0, mv / np.maximum(clamped, 1e-300), 0.0)
              for mv in masked]
    th = np.clip(theta0, *_THETA_BOUNDS)
    return State(grid, 0.0, clamped,
                 galerkin_basis(grid, reg.n_modes).project(u_vals), th, d0)
