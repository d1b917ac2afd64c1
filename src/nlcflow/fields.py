"""Trigonometric spectral operators on a rectangular box.

Everything lives on a cell-centered grid over ``[0, L_x] x [0, L_y]`` with
nodes ``x_j = (j + 1/2) L / N``.  A field is a raw nodal array of shape
``grid.shape`` (or a stack of them, ``(k, *grid.shape)``) whose *parity*
per axis is fixed by where it sits in the solver's layout: ``COS`` (even
reflection at the walls, Neumann data, cosine basis) or ``SIN`` (odd
reflection, Dirichlet data, sine basis).  The density, the temperature and
the director are all-cosine, the velocity is all-sine.  Every spectral
operator (transform, derivative, 2/3-rule projection and Helmholtz solve)
is a small dense matrix applied along one axis, built once per grid from
the orthonormal type-II DCT/DST matrices; differentiation and Helmholtz
solves are exact for the stored band.

The density, the temperature and the director are cosine fields, and the
velocity's gradient is taken from its Galerkin table, so every gradient the
step, the audits and the manufactured sources take is that of a cosine
field.  A kernel that only ever acts on cosine fields therefore takes no
parity: the transforms, the Helmholtz solve and ``grad``; ``div`` takes
stacks like the ones ``grad`` makes, entry a sine along axis a, and
:meth:`SpectralPlan.projected_deriv` all-sine arrays, the heat fluxes.  Only
:meth:`SpectralPlan.deriv`, :meth:`SpectralPlan.project` and the mms
restriction (:func:`coeffs`, :func:`evaluate`), which restricts each
equation's source with that equation's parity, a momentum component's
being sine along its own axis, see both parities, and take one.

Conventions that the rest of the package relies on:

* cosine axes hold frequencies ``0 .. N-1`` and the DCT-II is a bijection on
  nodal values, so every nodal array is a stored cosine field;
* sine axes hold frequencies ``1 .. N-1``; a stored sine field carries no
  sine Nyquist mode (frequency ``N``, the alternating-sign vector), so it is
  band-limited to ``N-1`` per axis.  Sine data built from nodal samples or
  products goes through :func:`_strip_sine_nyquist` or a 2/3-rule projection,
  which drops that mode too;
* midpoint quadrature (:func:`integrate_values`) integrates cosine content
  up to frequency ``2N-1`` exactly, which makes the discrete
  summation-by-parts identity ``<f, d_a g> = -<d_a f, g>`` exact for stored
  fields of opposite parity along axis ``a``;
* :meth:`SpectralPlan.project` projects in the declared parity basis;
  pairing any nodal array against a projected one reads only the kept band,
  so the projection can be moved across a nodal inner product exactly;
* the operator matrices and the Laplace symbol are built once per grid into a
  read-only :class:`SpectralPlan`, whose raw-array kernels are the one entry
  point of each operator; every kernel takes a nodal array or a stack of
  them, and an operator costs one matrix product, O(N^3) flops per
  component, per axis pass;
* :meth:`SpectralPlan.grad` and :meth:`SpectralPlan.div` are the one
  gradient and the one divergence: ``grad`` stacks the per-axis derivatives
  of a cosine field as ``(dim, ...)``, ``div`` sums d_a of entry a, sine
  along axis a, over the axes in order, and the Laplacian of a cosine field
  is ``div`` of ``grad``.

The module holds operators only; the snapshot file format is defined in
:mod:`nlcflow.cli`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

COS = "cos"
SIN = "sin"


def neumann(dim):
    """All-cosine parity tuple for a ``dim``-dimensional grid."""
    return (COS,) * dim


def dirichlet(dim):
    """All-sine parity tuple."""
    return (SIN,) * dim


class Grid:
    """Cell-centered tensor grid on a box.

    Parameters
    ----------
    shape : tuple of int
        Nodes per axis; each a power of two >= 8.  Length 1 or 2.
    extents : tuple of float
        Box edge lengths, strictly positive.
    """

    def __init__(self, shape, extents):
        shape = tuple(int(n) for n in shape)
        extents = tuple(float(length) for length in extents)
        if len(shape) not in (1, 2) or len(extents) != len(shape):
            raise ValueError("grid must be 1- or 2-dimensional with matching extents")
        for n in shape:
            if n < 8 or (n & (n - 1)) != 0:
                raise ValueError(f"resolution {n} is not a power of two >= 8")
        for length in extents:
            if not (length > 0.0) or not math.isfinite(length):
                raise ValueError(f"extent {length} must be positive and finite")
        self.shape = shape
        self.extents = extents
        self.dim = len(shape)
        self.spacing = tuple(length / n for length, n in zip(extents, shape))
        self.weight = float(np.prod(self.spacing))
        self.axis_nodes = tuple(
            (np.arange(n) + 0.5) * h for n, h in zip(shape, self.spacing)
        )
        # 2/3-rule cut: keep frequencies < dealias_cut (so 3*(cut-1) < 2N)
        self.dealias_cut = tuple(-(-2 * n // 3) for n in shape)

    def mesh(self):
        """Coordinate arrays broadcastable over the nodal array."""
        return np.meshgrid(*self.axis_nodes, indexing="ij")

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.shape == other.shape
            and self.extents == other.extents
        )

    def __hash__(self):
        return hash((self.shape, self.extents))

    def __repr__(self):
        return f"Grid(shape={self.shape}, extents={self.extents})"


def _strip_sine_nyquist(values, grid):
    """Remove the alternating-sign (frequency N) component along every axis
    of an all-sine nodal array or of a stack of them."""
    out = values
    for ax, n in enumerate(grid.shape):
        sign = np.ones(n)
        sign[1::2] = -1.0
        shape = [1] * grid.dim
        shape[ax] = n
        sign = sign.reshape(shape)
        amp = np.sum(out * sign, axis=ax - grid.dim, keepdims=True) / n
        out = out - amp * sign
    return out


# ---------------------------------------------------------------------------
# per-axis operator matrices
# ---------------------------------------------------------------------------

def _freqs(grid, ax, par):
    """Angular frequencies (k pi / L) along one axis, in coefficient order."""
    n = grid.shape[ax]
    length = grid.extents[ax]
    if par == COS:
        k = np.arange(n)
    else:
        k = np.arange(1, n + 1)
    return k * np.pi / length


def _readonly(a):
    a.flags.writeable = False
    return a


class AxisOperators:
    """Read-only dense operators along one axis of ``n`` nodes on [0, L].

    Each table but ``inverse`` is a dict keyed by the parity of its input:

    * ``forward`` holds the orthonormal type-II DCT and DST matrices C and
      S, which map nodal values to coefficients: row k of C samples
      cos(k pi x / L) and row k of S samples sin((k+1) pi x / L), so the
      slots follow :func:`coeffs`; ``inverse`` is C.T alone, which maps
      cosine coefficients back to the nodal fields a state holds;
    * ``deriv`` is the exact derivative, ``S.T @ shift(-k pi / L) @ C``
      from cosine to sine values and its negative transpose, stored bit for
      bit, from sine to cosine values, so nodal summation by parts holds for
      the matrices themselves;
    * ``project`` is the symmetric 2/3-rule projector, which keeps
      frequencies below ``cut`` (and drops the sine Nyquist mode);
    * ``deriv_project`` is ``deriv[SIN] @ project[SIN]``, the derivative
      of the sine projection as one matrix;
    * ``amplitude`` maps orthonormal coefficients to basis amplitudes
      (zero in the sine Nyquist slot).
    """

    def __init__(self, n, length, cut):
        k = np.arange(n)
        odd = 2 * k + 1
        norm = math.sqrt(2.0 / n)
        # integer phases reduced modulo 4n keep every argument in [0, 2 pi)
        step = np.pi / (2 * n)
        dct = norm * np.cos((np.outer(k, odd) % (4 * n)) * step)
        dct[0] *= math.sqrt(0.5)
        dst = norm * np.sin((np.outer(k + 1, odd) % (4 * n)) * step)
        dst[-1] *= math.sqrt(0.5)
        w = np.arange(1, n) * (np.pi / length)
        d_cs = dst[:-1].T @ (-w[:, None] * dct[1:])
        d_sc = np.ascontiguousarray(-d_cs.T)
        proj_cos = dct[:cut].T @ dct[:cut]
        proj_sin = dst[:cut - 1].T @ dst[:cut - 1]
        amp_cos = np.full(n, norm)
        amp_cos[0] = math.sqrt(1.0 / n)
        amp_sin = np.full(n, norm)
        amp_sin[-1] = 0.0

        self.forward = {COS: _readonly(dct), SIN: _readonly(dst)}
        self.inverse = dct.T
        self.deriv = {COS: _readonly(d_cs), SIN: _readonly(d_sc)}
        # (P + P.T) / 2 is symmetric bit for bit
        self.project = {COS: _readonly(0.5 * (proj_cos + proj_cos.T)),
                        SIN: _readonly(0.5 * (proj_sin + proj_sin.T))}
        self.deriv_project = _readonly(d_sc @ self.project[SIN])
        self.amplitude = {COS: _readonly(amp_cos), SIN: _readonly(amp_sin)}


@functools.lru_cache(maxsize=32)
def _axis_operators(n, length, cut):
    """Operators of one axis, shared by every axis with equal (N, L, cut)."""
    return AxisOperators(n, length, cut)


def _along(mat, values, axis, dim):
    """``mat`` applied along grid axis ``axis`` of a nodal array, or of a
    stack of them, on a ``dim``-dimensional grid: one matrix product."""
    if axis == dim - 1:
        return values @ mat.T
    return mat @ values


class SpectralPlan:
    """Read-only operators of one grid: an :class:`AxisOperators` per axis
    (``axes``) and ``symbol``, the Laplace symbol of cosine coefficients.

    Every spectral kernel is one small matrix product per axis pass on a
    raw nodal array or on a stack of them, shape ``(k, *grid.shape)``.  The
    kernels that only ever see the state's cosine fields (transforms,
    ``grad``, ``div`` and ``helmholtz``), and ``projected_deriv``, which
    only sees all-sine arrays, take no parity; ``deriv`` and ``project``
    see both parities and take it.
    """

    def __init__(self, grid):
        self.grid = grid
        self.dim = grid.dim
        self.axes = tuple(
            _axis_operators(n, length, cut)
            for n, length, cut in zip(grid.shape, grid.extents, grid.dealias_cut)
        )
        # first node along each axis, and the first node of the grid
        self._first = tuple(
            (Ellipsis, slice(0, 1)) + (slice(None),) * (grid.dim - 1 - ax)
            for ax in range(grid.dim)
        )
        self.corner = (Ellipsis,) + (slice(0, 1),) * grid.dim
        # Laplacian eigenvalues sum_a (k_a pi / L_a)^2 in coefficient order
        sym = np.zeros(grid.shape)
        for ax in range(grid.dim):
            shape = [1] * grid.dim
            shape[ax] = grid.shape[ax]
            sym = sym + (_freqs(grid, ax, COS) ** 2).reshape(shape)
        self.symbol = _readonly(sym)

    def forward(self, values):
        """Orthonormal cosine coefficients of a nodal array (or stack)."""
        for ax, ops in enumerate(self.axes):
            values = _along(ops.forward[COS], values, ax, self.dim)
        return values

    def inverse(self, c):
        """Nodal values of orthonormal cosine coefficients; inverse of
        :meth:`forward`."""
        for ax, ops in enumerate(self.axes):
            c = _along(ops.inverse, c, ax, self.dim)
        return c

    def deriv(self, values, axis, par):
        """Derivative along ``axis`` of an array (or stack) of parity ``par``
        there.

        A cosine array is first shifted by its values at the first node
        along the axis, which the derivative annihilates, so an array
        constant along the axis has an exactly zero derivative.
        """
        if par == COS:
            values = values - values[self._first[axis]]
        return _along(self.axes[axis].deriv[par], values, axis, self.dim)

    def grad(self, values):
        """Gradient stack ``(dim, *values.shape)`` of a cosine array (or
        stack): entry a is :meth:`deriv` along axis a, sine there."""
        out = np.empty((self.dim,) + values.shape)
        for ax in range(self.dim):
            out[ax] = self.deriv(values, ax, COS)
        return out

    def div(self, stack):
        """Divergence sum_a d_a stack[a] of a ``(dim, ...)`` stack whose entry
        a is sine along axis a, the axes summed in order; the Laplacian of a
        cosine array f is ``div(grad(f))``."""
        out = self.deriv(stack[0], 0, SIN)
        for ax in range(1, self.dim):
            out += self.deriv(stack[ax], ax, SIN)
        return out

    def helmholtz(self, a, c):
        """The solve of ``(a - c * Laplacian) phi = values`` for a cosine
        array (or stack), as a function of ``values``; its denominator
        ``a + c * symbol`` is built here, once for every call of the
        function.

        The data is first shifted by its first nodal value, whose solution
        is that value over ``a``, so a constant solves exactly.
        """
        denominator = a + c * self.symbol

        def solve(values):
            shift = values[self.corner]
            coef = self.forward(values - shift)
            coef /= denominator
            out = self.inverse(coef)
            out += shift / a
            return out

        return solve

    def project(self, values, parity):
        """2/3-rule projection of a nodal array (or stack) in the given
        parity basis."""
        for ax, par in enumerate(parity):
            values = _along(self.axes[ax].project[par], values, ax, self.dim)
        return values

    def projected_deriv(self, values, axis):
        """Derivative along ``axis`` of the 2/3-rule sine projection of an
        all-sine array: the projection along every other axis, and along
        ``axis`` the derivative and projection as one product
        (``AxisOperators.deriv_project``)."""
        for ax, ops in enumerate(self.axes):
            mat = ops.deriv_project if ax == axis else ops.project[SIN]
            values = _along(mat, values, ax, self.dim)
        return values

    def amplitude(self, parity):
        """Outer product of the per-axis amplitude scalings."""
        out = np.ones(self.grid.shape)
        for ax, par in enumerate(parity):
            scale = self.axes[ax].amplitude[par]
            shape = [1] * self.grid.dim
            shape[ax] = self.grid.shape[ax]
            out = out * scale.reshape(shape)
        return out


@functools.lru_cache(maxsize=32)
def spectral_plan(grid):
    """The shared :class:`SpectralPlan` of ``grid`` (cached per grid)."""
    return SpectralPlan(grid)


# ---------------------------------------------------------------------------
# coefficients, quadrature and the Neumann Poisson problem
# ---------------------------------------------------------------------------

def coeffs(grid, values, parity):
    """Amplitude array of a stored array in its parity basis.

    Cosine axes: index k holds the amplitude of cos(k pi x / L), k = 0..N-1.
    Sine axes: index k holds the amplitude of sin((k+1) pi x / L); the last
    slot (frequency N) is identically zero for stored arrays.
    """
    plan = spectral_plan(grid)
    for ax, par in enumerate(parity):
        values = _along(plan.axes[ax].forward[par], values, ax, grid.dim)
    return values * plan.amplitude(parity)


def integrate_values(grid, values):
    """Midpoint quadrature of a nodal array.

    Exact for band-limited integrands of cosine parity (any axis with sine
    parity is integrated by the midpoint rule, which for stored bands is
    exact only for its even-frequency content).
    """
    return grid.weight * float(np.asarray(values).sum())


# ---------------------------------------------------------------------------
# interpolant evaluation (off-node)
# ---------------------------------------------------------------------------

def basis_matrix(grid, ax, par, coords):
    """Matrix E[p, k] = k-th basis function of axis ``ax`` at coords[p]."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1)
    w = _freqs(grid, ax, par)
    phase = np.outer(coords, w)
    return np.cos(phase) if par == COS else np.sin(phase)


def evaluate(grid, values, parity, axis_coords):
    """Evaluate the interpolant of a stored array in its parity basis on the
    tensor grid of the given coordinates.

    ``axis_coords`` is a sequence of 1-D arrays, one per axis.  Returns an
    array of shape ``tuple(len(c) for c in axis_coords)``.
    """
    c = coeffs(grid, values, parity)
    for ax, pts in enumerate(axis_coords):
        mat = basis_matrix(grid, ax, parity[ax], pts)
        c = np.moveaxis(np.tensordot(mat, np.moveaxis(c, ax, 0), axes=(1, 0)), 0, ax)
    return c

