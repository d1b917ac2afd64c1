"""Trigonometric spectral operators on a rectangular box.

Everything lives on a cell-centered grid over ``[0, L_x] x [0, L_y]`` with
nodes ``x_j = (j + 1/2) L / N``.  A field is a raw nodal array of shape
``grid.shape`` (or a stack of them, ``(k, *grid.shape)``) whose *parity*
per axis is fixed by where it sits in the solver's layout: ``COS`` (even
reflection at the walls, Neumann data, cosine basis) or ``SIN`` (odd
reflection, Dirichlet data, sine basis).  The density, the temperature and
the director are all-cosine, the velocity is all-sine.  Every spectral
operator (transform, derivative, 2/3-rule projection, Laplacian and
Helmholtz solve) is a small dense matrix applied along one axis, built once
per grid from the orthonormal type-II DCT/DST matrices; differentiation,
Laplacian inversion and Helmholtz solves are exact for the stored band.

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
* the operator matrices and Laplace symbols are built once per grid into a
  read-only :class:`SpectralPlan`, whose raw-array kernels are the one entry
  point of each operator; every kernel takes a nodal array or a stack of
  them, and an operator costs one matrix product, O(N^3) flops per
  component, per axis pass.

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
        self.measure = float(np.prod(extents))
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


def _strip_sine_nyquist(values, parity, grid):
    """Remove the alternating-sign (frequency N) component along sine axes
    of a nodal array or of a stack of them."""
    out = values
    for ax, par in enumerate(parity):
        if par != SIN:
            continue
        n = grid.shape[ax]
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

    Each dict is keyed by the parity of its input:

    * ``forward`` holds the orthonormal type-II DCT and DST matrices C and
      S, which map nodal values to coefficients: row k of C samples
      cos(k pi x / L) and row k of S samples sin((k+1) pi x / L), so the
      slots follow :func:`coeffs`; ``inverse`` maps coefficients back, and
      the sine inverse ignores the Nyquist slot, so its output is always a
      stored sine field;
    * ``deriv`` is the exact derivative, ``S.T @ shift(-k pi / L) @ C``
      from cosine to sine values and its negative transpose, stored bit for
      bit, from sine to cosine values, so nodal summation by parts holds for
      the matrices themselves;
    * ``project`` is the symmetric 2/3-rule projector, which keeps
      frequencies below ``cut`` (and drops the sine Nyquist mode);
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
        dst_band = dst.copy()
        dst_band[-1] = 0.0
        amp_cos = np.full(n, norm)
        amp_cos[0] = math.sqrt(1.0 / n)
        amp_sin = np.full(n, norm)
        amp_sin[-1] = 0.0

        self.forward = {COS: _readonly(dct), SIN: _readonly(dst)}
        self.inverse = {COS: dct.T, SIN: _readonly(dst_band).T}
        self.deriv = {COS: _readonly(d_cs), SIN: _readonly(d_sc)}
        # (P + P.T) / 2 is symmetric bit for bit
        self.project = {COS: _readonly(0.5 * (proj_cos + proj_cos.T)),
                        SIN: _readonly(0.5 * (proj_sin + proj_sin.T))}
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
    (``axes``) and the Laplace symbol of each parity (:meth:`symbol`).

    Every spectral kernel is one small matrix product per axis pass on a
    raw nodal array or on a stack of them, shape ``(k, *grid.shape)``.
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
        self._corner = (Ellipsis,) + (slice(0, 1),) * grid.dim
        self._symbols = {}

    def symbol(self, parity):
        """Laplacian eigenvalues sum_a (k_a pi / L_a)^2 in coefficient order."""
        sym = self._symbols.get(parity)
        if sym is None:
            grid = self.grid
            sym = np.zeros(grid.shape)
            for ax, par in enumerate(parity):
                shape = [1] * grid.dim
                shape[ax] = grid.shape[ax]
                sym = sym + (_freqs(grid, ax, par) ** 2).reshape(shape)
            sym = self._symbols[parity] = _readonly(sym)
        return sym

    def forward(self, values, parity):
        """Orthonormal coefficients of a nodal array (or stack)."""
        for ax, par in enumerate(parity):
            values = _along(self.axes[ax].forward[par], values, ax, self.dim)
        return values

    def inverse(self, c, parity):
        """Nodal values of orthonormal coefficients; inverse of
        :meth:`forward` on stored fields."""
        for ax, par in enumerate(parity):
            c = _along(self.axes[ax].inverse[par], c, ax, self.dim)
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

    def laplacian(self, values, parity):
        """Laplacian of an array (or stack): per axis the derivative taken
        twice; parity preserved."""
        out = np.zeros(values.shape)
        for ax, par in enumerate(parity):
            once = self.deriv(values, ax, par)
            out += self.deriv(once, ax, COS if par == SIN else SIN)
        return out

    def helmholtz(self, values, parity, a, c):
        """Solve ``(a - c * Laplacian) phi = values`` for an array (or stack)
        in the given parity basis.

        All-cosine data is first shifted by its first nodal value, whose
        solution is that value over ``a``, so a constant solves exactly.
        """
        denom = a + c * self.symbol(parity)
        if SIN in parity:
            return self.inverse(self.forward(values, parity) / denom, parity)
        shift = values[self._corner]
        out = self.inverse(self.forward(values - shift, parity) / denom,
                           parity)
        return out + shift / a

    def project(self, values, parity):
        """2/3-rule projection of a nodal array (or stack) in the given
        parity basis."""
        for ax, par in enumerate(parity):
            values = _along(self.axes[ax].project[par], values, ax, self.dim)
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
    return plan.forward(values, parity) * plan.amplitude(parity)


def integrate_values(grid, values):
    """Midpoint quadrature of a nodal array.

    Exact for band-limited integrands of cosine parity (any axis with sine
    parity is integrated by the midpoint rule, which for stored bands is
    exact only for its even-frequency content).
    """
    return grid.weight * float(np.asarray(values).sum())


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def smooth(grid, values, parity, width):
    """Gaussian spectral low-pass exp(-(width^2/2) * |k|^2) (mollifier) of
    an array in its parity basis; a copy when ``width <= 0``."""
    if width <= 0.0:
        return np.array(values, dtype=np.float64)
    plan = spectral_plan(grid)
    c = plan.forward(values, parity) * np.exp(
        -0.5 * width * width * plan.symbol(parity))
    return plan.inverse(c, parity)


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

