"""Trigonometric spectral fields on a rectangular box.

Everything lives on a cell-centered grid over ``[0, L_x] x [0, L_y]`` with
nodes ``x_j = (j + 1/2) L / N``.  A scalar field carries one *parity* per
axis: ``COS`` (even reflection at the walls, Neumann data, cosine basis) or
``SIN`` (odd reflection, Dirichlet data, sine basis).  Transforms are the
type-II DCT/DST from :mod:`scipy.fft`; differentiation, Laplacian inversion
and Helmholtz solves are diagonal in coefficient space and exact for the
stored band.

Conventions that the rest of the package relies on:

* cosine axes hold frequencies ``0 .. N-1`` and the DCT-II is a bijection on
  nodal values, so constructing a COS field from values is lossless;
* sine axes hold frequencies ``1 .. N-1``; the sine Nyquist mode (frequency
  ``N``, the alternating-sign vector) is projected out at construction, so
  every stored field is band-limited to ``N-1`` per axis;
* midpoint quadrature (``grid.weight * values.sum()``) integrates cosine
  content up to frequency ``2N-1`` exactly, which makes the discrete
  summation-by-parts identity ``<f, d_a g> = -<d_a f, g>`` exact for stored
  fields of opposite parity along axis ``a``;
* :func:`dealias` projects in the field's own basis; pairing any nodal array
  against a dealiased field reads only the kept band, so the projection can
  be moved across a nodal inner product exactly;
* the per-grid constants of these operators (derivative wavenumbers and
  Laplace symbols) are built once per grid into a read-only
  :class:`SpectralPlan`, which raw-array kernels share with the field API.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft as sfft

from .errors import GridMismatch, IOFailure, NonZeroMean, ParityMismatch

COS = "cos"
SIN = "sin"

_PARITY_TOKEN = {"neumann": COS, "dirichlet": SIN}
_TOKEN_PARITY = {COS: "neumann", SIN: "dirichlet"}


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


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def _normalize_parity(parity, dim):
    parity = tuple(parity)
    if len(parity) != dim or any(p not in (COS, SIN) for p in parity):
        raise ParityMismatch(f"bad parity tuple {parity!r} for dim {dim}")
    return parity


def _strip_sine_nyquist(values, parity, grid):
    """Remove the alternating-sign (frequency N) component along sine axes."""
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
        amp = np.sum(out * sign, axis=ax, keepdims=True) / n
        out = out - amp * sign
    return out


class ScalarField:
    """A real scalar field with declared per-axis parity.

    Nodal values are the ground truth; the field is identified with the
    band-limited interpolant those values define in its parity basis.
    Construction from raw values projects out the sine Nyquist mode so that
    the identification is exact.
    """

    __slots__ = ("grid", "parity", "values")

    def __init__(self, grid, parity, values, project=True):
        self.grid = grid
        self.parity = _normalize_parity(parity, grid.dim)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridMismatch(
                f"values shape {values.shape} does not match grid {grid.shape}"
            )
        if project and SIN in self.parity:
            values = np.ascontiguousarray(_strip_sine_nyquist(values, self.parity, grid))
        self.values = values

    def copy(self):
        return ScalarField(self.grid, self.parity, self.values.copy(), project=False)

    def norm_inf(self):
        return float(np.abs(self.values).max())

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            if self.parity != other.parity:
                raise ParityMismatch(
                    f"cannot combine parities {self.parity} and {other.parity}"
                )
            return ScalarField(
                self.grid, self.parity, op(self.values, other.values), project=False
            )
        other = float(other)
        if other != 0.0 and SIN in self.parity:
            raise ParityMismatch("adding a constant to a sine-parity field")
        return ScalarField(self.grid, self.parity, op(self.values, other), project=False)

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return ScalarField(self.grid, self.parity, -self.values, project=False)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            parity = tuple(
                SIN if (p != q) else COS for p, q in zip(self.parity, other.parity)
            )
            return ScalarField(self.grid, parity, self.values * other.values)
        return ScalarField(
            self.grid, self.parity, self.values * float(other), project=False
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"ScalarField(parity={self.parity}, shape={self.grid.shape})"


class VectorField:
    """Bundle of ScalarFields: ``velocity`` (dim sine components) or
    ``director`` (3 cosine components)."""

    __slots__ = ("kind", "components")

    def __init__(self, kind, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty vector field")
        grid = components[0].grid
        for c in components:
            if c.grid != grid:
                raise GridMismatch("vector components on different grids")
        if kind == "velocity":
            if len(components) != grid.dim:
                raise ValueError("velocity needs one component per axis")
            want = dirichlet(grid.dim)
        elif kind == "director":
            if len(components) != 3:
                raise ValueError("director needs three components")
            want = neumann(grid.dim)
        else:
            raise ValueError(f"unknown vector kind {kind!r}")
        for c in components:
            if c.parity != want:
                raise ParityMismatch(f"{kind} component has parity {c.parity}")
        self.kind = kind
        self.components = components

    @property
    def grid(self):
        return self.components[0].grid

    @classmethod
    def velocity(cls, components):
        return cls("velocity", components)

    @classmethod
    def director(cls, components):
        return cls("director", components)

    def copy(self):
        return VectorField(self.kind, [c.copy() for c in self.components])

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]


def constant_field(grid, value, parity=None):
    parity = neumann(grid.dim) if parity is None else parity
    return ScalarField(
        grid, parity, np.full(grid.shape, float(value)), project=(value != 0.0)
    )


def from_function(grid, fn, parity=None):
    """Sample ``fn(*mesh)`` on the nodes and wrap it as a field."""
    parity = neumann(grid.dim) if parity is None else parity
    return ScalarField(grid, parity, np.asarray(fn(*grid.mesh()), dtype=np.float64))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def coeffs(f):
    """Amplitude array of ``f`` in its parity basis.

    Cosine axes: index k holds the amplitude of cos(k pi x / L), k = 0..N-1.
    Sine axes: index k holds the amplitude of sin((k+1) pi x / L); the last
    slot (frequency N) is identically zero for stored fields.
    """
    c = f.values
    for ax, par in enumerate(f.parity):
        n = f.grid.shape[ax]
        if par == COS:
            c = sfft.dct(c, type=2, axis=ax) / n
            sl = [slice(None)] * f.grid.dim
            sl[ax] = 0
            c[tuple(sl)] /= 2.0
        else:
            c = sfft.dst(c, type=2, axis=ax) / n
            sl = [slice(None)] * f.grid.dim
            sl[ax] = n - 1
            c[tuple(sl)] = 0.0
    return c


def field_from_coeffs(grid, parity, c):
    """Inverse of :func:`coeffs`."""
    parity = _normalize_parity(parity, grid.dim)
    v = np.array(c, dtype=np.float64, copy=True)
    for ax, par in enumerate(parity):
        n = grid.shape[ax]
        sl = [slice(None)] * grid.dim
        if par == COS:
            v *= n
            sl[ax] = 0
            v[tuple(sl)] *= 2.0
            v = sfft.idct(v, type=2, axis=ax)
        else:
            sl[ax] = n - 1
            v[tuple(sl)] = 0.0
            v *= n
            v = sfft.idst(v, type=2, axis=ax)
    return ScalarField(grid, parity, v, project=False)


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


class SpectralPlan:
    """Read-only constants of the spectral operators on one grid.

    ``shifts[a]`` is ``(w, lo, hi)`` for axis ``a``: the derivative
    wavenumbers ``k pi / L_a``, k = 1..N_a-1, shaped to broadcast along that
    axis, and the index tuples of its slots 0..N_a-2 and 1..N_a-1.  Slot k of
    a cosine axis and slot k-1 of a sine axis both hold frequency k, so the
    derivative along ``a`` maps ``c[hi]`` to ``-w * c[hi]`` in slots ``lo``
    (cosine to sine) and ``c[lo]`` to ``w * c[lo]`` in slots ``hi`` (sine to
    cosine).  Both rules hold for normalized amplitudes and for the raw
    coefficients of :func:`r2r_forward` alike.
    """

    def __init__(self, grid):
        self.grid = grid
        shifts = []
        for ax, (n, length) in enumerate(zip(grid.shape, grid.extents)):
            shape = [1] * grid.dim
            shape[ax] = n - 1
            w = (np.arange(1, n) * (np.pi / length)).reshape(shape)
            lo = (slice(None),) * ax + (slice(0, n - 1),)
            hi = (slice(None),) * ax + (slice(1, n),)
            shifts.append((_readonly(w), lo, hi))
        self.shifts = tuple(shifts)
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


@functools.lru_cache(maxsize=32)
def spectral_plan(grid):
    """The shared :class:`SpectralPlan` of ``grid`` (cached per grid)."""
    return SpectralPlan(grid)


def laplace_symbol(grid, parity):
    """Read-only array of (positive) Laplacian eigenvalues
    sum_a (k_a pi / L_a)^2."""
    return spectral_plan(grid).symbol(_normalize_parity(parity, grid.dim))


def r2r_forward(values, sine_axis=None):
    """Raw type-II coefficients of a nodal array: DST along ``sine_axis``,
    DCT along every other axis, in scipy's unnormalized convention.

    Slot layout is that of :func:`coeffs`; the raw coefficients differ from
    the amplitudes by a diagonal factor, so any operator diagonal in
    coefficient space (the shifts and symbols of :class:`SpectralPlan`)
    applies to them unchanged.
    """
    if sine_axis is None:
        return sfft.dctn(values, type=2)
    c = sfft.dst(values, type=2, axis=sine_axis)
    others = [ax for ax in range(c.ndim) if ax != sine_axis]
    return sfft.dctn(c, type=2, axes=others, overwrite_x=True) if others else c


def r2r_inverse(c, sine_axis=None):
    """Nodal values from raw coefficients; inverse of :func:`r2r_forward`."""
    if sine_axis is None:
        return sfft.idctn(c, type=2)
    v = sfft.idst(c, type=2, axis=sine_axis)
    others = [ax for ax in range(v.ndim) if ax != sine_axis]
    return sfft.idctn(v, type=2, axes=others, overwrite_x=True) if others else v


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def deriv(f, axis):
    """Exact spectral derivative along one axis; parity flips on that axis."""
    w, lo, hi = spectral_plan(f.grid).shifts[axis]
    c = coeffs(f)
    out = np.zeros_like(c)
    if f.parity[axis] == COS:
        # cos k -> -k sin k, k = 1..N-1 (sine slot k-1)
        out[lo] = -c[hi] * w
        new_par = SIN
    else:
        # sin m -> m cos m, m = 1..N-1 (Nyquist slot is zero)
        out[hi] = c[lo] * w
        new_par = COS
    parity = list(f.parity)
    parity[axis] = new_par
    return field_from_coeffs(f.grid, parity, out)


def gradient(f):
    """List of the dim partial derivatives of ``f``."""
    return [deriv(f, ax) for ax in range(f.grid.dim)]


def divergence(v):
    """Divergence of a velocity-kind vector field (or component list).

    The result is returned as a Neumann (all-cosine) field built from the
    exact nodal values of ``sum_a d_a v_a``; the cosine representation is
    lossless on nodal data.
    """
    comps = list(v)
    grid = comps[0].grid
    total = np.zeros(grid.shape)
    for ax, comp in enumerate(comps):
        total += deriv(comp, ax).values
    return ScalarField(grid, neumann(grid.dim), total, project=False)


def laplacian(f):
    """Spectral Laplacian; parity preserved."""
    c = coeffs(f)
    c *= -laplace_symbol(f.grid, f.parity)
    return field_from_coeffs(f.grid, f.parity, c)


def solve_helmholtz(rhs, a, c):
    """Solve ``(a - c * Laplacian) phi = rhs`` in the parity basis of rhs."""
    sym = laplace_symbol(rhs.grid, rhs.parity)
    co = coeffs(rhs) / (a + c * sym)
    return field_from_coeffs(rhs.grid, rhs.parity, co)


def integrate(f):
    """Midpoint quadrature of the nodal values.

    Exact for band-limited integrands of cosine parity (any axis with sine
    parity is integrated by the midpoint rule, which for stored bands is
    exact only for its even-frequency content).
    """
    return f.grid.weight * float(f.values.sum())


def integrate_values(grid, values):
    """Midpoint quadrature of a raw nodal array."""
    return grid.weight * float(np.asarray(values).sum())


def inner(f, g):
    """Nodal L2 pairing <f, g> (fields or raw arrays on the same grid)."""
    fv = f.values if isinstance(f, ScalarField) else np.asarray(f)
    gv = g.values if isinstance(g, ScalarField) else np.asarray(g)
    grid = f.grid if isinstance(f, ScalarField) else g.grid
    return grid.weight * float(np.sum(fv * gv))


def inverse_laplacian_neumann(f):
    """Solve ``Laplacian(phi) = f`` with Neumann data and zero mean.

    Raises NonZeroMean unless ``integrate(f)`` vanishes within
    ``1e-10 * ||f||_inf * |Omega|``.
    """
    if f.parity != neumann(f.grid.dim):
        raise ParityMismatch("inverse_laplacian_neumann needs an all-cosine field")
    mean_tol = 1e-10 * max(f.norm_inf(), 1e-300) * f.grid.measure
    total = integrate(f)
    if abs(total) > mean_tol:
        raise NonZeroMean(f"right-hand side has mean {total / f.grid.measure:.3e}")
    sym = laplace_symbol(f.grid, f.parity)
    c = coeffs(f)
    flat = c.reshape(-1)
    symf = sym.reshape(-1)
    out = np.zeros_like(flat)
    np.divide(flat[1:], -symf[1:], out=out[1:])  # zero-frequency slot stays 0
    return field_from_coeffs(f.grid, f.parity, out.reshape(c.shape))


# ---------------------------------------------------------------------------
# dealiasing and smoothing
# ---------------------------------------------------------------------------

def dealias(f):
    """Project onto the 2/3-rule band in the field's own parity basis."""
    c = coeffs(f)
    for ax in range(f.grid.dim):
        cut = f.grid.dealias_cut[ax]
        n = f.grid.shape[ax]
        sl = [slice(None)] * f.grid.dim
        if f.parity[ax] == COS:
            sl[ax] = slice(cut, n)
        else:
            sl[ax] = slice(cut - 1, n)  # sine slot m-1 holds frequency m
        c[tuple(sl)] = 0.0
    return field_from_coeffs(f.grid, f.parity, c)


def dealias_values(grid, values, parity):
    """Dealias a raw nodal array in the declared parity basis."""
    return dealias(ScalarField(grid, parity, values)).values


def smooth(f, width):
    """Gaussian spectral low-pass exp(-(width^2/2) * |k|^2) (mollifier)."""
    if width <= 0.0:
        return f.copy()
    sym = laplace_symbol(f.grid, f.parity)
    c = coeffs(f) * np.exp(-0.5 * width * width * sym)
    return field_from_coeffs(f.grid, f.parity, c)


# ---------------------------------------------------------------------------
# interpolant evaluation (off-node)
# ---------------------------------------------------------------------------

def basis_matrix(grid, ax, par, coords):
    """Matrix E[p, k] = k-th basis function of axis ``ax`` at coords[p]."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1)
    w = _freqs(grid, ax, par)
    phase = np.outer(coords, w)
    return np.cos(phase) if par == COS else np.sin(phase)


def evaluate(f, axis_coords):
    """Evaluate the interpolant on the tensor grid of the given coordinates.

    ``axis_coords`` is a sequence of 1-D arrays, one per axis.  Returns an
    array of shape ``tuple(len(c) for c in axis_coords)``.
    """
    c = coeffs(f)
    for ax, pts in enumerate(axis_coords):
        mat = basis_matrix(f.grid, ax, f.parity[ax], pts)
        c = np.moveaxis(np.tensordot(mat, np.moveaxis(c, ax, 0), axes=(1, 0)), 0, ax)
    return c


def boundary_max_abs(f):
    """Max |interpolant| over all box faces (sampled at transverse nodes)."""
    grid = f.grid
    worst = 0.0
    for ax in range(grid.dim):
        for edge in (0.0, grid.extents[ax]):
            axis_coords = [
                np.array([edge]) if a == ax else grid.axis_nodes[a]
                for a in range(grid.dim)
            ]
            worst = max(worst, float(np.abs(evaluate(f, axis_coords)).max()))
    return worst


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

def _parity_token(parity):
    kinds = set(parity)
    if kinds == {COS}:
        return "neumann"
    if kinds == {SIN}:
        return "dirichlet"
    raise ParityMismatch("only uniform-parity fields are serialized")


def write_field(fh, name, f):
    """Append one field in the plain-text snapshot format."""
    dims = " ".join(str(n) for n in f.grid.shape)
    fh.write(f"FIELD {name} {_parity_token(f.parity)} {dims}\n")
    rows = f.values.reshape(f.grid.shape[0], -1)
    for row in rows:
        fh.write(" ".join("%.17g" % v for v in row))
        fh.write("\n")


def read_fields(fh, grid):
    """Read every field from a snapshot stream; returns {name: ScalarField}."""
    out = {}
    tokens = []
    header = None

    def flush():
        nonlocal tokens, header
        if header is None:
            return
        name, parity, shape = header
        count = int(np.prod(shape))
        if len(tokens) != count:
            raise IOFailure(
                f"field {name!r}: expected {count} values, found {len(tokens)}"
            )
        if tuple(shape) != grid.shape:
            raise IOFailure(f"field {name!r}: shape {shape} does not match grid")
        try:
            values = np.array([float(t) for t in tokens]).reshape(grid.shape)
        except ValueError as exc:
            raise IOFailure(f"field {name!r}: corrupt value ({exc})") from exc
        out[name] = ScalarField(grid, parity, values, project=False)
        tokens = []
        header = None

    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("FIELD "):
            flush()
            parts = line.split()
            if len(parts) < 4 or parts[2] not in _PARITY_TOKEN:
                raise IOFailure(f"bad snapshot header: {line!r}")
            shape = tuple(int(p) for p in parts[3:])
            parity = (_PARITY_TOKEN[parts[2]],) * len(shape)
            header = (parts[1], parity, shape)
        else:
            if header is None:
                raise IOFailure(f"values before any FIELD header: {line[:40]!r}")
            tokens.extend(line.split())
    flush()
    return out
