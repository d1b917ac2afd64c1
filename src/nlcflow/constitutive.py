"""Pointwise constitutive laws: pressures, viscous stress, heat
conductivity, director potential, force and stress, and the soft truncation
used by the renormalized diagnostics.

All scalar laws accept floats or numpy arrays and return the matching kind.
Nonnegative inputs are enforced up to a relative slack of 1e-12 (tiny
negative undershoots from spectral projections are clipped to zero).
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeInput
from .params import PhysParams

_SLACK = 1e-12


def _wrap(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _unwrap(arr, scalar):
    return float(arr) if scalar else arr


def _clip_nonneg(arr, name):
    low = float(np.min(arr))
    if low < -_SLACK * max(1.0, float(np.max(np.abs(arr)))):
        raise NegativeInput(f"{name} must be nonnegative, found min {low:g}")
    return np.maximum(arr, 0.0)


# ---------------------------------------------------------------------------
# pressure family

def pressure(rho, theta, p: PhysParams):
    """Total pressure rho**gamma + R * rho * theta."""
    r, rs = _wrap(rho)
    t, ts = _wrap(theta)
    r = _clip_nonneg(r, "rho")
    t = _clip_nonneg(t, "theta")
    out = r ** p.gamma + p.gas_const * r * t
    return _unwrap(out, rs and ts)


def artificial_pressure(rho, delta, beta):
    """Stabilizing pressure delta * rho**beta (vanishes with delta)."""
    r, rs = _wrap(rho)
    r = _clip_nonneg(r, "rho")
    if delta == 0.0:
        return _unwrap(np.zeros_like(r), rs)
    return _unwrap(delta * r ** beta, rs)


def convex_pressure_potential(rho, exponent):
    """rho**e / (e - 1), the convex potential whose Euler pairing with the
    pressure rho**e drives the compression part of the energy ledger."""
    r, rs = _wrap(rho)
    r = _clip_nonneg(r, "rho")
    return _unwrap(r ** exponent / (exponent - 1.0), rs)


def convex_pressure_enthalpy(rho, exponent):
    """Derivative of :func:`convex_pressure_potential` with respect to rho."""
    r, rs = _wrap(rho)
    r = _clip_nonneg(r, "rho")
    return _unwrap(exponent / (exponent - 1.0) * r ** (exponent - 1.0), rs)


# ---------------------------------------------------------------------------
# viscous stress

def _sym_part(grad_u):
    return 0.5 * (grad_u + np.swapaxes(grad_u, 0, 1))


def viscous_stress(grad_u, p: PhysParams):
    """Newtonian stress mu*(G + G^T) + lam*tr(G)*I for G = grad u with
    layout G[a, c, ...] = d u_c / d x_a (any trailing point axes)."""
    g = np.asarray(grad_u, dtype=float)
    dim = g.shape[0]
    if g.shape[1] != dim:
        raise ValueError("grad_u must have shape (dim, dim, ...)")
    div = np.einsum("aa...->...", g)
    s = p.mu * (g + np.swapaxes(g, 0, 1))
    for a in range(dim):
        s[a, a] = s[a, a] + p.lam * div
    return s


def stress_power(grad_u, p: PhysParams):
    """S(grad u) : grad u written as 2 mu |sym G|^2 + lam (tr G)^2, which is
    nonnegative by construction whenever lam + 2 mu / dim >= 0 fails to bite
    (we only admit lam >= -2 mu / 3, and dim <= 2 here keeps it safe)."""
    g = np.asarray(grad_u, dtype=float)
    sym = _sym_part(g)
    div = np.einsum("aa...->...", g)
    return 2.0 * p.mu * np.einsum("ab...,ab...->...", sym, sym) + p.lam * div ** 2


# ---------------------------------------------------------------------------
# heat conduction

def heat_conductivity(theta, p: PhysParams):
    """Temperature dependent conductivity cond_floor * (1 + theta**alpha)."""
    t, ts = _wrap(theta)
    t = _clip_nonneg(t, "theta")
    return _unwrap(p.cond_floor * (1.0 + t ** p.cond_growth), ts)


# ---------------------------------------------------------------------------
# director potential

def gl_potential(d, sigma0):
    """Penalty potential (|d|^2 - 1)^2 / (4 sigma0^2); d has shape (3, ...)."""
    dd = np.asarray(d, dtype=float)
    mag2 = np.einsum("k...,k...->...", dd, dd)
    return (mag2 - 1.0) ** 2 / (4.0 * sigma0 ** 2)


def gl_force(d, sigma0):
    """Gradient of :func:`gl_potential`: (|d|^2 - 1) d / sigma0^2."""
    dd = np.asarray(d, dtype=float)
    mag2 = np.einsum("k...,k...->...", dd, dd)
    return (mag2 - 1.0) * dd / sigma0 ** 2


def gl_force_two_point(d_a, d_b, sigma0):
    """Two-point discrete gradient of the penalty potential:

        f~(a, b) = (|a|^2 + |b|^2 - 2) (a + b) / (4 sigma0^2)

    It satisfies gl_potential(b) - gl_potential(a) = f~ . (b - a) exactly and
    collapses to gl_force on the diagonal, which is what makes the director
    update land on the energy ledger without remainder."""
    a = np.asarray(d_a, dtype=float)
    b = np.asarray(d_b, dtype=float)
    s = np.einsum("k...,k...->...", a, a) + np.einsum("k...,k...->...", b, b)
    return (s - 2.0) * (a + b) / (4.0 * sigma0 ** 2)


def ericksen_stress(grad_d, potential):
    """Elastic director stress (grad d ⊙ grad d) - (|grad d|^2/2 + F) I with
    grad_d[a, k, ...] = d d_k / d x_a and F the potential values."""
    g = np.asarray(grad_d, dtype=float)
    dim = g.shape[0]
    out = np.einsum("ak...,bk...->ab...", g, g)
    iso = 0.5 * np.einsum("ak...,ak...->...", g, g) + np.asarray(potential)
    for a in range(dim):
        out[a, a] = out[a, a] - iso
    return out


# ---------------------------------------------------------------------------
# soft truncation

def soft_truncation(z, k=1.0):
    """C^1 concave truncation T_k: identity below k, constant 2k above 3k,
    glued by a parabola in between.  Nondecreasing with 0 <= T_k <= min(z, 2k)
    for z >= 0."""
    zz, zs = _wrap(z)
    s = zz / k
    t = np.where(
        s <= 1.0,
        s,
        np.where(s >= 3.0, 2.0, 1.0 + (s - 1.0) - 0.25 * (s - 1.0) ** 2),
    )
    return _unwrap(k * t, zs)
