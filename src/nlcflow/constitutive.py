"""Pointwise constitutive laws: the convex pressure potential and its
enthalpy, the stress power, heat conductivity, the director potential and
its forces, and the soft truncation used by the renormalized diagnostics.

The laws act pointwise on numpy arrays.  Nonnegative inputs are enforced up
to a relative slack of 1e-12 (tiny negative undershoots from spectral
projections are clipped to zero).
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeInput
from .params import PhysParams

_SLACK = 1e-12


def _clip_nonneg(arr, name):
    low = float(np.min(arr))
    if low < -_SLACK * max(1.0, float(np.max(np.abs(arr)))):
        raise NegativeInput(f"{name} must be nonnegative, found min {low:g}")
    return np.maximum(arr, 0.0)


# ---------------------------------------------------------------------------
# pressure potential

def convex_pressure_potential(rho, exponent):
    """rho**e / (e - 1), the convex potential whose Euler pairing with the
    pressure rho**e drives the compression part of the energy ledger."""
    r = _clip_nonneg(rho, "rho")
    return r ** exponent / (exponent - 1.0)


def convex_pressure_enthalpy(rho, exponent):
    """Derivative of :func:`convex_pressure_potential` with respect to rho."""
    r = _clip_nonneg(rho, "rho")
    return exponent / (exponent - 1.0) * r ** (exponent - 1.0)


# ---------------------------------------------------------------------------
# stress power

def _sym_part(grad_u):
    return 0.5 * (grad_u + np.swapaxes(grad_u, 0, 1))


def stress_power(grad_u, p: PhysParams):
    """S(grad u) : grad u written as 2 mu |sym G|^2 + lam (tr G)^2.  Since
    |sym G|^2 >= (tr G)^2 / dim, it is at least (2 mu / dim + lam)(tr G)^2,
    so nonnegative whenever lam + 2 mu / dim >= 0.  PhysParams admits only
    lam >= -2 mu / 3, which covers every dim <= 3."""
    g = np.asarray(grad_u, dtype=float)
    sym = _sym_part(g)
    div = np.einsum("aa...->...", g)
    return 2.0 * p.mu * np.einsum("ab...,ab...->...", sym, sym) + p.lam * div ** 2


# ---------------------------------------------------------------------------
# heat conduction

def heat_conductivity(theta, p: PhysParams):
    """Temperature dependent conductivity cond_floor * (1 + theta**alpha)."""
    t = _clip_nonneg(theta, "theta")
    return p.cond_floor * (1.0 + t ** p.cond_growth)


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


# ---------------------------------------------------------------------------
# soft truncation

def soft_truncation(z, k):
    """C^1 concave truncation T_k: identity below k, constant 2k above 3k,
    glued by a parabola in between.  Nondecreasing with 0 <= T_k <= min(z, 2k)
    for z >= 0."""
    s = z / k
    t = np.where(
        s <= 1.0,
        s,
        np.where(s >= 3.0, 2.0, 1.0 + (s - 1.0) - 0.25 * (s - 1.0) ** 2),
    )
    return k * t
