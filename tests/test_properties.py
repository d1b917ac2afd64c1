"""Randomized invariants of the pointwise laws."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlcflow import constitutive as cst
from nlcflow.params import PhysParams

from conftest import pressure

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)


@settings(max_examples=200, deadline=None)
@given(vec3, st.floats(min_value=0.3, max_value=2.0))
def test_gl_force_matches_potential_gradient(d, sigma0):
    d = np.array(d)
    h = 1e-6
    fd = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd[k] = (cst.gl_potential(d + e, sigma0)
                 - cst.gl_potential(d - e, sigma0)) / (2 * h)
    f = cst.gl_force(d, sigma0)
    assert np.abs(f - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@settings(max_examples=200, deadline=None)
@given(vec3, st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=0.3, max_value=2.0))
def test_gl_force_points_outward_off_the_sphere(d, scale, sigma0):
    d = np.array(d)
    n = np.linalg.norm(d)
    if n < 1e-3:
        d = np.array([1.0, 0.0, 0.0])
        n = 1.0
    d = d * (scale / n)  # now |d| = scale >= 1 up to roundoff
    assert d @ cst.gl_force(d, sigma0) >= -1e-12 * max(1.0, scale ** 4 / sigma0 ** 2)


@settings(max_examples=200, deadline=None)
@given(st.tuples(finite, finite, finite, finite),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.0, max_value=4.0))
def test_stress_power_nonnegative(entries, mu, lam_shift):
    g = np.array(entries).reshape(2, 2)
    lam = -2.0 * mu / 3.0 + lam_shift
    p = PhysParams(mu=mu, lam=lam)
    val = cst.stress_power(g, p)
    assert val >= -1e-12 * max(1.0, abs(val))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_soft_truncation_pinched(z, k):
    t = cst.soft_truncation(z, k)
    assert -1e-13 <= t <= min(z, 2 * k) + 1e-12 * max(1.0, z)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=20.0),
       st.floats(min_value=0.1, max_value=5.0))
def test_soft_truncation_monotone(z1, z2, k):
    lo, hi = min(z1, z2), max(z1, z2)
    assert cst.soft_truncation(lo, k) <= cst.soft_truncation(hi, k) + 1e-13


@settings(max_examples=200, deadline=None)
@given(vec3, vec3, st.floats(min_value=0.3, max_value=2.0))
def test_two_point_force_telescopes_exactly(a, b, sigma0):
    a = np.array(a)
    b = np.array(b)
    lhs = cst.gl_potential(b, sigma0) - cst.gl_potential(a, sigma0)
    rhs = cst.gl_force_two_point(a, b, sigma0) @ (b - a)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=1.6, max_value=3.0))
def test_pressure_monotone_in_density(r1, r2, theta, gamma):
    p = PhysParams(gamma=gamma)
    lo, hi = min(r1, r2), max(r1, r2)
    assert pressure(lo, theta, p) <= pressure(hi, theta, p) + 1e-12
