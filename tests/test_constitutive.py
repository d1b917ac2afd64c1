import math

import numpy as np
import pytest

from nlcflow import constitutive as cst
from nlcflow.errors import NegativeInput, ValidationError
from nlcflow.params import PhysParams, RegParams

from conftest import (artificial_pressure, ericksen_stress, pressure,
                      truncation_companion, viscous_stress)


def P(**kw):
    return PhysParams(**kw)


# ---------------------------------------------------------------- pressure

def test_pressure_values():
    assert pressure(1.0, 1.0, P(gamma=2.0, gas_const=1.0)) == pytest.approx(2.0)
    assert pressure(0.0, 5.0, P()) == 0.0
    got = pressure(2.0, 0.5, P(gamma=1.6, gas_const=1.0))
    assert got == pytest.approx(2.0 ** 1.6 + 1.0, rel=1e-14)


def test_pressure_array_and_negative():
    r = np.array([1.0, 2.0, 3.0])
    t = np.array([1.0, 0.0, 2.0])
    got = pressure(r, t, P(gamma=2.0, gas_const=2.0))
    np.testing.assert_allclose(got, r ** 2 + 2.0 * r * t)
    with pytest.raises(NegativeInput):
        pressure(-1.0, 1.0, P())
    # tiny undershoot is clipped, not fatal
    assert pressure(-1e-15, 1.0, P()) == 0.0


def test_artificial_pressure():
    assert artificial_pressure(7.3, 0.0, 6.0) == 0.0
    assert artificial_pressure(1.0, 0.1, 5.0) == pytest.approx(0.1)
    assert artificial_pressure(2.0, 0.01, 4.5) == pytest.approx(
        0.01 * 2.0 ** 4.5, rel=1e-14)


def test_convex_pressure_pair():
    rho = np.linspace(0.2, 3.0, 11)
    e = 1.7
    pot = cst.convex_pressure_potential(rho, e)
    np.testing.assert_allclose(pot, rho ** e / (e - 1.0))
    h = 1e-6
    fd = (cst.convex_pressure_potential(rho + h, e)
          - cst.convex_pressure_potential(rho - h, e)) / (2 * h)
    np.testing.assert_allclose(cst.convex_pressure_enthalpy(rho, e), fd, rtol=1e-8)


# ---------------------------------------------------------------- stress

def test_viscous_stress_zero_and_identity():
    g = np.zeros((2, 2))
    np.testing.assert_array_equal(viscous_stress(g, P(mu=1.0, lam=1.0)), g)
    eye = np.eye(2)
    np.testing.assert_allclose(viscous_stress(eye, P(mu=1.0, lam=0.0)),
                               2.0 * eye)


def test_viscous_stress_shear():
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = viscous_stress(g, P(mu=1.0, lam=1.0))
    np.testing.assert_allclose(s, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)


def test_stress_power_matches_contraction():
    rng = np.random.default_rng(3)
    p = P(mu=0.7, lam=-0.3)
    for _ in range(50):
        g = rng.normal(size=(2, 2))
        s = viscous_stress(g, p)
        direct = np.einsum("ab,ab->", s, g)
        assert cst.stress_power(g, p) == pytest.approx(direct, rel=1e-12, abs=1e-13)


def test_stress_power_nonnegative_bulk():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(2, 2, 10000))
    vals = cst.stress_power(g, P(mu=1.3, lam=-2.0 * 1.3 / 3.0))
    assert vals.min() >= -1e-12 * max(1.0, vals.max())


# ---------------------------------------------------------------- conduction

def test_heat_conductivity_values():
    assert cst.heat_conductivity(0.0, P()) == pytest.approx(1.0)
    assert cst.heat_conductivity(1.0, P(cond_growth=2.0, cond_floor=1.0)) == 2.0
    assert cst.heat_conductivity(
        2.0, P(cond_growth=3.0, cond_floor=0.5)) == pytest.approx(4.5)


# ---------------------------------------------------------------- director

def test_gl_potential_and_force_pins():
    assert cst.gl_potential(np.array([1.0, 0.0, 0.0]), 1.0) == pytest.approx(0.0)
    assert cst.gl_potential(np.zeros(3), 1.0) == pytest.approx(0.25)
    f = cst.gl_force(np.array([2.0, 0.0, 0.0]), 1.0)
    np.testing.assert_allclose(f, [6.0, 0.0, 0.0])
    np.testing.assert_allclose(cst.gl_force(np.array([1.0, 0.0, 0.0]), 2.0),
                               np.zeros(3), atol=1e-15)


def test_gl_force_is_gradient_of_potential():
    rng = np.random.default_rng(5)
    sigma0 = 0.8
    h = 1e-6
    for _ in range(20):
        d = rng.uniform(-2.5, 2.5, size=3)
        f = cst.gl_force(d, sigma0)
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (cst.gl_potential(d + e, sigma0)
                     - cst.gl_potential(d - e, sigma0)) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(f - fd).max() <= 1e-6 * scale


def test_gl_force_outward_beyond_sphere():
    rng = np.random.default_rng(6)
    for _ in range(200):
        d = rng.normal(size=3)
        d *= rng.uniform(1.0, 3.0) / np.linalg.norm(d)
        assert d @ cst.gl_force(d, 0.9) >= -1e-12 * 100.0


def test_gl_two_point_force_exact_difference():
    rng = np.random.default_rng(7)
    sigma0 = 1.3
    for _ in range(100):
        a = rng.uniform(-2, 2, size=3)
        b = rng.uniform(-2, 2, size=3)
        lhs = cst.gl_potential(b, sigma0) - cst.gl_potential(a, sigma0)
        rhs = cst.gl_force_two_point(a, b, sigma0) @ (b - a)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
    d = rng.uniform(-2, 2, size=3)
    np.testing.assert_allclose(cst.gl_force_two_point(d, d, sigma0),
                               cst.gl_force(d, sigma0), rtol=1e-13, atol=1e-15)


def test_ericksen_stress_isotropic_and_1d():
    f0 = 0.37
    s = ericksen_stress(np.zeros((2, 3)), f0)
    np.testing.assert_allclose(s, -f0 * np.eye(2))
    # unit-circle director profile in 1d: gradient energy density 1/2, F = 0
    x = np.linspace(0, 1, 9)
    grad_d = np.stack([np.stack([-np.sin(x), np.cos(x), np.zeros_like(x)])])
    s = ericksen_stress(grad_d, np.zeros_like(x))
    np.testing.assert_allclose(s[0, 0], 0.5 * np.ones_like(x), atol=1e-14)


def test_ericksen_stress_symmetry_and_trace():
    rng = np.random.default_rng(8)
    g = rng.normal(size=(2, 3, 5))
    fv = rng.uniform(0, 1, size=5)
    s = ericksen_stress(g, fv)
    np.testing.assert_allclose(s[0, 1], s[1, 0], atol=1e-14)
    mag2 = np.einsum("ak...,ak...->...", g, g)
    np.testing.assert_allclose(np.einsum("aa...->...", s),
                               mag2 - 2.0 * (0.5 * mag2 + fv), rtol=1e-13)


# ---------------------------------------------------------------- truncation

def test_soft_truncation_branches():
    for k in (1.0, 2.0, 4.0):
        z = np.linspace(0, k, 20)
        np.testing.assert_allclose(cst.soft_truncation(z, k), z, atol=1e-15)
        z = np.linspace(3 * k, 6 * k, 20)
        np.testing.assert_allclose(cst.soft_truncation(z, k), 2 * k, atol=1e-15)
    assert cst.soft_truncation(2.0, 1.0) == pytest.approx(1.75)


def test_soft_truncation_monotone_and_capped():
    z = np.linspace(0, 20, 4001)
    for k in (1.0, 2.0, 4.0):
        t = cst.soft_truncation(z, k)
        assert np.all(np.diff(t) >= -1e-14)
        assert np.all(t <= np.minimum(z, 2 * k) + 1e-12)
        assert np.all(t >= 0)


def test_companion_branch_continuity():
    for k in (0.5, 1.0, 3.0):
        below = k * math.log(k)  # closed form of the z log z branch at z = k
        assert truncation_companion(k, k) == pytest.approx(below, abs=1e-12)
        eps = 1e-9 * k
        jump = (truncation_companion(k + eps, k)
                - truncation_companion(k - eps, k))
        assert abs(jump) <= 1e-7 * max(1.0, abs(below))


def test_companion_euler_identity():
    # z L'(z) - L(z) = T(z) away from the glue points
    for k in (1.0, 2.5):
        z = np.concatenate([np.linspace(0.05 * k, 0.95 * k, 40),
                            np.linspace(1.05 * k, 2.9 * k, 40),
                            np.linspace(3.1 * k, 8.0 * k, 40)])
        h = 1e-5 * k
        lp = (truncation_companion(z + h, k)
              - truncation_companion(z - h, k)) / (2 * h)
        lhs = z * lp - truncation_companion(z, k)
        rhs = cst.soft_truncation(z, k)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-8)


def test_companion_convex():
    z = np.linspace(0.02, 10.0, 2501)
    for k in (1.0, 3.0):
        vals = truncation_companion(z, k)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-10


# ---------------------------------------------------------------- params

def test_params_validation():
    PhysParams().validate()
    RegParams(eps=0.1, delta=0.01, beta=6.0, n_modes=4).validate(gamma=2.0)
    with pytest.raises(ValidationError):
        PhysParams(mu=0.0).validate()
    with pytest.raises(ValidationError):
        PhysParams(lam=-10.0).validate()
    with pytest.raises(ValidationError):
        PhysParams(gamma=1.4).validate()
    with pytest.raises(ValidationError):
        PhysParams(cond_floor=0.0).validate()
    PhysParams(cond_floor=2.0).validate()  # no upper bound on the floor
    with pytest.raises(ValidationError):
        PhysParams(cond_growth=1.5).validate()
    with pytest.raises(ValidationError):
        RegParams(eps=-1e-3).validate(gamma=2.0)
    with pytest.raises(ValidationError):
        RegParams(delta=1.5).validate(gamma=2.0)
    with pytest.raises(ValidationError):
        RegParams(beta=3.0).validate(gamma=2.0)
    with pytest.raises(ValidationError):
        RegParams(beta=4.5).validate(gamma=5.0)
    with pytest.raises(ValidationError):
        RegParams(n_modes=0).validate(gamma=2.0)
