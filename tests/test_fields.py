import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import fft as sfft

from nlcflow import fields
from nlcflow import solver as sv

from conftest import NonZeroMean, inverse_laplacian_neumann

RNG = np.random.default_rng(1234)


def field_from_coeffs(grid, parity, c):
    """The nodal array whose amplitude array in its parity basis is ``c``:
    the inverse of :func:`fields.coeffs`.  The sine Nyquist slot, whose
    amplitude scaling is zero, stays zero."""
    plan = fields.spectral_plan(grid)
    amp = plan.amplitude(parity)
    c = np.divide(c, amp, out=np.zeros(grid.shape), where=amp != 0.0)
    return plan.inverse(c, parity)


def random_field(grid, parity, decay=0.3, keep=None):
    """Band-limited random nodal array with geometrically decaying
    spectrum."""
    c = RNG.normal(size=grid.shape)
    for ax in range(grid.dim):
        n = grid.shape[ax]
        freq = np.arange(n) if parity[ax] == fields.COS else np.arange(1, n + 1)
        shape = [1] * grid.dim
        shape[ax] = n
        c = c * np.exp(-decay * freq).reshape(shape)
        if parity[ax] == fields.SIN:
            sl = [slice(None)] * grid.dim
            sl[ax] = n - 1
            c[tuple(sl)] = 0.0
        if keep is not None:
            sl = [slice(None)] * grid.dim
            sl[ax] = slice(keep, n)
            c[tuple(sl)] = 0.0
    return field_from_coeffs(grid, parity, c)


def _parities(dim):
    return list(itertools.product((fields.COS, fields.SIN), repeat=dim))


def grid1():
    return fields.Grid((32,), (2 * np.pi,))


def grid2():
    return fields.Grid((16, 32), (2 * np.pi, 1.5 * np.pi))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        fields.Grid((12,), (1.0,))  # not a power of two
    with pytest.raises(ValueError):
        fields.Grid((4,), (1.0,))  # too small
    with pytest.raises(ValueError):
        fields.Grid((16,), (-1.0,))
    with pytest.raises(ValueError):
        fields.Grid((16, 16, 16), (1.0, 1.0, 1.0))


def test_quadrature_weights_sum_to_measure():
    for g in (grid1(), grid2()):
        total = g.weight * np.prod(g.shape)
        assert abs(total - g.measure) <= 1e-12 * g.measure


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parity_kind", ["neumann", "dirichlet"])
def test_round_trip(parity_kind):
    for g in (grid1(), grid2()):
        par = fields.neumann(g.dim) if parity_kind == "neumann" else fields.dirichlet(g.dim)
        f = random_field(g, par)
        back = field_from_coeffs(g, par, fields.coeffs(g, f, par))
        scale = np.abs(f).max()
        assert np.abs(back - f).max() <= 1e-12 * scale


def test_sine_nyquist_projected_at_construction():
    """The strip that sampled sine data (initial momentum, manufactured
    velocity) goes through removes the alternating-sign mode."""
    g = grid1()
    n = g.shape[0]
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    f = fields._strip_sine_nyquist(alternating, fields.dirichlet(1), g)
    assert np.abs(f).max() <= 1e-12


def test_parseval():
    for g in (grid1(), grid2()):
        for par in (fields.neumann(g.dim), fields.dirichlet(g.dim)):
            f = random_field(g, par)
            nodal = fields.integrate_values(g, f * f)
            c = fields.coeffs(g, f, par)
            factor = np.ones(g.shape)
            for ax in range(g.dim):
                length = g.extents[ax]
                n = g.shape[ax]
                w = np.full(n, length / 2.0)
                if par[ax] == fields.COS:
                    w[0] = length
                shape = [1] * g.dim
                shape[ax] = n
                factor = factor * w.reshape(shape)
            spectral = float(np.sum(c * c * factor))
            assert abs(nodal - spectral) <= 1e-11 * max(nodal, 1e-30)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_gradient_of_constant_is_zero():
    g = grid2()
    f = np.full(g.shape, 3.7)
    plan = fields.spectral_plan(g)
    for ax in range(g.dim):
        assert np.abs(plan.deriv(f, ax, fields.COS)).max() == 0.0


def test_gradient_cosine_mode_analytic():
    g = grid1()
    L = g.extents[0]
    f = np.cos(np.pi * g.axis_nodes[0] / L)
    d = fields.spectral_plan(g).deriv(f, 0, fields.COS)
    exact = -(np.pi / L) * np.sin(np.pi * g.axis_nodes[0] / L)
    assert np.abs(d - exact).max() <= 1e-12


def _fd8_error(n):
    """Max gap between the spectral derivative and an 8th-order stencil."""
    g = fields.Grid((n,), (2 * np.pi,))
    L = g.extents[0]
    f = np.exp(1.5 * np.cos(np.pi * g.axis_nodes[0] / L))
    d = fields.spectral_plan(g).deriv(f, 0, fields.COS)
    h = g.spacing[0]
    ext = np.concatenate([f, f[::-1]])  # smooth even extension
    stencil = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3]) / (840.0 * h)
    approx = np.zeros(n)
    for s, cst in zip(range(-4, 5), stencil):
        approx += cst * np.roll(ext, -s)[:n]
    return np.abs(approx - d).max()


def test_gradient_matches_finite_differences_at_order_8():
    coarse, fine = _fd8_error(32), _fd8_error(64)
    assert fine <= 1e-6
    ratio = coarse / fine
    assert 150.0 <= ratio <= 420.0, f"observed FD ratio {ratio}"


def test_divergence_analytic_and_composition():
    """The divergence the solver takes, the trace of the velocity gradient,
    and the Laplacian as the divergence of the gradient."""
    g = grid2()
    plan = fields.spectral_plan(g)
    Lx = g.extents[0]
    vx = fields._strip_sine_nyquist(np.sin(np.pi * g.mesh()[0] / Lx),
                                    fields.dirichlet(2), g)
    grad_v = sv._velocity_gradient(plan, np.stack([vx, np.zeros(g.shape)]))
    div = grad_v[0, 0] + grad_v[1, 1]
    exact = (np.pi / Lx) * np.cos(np.pi * g.mesh()[0] / Lx)
    assert np.abs(div - exact).max() <= 1e-12

    f = random_field(g, fields.neumann(2))
    lap1 = sum(plan.deriv(plan.deriv(f, a, fields.COS), a, fields.SIN)
               for a in range(g.dim))
    lap2 = plan.laplacian(f, fields.neumann(2))
    assert np.abs(lap1 - lap2).max() <= 1e-11 * max(
        1.0, np.abs(lap2).max()
    )


def test_laplacian_eigenmodes():
    g = grid2()
    sym = fields.spectral_plan(g).symbol(fields.neumann(2))
    for kx in range(g.shape[0]):
        for ky in range(0, g.shape[1], 5):
            c = np.zeros(g.shape)
            c[kx, ky] = 1.0
            f = field_from_coeffs(g, fields.neumann(2), c)
            lam = sym[kx, ky]
            plan = fields.spectral_plan(g)
            out = fields.coeffs(g, plan.laplacian(f, fields.neumann(2)),
                                fields.neumann(2))
            assert abs(out[kx, ky] + lam) <= 1e-12 * max(lam, 1.0)
            out[kx, ky] = 0.0
            assert np.abs(out).max() <= 1e-12 * max(lam, 1.0)


def test_operator_linearity():
    g = grid2()
    f1 = random_field(g, fields.neumann(2))
    f2 = random_field(g, fields.neumann(2))
    a, b = 2.25, -0.75
    combo = a * f1 + b * f2
    plan = fields.spectral_plan(g)

    def lap(f):
        return plan.laplacian(f, fields.neumann(2))

    lhs = lap(combo)
    rhs = a * lap(f1) + b * lap(f2)
    assert np.abs(lhs - rhs).max() <= 1e-11 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant():
    g = grid2()
    f = np.ones(g.shape)
    assert abs(fields.integrate_values(g, f) - g.measure) <= 1e-12 * g.measure


def test_integrate_cosine_is_zero():
    g = grid1()
    L = g.extents[0]
    f = np.cos(np.pi * g.axis_nodes[0] / L)
    assert abs(fields.integrate_values(g, f)) <= 1e-12


def test_integrate_cosine_squared():
    g = grid1()
    L = g.extents[0]
    f = np.cos(np.pi * g.axis_nodes[0] / L) ** 2
    assert abs(fields.integrate_values(g, f) - L / 2.0) <= 1e-12 * L


# ---------------------------------------------------------------------------
# Poisson / Helmholtz
# ---------------------------------------------------------------------------

def test_inverse_laplacian_zero():
    g = grid1()
    phi = inverse_laplacian_neumann(g, np.zeros(g.shape))
    assert np.abs(phi).max() == 0.0


def test_inverse_laplacian_analytic():
    g = grid1()
    L = g.extents[0]
    f = np.cos(np.pi * g.axis_nodes[0] / L)
    phi = inverse_laplacian_neumann(g, f)
    exact = -((L / np.pi) ** 2) * np.cos(np.pi * g.axis_nodes[0] / L)
    assert np.abs(phi - exact).max() <= 1e-11


def test_inverse_laplacian_round_trip():
    g = grid2()
    cos = fields.neumann(2)
    f = random_field(g, cos)
    c = fields.coeffs(g, f, cos)
    c.flat[0] = 0.0  # drop the mean
    f = field_from_coeffs(g, cos, c)
    phi = inverse_laplacian_neumann(g, f)
    back = fields.spectral_plan(g).laplacian(phi, cos)
    assert np.abs(back - f).max() <= 1e-11 * max(1.0, np.abs(f).max())
    assert abs(fields.integrate_values(g, phi)) <= 1e-12 * max(
        1.0, np.abs(phi).max())


def test_inverse_laplacian_rejects_nonzero_mean():
    g = grid1()
    with pytest.raises(NonZeroMean):
        inverse_laplacian_neumann(g, np.ones(g.shape))


def test_helmholtz_solve():
    g = grid2()
    cos = fields.neumann(2)
    plan = fields.spectral_plan(g)
    rhs = random_field(g, cos)
    a, c = 1.0, 2.5e-3
    phi = plan.helmholtz(rhs, cos, a, c)
    residual = a * phi - c * plan.laplacian(phi, cos) - rhs
    assert np.abs(residual).max() <= 1e-11 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------------------
# boundary behavior
# ---------------------------------------------------------------------------

def _plan_matrices(plan):
    for ops in plan.axes:
        for table in (ops.forward, ops.inverse, ops.deriv, ops.project,
                      ops.amplitude):
            yield from table.values()


def test_laplace_symbol_cached_and_read_only():
    grid = fields.Grid((32, 16), (2.0, 1.0))
    for parity in ((fields.COS, fields.COS), (fields.SIN, fields.COS)):
        sym = fields.spectral_plan(grid).symbol(parity)
        assert sym is fields.spectral_plan(
            fields.Grid((32, 16), (2.0, 1.0))).symbol(parity)
        with pytest.raises(ValueError):
            sym[0, 0] = 1.0
    for mat in _plan_matrices(fields.spectral_plan(grid)):
        with pytest.raises(ValueError):
            mat.flat[0] = 1.0


def test_axis_operators_shared_by_equal_axes():
    square = fields.spectral_plan(fields.Grid((32, 32), (2.0, 2.0)))
    assert square.axes[0] is square.axes[1]
    strip = fields.spectral_plan(fields.Grid((32, 16), (2.0, 1.0)))
    assert strip.axes[0] is square.axes[0]
    assert strip.axes[1] is not strip.axes[0]


@pytest.mark.parametrize("grid", [grid1(), grid2()])
def test_r2r_round_trip_and_slot_layout(grid):
    """The per-axis DCT-II and DST-II matrices are orthonormal, invert
    stored fields exactly, and differ from :func:`coeffs` by the diagonal
    amplitude scaling, so the plan's symbols apply to both."""
    plan = fields.spectral_plan(grid)
    for ops in plan.axes:
        for mat in ops.forward.values():
            eye = np.eye(mat.shape[0])
            assert np.abs(mat @ mat.T - eye).max() <= 1e-14
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.shape)
    for par in _parities(grid.dim):
        stored = fields._strip_sine_nyquist(vals, par, grid)
        back = plan.inverse(plan.forward(stored, par), par)
        assert np.allclose(back, stored, rtol=0, atol=1e-14)
        f = random_field(grid, par)
        assert np.allclose(plan.forward(f, par) * plan.amplitude(par),
                           fields.coeffs(grid, f, par), rtol=0,
                           atol=1e-15 * np.abs(f).max())


def _boundary_max_abs(grid, f, parity):
    """Max |interpolant| over all box faces (sampled at transverse nodes)."""
    worst = 0.0
    for ax in range(grid.dim):
        for edge in (0.0, grid.extents[ax]):
            axis_coords = [
                np.array([edge]) if a == ax else grid.axis_nodes[a]
                for a in range(grid.dim)
            ]
            worst = max(worst,
                        float(np.abs(fields.evaluate(grid, f, parity,
                                                     axis_coords)).max()))
    return worst


def test_dirichlet_fields_vanish_on_boundary():
    for g in (grid1(), grid2()):
        sin = fields.dirichlet(g.dim)
        f = random_field(g, sin)
        assert _boundary_max_abs(g, f, sin) <= 1e-11 * max(
            1.0, np.abs(f).max())


def test_evaluate_reproduces_nodes():
    g = grid2()
    f = random_field(g, fields.neumann(2))
    vals = fields.evaluate(g, f, fields.neumann(2),
                           [g.axis_nodes[0], g.axis_nodes[1]])
    assert np.abs(vals - f).max() <= 1e-11 * max(1.0, np.abs(f).max())


# ---------------------------------------------------------------------------
# discrete identities the solver's energy ledger rests on
# ---------------------------------------------------------------------------

def test_summation_by_parts_exact():
    g = grid2()
    f = random_field(g, fields.neumann(2))  # cosine along both axes
    v = random_field(g, fields.dirichlet(2))
    plan = fields.spectral_plan(g)
    for ax in range(2):
        lhs = fields.integrate_values(g, f * plan.deriv(v, ax, fields.SIN))
        rhs = -fields.integrate_values(g, plan.deriv(f, ax, fields.COS) * v)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_dealias_projection_moves_across_pairing():
    g = grid2()
    a = RNG.normal(size=g.shape)
    y = RNG.normal(size=g.shape)
    plan = fields.spectral_plan(g)
    for par in (fields.neumann(2), fields.dirichlet(2)):
        lhs = fields.integrate_values(g, a * plan.project(y, par))
        rhs = fields.integrate_values(g, plan.project(a, par) * y)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_dealias_keeps_low_and_kills_high():
    g = grid1()
    n = g.shape[0]
    cut = g.dealias_cut[0]
    c = np.zeros(n)
    c[2] = 1.0
    c[cut] = 1.0  # frequency == cut must be removed
    cos = fields.neumann(1)
    f = field_from_coeffs(g, cos, c)
    out = fields.coeffs(g, fields.spectral_plan(g).project(f, cos), cos)
    assert abs(out[2] - 1.0) <= 1e-13
    assert abs(out[cut]) <= 1e-13


# ---------------------------------------------------------------------------
# the operator matrices against scipy.fft oracles
# ---------------------------------------------------------------------------

ORACLE_GRIDS = [fields.Grid((16,), (1.5,)), fields.Grid((32, 32), (2.0, 2.0)),
                fields.Grid((32, 16), (2.0, 1.0))]
ORACLE_IDS = ["1d16", "square32", "32x16"]


def _oracle_forward(values, parity):
    """Orthonormal coefficients by scipy.fft; sine Nyquist slot zeroed."""
    c = values
    for ax, par in enumerate(parity):
        if par == fields.COS:
            c = sfft.dct(c, type=2, norm="ortho", axis=ax)
        else:
            c = sfft.dst(c, type=2, norm="ortho", axis=ax)
            c[(slice(None),) * ax + (-1,)] = 0.0
    return c


def _oracle_inverse(c, parity):
    v = c
    for ax, par in enumerate(parity):
        if par == fields.COS:
            v = sfft.idct(v, type=2, norm="ortho", axis=ax)
        else:
            v = sfft.idst(v, type=2, norm="ortho", axis=ax)
    return v


def _oracle_deriv(values, parity, axis, length):
    """Cosine slot k and sine slot k-1 both hold frequency k; orthonormal
    coefficients of the two share their scaling for k = 1..N-1."""
    c = _oracle_forward(values, parity)
    n = c.shape[axis]
    w = np.arange(1, n) * np.pi / length
    shape = [1] * c.ndim
    shape[axis] = n - 1
    w = w.reshape(shape)
    lo = (slice(None),) * axis + (slice(0, n - 1),)
    hi = (slice(None),) * axis + (slice(1, n),)
    out = np.zeros_like(c)
    new = list(parity)
    if parity[axis] == fields.COS:
        out[lo] = -w * c[hi]
        new[axis] = fields.SIN
    else:
        out[hi] = w * c[lo]
        new[axis] = fields.COS
    return _oracle_inverse(out, new)


def _max_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_deriv_matches_fft_oracle(grid):
    for par in _parities(grid.dim):
        f = random_field(grid, par, decay=0.1)
        for ax in range(grid.dim):
            ref = _oracle_deriv(f, par, ax, grid.extents[ax])
            got = fields.spectral_plan(grid).deriv(f, ax, par[ax])
            assert _max_err(got, ref) <= 1e-13


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_dealias_values_matches_fft_oracle(grid):
    vals = RNG.normal(size=grid.shape)
    for par in _parities(grid.dim):
        c = _oracle_forward(vals, par)
        for ax, p in enumerate(par):
            cut = grid.dealias_cut[ax] - (p == fields.SIN)
            c[(slice(None),) * ax + (slice(cut, None),)] = 0.0
        ref = _oracle_inverse(c, par)
        got = fields.spectral_plan(grid).project(vals, par)
        assert _max_err(got, ref) <= 1e-13


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_laplacian_and_helmholtz_match_fft_oracle(grid):
    for par in _parities(grid.dim):
        f = random_field(grid, par, decay=0.1)
        plan = fields.spectral_plan(grid)
        sym = plan.symbol(par)
        c = _oracle_forward(f, par)
        lap = _oracle_inverse(-sym * c, par)
        assert _max_err(plan.laplacian(f, par), lap) <= 1e-13
        helm = _oracle_inverse(c / (0.7 + 2.5e-3 * sym), par)
        got = plan.helmholtz(f, par, 0.7, 2.5e-3)
        assert _max_err(got, helm) <= 1e-13


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_heat_preconditioner_matches_fft_oracle(grid):
    from nlcflow.params import PhysParams, RegParams
    rng = np.random.default_rng(11)
    theta = 1.0 + 0.1 * rng.random(grid.shape)
    rho = np.ones(grid.shape)
    frozen = sv._FrozenHeat(fields.spectral_plan(grid), theta, rho,
                                RegParams(), PhysParams(), 1e-3)
    r = rng.standard_normal(grid.shape)
    ref = sfft.idctn(sfft.dctn(r, type=2) / frozen.symbol, type=2)
    assert _max_err(frozen.precondition(r), ref) <= 1e-13


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_coeffs_round_trip_matches_fft_oracle(grid):
    for par in _parities(grid.dim):
        f = random_field(grid, par)
        ref = f
        for ax, p in enumerate(par):
            n = grid.shape[ax]
            if p == fields.COS:
                ref = sfft.dct(ref, type=2, axis=ax) / n
                ref[(slice(None),) * ax + (0,)] /= 2.0
            else:
                ref = sfft.dst(ref, type=2, axis=ax) / n
                ref[(slice(None),) * ax + (n - 1,)] = 0.0
        c = fields.coeffs(grid, f, par)
        assert _max_err(c, ref) <= 1e-13
        back = field_from_coeffs(grid, par, c)
        assert _max_err(back, f) <= 1e-13


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_sine_to_cosine_derivative_is_negative_transpose(grid):
    for ops in fields.spectral_plan(grid).axes:
        assert np.array_equal(ops.deriv[fields.SIN], -ops.deriv[fields.COS].T)


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_plan_kernels_on_stacks_match_per_slice(grid):
    """Every plan kernel applied to a (k, *grid.shape) stack equals the
    kernel applied to each slice; the slices differ in their first nodal
    values, which the cosine derivative and the Helmholtz solve shift by."""
    plan = fields.spectral_plan(grid)
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((3,) + grid.shape) \
        + np.arange(3.0).reshape((3,) + (1,) * grid.dim)

    def check(kernel):
        got = kernel(stack)
        ref = np.stack([kernel(v) for v in stack])
        assert got.shape == stack.shape
        assert _max_err(got, ref) <= 1e-14

    for par in _parities(grid.dim):
        check(lambda v: plan.forward(v, par))
        check(lambda v: plan.inverse(v, par))
        check(lambda v: plan.project(v, par))
        check(lambda v: plan.laplacian(v, par))
        check(lambda v: plan.helmholtz(v, par, 0.7, 2.5e-3))
        check(lambda v: fields._strip_sine_nyquist(v, par, grid))
        for ax in range(grid.dim):
            check(lambda v: plan.deriv(v, ax, par[ax]))


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fields.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, nlcflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
