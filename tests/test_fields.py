import io

import numpy as np
import pytest

from nlcflow import fields
from nlcflow.errors import IOFailure, NonZeroMean, ParityMismatch

RNG = np.random.default_rng(1234)


def random_field(grid, parity, decay=0.3, keep=None):
    """Band-limited random field with geometrically decaying spectrum."""
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
    return fields.field_from_coeffs(grid, parity, c)


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
        back = fields.field_from_coeffs(g, par, fields.coeffs(f))
        scale = f.norm_inf()
        assert np.abs(back.values - f.values).max() <= 1e-12 * scale


def test_sine_nyquist_projected_at_construction():
    g = grid1()
    n = g.shape[0]
    alternating = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    f = fields.ScalarField(g, fields.dirichlet(1), alternating)
    assert np.abs(f.values).max() <= 1e-12


def test_parseval():
    for g in (grid1(), grid2()):
        for par in (fields.neumann(g.dim), fields.dirichlet(g.dim)):
            f = random_field(g, par)
            nodal = fields.inner(f, f)
            c = fields.coeffs(f)
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
    f = fields.constant_field(g, 3.7)
    for d in fields.gradient(f):
        assert np.abs(d.values).max() == 0.0


def test_gradient_cosine_mode_analytic():
    g = grid1()
    L = g.extents[0]
    f = fields.from_function(g, lambda x: np.cos(np.pi * x / L))
    d = fields.deriv(f, 0)
    exact = -(np.pi / L) * np.sin(np.pi * g.axis_nodes[0] / L)
    assert np.abs(d.values - exact).max() <= 1e-12


def _fd8_error(n):
    """Max gap between the spectral derivative and an 8th-order stencil."""
    g = fields.Grid((n,), (2 * np.pi,))
    L = g.extents[0]
    f = fields.from_function(g, lambda x: np.exp(1.5 * np.cos(np.pi * x / L)))
    d = fields.deriv(f, 0).values
    h = g.spacing[0]
    ext = np.concatenate([f.values, f.values[::-1]])  # smooth even extension
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
    g = grid2()
    Lx = g.extents[0]
    vx = fields.from_function(
        g, lambda x, y: np.sin(np.pi * x / Lx), parity=fields.dirichlet(2)
    )
    vy = fields.constant_field(g, 0.0, parity=fields.dirichlet(2))
    div = fields.divergence([vx, vy])
    exact = (np.pi / Lx) * np.cos(np.pi * g.mesh()[0] / Lx)
    assert np.abs(div.values - exact).max() <= 1e-12

    f = random_field(g, fields.neumann(2))
    lap1 = fields.divergence(fields.gradient(f))
    lap2 = fields.laplacian(f)
    assert np.abs(lap1.values - lap2.values).max() <= 1e-11 * max(
        1.0, lap2.norm_inf()
    )


def test_laplacian_eigenmodes():
    g = grid2()
    sym = fields.laplace_symbol(g, fields.neumann(2))
    for kx in range(g.shape[0]):
        for ky in range(0, g.shape[1], 5):
            c = np.zeros(g.shape)
            c[kx, ky] = 1.0
            f = fields.field_from_coeffs(g, fields.neumann(2), c)
            lam = sym[kx, ky]
            out = fields.coeffs(fields.laplacian(f))
            assert abs(out[kx, ky] + lam) <= 1e-12 * max(lam, 1.0)
            out[kx, ky] = 0.0
            assert np.abs(out).max() <= 1e-12 * max(lam, 1.0)


def test_operator_linearity():
    g = grid2()
    f1 = random_field(g, fields.neumann(2))
    f2 = random_field(g, fields.neumann(2))
    a, b = 2.25, -0.75
    combo = a * f1 + b * f2
    lhs = fields.laplacian(combo).values
    rhs = a * fields.laplacian(f1).values + b * fields.laplacian(f2).values
    assert np.abs(lhs - rhs).max() <= 1e-11 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant():
    g = grid2()
    f = fields.constant_field(g, 1.0)
    assert abs(fields.integrate(f) - g.measure) <= 1e-12 * g.measure


def test_integrate_cosine_is_zero():
    g = grid1()
    L = g.extents[0]
    f = fields.from_function(g, lambda x: np.cos(np.pi * x / L))
    assert abs(fields.integrate(f)) <= 1e-12


def test_integrate_cosine_squared():
    g = grid1()
    L = g.extents[0]
    f = fields.from_function(g, lambda x: np.cos(np.pi * x / L) ** 2)
    assert abs(fields.integrate(f) - L / 2.0) <= 1e-12 * L


# ---------------------------------------------------------------------------
# Poisson / Helmholtz
# ---------------------------------------------------------------------------

def test_inverse_laplacian_zero():
    g = grid1()
    phi = fields.inverse_laplacian_neumann(fields.constant_field(g, 0.0))
    assert np.abs(phi.values).max() == 0.0


def test_inverse_laplacian_analytic():
    g = grid1()
    L = g.extents[0]
    f = fields.from_function(g, lambda x: np.cos(np.pi * x / L))
    phi = fields.inverse_laplacian_neumann(f)
    exact = -((L / np.pi) ** 2) * np.cos(np.pi * g.axis_nodes[0] / L)
    assert np.abs(phi.values - exact).max() <= 1e-11


def test_inverse_laplacian_round_trip():
    g = grid2()
    f = random_field(g, fields.neumann(2))
    c = fields.coeffs(f)
    c.flat[0] = 0.0  # drop the mean
    f = fields.field_from_coeffs(g, fields.neumann(2), c)
    phi = fields.inverse_laplacian_neumann(f)
    back = fields.laplacian(phi)
    assert np.abs(back.values - f.values).max() <= 1e-11 * max(1.0, f.norm_inf())
    assert abs(fields.integrate(phi)) <= 1e-12 * max(1.0, phi.norm_inf())


def test_inverse_laplacian_rejects_nonzero_mean():
    g = grid1()
    with pytest.raises(NonZeroMean):
        fields.inverse_laplacian_neumann(fields.constant_field(g, 1.0))


def test_helmholtz_solve():
    g = grid2()
    rhs = random_field(g, fields.neumann(2))
    a, c = 1.0, 2.5e-3
    phi = fields.solve_helmholtz(rhs, a, c)
    residual = a * phi.values - c * fields.laplacian(phi).values - rhs.values
    assert np.abs(residual).max() <= 1e-11 * max(1.0, rhs.norm_inf())


# ---------------------------------------------------------------------------
# boundary behavior
# ---------------------------------------------------------------------------

def test_laplace_symbol_cached_and_read_only():
    grid = fields.Grid((32, 16), (2.0, 1.0))
    for parity in ((fields.COS, fields.COS), (fields.SIN, fields.COS)):
        sym = fields.laplace_symbol(grid, parity)
        assert sym is fields.laplace_symbol(fields.Grid((32, 16), (2.0, 1.0)),
                                            parity)
        with pytest.raises(ValueError):
            sym[0, 0] = 1.0
    for w, _, _ in fields.spectral_plan(grid).shifts:
        with pytest.raises(ValueError):
            w.flat[0] = 1.0


@pytest.mark.parametrize("grid", [grid1(), grid2()])
def test_r2r_round_trip_and_slot_layout(grid):
    """Raw coefficients invert exactly and differ from :func:`coeffs` by a
    diagonal factor, so the plan's shifts and symbols apply to both."""
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.shape)
    for sine_axis in [None] + list(range(grid.dim)):
        back = fields.r2r_inverse(fields.r2r_forward(vals, sine_axis),
                                  sine_axis)
        assert np.allclose(back, vals, rtol=0, atol=1e-14)
    f = random_field(grid, fields.neumann(grid.dim))
    raw = fields.r2r_forward(f.values)
    amp = fields.coeffs(f)
    scale = np.ones(grid.shape)
    for ax, n in enumerate(grid.shape):
        factor = np.full(n, float(n))
        factor[0] *= 2.0  # cosine slot 0 carries the halved mean
        shape = [1] * grid.dim
        shape[ax] = n
        scale = scale * factor.reshape(shape)
    assert np.allclose(raw, amp * scale, rtol=0,
                       atol=1e-14 * np.abs(raw).max())


def test_dirichlet_fields_vanish_on_boundary():
    for g in (grid1(), grid2()):
        f = random_field(g, fields.dirichlet(g.dim))
        assert fields.boundary_max_abs(f) <= 1e-11 * max(1.0, f.norm_inf())


def test_evaluate_reproduces_nodes():
    g = grid2()
    f = random_field(g, fields.neumann(2))
    vals = fields.evaluate(f, [g.axis_nodes[0], g.axis_nodes[1]])
    assert np.abs(vals - f.values).max() <= 1e-11 * max(1.0, f.norm_inf())


# ---------------------------------------------------------------------------
# discrete identities the solver's energy ledger rests on
# ---------------------------------------------------------------------------

def test_summation_by_parts_exact():
    g = grid2()
    f = random_field(g, fields.neumann(2))  # cosine along both axes
    v = random_field(g, fields.dirichlet(2))
    for ax in range(2):
        lhs = fields.inner(f, fields.deriv(v, ax))
        rhs = -fields.inner(fields.deriv(f, ax), v)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_dealias_projection_moves_across_pairing():
    g = grid2()
    a = RNG.normal(size=g.shape)
    y = RNG.normal(size=g.shape)
    for par in (fields.neumann(2), fields.dirichlet(2)):
        lhs = fields.integrate_values(g, a * fields.dealias_values(g, y, par))
        rhs = fields.integrate_values(g, fields.dealias_values(g, a, par) * y)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_dealias_keeps_low_and_kills_high():
    g = grid1()
    n = g.shape[0]
    cut = g.dealias_cut[0]
    c = np.zeros(n)
    c[2] = 1.0
    c[cut] = 1.0  # frequency == cut must be removed
    f = fields.field_from_coeffs(g, fields.neumann(1), c)
    out = fields.coeffs(fields.dealias(f))
    assert abs(out[2] - 1.0) <= 1e-13
    assert abs(out[cut]) <= 1e-13


def test_parity_mismatch_raises():
    g = grid1()
    f = random_field(g, fields.neumann(1))
    v = random_field(g, fields.dirichlet(1))
    with pytest.raises(ParityMismatch):
        _ = f + v


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip():
    g = grid2()
    f = random_field(g, fields.neumann(2))
    v = random_field(g, fields.dirichlet(2))
    buf = io.StringIO()
    fields.write_field(buf, "rho", f)
    fields.write_field(buf, "ux", v)
    buf.seek(0)
    loaded = fields.read_fields(buf, g)
    assert set(loaded) == {"rho", "ux"}
    assert np.array_equal(loaded["rho"].values, f.values)
    assert np.array_equal(loaded["ux"].values, v.values)
    assert loaded["ux"].parity == fields.dirichlet(2)


def test_snapshot_corruption_raises():
    g = grid1()
    f = random_field(g, fields.neumann(1))
    buf = io.StringIO()
    fields.write_field(buf, "rho", f)
    text = buf.getvalue()
    broken = text.replace("FIELD rho neumann", "FIELD rho sideways")
    with pytest.raises(IOFailure):
        fields.read_fields(io.StringIO(broken), g)
    truncated = "\n".join(text.splitlines()[:-5])
    with pytest.raises(IOFailure):
        fields.read_fields(io.StringIO(truncated), g)
