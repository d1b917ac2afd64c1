"""Time stepper: substep oracles, conservation, fixed points, rejection."""

import itertools
import math

import numpy as np
import pytest

from nlcflow import constitutive as cst
from nlcflow.errors import (GridMismatch, InvalidInitialData, IterationStall,
                            NonFiniteState, PicardDivergence,
                            PositivityLoss, SingularMassMatrix,
                            StepUnderflow, ValidationError)
from nlcflow.fields import (COS, SIN, Grid, coeffs, integrate_values,
                            neumann, spectral_plan)
from nlcflow.params import PhysParams, RegParams
from nlcflow import solver as sv

from conftest import (bump_state, director_step, equilibrium_state,
                      heat_step, run_lists, sine_gradient, unit_director)


# ---------------------------------------------------------------------------
# Galerkin basis
# ---------------------------------------------------------------------------

def _sorted_candidates(grid):
    """Every admissible mode tuple, sorted as (eigenvalue, tuple) pairs
    over all tuples with the eigenvalue summed over the axes in Python."""
    caps = [min((n - 1) // 2, cut - 1)
            for n, cut in zip(grid.shape, grid.dealias_cut)]
    return tuple(tpl for _, tpl in sorted(
        (sum((np.pi * m / L) ** 2 for m, L in zip(tpl, grid.extents)), tpl)
        for tpl in itertools.product(*[range(1, c + 1) for c in caps])))


def test_mode_ordering_square_box():
    """The lowest modes of a square box, ties broken lexicographically,
    and the full order of every admissible mode on 1-D, square and
    non-square grids and extents: the order of the sorted candidates."""
    grid = Grid((32, 32), (2 * np.pi, 2 * np.pi))
    basis = sv.GalerkinBasis(grid, 4)
    assert basis.modes == ((1, 1), (1, 2), (2, 1), (2, 2))
    eigenvalues = [sum((np.pi * m / L) ** 2 for m, L in zip(tpl, grid.extents))
                   for tpl in basis.modes]
    assert np.all(np.diff(eigenvalues) >= 0)
    for grid in (Grid((32,), (2.0,)), Grid((32, 32), (2 * np.pi, 2 * np.pi)),
                 Grid((128, 128), (2.0, 2.0)),
                 Grid((16, 32), (2 * np.pi, 1.5 * np.pi)),
                 Grid((64, 8), (3.0, 0.5))):
        every = _sorted_candidates(grid)
        assert sv.GalerkinBasis(grid, len(every)).modes == every, grid.shape


def test_mode_count_validation():
    grid = Grid((8,), (2.0,))
    # cap = min((8-1)//2, cut-1) = 3 admissible modes
    sv.GalerkinBasis(grid, 3)
    with pytest.raises(ValidationError):
        sv.GalerkinBasis(grid, 4)


def test_projection_idempotent(grid2d):
    basis = sv.GalerkinBasis(grid2d, 6)
    rng = np.random.default_rng(7)
    vals = [rng.standard_normal(grid2d.shape) for _ in range(2)]
    U1 = basis.project(vals)
    U2 = basis.project(basis.reconstruct(U1))
    assert np.linalg.norm(U2 - U1) <= 1e-14 * np.linalg.norm(U1)


def test_reconstruct_project_roundtrip_exact(grid2d):
    basis = sv.GalerkinBasis(grid2d, 5)
    rng = np.random.default_rng(3)
    U = rng.standard_normal((5, 2))
    U2 = basis.project(basis.reconstruct(U))
    assert np.allclose(U2, U, rtol=0, atol=1e-14)


def test_mass_matrix_constant_density(grid2d):
    basis = sv.GalerkinBasis(grid2d, 4)
    M = basis.mass_matrix(np.full(grid2d.shape, 2.0))
    assert np.allclose(M, 2.0 * basis.gram * np.eye(4), atol=1e-12)


def test_mass_matrix_vacuum_is_singular(grid2d):
    basis = sv.GalerkinBasis(grid2d, 4)
    with pytest.raises(SingularMassMatrix):
        sv._checked_mass_matrix(basis, np.zeros(grid2d.shape))


def test_stiffness_built_once_and_read_only(grid2d):
    basis = sv.GalerkinBasis(grid2d, 4)
    p = PhysParams(mu=0.7, lam=0.3)
    K = basis.stiffness(p)
    assert basis.stiffness(PhysParams(mu=0.7, lam=0.3, gamma=3.0)) is K
    assert basis.stiffness(PhysParams(mu=0.5)) is not K
    with pytest.raises(ValueError):
        K[0, 0] = 1.0


def test_stiffness_matches_stress_power_quadrature(grid2d):
    p = PhysParams(mu=0.7, lam=0.3)
    basis = sv.GalerkinBasis(grid2d, 6)
    rng = np.random.default_rng(11)
    U = rng.standard_normal((6, 2))
    u = basis.reconstruct(U)
    plan = spectral_plan(grid2d)
    grad_u = np.stack([
        np.stack([plan.deriv(uc, a, SIN) for uc in u]) for a in range(2)
    ])
    quad = integrate_values(grid2d, cst.stress_power(grad_u, p))
    K = basis.stiffness(p)
    assert abs(U.reshape(-1) @ K @ U.reshape(-1) - quad) <= 1e-11 * abs(quad)


def test_bases_are_nested():
    """The modes of a basis are a prefix of those of any larger mode
    count on the same grid, so a table enters another basis by truncation
    or zero padding."""
    for grid in (Grid((32, 32), (2.0, 2.0)), Grid((16, 32), (2.0, 3.0)),
                 Grid((32,), (2.0,))):
        full = sv.GalerkinBasis(grid, 12).modes
        for n in (1, 4, 6, 8, 11):
            assert sv.GalerkinBasis(grid, n).modes == full[:n]


def _dense_modes(basis):
    """The modes as a dense (n, nodes) stack and their gradients as a
    (n, dim, nodes) stack, built from unit coefficient tables."""
    units = np.eye(basis.n)[:, :, None]
    phi = np.stack([basis.reconstruct(e)[0].ravel() for e in units])
    grad = np.stack([basis.gradient(e)[:, 0].reshape(basis.grid.dim, -1)
                     for e in units])
    return phi, grad


def _held_floats(obj):
    """The float count of every array an object holds, through its
    attributes, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, (tuple, list)):
        return sum(_held_floats(v) for v in obj)
    if isinstance(obj, dict):
        return sum(_held_floats(v) for v in obj.values())
    return 0


def test_basis_memory_does_not_grow_with_modes_times_nodes():
    """At 64^2 with n = 128, everything a basis holds, its stiffness
    included, comes to fewer floats than one nodal array per mode, and its
    separable mass matrix, pairing, reconstruction and stiffness agree
    with the dense sums over the nodes to 1e-14 relative."""
    grid = Grid((64, 64), (2.0, 2.0))
    basis = sv.GalerkinBasis(grid, 128)
    p = PhysParams(mu=0.7, lam=0.3)
    K = basis.stiffness(p)
    assert _held_floats(vars(basis)) < 128 * 64 * 64
    phi, grad = _dense_modes(basis)
    rng = np.random.default_rng(4)
    rho = 1.0 + 0.5 * rng.random(grid.shape)
    vals = rng.standard_normal((2,) + grid.shape)
    U = rng.standard_normal((128, 2))
    w = grid.weight
    lap = w * np.einsum("iap,jap->ij", grad, grad)
    cross = w * np.einsum("iap,jbp->iajb", grad, grad)
    dense_K = (p.mu * np.einsum("ij,ce->icje", lap, np.eye(2))
               + p.mu * cross.transpose(0, 3, 2, 1)
               + p.lam * cross).reshape(256, 256)

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(basis.mass_matrix(rho), (phi * (w * rho.ravel())) @ phi.T) \
        <= 1e-14
    assert rel(basis.pair(vals), w * phi @ vals.reshape(2, -1).T) <= 1e-14
    assert rel(basis.reconstruct(U), (U.T @ phi).reshape(vals.shape)) \
        <= 1e-14
    assert rel(K, dense_K) <= 1e-14


def test_velocity_gradient_from_coefficients_matches_nodal(grid2d):
    """The gradient the basis takes from U is the spectral gradient of
    the reconstructed velocity, to round-off."""
    basis = sv.GalerkinBasis(grid2d, 8)
    U = np.random.default_rng(9).standard_normal((8, 2))
    want = sine_gradient(spectral_plan(grid2d), basis.reconstruct(U))
    got = basis.gradient(U)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# density substep
# ---------------------------------------------------------------------------

def test_density_diffusion_mode_decay():
    grid = Grid((32,), (2.0,))
    eps, dt = 0.05, 1e-3
    cos = neumann(1)
    rho = 1.0 + 0.3 * np.cos(np.pi * grid.axis_nodes[0] / 2.0)
    u = np.zeros((1,) + grid.shape)
    rho1, _ = sv._density_update(spectral_plan(grid), rho, u, eps, dt)
    lam = (np.pi / 2.0) ** 2
    expect = 0.3 / (1.0 + eps * dt * lam)
    # compare the first cosine coefficient directly
    base = coeffs(grid, rho, cos)[1]
    got = coeffs(grid, rho1, cos)[1]
    assert abs(got / base - 1.0 / (1.0 + eps * dt * lam)) < 1e-13
    assert abs(expect - got / base * 0.3) < 1e-13


def test_density_transport_conserves_mass(grid2d):
    basis = sv.GalerkinBasis(grid2d, 4)
    U = np.zeros((4, 2))
    U[0, 0] = 0.3
    U[2, 1] = -0.2
    u = basis.reconstruct(U)
    x, y = grid2d.mesh()
    r = 1.0 + 0.4 * np.cos(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0)
    m0 = integrate_values(grid2d, r)
    for _ in range(5):
        r, _ = sv._density_update(spectral_plan(grid2d), r, u, 0.02, 1e-3)
    assert abs(integrate_values(grid2d, r) - m0) <= 1e-13 * abs(m0)


def test_density_positivity_rejection():
    grid = Grid((32, 32), (2.0, 2.0))
    rho = 0.105 + 0.1 * np.cos(np.pi * grid.mesh()[0] / 2.0)
    basis = sv.GalerkinBasis(grid, 2)
    U = np.zeros((2, 2))
    U[0, 0] = 20.0
    u = basis.reconstruct(U)
    with pytest.raises(PositivityLoss):
        sv._density_update(spectral_plan(grid), rho, u, 0.0, 0.05)


# ---------------------------------------------------------------------------
# director substep
# ---------------------------------------------------------------------------

def test_director_unit_constant_fixed_point(grid2d):
    d = unit_director(grid2d)
    u = np.zeros((2,) + grid2d.shape)
    d1 = director_step(grid2d, d, u, 1e-2)
    for c1, c0 in zip(d1, d):
        assert np.array_equal(c1, c0)


def test_director_zero_fixed_point(grid2d):
    d = np.zeros((3,) + grid2d.shape)
    u = np.zeros((2,) + grid2d.shape)
    d1 = director_step(grid2d, d, u, 1e-2)
    assert np.abs(d1).max() == 0.0


def _director_update_per_component(grid, d, u, dt, p, tol=1e-13,
                                   max_iter=100):
    """Reference director step one component at a time: its gradient, the
    dealiased transport and one Helmholtz solve per component and
    fixed-point iteration, each kernel applied to a single nodal array."""
    plan = spectral_plan(grid)
    kappa = p.relax_rate
    w = []
    for dk in d:
        adv = np.zeros(grid.shape)
        for b, ub in enumerate(u):
            adv += ub * plan.deriv(dk, b, COS)
        w.append(plan.project(adv, neumann(grid.dim)))
    dn = d
    lag = dn.copy()
    scale = max(1.0, float(np.abs(dn).max()))
    for _ in range(max_iter):
        force = cst.gl_force_two_point(dn, lag, p.penalty_scale)
        new = np.stack([
            plan.helmholtz(dn[k] - dt * (w[k] + kappa * force[k]), 1.0,
                           kappa * dt)
            for k in range(3)])
        gap = float(np.abs(new - lag).max())
        lag = new
        if gap <= tol * scale:
            return new
    raise AssertionError("reference director fixed point did not settle")


def test_stacked_director_update_matches_per_component_reference(grid2d):
    from nlcflow import presets
    p = PhysParams()
    s = presets.build("director-twist", grid2d, amplitude=0.6)
    plan = spectral_plan(grid2d)
    d = s.d
    for dt in (1e-3, 1e-2):
        got, *_ = sv._director_update(plan, d, s.u,
                                      plan.grad(d), dt, p)
        ref = _director_update_per_component(grid2d, s.d, s.u, dt, p)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# temperature substep
# ---------------------------------------------------------------------------

def test_temperature_scalar_sink_oracle(grid2d):
    """Constant state: the update has the closed form
    theta' = (delta+rho) theta / (delta+rho+dt*delta*theta^alpha)."""
    reg = RegParams(eps=0.0, delta=0.05, beta=5.0, n_modes=4)
    p = PhysParams(cond_growth=2)
    dt = 1e-3
    theta0 = 2.0
    s = equilibrium_state(grid2d, rho=1.0, theta=theta0)
    th1 = heat_step(s, s.u, reg, dt, p)
    expect = (reg.delta + 1.0) * theta0 / (
        (reg.delta + 1.0) + dt * reg.delta * theta0 ** 2)
    assert abs(float(th1.flat[0]) - expect) < 1e-12 * expect
    assert float(np.ptp(th1)) < 1e-12


def test_temperature_operator_positivity_guard(grid2d):
    """Strong compression (rho' div u term) must trip the rejection."""
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=2)
    p = PhysParams()
    basis = sv.GalerkinBasis(grid2d, 2)
    U = np.zeros((2, 2))
    U[0, 0] = -800.0
    U[1, 1] = -800.0
    u = basis.reconstruct(U)
    s = equilibrium_state(grid2d)
    with pytest.raises(PositivityLoss):
        heat_step(s, u, reg, 1e-2, p)


# ---------------------------------------------------------------------------
# heat-solve kernel: fused conduction operator, preconditioner, CG
# ---------------------------------------------------------------------------

KERNEL_GRIDS = [Grid((32,), (2.0,)), Grid((32, 32), (2.0, 2.0)),
                Grid((32, 16), (2.0, 1.0))]


def _heat_data(grid, seed=3):
    """A smooth positive temperature, its conductivity and a random field."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    theta = 1.0 + 0.3 * np.prod(
        [np.cos(np.pi * x / L) for x, L in zip(mesh, grid.extents)], axis=0) \
        + 0.05 * rng.standard_normal(grid.shape)
    return theta, cst.heat_conductivity(theta, PhysParams()), \
        rng.standard_normal(grid.shape)


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["1d", "square", "32x16"])
def test_conduction_apply_matches_composed_operator(grid):
    theta, kappa, _ = _heat_data(grid)
    plan = spectral_plan(grid)
    composed = np.zeros(grid.shape)
    for b in range(grid.dim):
        # the flux kappa * d_b theta is a stored field with parity sin on
        # axis b, cos elsewhere: stripped of its sine Nyquist mode, the
        # alternating-sign vector along axis b
        n = grid.shape[b]
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).reshape(
            (n,) + (1,) * (grid.dim - 1 - b))
        flux = kappa * plan.deriv(theta, b, COS)
        flux = flux - np.sum(flux * sign, axis=b, keepdims=True) / n * sign
        composed -= plan.deriv(flux, b, SIN)
    fused = sv._conduction_apply(plan, theta, kappa)
    assert np.abs(fused - composed).max() <= 1e-13 * np.abs(composed).max()


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["1d", "square", "32x16"])
def test_conduction_apply_symmetric_positive_semidefinite(grid):
    theta, kappa, x = _heat_data(grid)

    def pair(a, b):
        return grid.weight * float(np.sum(a * b))

    plan = spectral_plan(grid)
    ax = sv._conduction_apply(plan, x, kappa)
    at = sv._conduction_apply(plan, theta, kappa)
    scale = grid.weight * np.linalg.norm(ax) * np.linalg.norm(theta)
    assert abs(pair(ax, theta) - pair(x, at)) <= 1e-13 * scale
    assert pair(x, ax) > 0.0 and pair(theta, at) > 0.0
    # constants span the kernel
    ones = sv._conduction_apply(plan, np.ones(grid.shape), kappa)
    assert np.abs(ones).max() <= 1e-13 * np.abs(ax).max()


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["1d", "square", "32x16"])
def test_heat_preconditioner_matches_helmholtz(grid):
    reg = RegParams(eps=1e-2, delta=1e-3, n_modes=2)
    theta, _, r = _heat_data(grid)
    rho = 1.0 + 0.2 * np.cos(np.pi * grid.mesh()[0])
    plan = spectral_plan(grid)
    frozen = sv._FrozenHeat(plan, theta, rho, reg, PhysParams(), 1e-3)
    cbar = (reg.delta + rho.mean()) / 1e-3 \
        + reg.delta * frozen.th_alpha.mean()
    ref = plan.helmholtz(r, cbar, frozen.kappa.mean())
    got = frozen.precondition(r)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _heat_system(grid):
    theta, kappa, _ = _heat_data(grid)
    c0 = 1e3 * (1.0 + 0.1 * theta)
    plan = spectral_plan(grid)
    frozen = sv._FrozenHeat(plan, theta, np.ones(grid.shape), RegParams(),
                            PhysParams(), 1e-3)
    calls = []

    def apply_op(v):
        calls.append(1)
        return c0 * v + sv._conduction_apply(plan, v, kappa)

    return apply_op, frozen.precondition, theta, calls


def test_pcg_warm_and_cold_starts_agree():
    grid = KERNEL_GRIDS[2]
    apply_op, precond, theta, calls = _heat_system(grid)
    b = apply_op(theta)
    cold, _, _ = sv._pcg(apply_op, precond, b, np.zeros(grid.shape))
    cold_calls = len(calls)
    warm_start = theta + 1e-6 * np.cos(3 * np.pi * grid.mesh()[0] / 2.0)
    warm, _, _ = sv._pcg(apply_op, precond, b, warm_start)
    assert len(calls) - cold_calls < cold_calls
    assert np.abs(warm - cold).max() <= 1e-12 * np.abs(theta).max()
    assert np.abs(warm - theta).max() <= 1e-12 * np.abs(theta).max()


def test_scaled_preconditioner_agrees_and_saves_applies(grid2d):
    """On the heat system of a density-bump step the diagonally scaled
    preconditioner reaches the plain one's solution in fewer applies, from
    a cold and from a warm start."""
    p = PhysParams()
    s0, reg = _density_bump_start(grid2d)
    plan, dt = spectral_plan(grid2d), 1e-3
    rho, u = s0.rho, s0.u
    frozen = sv._FrozenHeat(plan, s0.theta, rho, reg, p, dt)
    rho_new, m = sv._density_update(plan, rho, u, reg.eps, dt)
    c0, rhs = sv._heat_system(frozen, rho_new, sine_gradient(plan, u), m,
                              np.zeros(grid2d.shape), reg, p, dt)

    def apply_op(v):
        return frozen.apply(c0, v)

    for x0 in (np.zeros(grid2d.shape), frozen.theta):
        plain, res_p, applies_p = sv._pcg(apply_op, frozen.precondition, rhs,
                                          x0)
        scaled, res_s, applies_s = sv._pcg(
            apply_op, frozen.scaled_preconditioner(c0), rhs, x0)
        assert max(res_p, res_s) <= 1e-13
        assert applies_s < applies_p
        assert np.abs(scaled - plain).max() <= 1e-12 * np.abs(plain).max()


def test_pcg_zero_rhs_returns_before_any_apply():
    grid = KERNEL_GRIDS[1]
    apply_op, precond, theta, calls = _heat_system(grid)
    x, res, applies = sv._pcg(apply_op, precond, np.zeros(grid.shape), theta)
    assert not calls and applies == 0 and res == 0.0
    assert not np.any(x)


def test_pcg_nonfinite_residual_raises():
    grid = KERNEL_GRIDS[1]
    apply_op, precond, theta, calls = _heat_system(grid)
    b = apply_op(theta)
    b[3, 4] = np.nan
    with pytest.raises(NonFiniteState, match="temperature"):
        sv._pcg(apply_op, precond, b, theta)
    assert len(calls) == 2  # the call building b, then b - A x0 only


@pytest.mark.parametrize("target,substep", [("theta", "temperature"),
                                            ("d", "director")])
def test_nonfinite_state_named_and_not_halved(grid2d, target, substep):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    field_ = s.theta if target == "theta" else s.d[1]
    field_[5, 7] = np.nan
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(NonFiniteState, match=substep) as info:
        sv.step_coupled(s, reg, cfg, p)
    assert info.value.substep == substep
    assert info.value.t == 0.0 and info.value.dt == cfg.dt
    assert "t=0 " in str(info.value) and "dt=0.001" in str(info.value)


@pytest.mark.parametrize("failure", ["picard", "director", "temperature"])
def test_step_failure_names_substep_time_and_residual(grid2d, monkeypatch,
                                                      failure):
    """Picard iterates that do not settle, a director fixed point and a
    heat conjugate-gradient solve that run out of iterations each end the
    step with an error naming the substep, t, dt and the last increment or
    relative residual; raised inside a run, it also names the step."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    kind = IterationStall
    if failure == "picard":
        monkeypatch.setattr(sv, "_PICARD_TOL", 1e-300)
        monkeypatch.setattr(sv, "_PICARD_MAX", 1)
        kind = PicardDivergence
    elif failure == "director":
        monkeypatch.setattr(sv, "_DIRECTOR_MAX_ITER", 1)
    else:
        monkeypatch.setattr(sv, "_CG_MAX_ITER", 1)
    with pytest.raises(kind) as info:
        sv.step_coupled(bump_state(grid2d), reg, cfg, p)
    exc = info.value
    assert exc.substep == failure
    assert exc.t == 0.0 and exc.dt == cfg.dt
    assert math.isfinite(exc.residual) and exc.residual > 1e-13
    msg = str(exc)
    assert f"{exc.residual:.3e}" in msg
    assert "t=0 " in msg and "dt=0.001" in msg
    assert exc.step is None and "the step from t=0 " in msg

    with pytest.raises(kind) as info:
        for _ in sv.run(bump_state(grid2d), reg, cfg, p):
            pass
    exc = info.value
    assert exc.substep == failure and exc.step == 1
    assert "of step 1 from t=0 with dt=0.001" in str(exc)


def _expect_named_failure(kind, substep, step, t, dt, run_step):
    """The failure ``run_step`` raises names its substep, t and dt, and,
    raised inside a run, the step index."""
    with pytest.raises(kind) as info:
        run_step()
    exc = info.value
    assert exc.substep == substep and exc.t == t
    assert exc.dt == pytest.approx(dt, rel=1e-15)
    msg = str(exc)
    assert f"from t={t:.17g} with dt={exc.dt:.17g}" in msg
    assert exc.step == step
    if step is not None:
        assert f"of step {step} from" in msg


def test_singular_mass_matrix_names_time_and_step(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=4)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    s = equilibrium_state(grid2d, rho=0.0)
    _expect_named_failure(SingularMassMatrix, "momentum", None, 0.0, 1e-3,
                          lambda: sv.step_coupled(s, reg, cfg, p))
    _expect_named_failure(SingularMassMatrix, "momentum", 1, 0.0, 1e-3,
                          lambda: list(sv.run(s, reg, cfg, p)))


def test_step_underflow_names_time_dt_and_step(grid2d, monkeypatch):
    """Every step after the first loses positivity in the density substep
    whatever its dt: the second step gives up after ten halvings, naming
    the substep, its t, the last dt tried and the step index."""
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    advance = sv._picard_advance

    def failing(s, *args):
        if s.t > 0.0:
            raise PositivityLoss("density", "density undershoot -1")
        return advance(s, *args)

    monkeypatch.setattr(sv, "_picard_advance", failing)
    s1, _ = sv.step_coupled(bump_state(grid2d), reg, cfg, p)
    _expect_named_failure(StepUnderflow, "density", None, s1.t,
                          1e-3 * 0.5 ** 10,
                          lambda: sv.step_coupled(s1, reg, cfg, p))
    _expect_named_failure(StepUnderflow, "density", 2, s1.t,
                          1e-3 * 0.5 ** 10,
                          lambda: list(sv.run(bump_state(grid2d), reg, cfg,
                                              p)))
    with pytest.raises(StepUnderflow, match="after 10 dt halvings"):
        sv.step_coupled(s1, reg, cfg, p)


def test_density_guard_catches_nonfinite(grid2d):
    s = bump_state(grid2d)
    s.rho[2, 2] = np.nan
    with pytest.raises(NonFiniteState, match="density"):
        sv._density_update(spectral_plan(grid2d), s.rho, s.u, 1e-2, 1e-3)


# ---------------------------------------------------------------------------
# momentum substep
# ---------------------------------------------------------------------------

def _momentum_step(u, rho, theta, d, reg, basis, dt, p):
    """One momentum substep on raw arrays with every coupling frozen at the
    inputs; the director of every state used here is a unit constant, so
    its relaxation field is zero."""
    plan = spectral_plan(basis.grid)
    m = sv._mass_flux(plan, rho, u)
    U = basis.project(u)
    system = sv._momentum_system(sv._checked_mass_matrix(basis, rho),
                                 basis.stiffness(p), U, dt)
    U_new = sv._momentum_update(
        plan, u, basis.gradient(U), rho, rho, m, theta,
        plan.grad(d), np.zeros((3,) + rho.shape), reg,
        basis, p, system)
    return basis.reconstruct(U_new)


def test_momentum_stokes_decay_1d():
    grid = Grid((64,), (2.0,))
    p = PhysParams(mu=1.0, lam=0.5)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=1)
    basis = sv.GalerkinBasis(grid, 1)
    amp, dt = 0.01, 1e-4
    u = basis.reconstruct(np.array([[amp]]))
    rho = np.ones(grid.shape)
    theta = np.ones(grid.shape)
    d = np.stack([np.ones(grid.shape), np.zeros(grid.shape),
                  np.zeros(grid.shape)])
    u1 = _momentum_step(u, rho, theta, d, reg, basis, dt, p)
    lam1 = (np.pi / 2.0) ** 2
    expect = amp / (1.0 + dt * (2.0 * p.mu + p.lam) * lam1)
    got = basis.project(u1)[0, 0]
    assert abs(got - expect) <= 1e-8 * amp


def test_momentum_zero_velocity_stays_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    basis = sv.GalerkinBasis(grid2d, 4)
    s = equilibrium_state(grid2d)
    u1 = _momentum_step(s.u, s.rho, s.theta, s.d, reg, basis, 1e-3, p)
    assert np.abs(u1).max() == 0.0


# ---------------------------------------------------------------------------
# coupled stepping
# ---------------------------------------------------------------------------

def test_equilibrium_is_fixed_point(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1e-3)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert rec.picard_iters == 1
    assert np.array_equal(s1.rho, s.rho)
    assert np.array_equal(s1.theta, s.theta)
    assert np.abs(s1.u).max() == 0.0
    for c1, c0 in zip(s1.d, s.d):
        assert np.array_equal(c1, c0)


@pytest.mark.parametrize("preset", ["density-bump", "director-twist"])
def test_accepted_sweep_reaches_full_inner_tolerance(grid2d, monkeypatch,
                                                     preset):
    """The StepRecord of a step shows what the accepted sweep's heat and
    director solves reached, not what was asked of them, and counts the
    step's heat applies and director iterations over all its sweeps."""
    from nlcflow import presets
    p = PhysParams()
    s0, reg = _density_bump_start(grid2d)
    if preset == "director-twist":
        s0 = presets.build(preset, grid2d, amplitude=0.6)
    applies, iters = [], []
    _counted(monkeypatch, sv, "_conduction_apply", applies)
    _counted(monkeypatch, cst, "gl_force_two_point", iters)
    _, rec = sv.step_coupled(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    assert rec.picard_iters >= 2
    assert 0.0 <= rec.heat_residual <= 1e-13
    assert 0.0 <= rec.director_gap <= 1e-13
    assert rec.heat_applies == len(applies)
    assert rec.director_iters == len(iters) >= rec.picard_iters


# ---------------------------------------------------------------------------
# velocity predictor
# ---------------------------------------------------------------------------

def _twist_start(grid):
    """A 32^2 ``director-twist`` start with n = 8 Galerkin modes."""
    from nlcflow import presets
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("director-twist", grid, amplitude=0.6)
    return sv.regularize_initial_data(grid, raw.rho, raw.rho * raw.u,
                                      raw.theta, raw.d, reg), reg


def _stepped_state(grid, steps=2):
    """The state after ``steps`` dt = 1e-3 steps, whose history of
    min(steps, 5) levels predicts the next step once steps >= 1."""
    s, reg = _twist_start(grid)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    for _ in range(steps):
        s, _ = sv.step_coupled(s, reg, cfg, PhysParams())
    return s, reg


def _plain(s):
    return sv.State(s.grid, s.t, s.rho, s.U, s.theta, s.d)


def _same_state(a, b):
    return a.t == b.t and all(np.array_equal(getattr(a, f), getattr(b, f))
                              for f in ("rho", "U", "u", "theta", "d"))


def test_history_keeps_five_levels_newest_first(grid2d):
    """Each step hands its new state the Galerkin coefficients, the
    temperature and the director of the state it started from, the
    temperature and the director as that state's own arrays, and keeps the
    newest four levels of the old history, so after k steps a state holds
    min(k, 5) levels, 40 steps into a run too."""
    s0, reg = _twist_start(grid2d)
    states, records = run_lists(s0, reg, sv.SolverConfig(dt=1e-3,
                                                         t_end=4e-2),
                                PhysParams())
    assert len(states) == 41 and states[0].history == ()
    for k in range(1, 41):
        levels = states[k].history
        assert len(levels) == min(k, sv._HISTORY_LEVELS) == min(k, 5)
        for j, (dt, U, theta, d) in enumerate(levels):
            assert dt == records[k - j].dt
            assert np.array_equal(U, states[k - 1 - j].U)
            assert theta is states[k - 1 - j].theta
            assert d is states[k - 1 - j].d


def test_predicted_steps_take_one_sweep(grid2d):
    """Ten steps of a 32^2 ``director-twist`` run: every step from the
    second on starts from the predictor, the last one (which lands on t_end
    a few ulps short of dt) included.  The first takes 3 sweeps, the
    linearly predicted second 3 too, those predicted from two to four
    levels at most 2, and those predicted from five levels, from the sixth
    step on, one sweep each."""
    s0, reg = _twist_start(grid2d)
    _, records = run_lists(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1e-2),
                           PhysParams())
    records = records[1:]
    assert len(records) == 10
    assert [rec.predicted for rec in records] == [False] + [True] * 9
    sweeps = [rec.picard_iters for rec in records]
    assert sweeps[:2] == [3, 3] and max(sweeps[2:5]) <= 2
    assert sweeps[5:] == [1] * 5
    for rec in records:
        assert rec.heat_residual <= 1e-13 and rec.director_gap <= 1e-13


@pytest.mark.parametrize("levels", [0, 1, 2, 5],
                         ids=["unpredicted", "linear", "quadratic", "quintic"])
def test_predicted_step_solves_every_sweep_full(grid2d, monkeypatch, levels):
    """Every sweep of a step solves its inner problems to _INNER_TOL,
    however many history levels predict it: the unpredicted and the
    linearly predicted step take 3 sweeps, the quadratic's first increment
    misses _PICARD_TOL so its step takes 2, and the quintic's step is
    accepted after its first.  With _PICARD_TOL = 1e-2 each step is
    accepted after its first sweep, and with _PICARD_MAX = 1 as well: the
    last sweep the cap allows is the same sweep."""
    s, reg = _stepped_state(grid2d, levels)
    assert len(s.history) == levels
    calls = []
    pcg = sv._pcg

    def spy_pcg(*args, **kwargs):
        calls.append(args)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(sv, "_pcg", spy_pcg)
    p = PhysParams()
    _, rec = sv.step_coupled(s, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    assert rec.predicted == (levels > 0)
    assert rec.picard_iters == {0: 3, 1: 3, 2: 2, 5: 1}[levels] == len(calls)
    assert rec.heat_residual <= 1e-13 and rec.director_gap <= 1e-13

    states = []
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    monkeypatch.setattr(sv, "_PICARD_TOL", 1e-2)
    for cap in (50, 1):
        calls.clear()
        monkeypatch.setattr(sv, "_PICARD_MAX", cap)
        s1, rec = sv.step_coupled(s, reg, cfg, p)
        assert rec.picard_iters == 1 and len(calls) == 1
        assert rec.heat_residual <= 1e-13 and rec.director_gap <= 1e-13
        states.append(s1)
    assert _same_state(*states)


def test_predictor_reproduces_polynomials_in_t():
    """From k equal-dt levels the predictor is the polynomial of degree k
    through level n and those levels, for the Galerkin table, the nodal
    temperature and the director stack of a history alike: it reproduces
    every table, temperature and director that is a polynomial of degree k
    in t to round-off, at k = 1 to 5, and misses a degree-6 one from five
    levels by its leading error 6! dt^6 c_6."""
    rng = np.random.default_rng(5)
    dt, t_n, scale = 1e-3, 0.05, 0.1
    coeffs = (rng.standard_normal((7, 8, 2)),
              rng.standard_normal((7, 16, 16)),
              rng.standard_normal((7, 3, 16, 16)))

    def level(t, degree):
        """The (table, temperature, director) at t, each of ``degree``."""
        return tuple(sum(c * (t / scale) ** q
                         for q, c in enumerate(cs[:degree + 1]))
                     for cs in coeffs)

    for k in (1, 2, 3, 4, 5, 6):
        history = tuple((dt,) + level(t_n - j * dt, k) for j in range(1, 6))
        order = min(k, 5)
        assert sv._predicts(history[:order], dt, (8, 2)) == order
        for f, (now, want) in enumerate(zip(level(t_n, k),
                                            level(t_n + dt, k))):
            got = sv._extrapolate(now, [lv[1 + f] for lv in history], order)
            if k <= 5:
                assert np.abs(got - want).max() \
                    <= 1e-13 * np.abs(want).max(), (k, f)
            else:
                lead = -math.factorial(6) * (dt / scale) ** 6 * coeffs[f][6]
                assert np.abs(got - want - lead).max() \
                    <= 1e-3 * np.abs(lead).max(), f


def test_predicted_heat_solve_starts_from_the_extrapolated_temperature(
        grid2d, monkeypatch):
    """A step predicted from five levels starts its first heat CG from the
    quintic extrapolation of theta through theta^n and the five levels,
    not from theta^n, and so takes fewer heat-operator applies than the
    same step with its history dropped, which starts from theta^n.  Both
    take one sweep and reach the inner tolerance."""
    s, reg = _stepped_state(grid2d, 6)
    assert len(s.history) == 5
    starts = []
    pcg = sv._pcg

    def spy_pcg(apply_op, precond, b, x0, *args, **kwargs):
        starts.append(x0)
        return pcg(apply_op, precond, b, x0, *args, **kwargs)

    monkeypatch.setattr(sv, "_pcg", spy_pcg)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    _, rec = sv.step_coupled(s, reg, cfg, PhysParams())
    _, plain = sv.step_coupled(_plain(s), reg, cfg, PhysParams())
    assert rec.predicted and not plain.predicted
    assert rec.picard_iters == 1 and len(starts) == 1 + plain.picard_iters
    assert np.array_equal(starts[0], sv._extrapolate(
        s.theta, [theta for _, _, theta, _ in s.history], 5))
    assert starts[1] is s.theta
    assert rec.heat_applies < plain.heat_applies
    assert rec.heat_residual <= 1e-13 and plain.heat_residual <= 1e-13


def test_predicted_director_starts_from_the_extrapolated_director(
        grid2d, monkeypatch):
    """A step predicted from five levels starts its first director fixed
    point (its ``lag``) from the quintic extrapolation of d through d^n and
    the five levels, not from d^n, and so takes fewer fixed-point
    iterations than the same step with its history dropped, which starts
    from d^n.  Both keep d^n as the old level of the director equation,
    and both reach the inner tolerance."""
    s, reg = _stepped_state(grid2d, 6)
    assert len(s.history) == 5
    calls = []
    update = sv._director_update

    def spy_update(plan, d, *args, lag=None, **kwargs):
        calls.append((d, lag))
        return update(plan, d, *args, lag=lag, **kwargs)

    monkeypatch.setattr(sv, "_director_update", spy_update)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    _, rec = sv.step_coupled(s, reg, cfg, PhysParams())
    _, plain = sv.step_coupled(_plain(s), reg, cfg, PhysParams())
    assert rec.predicted and not plain.predicted
    assert rec.picard_iters == 1 and len(calls) == 1 + plain.picard_iters
    assert all(d is s.d for d, _ in calls)
    assert np.array_equal(calls[0][1], sv._extrapolate(
        s.d, [d for _, _, _, d in s.history], 5))
    assert calls[1][1] is s.d
    assert rec.director_iters < plain.director_iters
    assert rec.director_gap <= 1e-13 and plain.director_gap <= 1e-13


def test_quintic_predicted_director_takes_two_iterations(grid2d):
    """Twelve steps of a 32^2 ``director-twist`` run: every step predicted
    from five levels, from the sixth on, takes one sweep, and its director
    fixed point at most two iterations (five when it started from d^n)."""
    s0, reg = _twist_start(grid2d)
    _, records = run_lists(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.2e-2),
                           PhysParams())
    quintic = records[6:]
    assert len(quintic) == 7 and all(rec.predicted for rec in quintic)
    for rec in quintic:
        assert rec.picard_iters == 1
        assert rec.director_iters <= 2 * rec.picard_iters


def test_level_of_another_dt_cuts_the_order(grid2d):
    """The order is the length of the leading run of levels with the
    step's dt and shape, at most five: a level of another dt or shape
    ends it, and a run of one level predicts linearly.  A step from five
    levels whose fourth has another dt is the step from the first three,
    bit for bit."""
    dt, shape = 1e-3, (8, 2)
    fields = (np.ones(grid2d.shape), np.ones((3,) + grid2d.shape))
    same = (dt, np.zeros(shape)) + fields
    assert sv._predicts((same,) * 6, dt, shape) == 5
    assert sv._predicts((same,) * 3 + ((2 * dt, np.zeros(shape)) + fields,)
                        + (same,) * 2, dt, shape) == 3
    assert sv._predicts((same, same, (dt, np.zeros((6, 2))) + fields, same),
                        dt, shape) == 2
    assert sv._predicts((same, (dt / 2, np.zeros(shape)) + fields)
                        + (same,) * 4, dt, shape) == 1
    assert sv._predicts(((dt / 2, np.zeros(shape)) + fields,) + (same,) * 4,
                        dt, shape) == 0
    assert sv._predicts(((dt * (1 + 1e-12), np.zeros(shape)) + fields,) * 4,
                        dt, shape) == 4

    s, reg = _stepped_state(grid2d, 5)
    levels = list(s.history)
    assert len(levels) == 5
    levels[3] = (2 * dt,) + levels[3][1:]
    cfg = sv.SolverConfig(dt=dt, t_end=1.0)
    cut, rec = sv.step_coupled(
        sv.State(grid2d, s.t, s.rho, s.U, s.theta, s.d, levels), reg, cfg,
        PhysParams())
    ref, ref_rec = sv.step_coupled(
        sv.State(grid2d, s.t, s.rho, s.U, s.theta, s.d, levels[:3]), reg,
        cfg, PhysParams())
    assert rec.predicted and rec.picard_iters == ref_rec.picard_iters
    assert _same_state(cut, ref)
    assert np.array_equal(rec.U_lag, ref_rec.U_lag)
    whole, _ = sv.step_coupled(s, reg, cfg, PhysParams())
    assert not _same_state(cut, whole)


@pytest.mark.parametrize("dt,t_end", [(2e-3, 1.0), (5e-4, 1.0),
                                      (1e-3, "half")],
                         ids=["longer-dt", "shorter-dt", "truncated-last"])
def test_step_of_another_dt_is_not_predicted(grid2d, dt, t_end):
    """A step whose dt is not the history's, such as a last step cut
    short to land on t_end, starts from u^n: it is the step the same
    state without history takes, bit for bit."""
    s, reg = _stepped_state(grid2d)
    if t_end == "half":
        t_end = s.t + 5e-4
    cfg = sv.SolverConfig(dt=dt, t_end=t_end)
    s1, rec = sv.step_coupled(s, reg, cfg, PhysParams())
    ref, ref_rec = sv.step_coupled(_plain(s), reg, cfg, PhysParams())
    assert not rec.predicted and rec.dt == ref_rec.dt
    assert rec.picard_iters == ref_rec.picard_iters == 3
    assert _same_state(s1, ref)


def test_history_of_another_shape_is_ignored(grid2d):
    """History levels whose coefficient arrays do not have the basis's
    (n, dim) shape, as after a restart with other Galerkin modes, predict
    nothing and are not carried forward."""
    s, reg = _stepped_state(grid2d)
    wide = tuple((dt, np.zeros((reg.n_modes + 1, grid2d.dim)), theta, d)
                 for dt, _, theta, d in s.history)
    odd = sv.State(grid2d, s.t, s.rho, s.U, s.theta, s.d, wide)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    s1, rec = sv.step_coupled(odd, reg, cfg, PhysParams())
    ref, _ = sv.step_coupled(_plain(s), reg, cfg, PhysParams())
    assert not rec.predicted
    assert _same_state(s1, ref)
    assert len(s1.history) == 1


def test_step_reads_the_table_on_the_run_modes(grid2d):
    """A state whose table has 8 rows steps with 6 modes as the state with
    its first 6 rows does, and with 10 modes as the state with the table
    zero-padded to 10 rows, bit for bit.  The truncated table is the
    projection of the state's nodal velocity onto the 6 modes."""
    s, reg = _stepped_state(grid2d)
    assert s.U.shape == (8, 2)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    U6 = s.U[:6]
    U10 = np.zeros((10, 2))
    U10[:8] = s.U
    projected = sv.galerkin_basis(grid2d, 6).project(s.u)
    assert np.abs(U6 - projected).max() <= 1e-14 * np.abs(U6).max()
    for n, U in ((6, U6), (10, U10)):
        modes = RegParams(eps=reg.eps, delta=reg.delta, beta=reg.beta,
                          n_modes=n)
        got, rec = sv.step_coupled(s, modes, cfg, PhysParams())
        want, ref = sv.step_coupled(
            sv.State(grid2d, s.t, s.rho, U, s.theta, s.d, s.history), modes,
            cfg, PhysParams())
        assert got.U.shape == (n, 2) and not rec.predicted
        assert _same_state(got, want)
        assert np.array_equal(rec.U_lag, ref.U_lag)


def test_predicted_positivity_loss_retries_at_the_same_dt(grid2d,
                                                         monkeypatch):
    """A predicted step whose first sweep loses positivity is retried once
    from u^n at the same dt, so the prediction costs no halving."""
    s, reg = _stepped_state(grid2d)
    update = sv._density_update
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise PositivityLoss("density", "density undershoot -1")
        return update(*args, **kwargs)

    monkeypatch.setattr(sv, "_density_update", failing_once)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    s1, rec = sv.step_coupled(s, reg, cfg, PhysParams())
    monkeypatch.undo()
    assert rec.halvings == 0 and rec.dt == cfg.dt and not rec.predicted
    ref, _ = sv.step_coupled(_plain(s), reg, cfg, PhysParams())
    assert _same_state(s1, ref)


def test_coupled_mass_conservation(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    m0 = integrate_values(grid2d, s.rho)
    states, _ = run_lists(s, reg, sv.SolverConfig(dt=1e-3, t_end=5e-3), p)
    for st in states:
        assert abs(integrate_values(grid2d, st.rho) - m0) <= 1e-12 * abs(m0)


def test_coupled_picard_count_smooth(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    _, rec = sv.step_coupled(s, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    assert rec.picard_iters <= 15


def _density_bump_start(grid):
    from nlcflow import presets
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("density-bump", grid, amplitude=0.4)
    return sv.regularize_initial_data(grid, raw.rho, raw.rho * raw.u,
                                      raw.theta, raw.d, reg), reg


def _counted(monkeypatch, owner, name, calls):
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_coupled_step_takes_each_derivative_once(grid2d, monkeypatch):
    """Every spectral operator a step needs is applied once, to all the
    components it acts on at the same time, and shared by the substeps.
    The step computes no energy-ledger terms: the budget audit reads those
    off the two states.  Counted are the per-axis matrix products
    (``fields._along``); the velocity gradient is not among them, as each
    sweep takes it from the Galerkin coefficients through the basis's
    per-axis tables.  At 2-D with k Picard sweeps, J director
    iterations, A heat-operator applies (k conjugate-gradient solves, each
    with one more apply than preconditioner calls), eps > 0 and delta > 0,
    the step takes
      2       director gradient of d^n (3-component stack), once per step
      20 k    per sweep: density: flux projection
              2, flux divergence 2, Helmholtz 4; director transport
              projection 2; heat convection: projection 2, divergence 2;
              momentum: grad rho' 2, Laplacian of rho' 2 (from grad rho'),
              enthalpy and thermal-pressure gradients 2 (one 2-array
              stack), their projections 2 + 2 (force stack and relaxation
              stack); minus the 4 products of the preconditioner call a CG
              solve does not make
      4 J     director fixed point: one stacked Helmholtz solve per
              iteration
      8 A     heat: conduction apply 4 and preconditioner 4
    which is 2 + 20 k + 4 J + 8 A.  This step has k = 3 and J = 3 (the
    director is a unit constant), so 74 + 8 A."""
    p = PhysParams()
    s0, reg = _density_bump_start(grid2d)
    from nlcflow import fields
    products, applies, iters = [], [], []
    _counted(monkeypatch, fields, "_along", products)
    _counted(monkeypatch, sv, "_conduction_apply", applies)
    _counted(monkeypatch, cst, "gl_force_two_point", iters)
    _, rec = sv.step_coupled(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    k, J, A = rec.picard_iters, len(iters), len(applies)
    assert k == 3 and J == 3 and A > 2 * k
    assert len(products) == 2 + 20 * k + 4 * J + 8 * A


def test_step_projects_sine_products_without_strip(grid2d, monkeypatch):
    """A step forms its sine products (the mass flux and the heat
    convection flux) as stacks and projects them, which drops the sine
    Nyquist mode without the strip."""
    from nlcflow import fields
    p = PhysParams()
    s0, reg = _density_bump_start(grid2d)
    calls = []
    _counted(monkeypatch, fields, "_strip_sine_nyquist", calls)
    monkeypatch.setattr(sv, "_strip_sine_nyquist", fields._strip_sine_nyquist)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    sv.step_coupled(s0, reg, cfg, p)
    assert len(calls) == 0


def test_step_halving_recovers(grid2d):
    """A dt too large for positivity is retried halved, not failed."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = bump_state(grid2d, n_modes=4, rho_base=0.6, rho_amp=0.59, u_amp=5.0)
    cfg = sv.SolverConfig(dt=0.1, t_end=0.1)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert rec.halvings >= 1
    assert float(s1.rho.min()) >= 0.0
    assert rec.dt == pytest.approx(0.1 * 0.5 ** rec.halvings)


def test_run_t_end_zero_returns_initial(grid2d):
    p = PhysParams()
    reg = RegParams(n_modes=4)
    s = equilibrium_state(grid2d)
    states, records = run_lists(s, reg, sv.SolverConfig(dt=1e-3, t_end=0.0),
                                p)
    assert len(states) == 1 and states[0] is s
    assert records == [None]


def test_run_lands_on_t_end(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    states, _ = run_lists(s, reg, sv.SolverConfig(dt=3e-3, t_end=1e-2), p)
    assert states[-1].t == pytest.approx(1e-2, abs=1e-12)


def test_run_yields_each_step(grid2d):
    """The run hands out the initial pair, then each accepted step as it
    is taken, with the record of the step ending at its state."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    seen, prev = [], None
    for st, rec in sv.run(s, reg, sv.SolverConfig(dt=1e-3, t_end=3e-3), p):
        assert (rec is None) == (st is s)
        assert rec is None or st.t == prev.t + rec.dt
        seen.append(st.t)
        prev = st
    assert seen == pytest.approx([0.0, 1e-3, 2e-3, 3e-3], abs=1e-15)


# ---------------------------------------------------------------------------
# initial data pipeline
# ---------------------------------------------------------------------------

def test_regularize_identity_when_clamp_inactive(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    rho0 = np.ones(grid2d.shape)
    theta0 = np.ones(grid2d.shape)
    d0 = unit_director(grid2d)
    m0 = [np.zeros(grid2d.shape), np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(grid2d, rho0, m0, theta0, d0, reg)
    # upper clamp delta^(-1/(2 beta)) = 0.01^(-0.1) ~ 1.585 > 1: inactive
    assert np.allclose(s.rho, 1.0)
    assert np.abs(s.u).max() == 0.0
    assert np.allclose(s.theta, 1.0)


def test_regularize_clamps_density_and_masks_momentum(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    hi = 0.01 ** (-1.0 / 10.0)
    rho0 = np.full(grid2d.shape, 2.0)   # above the upper clamp
    theta0 = np.full(grid2d.shape, 20.0)  # above the theta clamp
    d0 = unit_director(grid2d)
    m0 = [np.full(grid2d.shape, 0.4), np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(grid2d, rho0, m0, theta0, d0, reg)
    assert np.allclose(s.rho, hi)
    # clamp lowered the density, so the momentum is zeroed
    assert np.abs(s.u).max() <= 1e-14
    assert np.allclose(s.theta, 10.0)


def test_regularize_vacuum_compatibility(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    rho0 = np.where(grid2d.mesh()[0] < 1.0, 0.0, 1.0)
    theta0 = np.ones(grid2d.shape)
    d0 = unit_director(grid2d)
    bad = [np.full(grid2d.shape, 0.1), np.zeros(grid2d.shape)]
    with pytest.raises(InvalidInitialData):
        sv.regularize_initial_data(grid2d, rho0, bad, theta0, d0, reg)
    ok = [np.where(grid2d.mesh()[0] < 1.0, 0.0, 0.1),
          np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(grid2d, rho0, ok, theta0, d0, reg)
    assert float(s.rho.min()) >= reg.delta - 1e-15


def test_regularize_rejects_negative_density(grid2d):
    reg = RegParams(delta=0.01, beta=5.0, n_modes=4)
    rho0 = np.full(grid2d.shape, -0.5)
    theta0 = np.ones(grid2d.shape)
    d0 = unit_director(grid2d)
    with pytest.raises(InvalidInitialData):
        sv.regularize_initial_data(
            grid2d, rho0, [np.zeros(grid2d.shape)] * 2, theta0, d0, reg)


def test_state_checks_layout_shapes(grid2d):
    """A State holds rho and theta of the grid's shape, an n x dim Galerkin
    coefficient table with n >= 1 and a 3-component director stack;
    anything else is refused, naming the field.  Its nodal velocity is
    built from the table through the cached basis of its mode count."""
    s = equilibrium_state(grid2d)
    U = np.random.default_rng(2).standard_normal((4, 2))
    good = {"rho": s.rho, "U": U, "theta": s.theta, "d": s.d}
    wrong = {"rho": [np.ones((16, 16))],
             "U": [np.zeros((4, 3)), np.zeros((0, 2)), np.zeros(8),
                   np.zeros((2,) + grid2d.shape)],
             "theta": [np.ones(grid2d.shape[:1])],
             "d": [np.zeros((2,) + grid2d.shape)]}
    state = sv.State(grid2d, 0.0, **good)
    assert np.array_equal(state.U, U)
    assert np.array_equal(state.u, sv.galerkin_basis(grid2d, 4).reconstruct(U))
    for name, cases in wrong.items():
        for values in cases:
            args = dict(good, **{name: values})
            with pytest.raises(GridMismatch, match=f"state field {name} "):
                sv.State(grid2d, 0.0, **args)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        sv.SolverConfig(dt=0.0, t_end=1.0).validate()
    with pytest.raises(ValidationError):
        sv.SolverConfig(dt=1e-3, t_end=-1.0).validate()
