"""Time stepper: substep oracles, conservation, fixed points, rejection."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlcflow import constitutive as cst
from nlcflow.errors import (InvalidInitialData, NonFiniteState,
                            PositivityLoss, SingularMassMatrix,
                            ValidationError)
from nlcflow.fields import (Grid, ScalarField, VectorField, constant_field,
                            from_function, coeffs, deriv, dirichlet,
                            neumann, integrate, solve_helmholtz)
from nlcflow.params import PhysParams, RegParams
from nlcflow import solver as sv

from conftest import bump_state, equilibrium_state


# ---------------------------------------------------------------------------
# Galerkin basis
# ---------------------------------------------------------------------------

def test_mode_ordering_square_box():
    grid = Grid((32, 32), (2 * np.pi, 2 * np.pi))
    basis = sv.GalerkinBasis(grid, 4)
    assert basis.modes == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert np.all(np.diff(basis.eigenvalues) >= 0)


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
    U2 = basis.project([c.values for c in basis.reconstruct(U1)])
    assert np.linalg.norm(U2 - U1) <= 1e-14 * np.linalg.norm(U1)


def test_reconstruct_project_roundtrip_exact(grid2d):
    basis = sv.GalerkinBasis(grid2d, 5)
    rng = np.random.default_rng(3)
    U = rng.standard_normal((5, 2))
    U2 = basis.project([c.values for c in basis.reconstruct(U)])
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
    from nlcflow.fields import deriv, integrate_values
    from nlcflow import constitutive as cst
    grad_u = np.stack([
        np.stack([deriv(uc, a).values for uc in u]) for a in range(2)
    ])
    quad = integrate_values(grid2d, cst.stress_power(grad_u, p))
    K = basis.stiffness(p)
    assert abs(U.reshape(-1) @ K @ U.reshape(-1) - quad) <= 1e-11 * abs(quad)


# ---------------------------------------------------------------------------
# density substep
# ---------------------------------------------------------------------------

def test_density_diffusion_mode_decay():
    grid = Grid((32,), (2.0,))
    eps, dt = 0.05, 1e-3
    rho = from_function(grid, lambda x: 1.0 + 0.3 * np.cos(np.pi * x / 2.0))
    u = VectorField.velocity([constant_field(grid, 0.0, dirichlet(1))])
    rho1, _ = sv._density_update(rho, u, eps, dt)
    lam = (np.pi / 2.0) ** 2
    expect = 0.3 / (1.0 + eps * dt * lam)
    got = coeffs(rho1)[1] / coeffs(constant_field(grid, 1.0))[0] \
        * coeffs(constant_field(grid, 1.0))[0]
    # compare the first cosine coefficient directly
    base = coeffs(rho)[1]
    assert abs(coeffs(rho1)[1] / base - 1.0 / (1.0 + eps * dt * lam)) < 1e-13
    assert abs(expect - coeffs(rho1)[1] / base * 0.3) < 1e-13


def test_density_transport_conserves_mass(grid2d):
    basis = sv.GalerkinBasis(grid2d, 4)
    U = np.zeros((4, 2))
    U[0, 0] = 0.3
    U[2, 1] = -0.2
    u = basis.reconstruct(U)
    rho = from_function(grid2d, lambda x, y: 1.0
                        + 0.4 * np.cos(np.pi * x / 2.0)
                        * np.cos(np.pi * y / 2.0))
    m0 = integrate(rho)
    r = rho
    for _ in range(5):
        r, _ = sv._density_update(r, u, 0.02, 1e-3)
    assert abs(integrate(r) - m0) <= 1e-13 * abs(m0)


def test_density_positivity_rejection():
    grid = Grid((32, 32), (2.0, 2.0))
    rho = from_function(grid, lambda x, y: 0.105
                        + 0.1 * np.cos(np.pi * x / 2.0))
    basis = sv.GalerkinBasis(grid, 2)
    U = np.zeros((2, 2))
    U[0, 0] = 20.0
    u = basis.reconstruct(U)
    with pytest.raises(PositivityLoss):
        sv._density_update(rho, u, 0.0, 0.05)


# ---------------------------------------------------------------------------
# director substep
# ---------------------------------------------------------------------------

def _director_step(d, u, dt, p=PhysParams()):
    d_new, _ = sv._director_update(d, u, sv._director_gradient(d), dt, p)
    return d_new


def test_director_unit_constant_fixed_point(grid2d):
    d = VectorField.director([constant_field(grid2d, 1.0),
                              constant_field(grid2d, 0.0),
                              constant_field(grid2d, 0.0)])
    u = VectorField.velocity([constant_field(grid2d, 0.0, dirichlet(2)),
                              constant_field(grid2d, 0.0, dirichlet(2))])
    d1 = _director_step(d, u, 1e-2)
    for c1, c0 in zip(d1, d):
        assert np.array_equal(c1.values, c0.values)


def test_director_zero_fixed_point(grid2d):
    d = VectorField.director([constant_field(grid2d, 0.0)] * 3)
    u = VectorField.velocity([constant_field(grid2d, 0.0, dirichlet(2)),
                              constant_field(grid2d, 0.0, dirichlet(2))])
    d1 = _director_step(d, u, 1e-2)
    assert max(c.norm_inf() for c in d1) == 0.0


def test_director_relaxation_ode_oracle(grid2d):
    """Spatially uniform director against the scalar relaxation equation."""
    sigma0 = 1.0
    eta0 = 1e-3
    dt, T = 1e-3, 0.1
    u = VectorField.velocity([constant_field(grid2d, 0.0, dirichlet(2)),
                              constant_field(grid2d, 0.0, dirichlet(2))])
    d = VectorField.director([constant_field(grid2d, eta0),
                              constant_field(grid2d, 0.0),
                              constant_field(grid2d, 0.0)])
    steps = int(round(T / dt))
    for _ in range(steps):
        d = _director_step(d, u, dt, PhysParams(penalty_scale=sigma0))
    eta_num = float(d[0].values.flat[0])
    sol = solve_ivp(lambda t, y: -(y ** 2 - 1.0) * y / sigma0 ** 2,
                    (0.0, T), [eta0], rtol=1e-12, atol=1e-14)
    assert abs(eta_num - sol.y[0, -1]) < 1e-6


# ---------------------------------------------------------------------------
# temperature substep
# ---------------------------------------------------------------------------

def _heat_step(s, u, reg, dt, p):
    """One heat substep from ``s`` with lagged velocity ``u``; the director
    of every state used here is a unit constant, so it heats nothing."""
    frozen = sv._FrozenHeat(s.theta, s.rho, reg, p, dt)
    m = sv._mass_flux(s.rho, u, True)
    return sv._temperature_update(frozen, s.rho, sv._velocity_gradient(u), m,
                                  np.zeros(s.grid.shape), reg, p, dt,
                                  s.theta.values)


def test_temperature_scalar_sink_oracle(grid2d):
    """Constant state: the update has the closed form
    theta' = (delta+rho) theta / (delta+rho+dt*delta*theta^alpha)."""
    reg = RegParams(eps=0.0, delta=0.05, beta=5.0, n_modes=4)
    p = PhysParams(cond_growth=2)
    dt = 1e-3
    theta0 = 2.0
    s = equilibrium_state(grid2d, rho=1.0, theta=theta0)
    th1 = _heat_step(s, s.u, reg, dt, p)
    expect = (reg.delta + 1.0) * theta0 / (
        (reg.delta + 1.0) + dt * reg.delta * theta0 ** 2)
    assert abs(float(th1.values.flat[0]) - expect) < 1e-12 * expect
    assert float(np.ptp(th1.values)) < 1e-12


def test_temperature_sink_vs_ode(grid2d):
    reg = RegParams(eps=0.0, delta=0.05, beta=5.0, n_modes=4)
    p = PhysParams(cond_growth=2)
    dt = 1e-4
    s = equilibrium_state(grid2d, rho=1.0, theta=2.0)
    th1 = _heat_step(s, s.u, reg, dt, p)
    sol = solve_ivp(
        lambda t, y: -reg.delta * y ** 3 / (reg.delta + 1.0),
        (0.0, dt), [2.0], rtol=1e-12, atol=1e-14)
    assert abs(float(th1.values.flat[0]) - sol.y[0, -1]) < 1e-8


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
        _heat_step(s, u, reg, 1e-2, p)


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
    th = ScalarField(grid, neumann(grid.dim), theta, project=False)
    kf = ScalarField(grid, neumann(grid.dim), kappa, project=False)
    composed = np.zeros(grid.shape)
    for b in range(grid.dim):
        composed -= deriv(kf * deriv(th, b), b).values
    fused = sv._conduction_apply(theta, kappa, grid)
    assert np.abs(fused - composed).max() <= 1e-13 * np.abs(composed).max()


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["1d", "square", "32x16"])
def test_conduction_apply_symmetric_positive_semidefinite(grid):
    theta, kappa, x = _heat_data(grid)

    def pair(a, b):
        return grid.weight * float(np.sum(a * b))

    ax = sv._conduction_apply(x, kappa, grid)
    at = sv._conduction_apply(theta, kappa, grid)
    scale = grid.weight * np.linalg.norm(ax) * np.linalg.norm(theta)
    assert abs(pair(ax, theta) - pair(x, at)) <= 1e-13 * scale
    assert pair(x, ax) > 0.0 and pair(theta, at) > 0.0
    # constants span the kernel
    ones = sv._conduction_apply(np.ones(grid.shape), kappa, grid)
    assert np.abs(ones).max() <= 1e-13 * np.abs(ax).max()


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=["1d", "square", "32x16"])
def test_heat_preconditioner_matches_helmholtz(grid):
    reg = RegParams(eps=1e-2, delta=1e-3, n_modes=2)
    theta, _, r = _heat_data(grid)
    rho = from_function(grid, lambda *xs: 1.0 + 0.2 * np.cos(np.pi * xs[0]))
    th = ScalarField(grid, neumann(grid.dim), theta, project=False)
    frozen = sv._FrozenHeat(th, rho, reg, PhysParams(), 1e-3)
    cbar = (reg.delta + rho.values.mean()) / 1e-3 \
        + reg.delta * frozen.th_alpha.mean()
    ref = solve_helmholtz(ScalarField(grid, neumann(grid.dim), r,
                                      project=False),
                          cbar, frozen.kappa.mean()).values
    got = frozen.precondition(r)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _heat_system(grid):
    theta, kappa, _ = _heat_data(grid)
    c0 = 1e3 * (1.0 + 0.1 * theta)
    frozen = sv._FrozenHeat(
        ScalarField(grid, neumann(grid.dim), theta, project=False),
        constant_field(grid, 1.0), RegParams(), PhysParams(), 1e-3)
    calls = []

    def apply_op(v):
        calls.append(1)
        return c0 * v + sv._conduction_apply(v, kappa, grid)

    return apply_op, frozen.precondition, theta, calls


def test_pcg_warm_and_cold_starts_agree():
    grid = KERNEL_GRIDS[2]
    apply_op, precond, theta, calls = _heat_system(grid)
    b = apply_op(theta)
    cold = sv._pcg(apply_op, precond, b, np.zeros(grid.shape), tol=1e-13)
    cold_calls = len(calls)
    warm_start = theta + 1e-6 * np.cos(3 * np.pi * grid.mesh()[0] / 2.0)
    warm = sv._pcg(apply_op, precond, b, warm_start, tol=1e-13)
    assert len(calls) - cold_calls < cold_calls
    assert np.abs(warm - cold).max() <= 1e-12 * np.abs(theta).max()
    assert np.abs(warm - theta).max() <= 1e-12 * np.abs(theta).max()


def test_pcg_zero_rhs_returns_before_any_apply():
    grid = KERNEL_GRIDS[1]
    apply_op, precond, theta, calls = _heat_system(grid)
    x = sv._pcg(apply_op, precond, np.zeros(grid.shape), theta, tol=1e-13)
    assert not calls
    assert not np.any(x)


def test_pcg_nonfinite_residual_raises():
    grid = KERNEL_GRIDS[1]
    apply_op, precond, theta, calls = _heat_system(grid)
    b = apply_op(theta)
    b[3, 4] = np.nan
    with pytest.raises(NonFiniteState, match="temperature"):
        sv._pcg(apply_op, precond, b, theta, tol=1e-13)
    assert len(calls) == 2  # the call building b, then b - A x0 only


@pytest.mark.parametrize("target,substep", [("theta", "temperature"),
                                            ("d", "director")])
def test_nonfinite_state_named_and_not_halved(grid2d, target, substep):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    field_ = s.theta if target == "theta" else s.d[1]
    field_.values[5, 7] = np.nan
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(NonFiniteState, match=substep) as info:
        sv.step_coupled(s, reg, cfg, p)
    assert info.value.substep == substep
    assert info.value.t == 0.0 and info.value.dt == cfg.dt
    assert "t=0 " in str(info.value) and "dt=0.001" in str(info.value)


def test_density_guard_catches_nonfinite(grid2d):
    s = bump_state(grid2d)
    s.rho.values[2, 2] = np.nan
    with pytest.raises(NonFiniteState, match="density"):
        sv._density_update(s.rho, s.u, 1e-2, 1e-3)


# ---------------------------------------------------------------------------
# momentum substep
# ---------------------------------------------------------------------------

def _momentum_step(u, rho, theta, d, reg, basis, dt, p):
    """One momentum substep with every coupling frozen at the inputs; the
    director of every state used here is a unit constant, so its
    relaxation field is zero."""
    m = sv._mass_flux(rho, u, True)
    u_new, _ = sv._momentum_update(
        u, sv._velocity_gradient(u), basis.project([c.values for c in u]),
        rho, rho, m, theta, sv._director_gradient(d),
        np.zeros((3,) + rho.grid.shape), reg, basis, dt, p,
        sv._checked_mass_matrix(basis, rho.values), basis.stiffness(p))
    return u_new


def test_momentum_stokes_decay_1d():
    grid = Grid((64,), (2.0,))
    p = PhysParams(mu=1.0, lam=0.5)
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=1)
    basis = sv.GalerkinBasis(grid, 1)
    amp, dt = 0.01, 1e-4
    u = basis.reconstruct(np.array([[amp]]))
    rho = constant_field(grid, 1.0)
    theta = constant_field(grid, 1.0)
    d = VectorField.director([constant_field(grid, 1.0),
                              constant_field(grid, 0.0),
                              constant_field(grid, 0.0)])
    u1 = _momentum_step(u, rho, theta, d, reg, basis, dt, p)
    lam1 = (np.pi / 2.0) ** 2
    expect = amp / (1.0 + dt * (2.0 * p.mu + p.lam) * lam1)
    got = basis.project([c.values for c in u1])[0, 0]
    assert abs(got - expect) <= 1e-8 * amp


def test_momentum_zero_velocity_stays_zero(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    basis = sv.GalerkinBasis(grid2d, 4)
    s = equilibrium_state(grid2d)
    u1 = _momentum_step(s.u, s.rho, s.theta, s.d, reg, basis, 1e-3, p)
    assert max(c.norm_inf() for c in u1) == 0.0


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
    assert np.array_equal(s1.rho.values, s.rho.values)
    assert np.array_equal(s1.theta.values, s.theta.values)
    assert max(c.norm_inf() for c in s1.u) == 0.0
    for c1, c0 in zip(s1.d, s.d):
        assert np.array_equal(c1.values, c0.values)


def test_coupled_mass_conservation(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    m0 = integrate(s.rho)
    states, _ = sv.run(s, reg, sv.SolverConfig(dt=1e-3, t_end=5e-3), p)
    for st in states:
        assert abs(integrate(st.rho) - m0) <= 1e-12 * abs(m0)


def test_coupled_picard_count_smooth(grid2d):
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    s = bump_state(grid2d)
    _, rec = sv.step_coupled(s, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    assert rec.picard_iters <= 15


def test_coupled_step_takes_each_derivative_once(grid2d, monkeypatch):
    """Every derivative a step needs is taken once and shared by the
    substeps and the ledger.  At 2-D with k Picard sweeps, eps > 0 and
    delta > 0 the step takes
      6       director gradient of d^n, once per step (3 components x 2 axes)
      14 k    per sweep: velocity gradient 4 (shared by heat, momentum and
              the ledger), density transport divergence 2, heat convection
              2, momentum: grad rho' 2, enthalpy gradient 2, thermal
              pressure gradient 2
      6       ledger: grad rho' 2, enthalpy forms 2 x 2 (gamma and beta)
    which is 12 + 14 k = 54 for the three sweeps of this step."""
    from nlcflow import fields, presets
    p = PhysParams()
    reg = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
    raw = presets.build("density-bump", grid2d, amplitude=0.4)
    m0 = VectorField.velocity([raw.rho * uc for uc in raw.u])
    s0 = sv.regularize_initial_data(raw.rho, m0, raw.theta, raw.d, reg)
    calls = []

    def counted(f, axis):
        calls.append(axis)
        return deriv(f, axis)

    monkeypatch.setattr(fields, "deriv", counted)
    monkeypatch.setattr(sv, "deriv", counted)
    _, rec = sv.step_coupled(s0, reg, sv.SolverConfig(dt=1e-3, t_end=1.0), p)
    assert rec.picard_iters == 3
    assert len(calls) == 12 + 14 * rec.picard_iters == 54


def test_step_halving_recovers(grid2d):
    """A dt too large for positivity is retried halved, not failed."""
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = bump_state(grid2d, n_modes=4, rho_base=0.6, rho_amp=0.59, u_amp=5.0)
    cfg = sv.SolverConfig(dt=0.1, t_end=0.1)
    s1, rec = sv.step_coupled(s, reg, cfg, p)
    assert rec.halvings >= 1
    assert float(s1.rho.values.min()) >= 0.0
    assert rec.dt == pytest.approx(0.1 * 0.5 ** rec.halvings)


def test_run_t_end_zero_returns_initial(grid2d):
    p = PhysParams()
    reg = RegParams(n_modes=4)
    s = equilibrium_state(grid2d)
    states, records = sv.run(s, reg, sv.SolverConfig(dt=1e-3, t_end=0.0), p)
    assert len(states) == 1 and states[0] is s
    assert records == [None]


def test_run_lands_on_t_end(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    states, _ = sv.run(s, reg, sv.SolverConfig(dt=3e-3, t_end=1e-2), p)
    assert states[-1].t == pytest.approx(1e-2, abs=1e-12)


def test_monitors_called_each_step(grid2d):
    p = PhysParams()
    reg = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    s = equilibrium_state(grid2d)
    seen = []
    sv.run(s, reg, sv.SolverConfig(dt=1e-3, t_end=3e-3), p,
           monitors=[lambda st, rec: seen.append(st.t)])
    assert len(seen) == 3


# ---------------------------------------------------------------------------
# initial data pipeline
# ---------------------------------------------------------------------------

def test_regularize_identity_when_clamp_inactive(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    rho0 = constant_field(grid2d, 1.0)
    theta0 = constant_field(grid2d, 1.0)
    d0 = VectorField.director([constant_field(grid2d, 1.0),
                               constant_field(grid2d, 0.0),
                               constant_field(grid2d, 0.0)])
    m0 = [np.zeros(grid2d.shape), np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(rho0, m0, theta0, d0, reg)
    # upper clamp delta^(-1/(2 beta)) = 0.01^(-0.1) ~ 1.585 > 1: inactive
    assert np.allclose(s.rho.values, 1.0)
    assert max(c.norm_inf() for c in s.u) == 0.0
    assert np.allclose(s.theta.values, 1.0)


def test_regularize_clamps_density_and_masks_momentum(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    hi = 0.01 ** (-1.0 / 10.0)
    rho0 = constant_field(grid2d, 2.0)   # above the upper clamp
    theta0 = constant_field(grid2d, 20.0)  # above the theta clamp
    d0 = VectorField.director([constant_field(grid2d, 1.0),
                               constant_field(grid2d, 0.0),
                               constant_field(grid2d, 0.0)])
    m0 = [np.full(grid2d.shape, 0.4), np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(rho0, m0, theta0, d0, reg)
    assert np.allclose(s.rho.values, hi)
    # clamp lowered the density, so the momentum is zeroed
    assert max(c.norm_inf() for c in s.u) <= 1e-14
    assert np.allclose(s.theta.values, 10.0)


def test_regularize_vacuum_compatibility(grid2d):
    reg = RegParams(eps=1e-2, delta=0.01, beta=5.0, n_modes=4)
    rho0 = from_function(grid2d, lambda x, y: np.where(x < 1.0, 0.0, 1.0))
    theta0 = constant_field(grid2d, 1.0)
    d0 = VectorField.director([constant_field(grid2d, 1.0),
                               constant_field(grid2d, 0.0),
                               constant_field(grid2d, 0.0)])
    bad = [np.full(grid2d.shape, 0.1), np.zeros(grid2d.shape)]
    with pytest.raises(InvalidInitialData):
        sv.regularize_initial_data(rho0, bad, theta0, d0, reg)
    ok = [np.where(grid2d.mesh()[0] < 1.0, 0.0, 0.1),
          np.zeros(grid2d.shape)]
    s = sv.regularize_initial_data(rho0, ok, theta0, d0, reg)
    assert float(s.rho.values.min()) >= reg.delta - 1e-15


def test_regularize_rejects_negative_density(grid2d):
    reg = RegParams(delta=0.01, beta=5.0, n_modes=4)
    rho0 = constant_field(grid2d, -0.5)
    theta0 = constant_field(grid2d, 1.0)
    d0 = VectorField.director([constant_field(grid2d, 1.0),
                               constant_field(grid2d, 0.0),
                               constant_field(grid2d, 0.0)])
    with pytest.raises(InvalidInitialData):
        sv.regularize_initial_data(
            rho0, [np.zeros(grid2d.shape)] * 2, theta0, d0, reg)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        sv.SolverConfig(dt=0.0, t_end=1.0).validate()
    with pytest.raises(ValidationError):
        sv.SolverConfig(dt=1e-3, t_end=-1.0).validate()
    with pytest.raises(ValidationError):
        sv.SolverConfig(dt=1e-3, t_end=1.0, picard_max=0).validate()
