"""Acceptance gate: every release criterion, one printed verdict line each.

Each test prints ``ACCEPTANCE <nn> <name>: PASS/FAIL (<detail>)`` outside the
capture plumbing before asserting, so the verdict table is visible in any
pytest invocation and survives failures.  Criteria with stated runtime
budgets assert the elapsed time as part of the verdict.
"""

import hashlib
import time

import numpy as np

from nlcflow import cli
from nlcflow import config as cf
from nlcflow import constitutive as cst
from nlcflow import continuation as ct
from nlcflow import diagnostics as dg
from nlcflow import mms
from nlcflow import presets
from nlcflow import solver as sv
from nlcflow.fields import (COS, Grid, _strip_sine_nyquist,
                            integrate_values, spectral_plan)
from nlcflow.params import PhysParams, RegParams

from conftest import (bump_state, director_gradient,
                      inverse_laplacian_neumann, renorm_rows,
                      residual_series_max, run_lists, truncation_companion,
                      viscous_stress)

P = PhysParams()
REG = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)


def _verdict(capsys, num, name, ok, detail):
    line = "ACCEPTANCE %02d %s: %s (%s)" % (
        num, name, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def _run(state, reg, dt, t_end):
    return run_lists(state, reg, sv.SolverConfig(dt=dt, t_end=t_end), P)


def _prepared(name, grid, reg, amplitude=None, base=1.0):
    """Preset -> admissible initial state, the same path the CLI takes."""
    kwargs = {"base": base}
    if amplitude is not None:
        kwargs["amplitude"] = amplitude
    raw = presets.build(name, grid, **kwargs)
    return sv.regularize_initial_data(grid, raw.rho, raw.rho * raw.u,
                                      raw.theta, raw.d, reg)


def _nerr(got, want):
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


# ---------------------------------------------------------------------------
# 1. differential/integral operators against closed forms
# ---------------------------------------------------------------------------

def test_criterion_01_operator_oracles(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))
    lx, ly = grid.extents
    X, Y = grid.mesh()
    kx, ky = 2.0 * np.pi / lx, 3.0 * np.pi / ly
    plan = spectral_plan(grid)
    f = np.cos(kx * X) * np.cos(ky * Y)
    errs = {}

    errs["deriv"] = _nerr(plan.deriv(f, 0, COS),
                          -kx * np.sin(kx * X) * np.cos(ky * Y))
    errs["laplacian"] = _nerr(plan.div(plan.grad(f)),
                              -(kx ** 2 + ky ** 2) * f)

    a1, b1 = 2.0 * np.pi / lx, np.pi / ly
    a2, b2 = np.pi / lx, 3.0 * np.pi / ly
    u = _strip_sine_nyquist(np.stack([np.sin(a1 * X) * np.sin(b1 * Y),
                                      np.sin(a2 * X) * np.sin(b2 * Y)]),
                            grid)
    errs["divergence"] = _nerr(
        plan.div(u),
        a1 * np.cos(a1 * X) * np.sin(b1 * Y)
        + b2 * np.sin(a2 * X) * np.cos(b2 * Y))

    g = np.cos(kx * X) * np.cos(ky * Y) + 0.3 * np.cos(np.pi * X / lx)
    phi = inverse_laplacian_neumann(grid, g)
    errs["inverse_laplacian"] = _nerr(plan.div(plan.grad(phi)), g)
    errs["inverse_laplacian_mean"] = abs(integrate_values(grid, phi))

    sol = plan.helmholtz(g, 1.0, 0.37)
    errs["helmholtz"] = _nerr(sol - 0.37 * plan.div(plan.grad(sol)), g)

    sq = (np.cos(kx * X) * np.cos(ky * Y)) ** 2
    errs["integrate"] = abs(integrate_values(grid, sq) - lx * ly / 4.0)
    errs["integrate_mode"] = abs(integrate_values(grid, f))

    worst = max(errs.values())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(capsys, 1, "operator-oracles", ok,
             "max normalized err %.2e, %.1fs" % (worst, elapsed))


# ---------------------------------------------------------------------------
# 2. constitutive identities
# ---------------------------------------------------------------------------

def test_criterion_02_constitutive_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    sigma0 = P.penalty_scale

    d = rng.uniform(-2.0, 2.0, size=(3, 400))
    h = 1e-6
    fd = np.zeros_like(d)
    for k in range(3):
        dp = d.copy()
        dm = d.copy()
        dp[k] += h
        dm[k] -= h
        fd[k] = (cst.gl_potential(dp, sigma0)
                 - cst.gl_potential(dm, sigma0)) / (2.0 * h)
    force = cst.gl_force(d, sigma0)
    grad_rel = float(np.max(np.abs(fd - force) / np.maximum(np.abs(force), 1.0)))

    g = rng.uniform(-1.0, 1.0, size=(2, 2, 10000))
    power = cst.stress_power(g, P)
    power_min = float(power.min())
    contract = np.einsum("ab...,ab...->...", viscous_stress(g, P), g)
    contract_err = float(np.abs(contract - power).max())

    vec = rng.normal(size=(3, 10000))
    vec /= np.linalg.norm(vec, axis=0)
    d_out = vec * rng.uniform(1.0, 3.0, size=10000)
    align_min = float(np.einsum("k...,k...->...",
                                d_out, cst.gl_force(d_out, sigma0)).min())

    seam_gap = 0.0
    for k in (1.0, 2.0):
        for seam in (k, 3.0 * k):
            lo, hi = seam * (1.0 - 1e-13), seam * (1.0 + 1e-13)
            seam_gap = max(
                seam_gap,
                abs(float(cst.soft_truncation(hi, k))
                    - float(cst.soft_truncation(lo, k))),
                abs(float(truncation_companion(hi, k))
                    - float(truncation_companion(lo, k))))

    legendre_rel = 0.0
    for k in (1.0, 2.0):
        z = np.geomspace(1e-3, 8.0 * k, 300)
        z = z[np.minimum(np.abs(z - k), np.abs(z - 3.0 * k)) > 1e-3]
        hz = 1e-6 * z
        lp = (truncation_companion(z + hz, k)
              - truncation_companion(z - hz, k)) / (2.0 * hz)
        lhs = z * lp - truncation_companion(z, k)
        t = cst.soft_truncation(z, k)
        legendre_rel = max(legendre_rel, float(
            np.max(np.abs(lhs - t) / np.maximum(np.abs(t), 1e-3))))

    elapsed = time.perf_counter() - t0
    ok = (grad_rel <= 1e-6 and power_min >= -1e-12
          and contract_err <= 1e-12 * (1.0 + float(np.abs(power).max()))
          and align_min >= -1e-12 and seam_gap <= 4e-12
          and legendre_rel <= 1e-8 and elapsed < 10.0)
    _verdict(capsys, 2, "constitutive-identities", ok,
             "grad rel %.1e, power min %.1e, align min %.1e, seam %.1e, "
             "companion rel %.1e, %.1fs" % (grad_rel, power_min, align_min,
                                            seam_gap, legendre_rel, elapsed))


# ---------------------------------------------------------------------------
# 3. conservation and positivity on the smoke run
# ---------------------------------------------------------------------------

def test_criterion_03_conservation_positivity(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))
    states, _ = _run(bump_state(grid), REG, 1e-3, 0.05)
    masses = [integrate_values(grid, s.rho) for s in states]
    drift = max(abs(b - a) for a, b in zip(masses, masses[1:])) / masses[0]
    rho_min = min(float(s.rho.min()) for s in states)
    theta_min = min(float(s.theta.min()) for s in states)
    elapsed = time.perf_counter() - t0
    ok = (drift <= 1e-12 and rho_min >= 0.0 and theta_min >= 0.0
          and elapsed < 60.0)
    _verdict(capsys, 3, "conservation-positivity", ok,
             "mass drift %.1e/step, min rho %.3f, min theta %.3f, %.1fs"
             % (drift, rho_min, theta_min, elapsed))


# ---------------------------------------------------------------------------
# 4. discrete energy inequality and first-order defect decay
# ---------------------------------------------------------------------------

def test_criterion_04_energy_inequality(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))

    def defects(dt):
        states, records = _run(bump_state(grid), REG, dt, 0.02)
        ders = [dg.derivatives(s, P) for s in states]
        diags = [dg.make_record(s, der, REG, P)
                 for s, der in zip(states, ders)]
        vals = [dg.energy_budget_residual(a, ra, b, db, rb, REG, P, rec.dt)
                for a, ra, b, db, rb, rec in zip(
                    states, diags, states[1:], ders[1:], diags[1:],
                    records[1:])]
        return states, vals

    states, base = defects(1e-3)
    e0, _ = dg.total_energy(states[0], director_gradient(states[0]), REG, P)
    worst = max(base)
    maxima = [max(abs(v) for v in base)]
    for dt in (5e-4, 2.5e-4):
        maxima.append(max(abs(v) for v in defects(dt)[1]))
    ratios = [a / b for a, b in zip(maxima, maxima[1:])]
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-8 * e0 and all(1.7 <= r <= 2.3 for r in ratios)
          and elapsed < 300.0)
    _verdict(capsys, 4, "energy-inequality", ok,
             "worst defect %.2e vs bound %.2e, dt ratios %.2f/%.2f, %.1fs"
             % (worst, 1e-8 * e0, ratios[0], ratios[1], elapsed))


# ---------------------------------------------------------------------------
# 5. entropy production sign on every regression run
# ---------------------------------------------------------------------------

def test_criterion_05_entropy_production(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))
    runs = [
        ("bump", _run(bump_state(grid), REG, 1e-3, 0.02)[0]),
        ("twist", _run(_prepared("director-twist", grid, REG, amplitude=0.6),
                       REG, 1e-3, 0.02)[0]),
        ("spot", _run(_prepared("thermal-spot", grid, REG, amplitude=0.5),
                      REG, 1e-3, 0.02)[0]),
    ]
    margin, where = np.inf, ""
    for name, states in runs:
        for s in states[1:]:
            quad, low = dg.entropy_production(s, dg.derivatives(s, P), P)
            gap = low + 1e-12 * (1.0 + abs(quad))
            if gap < margin:
                margin, where = gap, name
    elapsed = time.perf_counter() - t0
    ok = margin >= 0.0
    _verdict(capsys, 5, "entropy-production", ok,
             "worst signed margin %.2e (run %s), %.1fs"
             % (margin, where, elapsed))


# ---------------------------------------------------------------------------
# 6. director maximum principle on the twist preset
# ---------------------------------------------------------------------------

def test_criterion_06_director_bound(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))
    s0 = _prepared("director-twist", grid, REG, amplitude=0.6)
    states, _ = _run(s0, REG, 1e-3, 0.05)
    bound = max(1.0, dg.director_sup(states[0])) + 1e-8
    sup = max(dg.director_sup(s) for s in states)
    elapsed = time.perf_counter() - t0
    ok = sup <= bound
    _verdict(capsys, 6, "director-bound", ok,
             "sup|d| %.12f vs bound %.12f, %.1fs" % (sup, bound, elapsed))


# ---------------------------------------------------------------------------
# 7. manufactured-solution convergence (spatial and temporal)
# ---------------------------------------------------------------------------

def test_criterion_07_mms_convergence(capsys):
    t0 = time.perf_counter()
    # 16-point axes admit at most 7 one-dimensional modes, so the spatial
    # pair runs with a reduced span.
    reg_coarse = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=6)
    bump, trig = mms.get_case("bump-2d"), mms.get_case("trig-2d")
    spatial, _ = mms.summarize(bump, list(mms.study(
        bump, reg_coarse, P, sv.SolverConfig(dt=5e-4, t_end=2e-2),
        resolutions=(16, 32))))
    ratio = spatial["ratios"]["total"]
    _, temporal = mms.summarize(trig, list(mms.study(
        trig, REG, P, sv.SolverConfig(dt=4e-3, t_end=4e-2),
        dts=(4e-3, 2e-3, 1e-3), shape=32)))
    orders = [float(o) for o in temporal]
    elapsed = time.perf_counter() - t0
    ok = (ratio > 16.0 and all(0.7 <= o <= 1.3 for o in orders)
          and elapsed < 300.0)
    _verdict(capsys, 7, "mms-convergence", ok,
             "spatial ratio %.2e, temporal orders %s, %.1fs"
             % (ratio, "/".join("%.2f" % o for o in orders), elapsed))


# ---------------------------------------------------------------------------
# 8. uniform bounds along the regularization families
# ---------------------------------------------------------------------------

def test_criterion_08_continuation_bounds(capsys, tmp_path):
    t0 = time.perf_counter()

    def study(name, eps, delta):
        cfg = cf.parse_config_text(
            "grid.dim = 2\ngrid.shape = 32\nsolver.dt = 1e-3\n"
            "solver.t_end = 0.02\ninit.preset = density-bump\n"
            f"init.amplitude = 0.4\ncontinuation.study = {name}\n"
            f"continuation.n = 8\ncontinuation.eps = {eps}\n"
            f"continuation.delta = {delta}\n")
        raw = presets.build("density-bump", cfg.grid, amplitude=0.4)
        return ct.run_study(cfg, raw, tmp_path)

    visc = study("viscosity", "1e-1,5e-2,2.5e-2", "1e-3")
    grad_spread = visc["uniform_bounds"]["eps_grad_rho_sq_spread"]

    pres = study("pressure", "1e-3", "1e-2,1e-3,1e-4")
    beta_vals = [r["delta_rho_beta"] for r in pres["runs"]]
    strictly_down = all(b < a for a, b in zip(beta_vals, beta_vals[1:]))
    theta_spread = pres["uniform_bounds"]["theta_norm_spread"]
    elapsed = time.perf_counter() - t0
    ok = (grad_spread < 10.0 and strictly_down and theta_spread <= 2.0
          and elapsed < 900.0)
    _verdict(capsys, 8, "continuation-bounds", ok,
             "diffusion spread %.2f, pressure weights %s, theta spread %.4f, "
             "%.1fs" % (grad_spread,
                        "down" if strictly_down else "NOT down",
                        theta_spread, elapsed))


# ---------------------------------------------------------------------------
# 9. renormalized mass-balance residuals
# ---------------------------------------------------------------------------

def test_criterion_09_renormalized_continuity(capsys):
    t0 = time.perf_counter()
    grid = Grid((32, 32), (2.0, 2.0))
    states, records = _run(bump_state(grid), REG, 1e-3, 0.02)
    _, ident = residual_series_max(
        renorm_rows(states, records, REG.eps, "identity", P))

    grid64 = Grid((64, 64), (2.0, 2.0))
    reg0 = RegParams(eps=0.0, delta=1e-3, beta=5.0, n_modes=8)
    maxima = {b: [] for b in ("T1", "T2", "T4")}
    for dt in (1e-3, 5e-4, 2.5e-4):
        sts, recs = _run(bump_state(grid64, rho_base=3.0, rho_amp=2.2),
                         reg0, dt, 0.02)
        for b in maxima:
            _, overall = residual_series_max(
                renorm_rows(sts, recs, reg0.eps, b, P))
            maxima[b].append(overall)
    monotone = all(v[0] > v[1] > v[2] for v in maxima.values())
    factors = {b: v[0] / v[2] for b, v in maxima.items()}
    elapsed = time.perf_counter() - t0
    ok = (ident <= 1e-10 and monotone
          and all(f >= 3.0 for f in factors.values()))
    _verdict(capsys, 9, "renormalized-continuity", ok,
             "identity %.1e, decay factors T1 %.1f / T2 %.1f / T4 %.1f, %.1fs"
             % (ident, factors["T1"], factors["T2"], factors["T4"], elapsed))


# ---------------------------------------------------------------------------
# 10. byte-identical reruns of the command-line entry points
# ---------------------------------------------------------------------------

RUN_CFG = """\
grid.dim = 1
grid.shape = 32
solver.dt = 1e-3
solver.t_end = 5e-3
reg.eps = 1e-2
reg.delta = 1e-3
reg.n_modes = 6
init.preset = density-bump
init.amplitude = 0.4
output.dir = {out}
output.cadence = 2
output.residuals = identity,T2
"""

CONT_CFG = """\
grid.dim = 1
grid.shape = 32
solver.t_end = 5e-3
reg.n_modes = 6
init.preset = density-bump
init.amplitude = 0.4
continuation.study = pressure
continuation.n = 6
continuation.eps = 1e-3
continuation.delta = 1e-2,1e-3
output.dir = {out}
"""


def _digest_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    digests = {"run": [], "continuation": []}
    codes = []
    for command, template in (("run", RUN_CFG), ("continuation", CONT_CFG)):
        out = tmp_path / command
        cfg = tmp_path / (command + ".cfg")
        cfg.write_text(template.format(out=out))
        for _ in range(2):
            codes.append(cli.main([command, str(cfg)]))
            digests[command].append(_digest_tree(out))
    same = all(d[0] == d[1] and d[0] for d in digests.values())
    n_files = sum(len(d[0]) for d in digests.values())
    elapsed = time.perf_counter() - t0
    ok = same and all(c == 0 for c in codes)
    _verdict(capsys, 10, "determinism", ok,
             "%d output files byte-identical across reruns, %.1fs"
             % (n_files, elapsed))
