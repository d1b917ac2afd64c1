"""Manufactured-solution harness: source composition and convergence."""

import gc
import weakref

import numpy as np
import pytest

from nlcflow import mms
from nlcflow.errors import ValidationError
from nlcflow.fields import Grid, spectral_plan
from nlcflow.params import PhysParams, RegParams
from nlcflow.solver import SolverConfig


P = PhysParams()
REG = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=8)
# coarse 16-point grids admit at most 7 one-dimensional sine modes
REG_COARSE = RegParams(eps=1e-2, delta=1e-3, beta=5.0, n_modes=6)


def test_get_case_unknown_name():
    with pytest.raises(ValidationError) as err:
        mms.get_case("spiral-3d")
    assert "spiral-3d" in str(err.value)


def test_registered_cases():
    assert set(mms.CASES) == {"trig-1d", "trig-2d", "bump-1d", "bump-2d"}
    for case in mms.CASES.values():
        assert case.kind in ("temporal", "spatial")


def _sources_at(case, reg, fine, grid, t=0.0):
    """Per-equation source arrays of ``case`` at one time level, assembled
    on ``fine`` and, if it is another grid, restricted to ``grid``."""
    names = ("density", "momentum", "temperature", "director")
    src = mms._assemble(case, fine, reg, P, t)
    if fine != grid:
        src = mms._restrict(src, fine, grid)
    return dict(zip(names, src))


def _constant_case():
    one = lambda mesh, t: np.ones_like(mesh[0])
    return mms.MMSCase(name="const", dim=1, kind="spatial",
                       rho=one, u=(mms._zero,), theta=one,
                       d=(one, mms._zero, mms._zero))


def test_equilibrium_case_zero_sources():
    """A constant state solves the unregularized system with no forcing."""
    grid = Grid((16,), (2.0,))
    reg0 = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    src = _sources_at(_constant_case(), reg0, grid, grid)
    assert np.all(src["density"] == 0.0)
    assert np.all(src["temperature"] == 0.0)
    for arr in src["momentum"]:
        assert np.abs(arr).max() == 0.0
    for arr in src["director"]:
        assert np.abs(arr).max() == 0.0


def test_steady_continuity_source_composition():
    """Quiescent steady case: the mass source is exactly -eps * lap(rho*)."""
    case = mms.get_case("bump-1d")
    grid = Grid((32,), (2.0,))
    src = _sources_at(case, REG, grid, grid)
    ref = mms.analytic_state(case, grid, 0.0, REG.n_modes)
    plan = spectral_plan(grid)
    want = -REG.eps * plan.div(plan.grad(ref.rho))
    assert np.allclose(src["density"], want, rtol=0, atol=1e-15)


def test_refined_sources_converge_to_run_grid_sources():
    """Every equation's source of bump-1d at 32 nodes and bump-2d at 32^2,
    assembled on the twice-refined grid and restricted with that
    equation's one parity, matches the one assembled on the run grid.  One
    parity per equation is exact only because every spatial case is
    quiescent, which is checked here too."""
    for case in mms.CASES.values():
        if case.kind == "spatial":
            assert all(fc is mms._zero for fc in case.u)
            assert case.drho_dt is case.du_dt is case.dtheta_dt is None
    for name in ("bump-1d", "bump-2d"):
        case = mms.get_case(name)
        grid = Grid((32,) * case.dim, (2.0,) * case.dim)
        coarse = _sources_at(case, REG, grid, grid)
        fine = _sources_at(case, REG, Grid((64,) * case.dim,
                                           (2.0,) * case.dim), grid)
        for key in ("density", "momentum", "temperature", "director"):
            assert fine[key].shape == coarse[key].shape, (name, key)
            scale = np.abs(coarse[key]).max() + 1.0
            assert np.abs(coarse[key] - fine[key]).max() < 1e-8 * scale, \
                (name, key)


def test_analytic_state_matches_case_functions():
    """The sampled fields are the case's, and the velocity, the lowest
    sine mode, is its projection onto the Galerkin modes, exact to
    round-off."""
    case = mms.get_case("trig-2d")
    grid = Grid((16, 16), (2.0, 2.0))
    t = 0.3
    s = mms.analytic_state(case, grid, t, REG.n_modes)
    mesh = grid.mesh()
    assert np.allclose(s.rho, case.rho(mesh, t), atol=1e-15)
    assert s.U.shape == (REG.n_modes, 2)
    assert np.abs(s.U[1:]).max() <= 1e-16
    for c in range(2):
        assert np.allclose(s.u[c], case.u[c](mesh, t), rtol=0, atol=1e-15)
    assert s.t == t


def _source_arrays(src, t):
    """Every array the sources callable hands out at ``t``."""
    return list(src(t))


def test_temporal_sources_retain_no_arrays():
    """A moving case assembles its sources afresh on every call, so no
    array outlives the caller's use of it, however many steps ask."""
    case = mms.get_case("trig-2d")
    src = mms.build_sources(case, Grid((16, 16), (2.0, 2.0)), REG, P)
    first = _source_arrays(src, 1e-3)
    again = _source_arrays(src, 1e-3)
    assert not any(a is b for a, b in zip(first, again))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    refs = [weakref.ref(a) for t in (0.0, 1e-3, 2e-3)
            for a in _source_arrays(src, t)]
    refs += [weakref.ref(a) for a in first + again]
    del first, again
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_steady_sources_assembled_once():
    """A steady case's sources are the same arrays at every t."""
    case = mms.get_case("bump-1d")
    src = mms.build_sources(case, Grid((16,), (2.0,)), REG_COARSE, P)
    for a, b in zip(_source_arrays(src, 0.0), _source_arrays(src, 0.5)):
        assert a is b


def _count_analytic_states(monkeypatch):
    calls = []
    sample = mms.analytic_state

    def counted(case, grid, t, n_modes):
        calls.append(grid.shape)
        return sample(case, grid, t, n_modes)

    monkeypatch.setattr(mms, "analytic_state", counted)
    return calls


def test_temporal_sources_sample_one_state_per_call(monkeypatch):
    """All four equations' sources at one t come from one analytic state
    on the run grid."""
    calls = _count_analytic_states(monkeypatch)
    grid = Grid((16, 16), (2.0, 2.0))
    src = mms.build_sources(mms.get_case("trig-2d"), grid, REG, P)
    assert calls == []
    for n, t in enumerate((0.0, 1e-3, 2e-3), start=1):
        src(t)
        assert calls == [grid.shape] * n


def test_spatial_sources_sample_one_state_in_total(monkeypatch):
    """A steady case samples its analytic state once, on the twice-refined
    grid, however many steps ask for its sources."""
    calls = _count_analytic_states(monkeypatch)
    src = mms.build_sources(mms.get_case("bump-1d"), Grid((16,), (2.0,)),
                            REG_COARSE, P)
    for t in (0.0, 1e-3, 2e-3):
        src(t)
    assert calls == [(32,)]


def test_run_case_reports_field_errors():
    errs = mms.run_case(mms.get_case("bump-1d"), 16, REG_COARSE, P,
                        SolverConfig(dt=1e-3, t_end=5e-3))
    assert set(errs) == {"rho", "theta", "u", "d", "total"}
    assert errs["total"] == max(errs.values())


def test_temporal_first_order():
    case = mms.get_case("trig-1d")
    rows = list(mms.study(case, REG, P, SolverConfig(dt=4e-3, t_end=2e-2),
                          dts=(4e-3, 2e-3), shape=32))
    _, (order,) = mms.summarize(case, rows)
    assert 0.7 < order < 1.3


def test_spatial_spectral_decay():
    case = mms.get_case("bump-1d")
    rows = list(mms.study(case, REG_COARSE, P,
                          SolverConfig(dt=5e-4, t_end=1e-2),
                          resolutions=(16, 32)))
    summary, _ = mms.summarize(case, rows)
    assert summary["ratios"]["total"] > 16.0
