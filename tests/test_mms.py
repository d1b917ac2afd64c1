"""Manufactured-solution harness: source composition and convergence."""

import numpy as np
import pytest

from nlcflow import mms
from nlcflow.errors import ValidationError
from nlcflow.fields import Grid, neumann, spectral_plan
from nlcflow.params import PhysParams, RegParams


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


def _sources_at(case, reg, grid, refine, t=0.0):
    """Per-equation source arrays of ``case`` at one time level."""
    src = mms.build_sources(case, grid, reg, P, True, refine)
    return {"density": src.density(t), "momentum": src.momentum(t),
            "temperature": src.temperature(t), "director": src.director(t)}


def _constant_case():
    one = lambda mesh, t: np.ones_like(mesh[0])
    return mms.MMSCase(name="const", dim=1, kind="spatial",
                       rho=one, u=(mms._zero,), theta=one,
                       d=(one, mms._zero, mms._zero))


def test_equilibrium_case_zero_sources():
    """A constant state solves the unregularized system with no forcing."""
    grid = Grid((16,), (2.0,))
    reg0 = RegParams(eps=0.0, delta=0.0, beta=5.0, n_modes=4)
    src = _sources_at(_constant_case(), reg0, grid, 1)
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
    src = _sources_at(case, REG, grid, 1)
    ref = mms.analytic_state(case, grid, 0.0)
    want = -REG.eps * spectral_plan(grid).laplacian(ref.rho, neumann(1))
    assert np.allclose(src["density"], want, rtol=0, atol=1e-15)


def test_refined_sources_converge_to_run_grid_sources():
    case = mms.get_case("bump-1d")
    grid = Grid((32,), (2.0,))
    coarse = _sources_at(case, REG, grid, 1)
    fine = _sources_at(case, REG, grid, 2)
    for key in ("density", "temperature"):
        scale = np.abs(coarse[key]).max() + 1.0
        assert np.abs(coarse[key] - fine[key]).max() < 1e-8 * scale


def test_analytic_state_matches_case_functions():
    case = mms.get_case("trig-2d")
    grid = Grid((16, 16), (2.0, 2.0))
    t = 0.3
    s = mms.analytic_state(case, grid, t)
    mesh = grid.mesh()
    assert np.allclose(s.rho, case.rho(mesh, t), atol=1e-15)
    assert np.allclose(s.u[1], case.u[1](mesh, t), atol=1e-15)
    assert s.t == t


def test_build_sources_rejects_bad_refine():
    case = mms.get_case("bump-1d")
    with pytest.raises(ValidationError):
        mms.build_sources(case, Grid((16,), (2.0,)), REG, P, refine=0)


def test_run_case_reports_field_errors():
    errs = mms.run_case(mms.get_case("bump-1d"), 16, REG_COARSE, P,
                        dt=1e-3, t_end=5e-3)
    assert set(errs) == {"rho", "theta", "u", "d", "total"}
    assert errs["total"] == max(errs.values())


def test_temporal_first_order():
    study = mms.temporal_study(mms.get_case("trig-1d"), REG, P,
                               dts=(4e-3, 2e-3), shape=32, t_end=2e-2)
    (order,) = study["orders"]
    assert 0.7 < order < 1.3


def test_spatial_spectral_decay():
    study = mms.spatial_study(mms.get_case("bump-1d"), REG_COARSE, P,
                              resolutions=(16, 32), dt=5e-4, t_end=1e-2)
    assert study["ratios"]["total"] > 16.0


def test_case_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        mms.run_case(mms.get_case("trig-2d"), (32,), REG, P,
                     dt=1e-3, t_end=1e-3)
