"""Config parsing/validation/serialization and the initial-data presets."""

import dataclasses
import logging

import numpy as np
import pytest

from nlcflow import config as cf
from nlcflow import presets
from nlcflow.errors import ParseError, ValidationError
from nlcflow.fields import Grid
from nlcflow.params import PhysParams, RegParams
from nlcflow.solver import SolverConfig


MINIMAL = "grid.dim = 2\n"


def test_minimal_config_fills_defaults():
    cfg = cf.parse_config_text(MINIMAL)
    assert cfg.grid.shape == (32, 32)
    assert cfg.grid.extents == (2.0, 2.0)
    assert cfg.solver.dt == 1e-3
    assert cfg.init.preset == "equilibrium"
    assert cfg.output.residuals == ("identity",)


def test_defaults_are_logged(caplog):
    with caplog.at_level(logging.INFO, logger="nlcflow.config"):
        cf.parse_config_text(MINIMAL)
    logged = [r.message for r in caplog.records if "default" in r.message]
    assert any("solver.dt" in m for m in logged)
    assert any("init.preset" in m for m in logged)


def test_comments_and_blank_lines_ignored():
    cfg = cf.parse_config_text(
        "# leading comment\n\ngrid.dim = 1  # trailing\n\nsolver.dt = 2e-3\n")
    assert cfg.grid.dim == 1
    assert cfg.solver.dt == 2e-3


@pytest.mark.parametrize("text,needle", [
    ("grid.dim = 2\nbogus.key = 1\n", "line 2"),
    ("grid.dim = 2\ngrid.dim = 1\n", "duplicate"),
    ("grid.dim =\n", "empty value"),
    ("grid.dim 2\n", "expected 'key = value'"),
    ("solver.dt = abc\n", "solver.dt"),
    ("grid.dim = 2\nsolver.dealias = off\n",
     "line 2: unknown key 'solver.dealias'"),
    ("solver.dealias = maybe\n", "line 1: unknown key 'solver.dealias'"),
    ("grid.dim = 2\noutput.csv = false\n", "line 2: unknown key 'output.csv'"),
    ("phys.cond_cap = 1.0\n", "line 1: unknown key 'phys.cond_cap'"),
    ("solver.picard_tol = 0\n", "line 1: unknown key 'solver.picard_tol'"),
    ("solver.picard_max = 0\n", "line 1: unknown key 'solver.picard_max'"),
    ("grid.dim = 2\ninit.width = 0.2\n", "line 2: unknown key 'init.width'"),
    ("init.theta_floor = 0\n", "line 1: unknown key 'init.theta_floor'"),
    ("init.theta_cap = 0.2\n", "line 1: unknown key 'init.theta_cap'"),
    ("continuation.snapshots = 0.005\n",
     "line 1: unknown key 'continuation.snapshots'"),
])
def test_parse_errors_cite_line_and_key(text, needle):
    """A malformed line is named by its number, and an unknown key by its
    line and name: so are the keys that older versions wrote and this one
    no longer reads, whatever their value."""
    with pytest.raises(ParseError) as err:
        cf.parse_config_text(text)
    assert needle in str(err.value)


def test_gamma_too_small_rejected():
    with pytest.raises(ValidationError) as err:
        cf.parse_config_text("phys.gamma = 1.2\n")
    assert "3/2" in str(err.value)


def test_beta_below_floor_rejected():
    with pytest.raises(ValidationError) as err:
        cf.parse_config_text("reg.beta = 3\nphys.gamma = 2\n")
    assert "beta" in str(err.value)


@pytest.mark.parametrize("line", [
    "phys.mu = 0", "phys.lam = -1", "phys.gamma = 1.2", "phys.gas_const = 0",
    "phys.cond_floor = 0", "phys.cond_growth = 1", "phys.penalty_scale = 0",
    "phys.elastic_coupling = 0", "phys.relax_rate = 0", "reg.eps = -1",
    "reg.delta = 2", "reg.beta = 3", "reg.n_modes = 0", "solver.dt = 0",
    "solver.t_end = -1",
])
def test_parameter_errors_name_their_config_key(line):
    """A rejected physical, regularization or solver parameter is named by
    its dotted config key, not by its bare field name."""
    key = line.split("=")[0].strip()
    with pytest.raises(ValidationError) as err:
        cf.parse_config_text(line + "\n")
    assert str(err.value).startswith(key + " ")


@pytest.mark.parametrize("text", [
    "grid.dim = 3\n",
    "grid.dim = 2\ngrid.shape = 48\n",
    "grid.dim = 2\ngrid.shape = 16,16,16\n",
    "init.preset = no-such-preset\n",
    "output.cadence = -1\n",
    "output.residuals = identity,T0\n",
    "continuation.study = unknown\n",
    "continuation.eps = 1e-1,1e-2\ncontinuation.delta = 1,2,3\n",
    pytest.param("continuation.study = viscosity\n"
                 "continuation.eps = 1e-2,1e-1\n",
                 id="viscosity-eps-increasing"),
    pytest.param("continuation.study = pressure\n"
                 "continuation.delta = 1e-4,1e-2\n",
                 id="pressure-delta-increasing"),
    pytest.param("continuation.n = ,\ncontinuation.eps = ,\n"
                 "continuation.delta = ,\n", id="empty-schedule"),
    "continuation.eps = -1e-2\n",
    "mms.resolutions = 4,8\n",
    "mms.dts = 0\n",
    "mms.dts = 1e-3\n",
    "mms.dts = ,\n",
    "mms.dts = 2e-3,2e-3\n",
    "mms.resolutions = 24,48\n",
    "mms.resolutions = 16\n",
    "mms.resolutions = 16,16\n",
    "mms.shape = 24\n",
    "mms.shape = 4\n",
])
def test_invalid_configs_rejected(text):
    with pytest.raises(ValidationError):
        cf.parse_config_text(text)


def test_grid_blocks_expand_per_dim():
    cfg = cf.parse_config_text("grid.dim = 1\ngrid.shape = 64\n")
    assert cfg.grid == Grid((64,), (2.0,))
    cfg = cf.parse_config_text(
        "grid.dim = 2\ngrid.shape = 16,32\ngrid.extents = 1.0,2.0\n")
    assert cfg.grid == Grid((16, 32), (1.0, 2.0))


def test_continuation_schedule_broadcast():
    cfg = cf.parse_config_text(
        "continuation.study = pressure\n"
        "continuation.n = 8\n"
        "continuation.eps = 1e-3\n"
        "continuation.delta = 1e-2,1e-3,1e-4\n")
    beta = cfg.reg.beta
    assert cfg.cont.schedule == tuple(
        RegParams(eps=1e-3, delta=delta, beta=beta, n_modes=8)
        for delta in (1e-2, 1e-3, 1e-4))


@pytest.mark.parametrize("name,cls", [
    ("phys", PhysParams), ("reg", RegParams), ("solver", SolverConfig),
    ("init", cf.InitSpec), ("output", cf.OutputSpec), ("mms", cf.MMSSpec)])
def test_section_keys_are_its_dataclass_fields(name, cls):
    """Each section built from its dataclass has one key per field and no
    other, so a key that no field reads cannot be parsed."""
    keys = {k.partition(".")[2] for k in cf.SCHEMA
            if k.partition(".")[0] == name}
    assert keys == {f.name for f in dataclasses.fields(cls)}


def test_serialize_round_trip_idempotent():
    """Serializing and parsing again gives the same config and the same
    text, an empty list included: it is written as ``,``, not left out,
    which would bring back the key's default."""
    for residuals in ("identity,T2", ","):
        text = ("grid.dim = 2\ngrid.shape = 16\nsolver.dt = 5e-4\n"
                "init.preset = density-bump\ninit.amplitude = 0.4\n"
                f"output.residuals = {residuals}\n")
        cfg1 = cf.parse_config_text(text)
        ser1 = cf.serialize(cfg1)
        cfg2 = cf.parse_config_text(ser1)
        assert cfg2 == cfg1
        assert f"output.residuals = {residuals}\n" in ser1
        assert cf.serialize(cfg2) == ser1


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        cf.parse_config(str(tmp_path / "none.cfg"))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@pytest.fixture
def grid():
    return Grid((32, 32), (2.0, 2.0))


def test_equilibrium_preset_is_constant(grid):
    s = presets.build("equilibrium", grid, base=1.5)
    assert np.all(s.rho == 1.5)
    assert np.all(s.theta == 1.5)
    assert all(np.all(c == 0.0) for c in s.u)
    assert np.all(s.d[0] == 1.0)


def test_density_bump_profile(grid):
    s = presets.build("density-bump", grid, base=1.0, amplitude=0.4)
    mesh = grid.mesh()
    want = 1.0 + 0.4 * np.cos(np.pi * mesh[0] / 2) * np.cos(np.pi * mesh[1] / 2)
    assert np.allclose(s.rho, want, atol=1e-12)
    assert s.theta.max() == pytest.approx(1.2, abs=1e-3)
    assert max(np.abs(c).max() for c in s.u) > 0


def test_director_twist_unit_length(grid):
    s = presets.build("director-twist", grid, amplitude=0.6)
    mag = np.sqrt(sum(c ** 2 for c in s.d))
    assert np.allclose(mag, 1.0, atol=1e-14)
    assert np.all(s.rho == 1.0)


def test_thermal_spot_peak_and_floor(grid):
    s = presets.build("thermal-spot", grid, amplitude=0.5)
    assert s.theta.max() == pytest.approx(1.5, abs=1e-2)
    assert s.theta.min() >= 1.0
    assert all(np.all(c == 0.0) for c in s.u)


def test_unknown_preset_raises(grid):
    with pytest.raises(KeyError):
        presets.build("vortex", grid)


def test_presets_work_in_one_dimension():
    g1 = Grid((32,), (2.0,))
    for name in presets.PRESETS:
        s = presets.build(name, g1)
        assert s.grid == g1
