"""Flat key=value run configuration: parsing, validation, serialization.

The format is a diff-friendly text file of dotted keys:

    # comment
    grid.dim = 2
    grid.shape = 32,32
    solver.dt = 1e-3

Unknown keys are rejected with the offending line number.  A retired key
(one that older versions wrote to ``config.resolved``, see ``RETIRED``) is
logged and ignored when its value asks for what the current code does, so
those files still parse; any other value of it is rejected with its line
number, since ignoring it would misreport the run.  Every key left to its
default is logged once at parse time.  ``serialize(parse(path))``
followed by another parse reproduces the same RunConfig (idempotent after
the first normalization).
"""

import logging
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .fields import Grid
from .params import PhysParams, RegParams
from .presets import PRESETS
from .solver import SolverConfig

log = logging.getLogger("nlcflow.config")


_TRUE = ("true", "yes", "on", "1")


def _parse_int_list(text):
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _parse_float_list(text):
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def _parse_str_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


# key -> (coercion, default); None default means "derived later"
SCHEMA = {
    "grid.dim": (int, 2),
    "grid.shape": (_parse_int_list, (32,)),
    "grid.extents": (_parse_float_list, (2.0,)),
    "phys.mu": (float, PhysParams.mu),
    "phys.lam": (float, PhysParams.lam),
    "phys.gamma": (float, PhysParams.gamma),
    "phys.gas_const": (float, PhysParams.gas_const),
    "phys.cond_floor": (float, PhysParams.cond_floor),
    "phys.cond_growth": (float, PhysParams.cond_growth),
    "phys.penalty_scale": (float, PhysParams.penalty_scale),
    "phys.elastic_coupling": (float, PhysParams.elastic_coupling),
    "phys.relax_rate": (float, PhysParams.relax_rate),
    "reg.eps": (float, RegParams.eps),
    "reg.delta": (float, RegParams.delta),
    "reg.beta": (float, RegParams.beta),
    "reg.n_modes": (int, RegParams.n_modes),
    "solver.dt": (float, 1e-3),
    "solver.t_end": (float, 0.05),
    "solver.picard_tol": (float, 1e-9),
    "solver.picard_max": (int, 50),
    "init.preset": (str, "equilibrium"),
    "init.base": (float, 1.0),
    "init.amplitude": (float, None),
    "init.width": (float, None),
    "init.snapshot": (str, None),
    "init.theta_floor": (float, 0.1),
    "init.theta_cap": (float, 10.0),
    "output.dir": (str, "out"),
    "output.cadence": (int, 0),
    "output.residuals": (_parse_str_list, ("identity",)),
    "continuation.study": (str, "viscosity"),
    "continuation.n": (_parse_int_list, (8,)),
    "continuation.eps": (_parse_float_list, (1e-1, 5e-2, 2.5e-2)),
    "continuation.delta": (_parse_float_list, (1e-3,)),
    "continuation.snapshots": (_parse_float_list, ()),
    "mms.resolutions": (_parse_int_list, (16, 32)),
    "mms.dts": (_parse_float_list, (4e-3, 2e-3, 1e-3)),
    "mms.shape": (int, 32),
}

# retired key -> (why it is ignored, test of the values that may be ignored)
RETIRED = {
    "phys.cond_cap": ("no conductivity law reads it", lambda text: True),
    "solver.dealias": ("the 2/3 rule is the only scheme",
                       lambda text: text.lower() in _TRUE),
    "output.csv": ("every run writes its diagnostics CSV",
                   lambda text: text.lower() in _TRUE),
}

_SERIALIZE_VERSION = 1


@dataclass(frozen=True)
class InitSpec:
    preset: str = "equilibrium"
    base: float = 1.0
    amplitude: float = None
    width: float = None
    snapshot: str = None
    theta_floor: float = 0.1
    theta_cap: float = 10.0


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "out"
    cadence: int = 0
    residuals: tuple = ("identity",)


@dataclass(frozen=True)
class ContinuationSpec:
    study: str = "viscosity"
    schedule: tuple = ()           # (n_modes, eps, delta) triples
    snapshots: tuple = ()          # empty -> final time only


@dataclass(frozen=True)
class MMSSpec:
    resolutions: tuple = (16, 32)
    dts: tuple = (4e-3, 2e-3, 1e-3)
    shape: int = 32


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    phys: PhysParams
    reg: RegParams
    solver: SolverConfig
    init: InitSpec
    output: OutputSpec
    cont: ContinuationSpec = ContinuationSpec()
    mms: MMSSpec = MMSSpec()
    raw: dict = field(default_factory=dict, compare=False)


def _read_pairs(lines):
    pairs = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key in RETIRED:
            why, ignorable = RETIRED[key]
            if not ignorable(value):
                raise ParseError(
                    f"line {lineno}: retired key {key!r} cannot be "
                    f"{value!r}: {why}")
            log.info("line %d: ignoring retired key %s (%s)", lineno, key,
                     why)
            continue
        if key not in SCHEMA:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if value == "":
            raise ParseError(f"line {lineno}: empty value for key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def _coerce(pairs):
    values = {}
    for key, (coerce, default) in SCHEMA.items():
        if key in pairs:
            text, lineno = pairs[key]
            try:
                values[key] = coerce(text)
            except (ValueError, TypeError) as exc:
                raise ParseError(
                    f"line {lineno}: key {key!r}: {exc}") from None
        else:
            values[key] = default
            log.info("default %s = %r", key, default)
    return values


def _validated(section, params, **kwargs):
    """``params.validate(**kwargs)``, its error naming the dotted config
    key: every validate message of PhysParams, RegParams and SolverConfig
    begins with the field it rejects, which is the key after
    ``section.``."""
    try:
        return params.validate(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{section}.{exc}") from None


def _build(values):
    dim = values["grid.dim"]
    shape = values["grid.shape"]
    extents = values["grid.extents"]
    if dim not in (1, 2):
        raise ValidationError("grid.dim must be 1 or 2")
    if len(shape) == 1 and dim > 1:
        shape = shape * dim
    if len(extents) == 1 and dim > 1:
        extents = extents * dim
    if len(shape) != dim or len(extents) != dim:
        raise ValidationError(
            f"grid.shape/grid.extents must have {dim} entries")
    try:
        grid = Grid(shape, extents)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    phys = _validated("phys", PhysParams(
        mu=values["phys.mu"], lam=values["phys.lam"],
        gamma=values["phys.gamma"], gas_const=values["phys.gas_const"],
        cond_floor=values["phys.cond_floor"],
        cond_growth=values["phys.cond_growth"],
        penalty_scale=values["phys.penalty_scale"],
        elastic_coupling=values["phys.elastic_coupling"],
        relax_rate=values["phys.relax_rate"]))
    reg = _validated("reg", RegParams(
        eps=values["reg.eps"], delta=values["reg.delta"],
        beta=values["reg.beta"], n_modes=values["reg.n_modes"]),
        gamma=phys.gamma)
    solver = _validated("solver", SolverConfig(
        dt=values["solver.dt"], t_end=values["solver.t_end"],
        picard_tol=values["solver.picard_tol"],
        picard_max=values["solver.picard_max"]))

    preset = values["init.preset"]
    if values["init.snapshot"] is None and preset not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(
            f"init.preset {preset!r} is not one of: {known}")
    if not values["init.theta_floor"] > 0:
        raise ValidationError("init.theta_floor must be positive")
    if not values["init.theta_cap"] >= values["init.theta_floor"]:
        raise ValidationError("init.theta_cap must be >= init.theta_floor")
    init = InitSpec(
        preset=preset, base=values["init.base"],
        amplitude=values["init.amplitude"], width=values["init.width"],
        snapshot=values["init.snapshot"],
        theta_floor=values["init.theta_floor"],
        theta_cap=values["init.theta_cap"])

    if values["output.cadence"] < 0:
        raise ValidationError("output.cadence must be >= 0")
    from .diagnostics import _truncation_triple
    for rid in values["output.residuals"]:
        try:
            _truncation_triple(rid)
        except KeyError:
            raise ValidationError(
                f"output.residuals entry {rid!r} is not a known "
                "renormalization id") from None
    output = OutputSpec(
        dir=values["output.dir"], cadence=values["output.cadence"],
        residuals=tuple(values["output.residuals"]))

    from .continuation import STUDIES
    study = values["continuation.study"]
    if study not in STUDIES:
        known = ", ".join(sorted(STUDIES))
        raise ValidationError(
            f"continuation.study {study!r} is not one of: {known}")
    lists = {"continuation.n": values["continuation.n"],
             "continuation.eps": values["continuation.eps"],
             "continuation.delta": values["continuation.delta"]}
    width = max(len(v) for v in lists.values())
    for key, seq in lists.items():
        if len(seq) not in (1, width):
            raise ValidationError(
                f"{key} has {len(seq)} entries; schedule needs 1 or {width}")
        if len(seq) == 1:
            lists[key] = seq * width
    if width == 0:
        raise ValidationError(
            "continuation.n, continuation.eps and continuation.delta are "
            "all empty: the schedule needs at least one entry")
    shrinking = {"viscosity": "continuation.eps",
                 "pressure": "continuation.delta"}.get(study)
    if shrinking and any(b > a for a, b in zip(lists[shrinking],
                                               lists[shrinking][1:])):
        raise ValidationError(
            f"{shrinking} = {_format_value(lists[shrinking])}: a {study} "
            "study needs nonincreasing entries")
    schedule = tuple(zip(lists["continuation.n"], lists["continuation.eps"],
                         lists["continuation.delta"]))
    for i, (n, eps, delta) in enumerate(schedule):
        try:
            RegParams(eps=eps, delta=delta, beta=reg.beta,
                      n_modes=n).validate(gamma=phys.gamma)
        except ValidationError as exc:
            raise ValidationError(
                f"continuation schedule entry {i} (continuation.n = {n}, "
                f"continuation.eps = {eps!r}, continuation.delta = "
                f"{delta!r}): {exc}") from None
    cont = ContinuationSpec(study=study, schedule=schedule,
                            snapshots=tuple(values["continuation.snapshots"]))

    for key, sizes in (("mms.resolutions", values["mms.resolutions"]),
                       ("mms.shape", (values["mms.shape"],))):
        if any(n < 8 or n & (n - 1) for n in sizes):
            raise ValidationError(
                f"{key} = {_format_value(sizes)}: each entry must be a "
                "power of two >= 8")
    resolutions = values["mms.resolutions"]
    if len(resolutions) < 2 or resolutions[0] == resolutions[-1]:
        raise ValidationError(
            "mms.resolutions needs at least two entries, the first and "
            "last different: the study compares them")
    dts = values["mms.dts"]
    if any(dt <= 0 for dt in dts):
        raise ValidationError("mms.dts entries must be positive")
    if any(a == b for a, b in zip(dts, dts[1:])):
        raise ValidationError(
            f"mms.dts = {_format_value(dts)}: neighbouring entries must "
            "differ: each observed order compares two of them")
    mms = MMSSpec(resolutions=tuple(values["mms.resolutions"]),
                  dts=tuple(dts), shape=values["mms.shape"])

    return RunConfig(grid=grid, phys=phys, reg=reg, solver=solver,
                     init=init, output=output, cont=cont, mms=mms,
                     raw=dict(values))


def parse_config_text(text):
    return _build(_coerce(_read_pairs(text.splitlines())))


def parse_config(path):
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def _format_value(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ",".join(_format_value(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def serialize(cfg: RunConfig):
    """Canonical text form; omits keys whose value is unset (None)."""
    lines = [f"# nlcflow run config (format v{_SERIALIZE_VERSION})"]
    for key in SCHEMA:
        val = cfg.raw.get(key, SCHEMA[key][1])
        if val is None or val == ():
            continue
        lines.append(f"{key} = {_format_value(val)}")
    return "\n".join(lines) + "\n"
