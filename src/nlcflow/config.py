"""Flat key=value run configuration: parsing, validation, serialization.

The format is a diff-friendly text file of dotted keys:

    # comment
    grid.dim = 2
    grid.shape = 32,32
    solver.dt = 1e-3

``SCHEMA`` states each key's coercion and default once.  The sections
``phys``, ``reg``, ``solver``, ``init``, ``output`` and ``mms`` are their
dataclasses with each field read from the key ``section.field``.

Unknown keys, among them the keys that older versions wrote to
``config.resolved`` and this one reads no more, are rejected with the
offending line number.  Every key left to its default is logged once at
parse time.  ``serialize(parse(path))`` followed by another parse
reproduces the same RunConfig (idempotent after the first
normalization).
"""

import logging
import math
from dataclasses import dataclass, field, fields

from .errors import ParseError, ValidationError
from .fields import Grid
from .params import PhysParams, RegParams
from .presets import PRESETS
from .solver import SolverConfig

log = logging.getLogger("nlcflow.config")


def _parse_int_list(text):
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _finite_float(text):
    """A float that is neither nan nor infinite: no key takes one."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_float_list(text):
    return tuple(_finite_float(v) for v in text.split(",") if v.strip())


def _parse_str_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


# key -> (coercion, default); None default means "derived later"
SCHEMA = {
    "grid.dim": (int, 2),
    "grid.shape": (_parse_int_list, (32,)),
    "grid.extents": (_parse_float_list, (2.0,)),
    "phys.mu": (_finite_float, PhysParams.mu),
    "phys.lam": (_finite_float, PhysParams.lam),
    "phys.gamma": (_finite_float, PhysParams.gamma),
    "phys.gas_const": (_finite_float, PhysParams.gas_const),
    "phys.cond_floor": (_finite_float, PhysParams.cond_floor),
    "phys.cond_growth": (_finite_float, PhysParams.cond_growth),
    "phys.penalty_scale": (_finite_float, PhysParams.penalty_scale),
    "phys.elastic_coupling": (_finite_float, PhysParams.elastic_coupling),
    "phys.relax_rate": (_finite_float, PhysParams.relax_rate),
    "reg.eps": (_finite_float, RegParams.eps),
    "reg.delta": (_finite_float, RegParams.delta),
    "reg.beta": (_finite_float, RegParams.beta),
    "reg.n_modes": (int, RegParams.n_modes),
    "solver.dt": (_finite_float, 1e-3),
    "solver.t_end": (_finite_float, 0.05),
    "init.preset": (str, "equilibrium"),
    "init.base": (_finite_float, 1.0),
    "init.amplitude": (_finite_float, None),
    "init.snapshot": (str, None),
    "output.dir": (str, "out"),
    "output.cadence": (int, 0),
    "output.residuals": (_parse_str_list, ("identity",)),
    "continuation.study": (str, "viscosity"),
    "continuation.n": (_parse_int_list, (8,)),
    "continuation.eps": (_parse_float_list, (1e-1, 5e-2, 2.5e-2)),
    "continuation.delta": (_parse_float_list, (1e-3,)),
    "mms.resolutions": (_parse_int_list, (16, 32)),
    "mms.dts": (_parse_float_list, (4e-3, 2e-3, 1e-3)),
    "mms.shape": (int, 32),
}

_SERIALIZE_VERSION = 1


# No section restates a SCHEMA default: _build is their one constructor.
@dataclass(frozen=True)
class InitSpec:
    preset: str
    base: float
    amplitude: float
    snapshot: str


@dataclass(frozen=True)
class OutputSpec:
    dir: str
    cadence: int
    residuals: tuple


@dataclass(frozen=True)
class ContinuationSpec:
    study: str
    schedule: tuple                # the validated RegParams of each entry


@dataclass(frozen=True)
class MMSSpec:
    resolutions: tuple
    dts: tuple
    shape: int


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    phys: PhysParams
    reg: RegParams
    solver: SolverConfig
    init: InitSpec
    output: OutputSpec
    cont: ContinuationSpec
    mms: MMSSpec
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


def _section(cls, name, values):
    """The dataclass ``cls`` with each field read from key ``name.field``."""
    return cls(**{f.name: values[f"{name}.{f.name}"] for f in fields(cls)})


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

    phys = _validated("phys", _section(PhysParams, "phys", values))
    reg = _validated("reg", _section(RegParams, "reg", values),
                     gamma=phys.gamma)
    solver = _validated("solver", _section(SolverConfig, "solver", values))

    preset = values["init.preset"]
    if values["init.snapshot"] is None and preset not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(
            f"init.preset {preset!r} is not one of: {known}")
    init = _section(InitSpec, "init", values)

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
    output = _section(OutputSpec, "output", values)

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
    schedule = []
    for i, (n, eps, delta) in enumerate(zip(
            lists["continuation.n"], lists["continuation.eps"],
            lists["continuation.delta"])):
        try:
            schedule.append(RegParams(eps=eps, delta=delta, beta=reg.beta,
                                      n_modes=n).validate(gamma=phys.gamma))
        except ValidationError as exc:
            raise ValidationError(
                f"continuation schedule entry {i} (continuation.n = {n}, "
                f"continuation.eps = {eps!r}, continuation.delta = "
                f"{delta!r}): {exc}") from None
    cont = ContinuationSpec(study=study, schedule=tuple(schedule))

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
    if len(dts) < 2 or any(a == b for a, b in zip(dts, dts[1:])):
        raise ValidationError(
            f"mms.dts = {_format_value(dts)}: needs at least two entries, "
            "neighbouring ones different: each observed order compares two "
            "of them")

    return RunConfig(grid=grid, phys=phys, reg=reg, solver=solver,
                     init=init, output=output, cont=cont,
                     mms=_section(MMSSpec, "mms", values), raw=dict(values))


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
    """The config text of ``val``; an empty list is ``,``, which every list
    key reads back as empty."""
    if isinstance(val, tuple):
        return ",".join(_format_value(v) for v in val) or ","
    if isinstance(val, float):
        return repr(val)
    return str(val)


def serialize(cfg: RunConfig):
    """Canonical text form; omits keys whose value is unset (None)."""
    lines = [f"# nlcflow run config (format v{_SERIALIZE_VERSION})"]
    for key in SCHEMA:
        val = cfg.raw.get(key, SCHEMA[key][1])
        if val is None:
            continue
        lines.append(f"{key} = {_format_value(val)}")
    return "\n".join(lines) + "\n"
