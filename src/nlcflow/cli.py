"""Command-line front end: ``solve run|continuation|mms|diagnose``.

Exit codes: 0 success, 2 configuration problem, 3 solver failure,
4 input/output failure.  The environment variable SOLVE_OUT, when set,
overrides the configured output directory.  All outputs are deterministic:
rerunning the same config on the same build reproduces every file byte for
byte.
"""

import argparse
import json
import math
import os
import sys

from . import config as cf
from . import continuation as ct
from . import diagnostics as dg
from . import mms as mm
from . import presets
from . import solver as sv
from .errors import FlowError, IOFailure, ParityMismatch, ParseError, \
    SolverFailure, ValidationError
from .fields import dirichlet, neumann, read_fields, write_constant_field, \
    write_field

_CSV_VERSION = 1

# frozen column order for run diagnostics
_CSV_COLUMNS = (
    "t", "mass", "energy_total",
    "energy_kinetic", "energy_elastic", "energy_artificial",
    "energy_frank", "energy_penalty", "energy_thermal",
    "dissip_viscous", "dissip_director", "dissip_thermal_sink",
    "dissip_density",
    "entropy_total", "entropy_production_min",
    "director_sup", "pressure_weight_increment",
)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % float(x)


def _record_row(rec):
    vals = [rec.t, rec.mass, rec.energy_total]
    for key in ("kinetic", "elastic", "artificial", "frank", "penalty",
                "thermal"):
        vals.append(rec.energy_parts[key])
    for key in ("viscous", "director", "thermal_sink", "density"):
        vals.append(rec.dissipation_parts[key])
    vals += [rec.entropy_total, rec.entropy_production_min,
             rec.director_sup, rec.pressure_weight_increment]
    return vals


def _csv_header(res_ids=()):
    names = list(_CSV_COLUMNS) + [f"res_{b}" for b in res_ids]
    return f"# nlcflow-csv v{_CSV_VERSION}\n" + ",".join(names) + "\n"


def _csv_line(rec, residuals=()):
    return ",".join(_fmt(v) for v in _record_row(rec) + list(residuals)) \
        + "\n"


def render_csv(records):
    """Diagnostic records as CSV text, without residual columns."""
    return _csv_header() + "".join(_csv_line(rec) for rec in records)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def write_snapshot(path, s):
    """One state as a plain-text multi-field snapshot (plus a constant
    ``time`` field carrying t)."""
    cos, sin = neumann(s.grid.dim), dirichlet(s.grid.dim)
    with open(path, "w", encoding="utf-8") as fh:
        write_constant_field(fh, "time", s.grid, s.t)
        write_field(fh, "rho", s.rho, cos)
        for c, comp in enumerate(s.u):
            write_field(fh, f"u{c}", comp, sin)
        write_field(fh, "theta", s.theta, cos)
        for k in range(3):
            write_field(fh, f"d{k}", s.d[k], cos)


def read_snapshot(path, grid):
    """The State stored by :func:`write_snapshot`.  Each field's stored
    parity must be the one the state layout gives it (ParityMismatch)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fields = read_fields(fh, grid)
    except OSError as exc:
        raise IOFailure(f"cannot read snapshot {path!r}: {exc}") from None
    cos, sin = neumann(grid.dim), dirichlet(grid.dim)
    layout = {"time": cos, "rho": cos, "theta": cos}
    layout.update((f"u{c}", sin) for c in range(grid.dim))
    layout.update((f"d{k}", cos) for k in range(3))
    missing = [n for n in layout if n not in fields]
    if missing:
        raise IOFailure(f"snapshot {path!r} lacks fields {missing}")
    for name, parity in layout.items():
        if fields[name][0] != parity:
            raise ParityMismatch(
                f"snapshot {path!r} stores {name} with parity "
                f"{fields[name][0]}, the state needs {parity}")
    values = {name: fields[name][1] for name in layout}
    return sv.State(
        grid, float(values["time"].flat[0]), values["rho"],
        [values[f"u{c}"] for c in range(grid.dim)], values["theta"],
        [values[f"d{k}"] for k in range(3)])


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(cfg):
    path = os.environ.get("SOLVE_OUT") or cfg.output.dir
    os.makedirs(path, exist_ok=True)
    return path


def _initial_state(cfg):
    if cfg.init.snapshot is not None:
        return read_snapshot(cfg.init.snapshot, cfg.grid)
    kwargs = {"base": cfg.init.base}
    if cfg.init.amplitude is not None:
        kwargs["amplitude"] = cfg.init.amplitude
    if cfg.init.width is not None:
        kwargs["width"] = cfg.init.width
    return presets.build(cfg.init.preset, cfg.grid, **kwargs)


def _prepared_state(cfg):
    """The run's starting state.  A snapshot restart continues the run it
    came from: its state and its t are used as stored, not regularized."""
    raw = _initial_state(cfg)
    if cfg.init.snapshot is not None:
        return raw
    return sv.regularize_initial_data(
        raw.grid, raw.rho, raw.rho * raw.u, raw.theta, raw.d, cfg.reg,
        theta_bounds=(cfg.init.theta_floor, cfg.init.theta_cap))


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"cannot write {path!r}: {exc}") from None


def _finite_or_null(obj):
    """Replace non-finite floats by null so emitted JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(config_path):
    """``solve run``: as each state arrives, append and flush its CSV row
    (with the step's residuals) and write its snapshot on the cadence; the
    last accepted state is always written.  Keeping only the previous state
    holds memory flat, and a failed run keeps every state before it."""
    cfg = cf.parse_config(config_path)
    out = _out_dir(cfg)
    res_ids = list(dict.fromkeys(cfg.output.residuals)) \
        if cfg.output.csv else []
    cadence = cfg.output.cadence
    csv = battery = prev = None
    k = snapped = -1        # indices of ``prev`` and of the last snapshot
    try:
        for s, rec in sv.run(_prepared_state(cfg), cfg.reg, cfg.solver,
                             cfg.phys):
            if rec is None:
                _write_text(os.path.join(out, "config.resolved"),
                            cf.serialize(cfg))
                if cfg.output.csv:
                    csv = open(os.path.join(out, "diagnostics.csv"), "w",
                               encoding="utf-8")
                    csv.write(_csv_header(res_ids))
                if res_ids:
                    battery = dg.cosine_battery(s.grid)
                residuals = [0.0] * len(res_ids)
            elif res_ids:
                rows = dg.renormalized_continuity_residual(
                    prev, s, rec, cfg.reg.eps, res_ids, battery)
                residuals = [max(abs(v) for v in rows[b].values())
                             for b in res_ids]
            last = dg.make_record(s, cfg.reg, cfg.phys,
                                  dt=None if rec is None else rec.dt)
            if csv is not None:
                csv.write(_csv_line(last, residuals))
                csv.flush()
            prev, k = s, k + 1
            if cadence > 0 and k % cadence == 0:
                write_snapshot(os.path.join(out, "snap_%06d.dat" % k), s)
                snapped = k
    finally:
        if csv is not None:
            csv.close()
        if k > snapped:
            write_snapshot(os.path.join(out, "snap_%06d.dat" % k), prev)
    print(f"run complete: steps={k} t={prev.t:.6g} "
          f"mass={last.mass:.12g} energy={last.energy_total:.12g}")
    print(f"outputs in {out}")
    return 0


def cmd_continuation(config_path):
    cfg = cf.parse_config(config_path)
    out = _out_dir(cfg)
    plan = ct.ContinuationPlan(
        grid=cfg.grid, phys=cfg.phys, solver=cfg.solver,
        schedule=list(cfg.cont.schedule),
        initial=lambda g: _initial_state(cfg),
        beta=cfg.reg.beta,
        snapshot_times=cfg.cont.snapshots,
        theta_bounds=(cfg.init.theta_floor, cfg.init.theta_cap))
    report = ct.STUDIES[cfg.cont.study](plan)

    _write_text(os.path.join(out, "config.resolved"), cf.serialize(cfg))
    _write_text(os.path.join(out, "report.json"),
                json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    if cfg.output.csv:
        for i, recs in enumerate(report.run_records):
            _write_text(os.path.join(out, "run_%02d.csv" % i),
                        render_csv(recs))
    for line in summarize_report(report):
        print(line)
    print(f"outputs in {out}")
    return 0


def summarize_report(report):
    lines = [f"continuation study: {report.study} ({len(report.runs)} runs)"]
    for r in report.runs:
        lines.append(
            "  n=%d eps=%g delta=%g  E_max/E_0=%.9f" %
            (r["n_modes"], r["eps"], r["delta"], r["energy_max_ratio"]))
    for name, entry in report.decay.items():
        vals = " -> ".join("%.4e" % v for v in entry["values"])
        flag = "ok" if entry["nonincreasing_5pct"] else "NOT nonincreasing"
        lines.append(f"  decay {name}: {vals}  [{flag}]")
    return lines


_ERR_KEYS = ("rho", "theta", "u", "d", "total")


def cmd_mms(case_name, config_path):
    cfg = cf.parse_config(config_path)
    out = _out_dir(cfg)
    case = mm.get_case(case_name)
    if case.kind == "spatial":
        study = mm.spatial_study(
            case, cfg.reg, cfg.phys, resolutions=cfg.mms.resolutions,
            dt=cfg.solver.dt, t_end=cfg.solver.t_end)
        rows = study["rows"]
        label = "resolution"
        doublings = math.log2(rows[-1][0] / rows[0][0])
        summary = {"ratios": study["ratios"],
                   "orders": {k: (math.log2(v) / doublings
                                  if 0 < v < math.inf else v)
                              for k, v in study["ratios"].items()}}
        shown = [summary["orders"]["total"]]
    else:
        study = mm.temporal_study(
            case, cfg.reg, cfg.phys, dts=cfg.mms.dts, shape=cfg.mms.shape,
            t_end=cfg.solver.t_end)
        rows = study["rows"]
        label = "dt"
        summary = {"orders": {"total": list(study["orders"])}}
        shown = study["orders"]

    lines = [f"# nlcflow-csv v{_CSV_VERSION}",
             ",".join([label] + list(_ERR_KEYS))]
    for val, errs in rows:
        lines.append(",".join(
            [_fmt(val)] + [_fmt(errs[k]) for k in _ERR_KEYS]))
    _write_text(os.path.join(out, f"mms_{case.name}.csv"),
                "\n".join(lines) + "\n")
    _write_text(os.path.join(out, f"mms_{case.name}_orders.json"),
                json.dumps(_finite_or_null(summary), indent=2,
                           sort_keys=True) + "\n")

    print(f"mms case {case.name} ({case.kind})")
    for val, errs in rows:
        print("  %s=%-10g total_error=%.6e" % (label, val, errs["total"]))
    print("observed order(s): " + ", ".join("%.3f" % o for o in shown))
    print(f"outputs in {out}")
    return 0


def cmd_diagnose(directory):
    cfg_path = os.path.join(directory, "config.resolved")
    if not os.path.exists(cfg_path):
        raise IOFailure(f"no config.resolved in {directory!r}")
    cfg = cf.parse_config(cfg_path)
    try:
        names = sorted(n for n in os.listdir(directory)
                       if n.startswith("snap_") and n.endswith(".dat"))
    except OSError as exc:
        raise IOFailure(f"cannot list {directory!r}: {exc}") from None
    if not names:
        raise IOFailure(f"no snapshots in {directory!r}")
    print("t,mass,energy_total,entropy_total,director_sup")
    for name in names:
        s = read_snapshot(os.path.join(directory, name), cfg.grid)
        rec = dg.make_record(s, cfg.reg, cfg.phys)
        print(",".join(_fmt(v) for v in (
            rec.t, rec.mass, rec.energy_total, rec.entropy_total,
            rec.director_sup)))
    print(f"diagnosed {len(names)} snapshots")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(
        prog="solve",
        description="spectral solver for regularized liquid-crystal flow")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="one simulation from a config file")
    p_run.add_argument("config")
    p_cont = sub.add_parser("continuation",
                            help="a family of runs along a schedule")
    p_cont.add_argument("config")
    p_mms = sub.add_parser("mms",
                           help="manufactured-solution convergence study")
    p_mms.add_argument("case")
    p_mms.add_argument("config")
    p_diag = sub.add_parser("diagnose",
                            help="replay stored snapshots through the "
                                 "diagnostics")
    p_diag.add_argument("directory")
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "continuation":
            return cmd_continuation(args.config)
        if args.command == "mms":
            return cmd_mms(args.case, args.config)
        return cmd_diagnose(args.directory)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (IOFailure, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except FlowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
