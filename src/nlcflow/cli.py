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

import numpy as np

from . import config as cf
from . import continuation as ct
from . import diagnostics as dg
from . import mms as mm
from . import presets
from . import solver as sv
from .errors import FlowError, IOFailure, ParityMismatch, ParseError, \
    SolverFailure, ValidationError


# ---------------------------------------------------------------------------
# snapshots
#
# A snapshot is plain text: a sequence of blocks, each a header line
# ``FIELD <name> <kind> <dims...>`` followed by rows of ``%.17g`` values, one
# row per index along the first dimension, so every float round-trips
# exactly.  ``<kind>`` is the parity of a nodal block, ``neumann``
# (all-cosine) or ``dirichlet`` (all-sine), whose dims are the grid's shape;
# or ``galerkin`` for a table that lives off the grid, whose two dims are its
# row and column counts.  The nodal blocks come in the order of
# :func:`_layout`: ``time`` (t at every node), then the state's arrays.  A
# state with a solver history ends with it as the ``galerkin`` table
# ``history``: one row per level, newest first, each the level's dt followed
# by its flattened Galerkin coefficients.  A file without that table (as
# written before the history existed, or for a state with no past) still
# reads.
# ---------------------------------------------------------------------------

GALERKIN = "galerkin"


def _layout(dim):
    """``(name, kind)`` of each nodal block of a snapshot, in file order:
    ``time``, then the state's arrays one component per block."""
    return ([("time", "neumann"), ("rho", "neumann")]
            + [(f"u{c}", "dirichlet") for c in range(dim)]
            + [("theta", "neumann")]
            + [(f"d{k}", "neumann") for k in range(3)])


def _write_block(fh, name, kind, shape, values=(), cell="%.17g"):
    """One block: its header, then a line of ``cell`` per index along the
    first axis, the whole body formatted by a single ``%`` over ``values``.
    A constant block passes its value already formatted as ``cell`` and no
    values, so the value is formatted once."""
    row = " ".join([cell] * (math.prod(shape) // shape[0])) + "\n"
    fh.write(f"FIELD {name} {kind} {' '.join(map(str, shape))}\n")
    fh.write((row * shape[0]) % tuple(values))


def write_snapshot(path, s):
    """One state as a plain-text snapshot, its history last when it has
    one."""
    layout = _layout(s.grid.dim)
    with open(path, "w", encoding="utf-8") as fh:
        _write_block(fh, *layout[0], s.grid.shape, cell="%.17g" % s.t)
        for (name, kind), values in zip(layout[1:],
                                        [s.rho, *s.u, s.theta, *s.d]):
            _write_block(fh, name, kind, values.shape, values.ravel().tolist())
        if s.history:
            table = np.array([np.concatenate(([dt], U.ravel()))
                              for dt, U in s.history])
            _write_block(fh, "history", GALERKIN, table.shape,
                         table.ravel().tolist())


def _read_blocks(path, grid):
    """Every block of a snapshot as ``{name: (kind, array)}``: a nodal
    block's array has the grid's shape, a ``galerkin`` table the row and
    column counts of its header.  Any malformed block is an IOFailure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOFailure(f"cannot read snapshot {path!r}: {exc}") from None
    lead, *chunks = ("\n" + text).split("\nFIELD ")
    if lead.strip():
        raise IOFailure(f"snapshot {path!r}: values before any FIELD header")
    blocks = {}
    for chunk in chunks:
        header, _, body = chunk.partition("\n")
        try:
            name, kind, *dims = header.split()
            shape = tuple(int(n) for n in dims)
            known = (kind in ("neumann", "dirichlet") and shape == grid.shape
                     or kind == GALERKIN and len(shape) == 2
                     and min(shape) >= 0)
        except ValueError:
            known = False
        if not known:
            raise IOFailure(
                f"snapshot {path!r}: header {'FIELD ' + header.strip()!r} "
                f"is neither a nodal block on the grid {grid.shape} nor a "
                f"{GALERKIN} table")
        try:    # a non-numeric value, or a count other than the header's
            values = np.array(list(map(float, body.split()))).reshape(shape)
        except ValueError as exc:
            raise IOFailure(f"snapshot {path!r}: block {name!r}: {exc}") \
                from None
        blocks[name] = (kind, values)
    return blocks


def read_snapshot(path, grid):
    """The State stored by :func:`write_snapshot`, with its history when
    the file has one.  Each nodal block's stored kind must be the one
    :func:`_layout` gives it (ParityMismatch)."""
    blocks = _read_blocks(path, grid)
    layout = _layout(grid.dim)
    missing = [name for name, _ in layout if name not in blocks]
    if missing:
        raise IOFailure(f"snapshot {path!r} lacks fields {missing}")
    for name, kind in layout:
        if blocks[name][0] != kind:
            raise ParityMismatch(
                f"snapshot {path!r} stores {name} as {blocks[name][0]}, "
                f"the state needs {kind}")
    time, rho, *rest = (blocks[name][1] for name, _ in layout)
    dim, history = grid.dim, ()
    if "history" in blocks:
        kind, rows = blocks["history"]
        if kind != GALERKIN or rows.shape[1] < 1 or (rows.shape[1] - 1) % dim:
            raise IOFailure(f"snapshot {path!r}: history is not a table of "
                            f"dt and {dim}-component Galerkin coefficients")
        history = tuple((float(row[0]), row[1:].reshape(-1, dim))
                        for row in rows)
    return sv.State(grid, float(time.flat[0]), rho, rest[:dim], rest[dim],
                    rest[dim + 1:], history)


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
    return presets.build(cfg.init.preset, cfg.grid, base=cfg.init.base,
                         amplitude=cfg.init.amplitude, width=cfg.init.width)


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
    res_ids = list(dict.fromkeys(cfg.output.residuals))
    cadence = cfg.output.cadence
    csv = battery = prev = None
    k = snapped = -1        # indices of ``prev`` and of the last snapshot
    try:
        for s, rec in sv.run(_prepared_state(cfg), cfg.reg, cfg.solver,
                             cfg.phys):
            if rec is None:
                _write_text(os.path.join(out, "config.resolved"),
                            cf.serialize(cfg))
                csv = open(os.path.join(out, "diagnostics.csv"), "w",
                           encoding="utf-8")
                csv.write(dg.csv_header(res_ids))
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
            csv.write(dg.csv_line(last, residuals))
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
    """``solve continuation``: write ``config.resolved``, then stream each
    run's ``run_XX.csv`` as its states arrive, and write ``report.json``
    once the study has ended.  A failed run keeps the files of the runs
    before it, and its error names the schedule entry."""
    cfg = cf.parse_config(config_path)
    out = _out_dir(cfg)
    raw = _initial_state(cfg)
    _write_text(os.path.join(out, "config.resolved"), cf.serialize(cfg))
    report = ct.run_study(cfg, raw, csv_dir=out)
    _write_text(os.path.join(out, "report.json"),
                json.dumps(report, indent=2, sort_keys=True) + "\n")
    for line in summarize_report(report):
        print(line)
    print(f"outputs in {out}")
    return 0


def summarize_report(report):
    lines = [f"continuation study: {report['study']} "
             f"({len(report['runs'])} runs)"]
    for r in report["runs"]:
        lines.append(
            "  n=%d eps=%g delta=%g  E_max/E_0=%.9f" %
            (r["n_modes"], r["eps"], r["delta"], r["energy_max_ratio"]))
    for name, entry in report["decay"].items():
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

    lines = [f"# nlcflow-csv v{dg.CSV_VERSION}",
             ",".join([label] + list(_ERR_KEYS))]
    for val, errs in rows:
        lines.append(",".join(
            [dg.format_float(val)]
            + [dg.format_float(errs[k]) for k in _ERR_KEYS]))
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
        print(",".join(dg.format_float(v) for v in (
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
