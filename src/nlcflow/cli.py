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
import re
import sys

import numpy as np

from . import config as cf
from . import continuation as ct
from . import diagnostics as dg
from . import mms as mm
from . import presets
from . import solver as sv
from .errors import FlowError, IOFailure, ParseError, SolverFailure, \
    TooManyModes, ValidationError


# ---------------------------------------------------------------------------
# snapshots
#
# A snapshot is plain text: the blocks of ``_LAYOUT`` in its order, each a
# header line ``FIELD <name> <kind> <dims...>`` followed by rows of
# ``%.17g`` values, one row per index along the first dimension, so every
# float round-trips exactly.  ``time`` holds t as a 1x1 ``galerkin``
# table; the ``neumann`` (all-cosine) nodal blocks ``rho``, ``theta`` and
# ``d0``-``d2`` have the grid's shape; ``velocity`` is the n x dim
# ``galerkin`` table of the state's Galerkin coefficients, n >= 1.  The
# reader takes exactly these blocks under exactly these headers, and
# nothing else: this layout is the whole contract of the format.
#
# The solver history goes to a binary file beside the snapshot
# (:func:`history_path`: ``hist_000006.bin`` beside ``snap_000006.dat``):
# one ASCII header line ``nlcflow-history 2 <levels> <n> <dim> <grid
# shape...>``, then per level, newest first, its dt, its n x dim table,
# its nodal theta and its nodal director stack (3 x grid shape) as
# little-endian float64.  Every snapshot has one, with no levels for a
# state without history.  Only a restart reads it (:func:`read_restart`),
# and only this version: a restart from a snapshot without its history
# file is not predicted on its first step, and one whose history file has
# another version, such as the version-1 files without the director, is
# an input failure.
# ---------------------------------------------------------------------------

_HISTORY_MAGIC = "nlcflow-history"
_HISTORY_VERSION = 2

# ``(name, kind)`` of each block of a snapshot, in file order
_LAYOUT = ((("time", "galerkin"), ("rho", "neumann"), ("theta", "neumann"))
           + tuple((f"d{k}", "neumann") for k in range(3))
           + (("velocity", "galerkin"),))

_ROWS = re.compile(r"[1-9][0-9]*")      # a velocity table's row count


def _header(name, kind, shape):
    """The header line, without its newline, of a block of ``shape``."""
    return f"FIELD {name} {kind} {' '.join(map(str, shape))}"


def _write_block(fh, name, kind, values):
    """One block: its header, then a line of ``%.17g`` values per index
    along the first axis, the whole body formatted by a single ``%``."""
    shape = values.shape
    row = " ".join(["%.17g"] * (values.size // shape[0])) + "\n"
    fh.write(_header(name, kind, shape) + "\n")
    fh.write((row * shape[0]) % tuple(values.ravel().tolist()))


def history_path(path):
    """The history file beside the snapshot ``path``: ``snap_`` and the
    extension of its name give way to ``hist_`` and ``.bin``, so no
    history file is named like a snapshot."""
    head, name = os.path.split(path)
    stem = os.path.splitext(name)[0].removeprefix("snap_")
    return os.path.join(head, f"hist_{stem}.bin")


def _write_history(path, s):
    """The history of ``s`` as the binary file ``path``, written as raw
    bytes so that a rerun writes the same ones, each array straight from
    its level: the file is about four grids per level, and no copy of it
    is held.  Its levels must share one table shape, as every history a
    step builds does."""
    grid, levels = s.grid, s.history
    n = len(levels[0][1]) if levels else len(s.U)
    if any(U.shape != (n, grid.dim) or th.shape != grid.shape
           or d.shape != (3,) + grid.shape for _, U, th, d in levels):
        raise ValueError("history levels of more than one shape")
    header = " ".join(map(str, (_HISTORY_MAGIC, _HISTORY_VERSION,
                                len(levels), n, grid.dim, *grid.shape)))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for level in levels:
            for part in level:
                np.asarray(part, dtype="<f8").tofile(fh)


def _read_history(path, grid):
    """The history stored by :func:`_write_history`, ``()`` when there is
    no file.  A header that is not this version's for ``grid``, a payload
    of another size, or a non-finite value is an IOFailure."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return ()
    except OSError as exc:
        raise IOFailure(f"cannot read history {path!r}: {exc}") from None
    line, _, payload = raw.partition(b"\n")
    try:    # UnicodeDecodeError is a ValueError
        magic, *counts = line.decode("ascii").split()
        version, levels, n, dim, *shape = map(int, counts)
    except ValueError:
        magic = None
    if (magic != _HISTORY_MAGIC or version != _HISTORY_VERSION
            or levels < 0 or n < 1 or dim != grid.dim
            or tuple(shape) != grid.shape):
        raise IOFailure(f"history {path!r}: header {line[:80]!r} is not "
                        f"{_HISTORY_MAGIC} {_HISTORY_VERSION} of n >= 1 "
                        f"modes on the grid {grid.shape}")
    nodes = math.prod(grid.shape)
    width = 1 + n * dim + 4 * nodes
    if len(payload) != 8 * levels * width:
        raise IOFailure(f"history {path!r}: {len(payload)} bytes, "
                        f"{levels} levels need {8 * levels * width}")
    rows = np.frombuffer(payload, dtype="<f8").reshape(levels, width)
    if not np.isfinite(rows).all():
        raise IOFailure(f"history {path!r} holds a non-finite value")
    theta = 1 + n * dim
    return tuple((float(row[0]), row[1:theta].reshape(n, dim),
                  row[theta:theta + nodes].reshape(grid.shape),
                  row[theta + nodes:].reshape((3,) + grid.shape))
                 for row in rows)


def write_snapshot(path, s):
    """One state as a plain-text snapshot and its history as the binary
    file :func:`history_path` beside it."""
    arrays = [np.array([[s.t]]), s.rho, s.theta, *s.d, s.U]
    with open(path, "w", encoding="utf-8") as fh:
        for (name, kind), values in zip(_LAYOUT, arrays):
            _write_block(fh, name, kind, values)
    _write_history(history_path(path), s)


def _layout_shape(name, grid, header):
    """The dims the writer gives block ``name`` on ``grid``: 1x1 for t,
    n x dim for the velocity table, with the row count n >= 1 read from
    its ``header`` (``n`` where that gives none), and the grid's shape for
    a nodal block."""
    if name == "time":
        return (1, 1)
    if name == "velocity":
        rows = header.split()[3:4]
        return (int(rows[0]) if rows and _ROWS.fullmatch(rows[0]) else "n",
                grid.dim)
    return grid.shape


def read_snapshot(path, grid):
    """The State stored by :func:`write_snapshot`, without its history
    (:func:`read_restart` adds it).  The file is read block by block in
    the order of ``_LAYOUT``, and each header must be the one the writer
    writes (see :func:`_layout_shape`).  A block that is missing, extra or
    under another header, a malformed or non-finite value, or a velocity
    table of more modes than the grid admits is an IOFailure: no accepted
    state holds any of these, and no writer writes them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOFailure(f"cannot read snapshot {path!r}: {exc}") from None
    lead, *chunks = ("\n" + text).split("\nFIELD ")
    if lead.strip():
        raise IOFailure(f"snapshot {path!r}: values before any FIELD header")
    values = []
    for i, chunk in enumerate(chunks):
        header, _, body = chunk.partition("\n")
        header = "FIELD " + header
        if i == len(_LAYOUT):
            raise IOFailure(f"snapshot {path!r}: header {header!r} follows "
                            f"the last block, {_LAYOUT[-1][0]!r}")
        name, kind = _LAYOUT[i]
        shape = _layout_shape(name, grid, header)
        want = _header(name, kind, shape)
        if header != want:
            raise IOFailure(f"snapshot {path!r}: header {header!r} is not "
                            f"{want!r}" + (", n >= 1" if name == "velocity"
                                           else ""))
        cells = body.split()
        try:    # a non-numeric value, or a count other than the header's
            if len(cells) != math.prod(shape):
                raise ValueError(f"{len(cells)} values for the shape {shape}")
            block = np.fromiter(map(float, cells), np.float64,
                                len(cells)).reshape(shape)
        except ValueError as exc:
            raise IOFailure(f"snapshot {path!r}: block {name!r}: {exc}") \
                from None
        if not np.isfinite(block).all():
            raise IOFailure(f"snapshot {path!r}: block {name!r} holds a "
                            f"non-finite value")
        values.append(block)
    if len(values) < len(_LAYOUT):
        name, kind = _LAYOUT[len(values)]
        want = _header(name, kind, _layout_shape(name, grid, ""))
        raise IOFailure(f"snapshot {path!r} ends before the header {want!r}")
    time, rho, theta, *d, U = values
    try:
        return sv.State(grid, float(time[0, 0]), rho, U, theta, d)
    except TooManyModes as exc:
        raise IOFailure(f"snapshot {path!r}: the velocity table holds "
                        f"{exc.n_modes} modes, the grid {grid.shape} admits "
                        f"{exc.admissible}") from None


def read_restart(path, grid):
    """The state a restart from the snapshot ``path`` continues from: the
    snapshot (:func:`read_snapshot`) with the history of the file beside
    it (:func:`history_path`), no history when there is no such file."""
    s = read_snapshot(path, grid)
    return sv.State(grid, s.t, s.rho, s.U, s.theta, s.d,
                    _read_history(history_path(path), grid))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(cfg):
    path = os.environ.get("SOLVE_OUT") or cfg.output.dir
    os.makedirs(path, exist_ok=True)
    return path


def _initial_state(cfg):
    """The raw initial data of a study: the snapshot ``init.snapshot``
    without its history, which a regularized start does not read, or the
    preset."""
    if cfg.init.snapshot is not None:
        return read_snapshot(cfg.init.snapshot, cfg.grid)
    return presets.build(cfg.init.preset, cfg.grid, base=cfg.init.base,
                         amplitude=cfg.init.amplitude)


def _prepared_state(cfg):
    """The run's starting state.  A snapshot restart continues the run it
    came from: its state, its t and its history are used as stored, not
    regularized."""
    if cfg.init.snapshot is not None:
        return read_restart(cfg.init.snapshot, cfg.grid)
    return ct._prepare_state(_initial_state(cfg), cfg.reg)


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
    """``solve run``: :func:`diagnostics.stream` writes the CSV rows; each
    state's snapshot is written on the cadence, and the last accepted one
    always, also when a step fails; no state is kept past the next.  The
    closing line ends with the run's work counts, summed over its
    StepRecords: Picard sweeps per step, director fixed-point iterations
    per sweep and heat-operator applies per step."""
    cfg = cf.parse_config(config_path)
    out = _out_dir(cfg)
    cadence = cfg.output.cadence
    k = snapped = -1        # indices of ``last`` and of the last snapshot
    sweeps = iters = applies = 0
    try:
        for last, rec, diag in dg.stream(
                _prepared_state(cfg), cfg.reg, cfg.solver, cfg.phys,
                os.path.join(out, "diagnostics.csv"), cfg.output.residuals):
            if rec is None:
                _write_text(os.path.join(out, "config.resolved"),
                            cf.serialize(cfg))
            else:
                sweeps += rec.picard_iters
                iters += rec.director_iters
                applies += rec.heat_applies
            k += 1
            if cadence > 0 and k % cadence == 0:
                write_snapshot(os.path.join(out, "snap_%06d.dat" % k), last)
                snapped = k
    finally:
        if k > snapped:
            write_snapshot(os.path.join(out, "snap_%06d.dat" % k), last)
    print(f"run complete: steps={k} t={last.t:.6g} "
          f"mass={diag.mass:.12g} energy={diag.energy_total:.12g} "
          f"sweeps/step={sweeps / max(k, 1):.4f} "
          f"director_iters/sweep={iters / max(sweeps, 1):.4f} "
          f"heat_applies/step={applies / max(k, 1):.4f}")
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
    report = ct.run_study(cfg, raw, out)
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
    """``solve mms``: append each run's row to ``mms_<case>.csv``, flushed,
    and print its line as the run ends; write ``mms_<case>_orders.json``
    once the study has ended.  A failed study keeps the rows of its
    finished runs and writes no orders file.  A ``reg.n_modes`` that one
    of the study's grids cannot hold ends it before any file is written."""
    cfg = cf.parse_config(config_path)
    case = mm.get_case(case_name)
    label = "resolution" if case.kind == "spatial" else "dt"
    spec = cfg.mms
    # each grid's basis, cached for its run, raises TooManyModes here
    for n in spec.resolutions if case.kind == "spatial" else (spec.shape,):
        sv.galerkin_basis(mm.case_grid(case, n), cfg.reg.n_modes)
    out = _out_dir(cfg)
    print(f"mms case {case.name} ({case.kind})")
    rows = []
    with open(os.path.join(out, f"mms_{case.name}.csv"), "w",
              encoding="utf-8") as csv:
        csv.write(dg.csv_header([label, *_ERR_KEYS]))
        csv.flush()
        for val, errs in mm.study(case, cfg.reg, cfg.phys, cfg.solver,
                                  spec.resolutions, spec.dts, spec.shape):
            csv.write(dg.csv_line([val] + [errs[k] for k in _ERR_KEYS]))
            csv.flush()
            print("  %s=%-10g total_error=%.6e" % (label, val, errs["total"]))
            rows.append((val, errs))
    summary, shown = mm.summarize(case, rows)
    _write_text(os.path.join(out, f"mms_{case.name}_orders.json"),
                json.dumps(_finite_or_null(summary), indent=2,
                           sort_keys=True) + "\n")
    print("observed order(s): " + ", ".join(
        "at round-off" if o is None else "%.3f" % o for o in shown))
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
    # no version line: readers take the first line printed as the header
    print("t,mass,energy_total,entropy_total,director_sup")
    for name in names:
        s = read_snapshot(os.path.join(directory, name), cfg.grid)
        rec = dg.make_record(s, cfg.reg, cfg.phys)
        print(dg.csv_line((rec.t, rec.mass, rec.energy_total,
                           rec.entropy_total, rec.director_sup)), end="")
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
