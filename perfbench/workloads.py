"""The benchmark's workloads: configs made from a seed, and output checks.

Every check rests on a property the scheme must have or on a value computed
here apart from the program (the closed-form mass, the step count t_end/dt);
none compares against stored output.  Files are parsed with this module's
own readers, not with nlcflow's.
"""

import json
import math
import os
import random

# Every preset here has base density 1 on the box [0, 2]^2, and its
# perturbations integrate to zero, so the mass is base * |Omega| = 4.
EXTENT = 2.0
BASE = 1.0
MASS = BASE * EXTENT * EXTENT

# Half-width of the seeded amplitude range, as a share of the nominal
# amplitude.  Within it no step of any workload halves dt.
AMPLITUDE_SPREAD = 0.1


def amplitude(nominal, seed):
    """Initial-data amplitude for ``seed``: uniform in nominal * [0.9, 1.1]."""
    u = random.Random(seed).random()
    return nominal * (1.0 + AMPLITUDE_SPREAD * (2.0 * u - 1.0))


def config_text(entries):
    return "".join(f"{key} = {value}\n" for key, value in entries)


def _common(shape, dt, t_end, preset, amp):
    return [("grid.dim", 2), ("grid.shape", shape), ("grid.extents", EXTENT),
            ("solver.dt", dt), ("solver.t_end", t_end),
            ("init.preset", preset), ("init.base", BASE),
            ("init.amplitude", repr(amp)), ("output.dir", "out")]


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_csv(path):
    """Rows of a diagnostics CSV as dicts of floats."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    names = lines[0].split(",")
    return [dict(zip(names, map(float, ln.split(",")))) for ln in lines[1:]]


def field_minima(path):
    """Minimum nodal value of every field in a snapshot file."""
    mins = {}
    name = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("FIELD "):
                name = line.split()[1]
                mins[name] = math.inf
            elif line.strip():
                mins[name] = min(mins[name],
                                 min(float(v) for v in line.split()))
    return mins


def read_diagnose(path):
    """Rows printed by ``solve diagnose`` as dicts of floats."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    names = lines[0].split(",")
    return [dict(zip(names, map(float, ln.split(","))))
            for ln in lines[1:] if not ln.startswith("diagnosed ")]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_trajectory(label, rows, t_end, dt):
    """Properties every run's diagnostics CSV must have."""
    bad = []
    want = round(t_end / dt)
    if len(rows) - 1 != want:
        bad.append(f"{label}: {len(rows) - 1} steps, expected t_end/dt = "
                   f"{want}")
    if abs(rows[-1]["t"] - t_end) > 1e-12 * t_end:
        bad.append(f"{label}: final t = {rows[-1]['t']!r}, expected {t_end}")
    e0 = rows[0]["energy_total"]
    sup0 = max(1.0, rows[0]["director_sup"])
    for k, row in enumerate(rows):
        if abs(row["mass"] - MASS) > 1e-12 * MASS:
            bad.append(f"{label} row {k}: mass {row['mass']!r} != {MASS}")
        if k and row["energy_total"] > (rows[k - 1]["energy_total"]
                                        + 1e-8 * abs(e0)):
            bad.append(f"{label} row {k}: energy rose to "
                       f"{row['energy_total']!r}")
        if row["entropy_production_min"] < -1e-12:
            bad.append(f"{label} row {k}: entropy production min "
                       f"{row['entropy_production_min']!r} < 0")
        if row["director_sup"] > sup0 + 1e-8:
            bad.append(f"{label} row {k}: |d| sup {row['director_sup']!r}")
        if row.get("res_identity", 0.0) > 1e-10:
            bad.append(f"{label} row {k}: res_identity "
                       f"{row['res_identity']!r} > 1e-10")
    return bad


def check_final_snapshot(out):
    snaps = sorted(n for n in os.listdir(out) if n.startswith("snap_"))
    if not snaps:
        return [f"no snapshot in {out}"]
    mins = field_minima(os.path.join(out, snaps[-1]))
    return [f"{snaps[-1]}: min {name} = {mins.get(name)!r}, not > 0"
            for name in ("rho", "theta") if not mins.get(name, 0.0) > 0.0]


def check_replay(csv_rows, diag_rows):
    """``solve diagnose`` must reproduce the run's CSV row at each t."""
    by_t = {row["t"]: row for row in csv_rows}
    bad = []
    if len(diag_rows) != len(csv_rows):
        bad.append(f"diagnose printed {len(diag_rows)} rows for "
                   f"{len(csv_rows)} CSV rows")
    for row in diag_rows:
        ref = by_t.get(row["t"])
        if ref is None:
            bad.append(f"diagnose row at t={row['t']!r} has no CSV row")
            continue
        for key, val in row.items():
            if abs(val - ref[key]) > 1e-12 * max(1.0, abs(ref[key])):
                bad.append(f"diagnose t={row['t']!r}: {key} {val!r} != "
                           f"{ref[key]!r}")
    return bad


def check_pressure_report(report):
    bad = []
    beta_terms = [r["delta_rho_beta"] for r in report["runs"]]
    if not all(b < a for a, b in zip(beta_terms, beta_terms[1:])):
        bad.append(f"delta_rho_beta not strictly decreasing: {beta_terms}")
    for name, entry in report["decay"].items():
        if not entry["nonincreasing_5pct"]:
            bad.append(f"decay flag {name} is not ok")
    spread = report["uniform_bounds"]["theta_norm_spread"]
    if not spread <= 2.0:
        bad.append(f"theta_norm_spread {spread!r} > 2")
    for i, r in enumerate(report["runs"]):
        if not r["energy_max_ratio"] <= 1.0 + 1e-8:
            bad.append(f"run {i}: energy_max_ratio {r['energy_max_ratio']!r}")
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Each workload has a ``name``, the ``nominal`` amplitude of its initial
# data, ``inputs(seed)`` giving its config files and the solve command lines
# (run in the round's directory, outputs under ``out``), and ``check(work)``
# giving (problems found, steps recorded in the CSVs).  Why each workload was
# chosen is recorded in BENCHMARK.json and README.md.

class RunBump128:
    name = "run-bump-128"
    nominal = 0.4
    dt, t_end = 1e-3, 0.03

    def inputs(self, seed):
        cfg = _common(128, self.dt, self.t_end, "density-bump",
                      amplitude(self.nominal, seed)) + [
            ("reg.eps", 1e-2), ("reg.delta", 1e-3), ("reg.n_modes", 8),
            ("output.cadence", 0), ("output.residuals", "identity")]
        return {"run.cfg": config_text(cfg)}, [["run", "run.cfg"]]

    def check(self, work):
        out = os.path.join(work, "out")
        rows = read_csv(os.path.join(out, "diagnostics.csv"))
        bad = check_trajectory("diagnostics.csv", rows, self.t_end, self.dt)
        return bad + check_final_snapshot(out), len(rows) - 1


class AuditTwist32:
    name = "audit-twist-32"
    nominal = 0.6
    dt, t_end = 1e-3, 0.1

    def inputs(self, seed):
        cfg = _common(32, self.dt, self.t_end, "director-twist",
                      amplitude(self.nominal, seed)) + [
            ("reg.eps", 1e-2), ("reg.delta", 1e-3), ("reg.n_modes", 8),
            ("output.cadence", 1),
            ("output.residuals", "identity,T1,T2,T4")]
        return ({"run.cfg": config_text(cfg)},
                [["run", "run.cfg"], ["diagnose", "out"]])

    def check(self, work):
        out = os.path.join(work, "out")
        rows = read_csv(os.path.join(out, "diagnostics.csv"))
        bad = check_trajectory("diagnostics.csv", rows, self.t_end, self.dt)
        bad += check_final_snapshot(out)
        bad += check_replay(rows, read_diagnose(
            os.path.join(work, "stdout_1.txt")))
        return bad, len(rows) - 1


class ContinuationPressure32:
    name = "continuation-pressure-32"
    nominal = 0.4
    dt, t_end = 1e-3, 0.02
    deltas = (1e-2, 1e-3, 1e-4)

    def inputs(self, seed):
        cfg = _common(32, self.dt, self.t_end, "density-bump",
                      amplitude(self.nominal, seed)) + [
            ("continuation.study", "pressure"), ("continuation.n", 8),
            ("continuation.eps", 1e-3),
            ("continuation.delta", ",".join(repr(d) for d in self.deltas))]
        return ({"continuation.cfg": config_text(cfg)},
                [["continuation", "continuation.cfg"]])

    def check(self, work):
        out = os.path.join(work, "out")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            bad = check_pressure_report(json.load(fh))
        steps = 0
        for i in range(len(self.deltas)):
            name = "run_%02d.csv" % i
            rows = read_csv(os.path.join(out, name))
            bad += check_trajectory(name, rows, self.t_end, self.dt)
            steps += len(rows) - 1
        return bad, steps


WORKLOADS = {w.name: w for w in (RunBump128(), AuditTwist32(),
                                 ContinuationPressure32())}
