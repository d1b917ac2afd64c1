"""Families of runs along regularization schedules.

The paper reaches its weak solutions through three approximation levels,
and each study runs one of them: retained-mode refinement (``galerkin``, n
increasing), vanishing artificial mass diffusion (``viscosity``, eps
decreasing at fixed delta) and vanishing artificial pressure (``pressure``,
delta decreasing at small fixed eps).  :func:`run_study` drives one raw
initial state through the solver once per schedule entry of a RunConfig,
streams each run's diagnostics rows to ``run_XX.csv`` as its states arrive,
and returns a report of

* per-run summaries (time-integrated weighted functionals),
* uniform bounds (sup over the family of each monitored functional),
* decay quantities expected to vanish along the schedule, with a
  nonincreasing-within-5% flag,
* distances between the final states of consecutive runs
  (self-convergence surrogates: rho in L1, u and theta in L2, d in a
  first-order Sobolev surrogate).

``STUDIES`` holds what the studies differ in.  A report is a JSON-ready
dict, deterministic given the config and the initial state.  A solver
failure names the schedule entry it ended.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedSnapshots, SolverFailure, TooManyModes
from .fields import integrate_values, spectral_plan
from . import diagnostics as dg
from . import solver as sv


@dataclass(frozen=True)
class Study:
    bounds: tuple          # summary keys given a uniform bound
    decay: dict            # decay name -> ("runs" | "distances", key)
    oscillation: bool      # distance rows add rho_oscillation


STUDIES = {
    "galerkin": Study(
        bounds=("energy_max_ratio",),
        decay={"u_self_distance": ("distances", "u_l2")},
        oscillation=False),
    "viscosity": Study(
        bounds=("energy_max_ratio", "eps_grad_rho_sq"),
        decay={"eps_lap_rho": ("runs", "eps_lap_rho")},
        oscillation=False),
    "pressure": Study(
        bounds=("energy_max_ratio", "theta_norm"),
        decay={"delta_rho_beta": ("runs", "delta_rho_beta"),
               "delta_theta_pow": ("runs", "delta_theta_pow")},
        oscillation=True),
}


def _prepare_state(raw, reg):
    """The regularized starting state of a run with ``reg``; ``solve run``
    starts from it too."""
    return sv.regularize_initial_data(
        raw.grid, raw.rho, raw.rho * raw.u, raw.theta, raw.d, reg)


def _execute(cfg, s0, reg, csv_path):
    """One schedule entry from its prepared state ``s0``, its rows streamed
    to ``csv_path``: fold the time-integrated functionals as each state
    arrives, and return them with the final state."""
    grid = s0.grid
    plan = spectral_plan(grid)
    p = cfg.phys
    alpha1 = p.cond_growth + 1.0
    acc = {"grad_rho_sq": 0.0, "lap_rho_sq": 0.0, "rho_beta": 0.0,
           "theta_pow": 0.0, "pressure_weight": 0.0}
    emax_ratio = 1.0
    steps = -1
    for s, rec, diag in dg.stream(s0, reg, cfg.solver, p, csv_path):
        steps += 1
        if rec is None:
            energy_initial = diag.energy_total
            continue
        dt = rec.dt
        emax_ratio = max(emax_ratio, diag.energy_total / energy_initial)
        acc["grad_rho_sq"] += dt * integrate_values(
            grid, dg._sum_sq(grid, s.grad_rho))
        acc["lap_rho_sq"] += dt * integrate_values(
            grid, plan.div(s.grad_rho) ** 2)
        acc["rho_beta"] += dt * integrate_values(
            grid, np.maximum(s.rho, 0.0) ** reg.beta)
        acc["theta_pow"] += dt * integrate_values(
            grid, np.maximum(s.theta, 0.0) ** alpha1)
        acc["pressure_weight"] += diag.pressure_weight_increment

    summary = {
        "n_modes": reg.n_modes,
        "eps": reg.eps,
        "delta": reg.delta,
        "steps": steps,
        "energy_initial": energy_initial,
        "energy_max_ratio": emax_ratio,
        "eps_grad_rho_sq": reg.eps * acc["grad_rho_sq"],
        "eps_lap_rho": reg.eps * float(np.sqrt(acc["lap_rho_sq"])),
        "delta_rho_beta": reg.delta * acc["rho_beta"],
        "delta_theta_pow": reg.delta * acc["theta_pow"],
        "theta_norm": acc["theta_pow"] ** (1.0 / alpha1),
        "pressure_weight": acc["pressure_weight"],
        "final_time": diag.t,
    }
    return summary, s


def _state_distances(a, b):
    grid = a.grid
    if grid != b.grid:
        raise MismatchedSnapshots("snapshot grids differ")
    rho_l1 = integrate_values(grid, np.abs(a.rho - b.rho))
    u_sq = 0.0
    for c in range(grid.dim):
        u_sq += integrate_values(grid, (a.u[c] - b.u[c]) ** 2)
    th_sq = integrate_values(grid, (a.theta - b.theta) ** 2)
    diff = a.d - b.d
    grad = spectral_plan(grid).grad(diff)
    d_sq = 0.0
    for k in range(3):
        d_sq += integrate_values(grid, diff[k] ** 2)
        d_sq += integrate_values(grid, dg._sum_sq(grid, grad[:, k]))
    return {
        "rho_l1": float(rho_l1),
        "u_l2": float(np.sqrt(u_sq)),
        "theta_l2": float(np.sqrt(th_sq)),
        "d_h1": float(np.sqrt(d_sq)),
    }


def _pair_distances(i, sa, sb, gamma=None):
    """The distance row between the final states ``sa`` and ``sb`` of runs
    i and i + 1."""
    if abs(sa.t - sb.t) > 1e-9 * max(1.0, abs(sa.t)):
        raise MismatchedSnapshots(f"snapshot times differ: {sa.t} vs {sb.t}")
    row = {"pair": [i, i + 1], "t": sa.t}
    row.update(_state_distances(sa, sb))
    if gamma is not None:
        row["rho_oscillation"] = dg.oscillation_defect(
            sa.grid, sb.rho, sa.rho, gamma)
    return row


def _decay_entry(values):
    ok = all(b <= a * 1.05 for a, b in zip(values, values[1:]))
    rates = [float(b / a) if a != 0 else 0.0
             for a, b in zip(values, values[1:])]
    return {"values": [float(v) for v in values], "rates": rates,
            "nonincreasing_5pct": ok}


def _uniform(summaries, keys):
    # spread stays finite even for degenerate families: 1 when every run
    # reports zero, 0 when only some do (the raw values sit in runs[]).
    out = {}
    for key in keys:
        vals = [s[key] for s in summaries]
        out[key] = max(vals)
        if min(vals) > 0:
            out[key + "_spread"] = max(vals) / min(vals)
        else:
            out[key + "_spread"] = 1.0 if max(vals) == 0 else 0.0
    return out


def run_study(cfg, raw, out):
    """Run the study of ``cfg.cont`` from the raw initial state ``raw``,
    regularized afresh for each schedule entry, streaming the runs' rows
    to ``run_00.csv``, ``run_01.csv``, ... in the directory ``out``.  Each
    run's final state is compared with the previous run's as soon as it
    ends, and only the latest is kept.  An entry's CSV is opened when its
    first state arrives, so an entry whose mode count the grid cannot hold
    leaves no file."""
    study = STUDIES[cfg.cont.study]
    gamma = cfg.phys.gamma if study.oscillation else None
    runs, distances, prev = [], [], None
    for i, reg in enumerate(cfg.cont.schedule):
        entry = (f"schedule entry {i} (n={reg.n_modes}, eps={reg.eps!r}, "
                 f"delta={reg.delta!r})")
        try:
            summary, final = _execute(cfg, _prepare_state(raw, reg), reg,
                                      os.path.join(out, "run_%02d.csv" % i))
        except TooManyModes as exc:
            exc.key, exc.entry = "continuation.n", entry
            raise
        except SolverFailure as exc:
            exc.entry = entry
            raise
        if prev is not None:
            distances.append(_pair_distances(i - 1, prev, final, gamma))
        prev = final
        runs.append(summary)
    rows = {"runs": runs, "distances": distances}
    decay = {}
    for name, (source, key) in study.decay.items():
        values = [row[key] for row in rows[source]]
        if values:
            decay[name] = _decay_entry(values)
    return {"study": cfg.cont.study, "runs": runs,
            "uniform_bounds": _uniform(runs, study.bounds),
            "decay": decay, "distances": distances}
