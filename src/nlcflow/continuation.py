"""Families of runs along regularization schedules.

Three desk-scale limit studies: retained-mode refinement (n increasing),
vanishing artificial mass diffusion (eps decreasing at fixed delta), and
vanishing artificial pressure (delta decreasing at small fixed eps).  Each
drives the same initial data through the solver once per schedule entry and
assembles a report of

* per-run summaries (time-integrated weighted functionals),
* uniform bounds (sup over the family of each monitored functional),
* decay quantities expected to vanish along the schedule, with a
  nonincreasing-within-5% flag,
* pairwise distances between consecutive runs at matched snapshot times
  (self-convergence surrogates: rho in L1, u and theta in L2, d in a
  first-order Sobolev surrogate).

Reports are plain data (JSON-ready dicts) and deterministic given the plan.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MismatchedSnapshots, ValidationError
from .fields import integrate_values, neumann, spectral_plan
from .params import PhysParams, RegParams
from . import diagnostics as dg
from . import solver as sv


@dataclass
class ContinuationPlan:
    grid: object
    phys: PhysParams
    solver: sv.SolverConfig
    schedule: list                 # (n_modes, eps, delta) triples
    initial: object                # grid -> raw State
    beta: float = 5.0
    snapshot_times: tuple = ()     # defaults to (t_end,)
    theta_bounds: tuple = (0.1, 10.0)

    def normalized_snapshot_times(self):
        if self.snapshot_times:
            return tuple(float(t) for t in self.snapshot_times)
        return (float(self.solver.t_end),)

    def validate(self, study=None):
        if not self.schedule:
            raise ValidationError("continuation schedule is empty")
        for entry in self.schedule:
            if len(entry) != 3:
                raise ValidationError(
                    "schedule entries must be (n_modes, eps, delta)")
        eps_seq = [e for _, e, _ in self.schedule]
        delta_seq = [d for _, _, d in self.schedule]
        if study == "viscosity" and any(
                b > a for a, b in zip(eps_seq, eps_seq[1:])):
            raise ValidationError(
                "viscosity study needs a nonincreasing eps schedule")
        if study == "pressure" and any(
                b > a for a, b in zip(delta_seq, delta_seq[1:])):
            raise ValidationError(
                "pressure study needs a nonincreasing delta schedule")
        self.solver.validate()
        self.phys.validate()
        return self


@dataclass
class ContinuationReport:
    study: str
    runs: list
    uniform_bounds: dict
    decay: dict
    distances: list = field(default_factory=list)
    run_records: list = field(default_factory=list, repr=False)

    def to_json(self):
        """JSON-ready dict; per-run time series stay out (CSV material)."""
        return {
            "study": self.study,
            "runs": self.runs,
            "uniform_bounds": self.uniform_bounds,
            "decay": self.decay,
            "distances": self.distances,
        }


def _prepare_state(plan, reg):
    raw = plan.initial(plan.grid)
    return sv.regularize_initial_data(
        raw.grid, raw.rho, raw.rho * raw.u, raw.theta, raw.d, reg,
        theta_bounds=plan.theta_bounds)


def _execute(plan, reg):
    """One schedule entry: run it, folding the time-integrated functionals
    and the nearest-time snapshots as each state arrives."""
    grid = plan.grid
    p = plan.phys
    alpha1 = p.cond_growth + 1.0
    acc = {"grad_rho_sq": 0.0, "lap_rho_sq": 0.0, "rho_beta": 0.0,
           "theta_pow": 0.0, "pressure_weight": 0.0}
    emax_ratio = 1.0
    wanted = plan.normalized_snapshot_times()
    snaps = [None] * len(wanted)
    gaps = [math.inf] * len(wanted)
    records = []
    for s, rec in sv.run(_prepare_state(plan, reg), reg, plan.solver, p):
        diag = dg.make_record(s, reg, p, dt=None if rec is None else rec.dt)
        records.append(diag)
        # a strictly smaller gap replaces, so ties go to the earlier state
        for i, t_req in enumerate(wanted):
            if abs(s.t - t_req) < gaps[i]:
                snaps[i], gaps[i] = s, abs(s.t - t_req)
        if rec is None:
            continue
        dt = rec.dt
        emax_ratio = max(emax_ratio,
                         diag.energy_total / records[0].energy_total)
        acc["grad_rho_sq"] += dt * integrate_values(
            grid, dg._grad_sq(grid, s.rho))
        acc["lap_rho_sq"] += dt * integrate_values(
            grid, spectral_plan(grid).laplacian(s.rho, neumann(grid.dim)) ** 2)
        acc["rho_beta"] += dt * integrate_values(
            grid, np.maximum(s.rho, 0.0) ** reg.beta)
        acc["theta_pow"] += dt * integrate_values(
            grid, np.maximum(s.theta, 0.0) ** alpha1)
        acc["pressure_weight"] += diag.pressure_weight_increment

    summary = {
        "n_modes": reg.n_modes,
        "eps": reg.eps,
        "delta": reg.delta,
        "steps": len(records) - 1,
        "energy_initial": records[0].energy_total,
        "energy_max_ratio": emax_ratio,
        "eps_grad_rho_sq": reg.eps * acc["grad_rho_sq"],
        "eps_lap_rho": reg.eps * float(np.sqrt(acc["lap_rho_sq"])),
        "delta_rho_beta": reg.delta * acc["rho_beta"],
        "delta_theta_pow": reg.delta * acc["theta_pow"],
        "theta_norm": acc["theta_pow"] ** (1.0 / alpha1),
        "pressure_weight": acc["pressure_weight"],
        "final_time": records[-1].t,
    }
    return summary, snaps, records


def _state_distances(a, b):
    grid = a.grid
    if grid != b.grid:
        raise MismatchedSnapshots("snapshot grids differ")
    rho_l1 = integrate_values(grid, np.abs(a.rho - b.rho))
    u_sq = 0.0
    for c in range(grid.dim):
        u_sq += integrate_values(grid, (a.u[c] - b.u[c]) ** 2)
    th_sq = integrate_values(grid, (a.theta - b.theta) ** 2)
    d_sq = 0.0
    for k in range(3):
        diff = a.d[k] - b.d[k]
        d_sq += integrate_values(grid, diff ** 2)
        d_sq += integrate_values(grid, dg._grad_sq(grid, diff))
    return {
        "rho_l1": float(rho_l1),
        "u_l2": float(np.sqrt(u_sq)),
        "theta_l2": float(np.sqrt(th_sq)),
        "d_h1": float(np.sqrt(d_sq)),
    }


def _pair_distances(i, left, right, gamma=None):
    """Distance rows between the matched snapshots of runs i and i + 1."""
    if len(left) != len(right):
        raise MismatchedSnapshots("snapshot counts differ between runs")
    rows = []
    for sa, sb in zip(left, right):
        if abs(sa.t - sb.t) > 1e-9 * max(1.0, abs(sa.t)):
            raise MismatchedSnapshots(
                f"snapshot times differ: {sa.t} vs {sb.t}")
        row = {"pair": [i, i + 1], "t": sa.t}
        row.update(_state_distances(sa, sb))
        if gamma is not None:
            row["rho_oscillation"] = dg.oscillation_defect(
                sa.grid, [sb.rho], sa.rho, gamma)
        rows.append(row)
    return rows


def _decay_entry(values):
    ok = all(b <= a * 1.05 for a, b in zip(values, values[1:]))
    rates = [float(b / a) if a != 0 else 0.0
             for a, b in zip(values, values[1:])]
    return {"values": [float(v) for v in values], "rates": rates,
            "nonincreasing_5pct": ok}


def _family(plan, study, gamma=None):
    """Run the schedule; each run's snapshots are compared with the
    previous run's as soon as it ends, and only the latest are kept."""
    plan.validate(study)
    summaries, distances, recs = [], [], []
    prev = None
    for i, (n, eps, delta) in enumerate(plan.schedule):
        reg = RegParams(eps=eps, delta=delta, beta=plan.beta,
                        n_modes=n).validate(gamma=plan.phys.gamma)
        summary, snaps, r = _execute(plan, reg)
        if prev is not None:
            distances += _pair_distances(i - 1, prev, snaps, gamma)
        prev = snaps
        summaries.append(summary)
        recs.append(r)
    return summaries, distances, recs


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


def run_galerkin_refinement(plan):
    """Refine the retained-mode count at fixed eps, delta."""
    summaries, distances, recs = _family(plan, "galerkin")
    u_gaps = [r["u_l2"] for r in distances]
    report = ContinuationReport(
        study="galerkin",
        runs=summaries,
        uniform_bounds=_uniform(summaries, ("energy_max_ratio",)),
        decay={"u_self_distance": _decay_entry(u_gaps)} if u_gaps else {},
        distances=distances,
        run_records=recs,
    )
    return report


def run_viscosity_vanishing(plan):
    """Shrink the artificial mass diffusion at fixed delta and n."""
    summaries, distances, recs = _family(plan, "viscosity")
    report = ContinuationReport(
        study="viscosity",
        runs=summaries,
        uniform_bounds=_uniform(
            summaries, ("energy_max_ratio", "eps_grad_rho_sq")),
        decay={"eps_lap_rho": _decay_entry(
            [s["eps_lap_rho"] for s in summaries])},
        distances=distances,
        run_records=recs,
    )
    return report


def run_pressure_vanishing(plan):
    """Shrink the artificial pressure weight at fixed (small) eps and n."""
    summaries, distances, recs = _family(plan, "pressure",
                                         gamma=plan.phys.gamma)
    report = ContinuationReport(
        study="pressure",
        runs=summaries,
        uniform_bounds=_uniform(
            summaries, ("energy_max_ratio", "theta_norm")),
        decay={
            "delta_rho_beta": _decay_entry(
                [s["delta_rho_beta"] for s in summaries]),
            "delta_theta_pow": _decay_entry(
                [s["delta_theta_pow"] for s in summaries]),
        },
        distances=distances,
        run_records=recs,
    )
    return report


STUDIES = {
    "galerkin": run_galerkin_refinement,
    "viscosity": run_viscosity_vanishing,
    "pressure": run_pressure_vanishing,
}
