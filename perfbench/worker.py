"""One benchmark round in its own process: ``worker.py JOB.json``.

The job names the nlcflow source directory, which must come first on
PYTHONPATH, the ``solve`` command lines to run (each through
``nlcflow.cli.main``, as the ``solve`` entry point does), the file that
receives each command's standard output, and where to write the timing
result.  The worker always times each accepted step through
``nlcflow.solver.step_coupled``.  With ``trace`` set it also wraps the layer
functions below, records spans around them and reduces them to per-layer
metrics.
"""

import contextlib
import importlib
import json
import os
import sys
import time

from spans import Tracer, install, summarize


def now():
    """System-wide monotonic clock, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Span name -> (module, attribute path) bindings that are wrapped.  The fields
# functions are imported by name into solver and diagnostics, so each of those
# bindings is wrapped as well as the fields module's own.
SPANS = {
    "fields.deriv": [("fields", "deriv"), ("solver", "deriv"),
                     ("diagnostics", "deriv"), ("continuation", "deriv")],
    "fields.helmholtz": [("fields", "solve_helmholtz"),
                         ("solver", "solve_helmholtz")],
    "fields.dealias": [("fields", "dealias"), ("fields", "dealias_values"),
                       ("solver", "dealias"), ("solver", "dealias_values"),
                       ("diagnostics", "dealias"),
                       ("diagnostics", "dealias_values")],
    "solver.step": [("solver", "step_coupled")],
    "solver.density": [("solver", "_density_update")],
    "solver.director": [("solver", "_director_update")],
    "solver.heat": [("solver", "_temperature_update")],
    "solver.momentum": [("solver", "_momentum_update")],
    "solver.step_setup": [("solver", "_checked_mass_matrix"),
                          ("solver", "GalerkinBasis.stiffness")],
    "solver.ledger": [("solver", "_make_step_record")],
    "diagnostics.records": [("diagnostics", "make_record")],
    "diagnostics.renorm_residual": [
        ("diagnostics", "renormalized_continuity_residual")],
    "cli.snapshot_write": [("cli", "write_snapshot")],
    "cli.snapshot_read": [("cli", "read_snapshot")],
    "cli.csv": [("cli", "render_csv"), ("cli", "_write_text")],
    "continuation.run_setup": [("continuation", "_prepare_state")],
    "continuation.report": [("continuation", "_pair_distances"),
                            ("continuation", "_uniform"),
                            ("continuation", "_decay_entry")],
}

# Counter name -> bindings, and the amount one call adds (None: one).
COUNTERS = {
    "heat.solves": ([("solver", "_pcg")], None),
    "heat.op_applies": ([("solver", "_conduction_apply")], None),
    "director.iters": ([("constitutive", "gl_force_two_point")], None),
    "io.bytes_read": ([("cli", "read_snapshot"), ("config", "parse_config")],
                      lambda path, *_: os.path.getsize(path)),
}


def layer_modules():
    """Import every nlcflow module a span or counter names.  A module that
    has gone is left out, so its bindings are reported missing."""
    names = {m for bindings in SPANS.values() for m, _ in bindings}
    names |= {m for bindings, _ in COUNTERS.values() for m, _ in bindings}
    modules = {}
    for name in sorted(names):
        try:
            modules[name] = importlib.import_module(f"nlcflow.{name}")
        except ModuleNotFoundError:
            pass
    return modules


def _resolve(modules, module, path):
    owner = modules.get(module)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
    return f"nlcflow.{module}.{path}", owner, attr


def layer_targets(tracer, modules):
    targets = []
    for name, bindings in SPANS.items():
        for module, path in bindings:
            targets.append(_resolve(modules, module, path)
                           + (lambda fn, name=name: tracer.span(name, fn),))
    for name, (bindings, amount) in COUNTERS.items():
        for module, path in bindings:
            targets.append(_resolve(modules, module, path) + (
                lambda fn, name=name, amount=amount:
                tracer.counter(name, fn, amount),))
    return targets


def install_state_census(tracer, solver):
    """Track the peak number of live ``State`` objects."""
    cls = getattr(solver, "State", None)
    live = {"now": 0, "peak": 0}
    if cls is None:
        tracer.missing.append("nlcflow.solver.State")
        return live
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        live["now"] += 1
        live["peak"] = max(live["peak"], live["now"])
        init(self, *args, **kwargs)

    def __del__(self):
        live["now"] -= 1

    cls.__init__ = __init__
    cls.__del__ = __del__
    return live


def layer_metrics(tracer, census, steps):
    rows = summarize(tracer)
    empty = {"calls": 0, "calls_within": 0, "self_s": 0.0, "total_s": 0.0}

    def row(name):
        return rows.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    n_steps = row("solver.step")["calls"]
    solves = tracer.count("heat.solves")
    records = row("diagnostics.records")
    director = row("solver.director")["calls"]
    return {
        "fields.deriv.calls_per_step": ratio(
            row("fields.deriv")["calls_within"], n_steps),
        "fields.deriv.s": row("fields.deriv")["self_s"],
        "fields.helmholtz.calls_per_step": ratio(
            row("fields.helmholtz")["calls_within"], n_steps),
        "fields.helmholtz.s": row("fields.helmholtz")["self_s"],
        "fields.dealias.s": row("fields.dealias")["self_s"],
        "solver.steps": n_steps,
        "solver.heat.s": row("solver.heat")["self_s"],
        "solver.heat.cg_iters_per_solve": ratio(
            tracer.count("heat.op_applies") - solves, solves),
        "solver.heat.op_applies": tracer.count("heat.op_applies"),
        "solver.director.s": row("solver.director")["self_s"],
        "solver.director.iters_per_sweep": ratio(
            tracer.count("director.iters", under="solver.director"),
            director),
        "solver.density.s": row("solver.density")["self_s"],
        "solver.momentum.s": row("solver.momentum")["self_s"],
        "solver.step_setup.s": row("solver.step_setup")["self_s"],
        "solver.ledger.s": row("solver.ledger")["self_s"],
        "solver.picard_sweeps_per_step": ratio(
            row("solver.density")["calls_within"], n_steps),
        "solver.halvings": sum(h for _, _, h in steps),
        "solver.retained_states": census["peak"],
        "diagnostics.records.s": records["self_s"],
        "diagnostics.record_ms": 1e3 * ratio(records["total_s"],
                                             records["calls"]),
        "diagnostics.renorm_residual.s": row(
            "diagnostics.renorm_residual")["self_s"],
        "cli.snapshot_write.s": row("cli.snapshot_write")["self_s"],
        "cli.snapshot_read.s": row("cli.snapshot_read")["self_s"],
        "cli.csv.s": row("cli.csv")["self_s"],
        "io.bytes_read": tracer.count("io.bytes_read"),
        "continuation.run_setup.s": row("continuation.run_setup")["self_s"],
        "continuation.report.s": row("continuation.report")["self_s"],
        "trace.missing_wrappers": len(tracer.missing),
    }


def install_step_clock(solver, steps):
    """Record (start, end, halvings) of every accepted time step."""
    inner = getattr(solver, "step_coupled", None)
    if inner is None:
        return

    def step_coupled(*args, **kwargs):
        start = now()
        out = inner(*args, **kwargs)
        steps.append((start, now(), getattr(out[1], "halvings", 0)))
        return out

    solver.step_coupled = step_coupled


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import nlcflow
    from nlcflow import cli, solver
    if not os.path.abspath(nlcflow.__file__).startswith(job["src"] + os.sep):
        sys.exit(f"nlcflow imported from {nlcflow.__file__}, "
                 f"not from {job['src']}")

    steps = []
    install_step_clock(solver, steps)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        modules = layer_modules()
        census = install_state_census(tracer, solver)
        install(tracer, layer_targets(tracer, modules))

    codes = []
    for argv, out_path in zip(job["commands"], job["stdout"]):
        with open(out_path, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            codes.append(cli.main(argv))
        if codes[-1] != 0:
            break

    result = {"codes": codes, "steps": steps}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, census, steps)
        result["missing"] = tracer.missing
        tracer.write(job["trace"])
    with open(job["timing"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if codes and all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
