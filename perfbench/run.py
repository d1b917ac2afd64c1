"""nlcflow benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

A run repeats whole rounds of one workload until ``--seconds`` have passed.
Each round is one fresh Python process (``worker.py``) that runs the
workload's ``solve`` commands on a config generated from the seed, so each
round pays the program's full set-up.  After each round the outputs are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (rounds), ``failed`` (rounds whose process did
not exit 0) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds, so that the tracing overhead is measured in the same run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, amplitude

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
TRACE = os.path.join(ROOT, ".perfbench_trace")

# A run must end within 180 s; a round still running at this point of the
# run is killed and counted as failed.
RUN_DEADLINE_S = 170.0
POLL_S = 0.002

END_TO_END = {"setup_s": "s", "wall_s": "s", "step_ms": "ms", "post_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "fields.deriv.calls_per_step": "1/step",
    "fields.deriv.s": "s",
    "fields.helmholtz.calls_per_step": "1/step",
    "fields.helmholtz.s": "s",
    "fields.dealias.s": "s",
    "solver.steps": "count",
    "solver.heat.s": "s",
    "solver.heat.cg_iters_per_solve": "1/solve",
    "solver.heat.op_applies": "count",
    "solver.director.s": "s",
    "solver.director.iters_per_sweep": "1/sweep",
    "solver.density.s": "s",
    "solver.momentum.s": "s",
    "solver.step_setup.s": "s",
    "solver.ledger.s": "s",
    "solver.picard_sweeps_per_step": "1/step",
    "solver.halvings": "count",
    "solver.retained_states": "count",
    "diagnostics.records.s": "s",
    "diagnostics.record_ms": "ms",
    "diagnostics.renorm_residual.s": "s",
    "cli.snapshot_write.s": "s",
    "cli.snapshot_read.s": "s",
    "cli.csv.s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "continuation.run_setup.s": "s",
    "continuation.report.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_wrappers": "count",
}


class SelfCheckError(Exception):
    """The benchmark's own bookkeeping disagrees with the program's output."""


def now():
    """System-wide monotonic clock, comparable with the worker's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env.pop("SOLVE_OUT", None)    # the program gets only the generated config
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cwd, stdout, stderr, deadline):
    """Run ``argv`` to its end, killing it at ``deadline``; returns (exit
    code, wall s, rusage, start)."""
    start = now()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=stdout, stderr=stderr,
                            env=child_env())
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if now() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    end = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, end - start, usage, start


def warm_up(deadline):
    """Import the program once, untimed, so that bytecode is compiled."""
    code, _, _, _ = spawn([sys.executable, "-c", "import nlcflow.cli"],
                          ROOT, subprocess.DEVNULL, subprocess.DEVNULL,
                          deadline)
    if code != 0:
        raise SelfCheckError(f"cannot import nlcflow from {SRC}")


def run_round(wl, seed, traced, deadline):
    work = os.path.join(OUT, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(TRACE, exist_ok=True)
    files, commands = wl.inputs(seed)
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    job = {"src": SRC, "commands": commands,
           "stdout": [os.path.join(work, f"stdout_{i}.txt")
                      for i in range(len(commands))],
           "timing": os.path.join(work, "timing.json"),
           "trace": (os.path.join(TRACE, wl.name + ".spans.csv")
                     if traced else None)}
    job_path = os.path.join(work, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)

    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "w", encoding="utf-8") as err:
        code, wall, usage, start = spawn(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path],
            work, subprocess.DEVNULL, err, deadline)
    rnd = {"ok": code == 0, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    if code != 0:
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"round failed with exit code {code}:\n{tail}", file=sys.stderr)
        return rnd
    with open(job["timing"], encoding="utf-8") as fh:
        timing = json.load(fh)

    steps = timing["steps"]
    try:
        problems, csv_steps = wl.check(work)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, csv_steps = [f"cannot read outputs: {exc!r}"], len(steps)
    if not steps or len(steps) != csv_steps:
        raise SelfCheckError(
            f"{wl.name}: timed {len(steps)} steps but the CSVs record "
            f"{csv_steps}")
    in_steps = sum(end - begin for begin, end, _ in steps)
    rnd.update(problems=problems, setup_s=steps[0][0] - start,
               step_s=[end - begin for begin, end, _ in steps],
               post_s=wall - (steps[0][0] - start) - in_steps)
    if traced:
        layers = dict(timing["layers"])
        layers["io.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, names in os.walk(os.path.join(work, "out"))
            for f in names)
        rnd["layers"] = layers
        rnd["missing"] = timing["missing"]
    return rnd


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds):
    return {
        "setup_s": median_of(rounds, "setup_s"),
        "wall_s": median_of(rounds, "wall_s"),
        "step_ms": 1e3 * statistics.median(
            s for r in rounds for s in r["step_s"]),
        "post_s": median_of(rounds, "post_s"),
        "peak_rss_mb": median_of(rounds, "peak_rss_mb"),
    }


def per_layer(plain, traced):
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["process.cpu_s"] = median_of(plain, "cpu_s")
    out["trace.overhead_s"] = (median_of(traced, "wall_s")
                               - median_of(plain, "wall_s"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlcflow", "cli.py")):
        print(f"no nlcflow sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    modes = (False, True) if args.trace else (False,)
    deadline = now() + RUN_DEADLINE_S
    try:
        warm_up(deadline)
        rounds = []
        begin = now()
        while not rounds or now() - begin < args.seconds:
            rounds += [run_round(wl, args.seed, traced, deadline)
                       for traced in modes]
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3

    done = [r for r in rounds if r["ok"]]
    problems = [p for r in done for p in r["problems"]]
    plain = [r for r in done if "layers" not in r]
    traced = [r for r in done if "layers" in r]
    print(f"{wl.name}: seed {args.seed}, amplitude "
          f"{amplitude(wl.nominal, args.seed)!r}, {len(rounds)} rounds "
          f"({len(traced)} traced), {len(rounds) - len(done)} failed")
    for p in problems[:10]:
        print(f"  check failed: {p}")
    if args.trace:
        values, units = (per_layer(plain, traced) if plain and traced
                         else {}), PER_LAYER
        missing = sorted({m for r in traced for m in r["missing"]})
        for m in missing:
            print(f"  missing layer function: {m}")
    else:
        values, units = (end_to_end(plain) if plain else {}), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems and len(metrics) == len(units),
                      "attempted": len(rounds),
                      "failed": len(rounds) - len(done),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
