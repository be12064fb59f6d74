"""hyperloc benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in fresh processes started from this one, one after
another, so that load comes from one process at a time. With ``--trace 0``
a run reports setup_s, generate_s, solve_s and peak_rss_mb; with
``--trace 1`` it reports the per-layer metrics of a traced process and the
tracing overhead. Times are scaled to a reference host speed by a speed
probe run around each sample (see workloads.py); the wall times go to
stderr. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` both workloads run and their metrics are prefixed with the
workload name. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("building", "hardness")
# Set-up is sampled at least SETUP_MIN times per run (the measuring process
# is one of them), and more while less than SETUP_SPAN_S of set-up has been
# sampled, so that short set-ups, which jitter most, get more samples.
SETUP_MIN, SETUP_MAX, SETUP_SPAN_S = 3, 9, 4.0
# Every run must end well inside 180 s.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "generate_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread: the machine is a shared 2-core box, and a
    # thread pool sized to it would make timings depend on other load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _child(workload: str, seed: int, mode: str, seconds: float,
           deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"{workload}/{mode}: no time left in the run budget")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              stderr=None, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}/{mode}: timed out after {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload}/{mode}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{workload}/{mode}: no result printed")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> dict:
    measured = _child(workload, seed, "measure", seconds, deadline)
    setups = [measured]
    while len(setups) < SETUP_MIN or \
            (sum(x["setup_wall_s"] for x in setups) < SETUP_SPAN_S
             and len(setups) < SETUP_MAX):
        setups.append(_child(workload, seed, "setup", 0.0, deadline))
    if measured["solve_s"] is None or measured["generate_s"] is None:
        raise RunFailed(f"{workload}: every operation failed")
    values = {"setup_s": statistics.median(x["setup_s"] for x in setups),
              "generate_s": measured["generate_s"],
              "solve_s": measured["solve_s"],
              "peak_rss_mb": measured["peak_rss_mb"]}
    # Wall times, unscaled by the speed probe: shown, not reported.
    wall = {"setup_s": statistics.median(x["setup_wall_s"] for x in setups),
            "generate_s": measured["generate_wall_s"],
            "solve_s": measured["solve_wall_s"]}
    print(f"[{workload}] wall times: "
          + ", ".join(f"{k} {v:.4g} s" for k, v in wall.items()),
          file=sys.stderr)
    return {"correct": measured["correct"],
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": {k: _metric(v, END_TO_END_UNITS[k])
                        for k, v in values.items()}}


def run_traced(workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    # Half the run untraced, half traced, each in its own process; the
    # difference of their solve_s medians is the tracing overhead.
    plain = _child(workload, seed, "measure", seconds / 2, deadline)
    traced = _child(workload, seed, "trace", seconds / 2, deadline)
    if plain["solve_s"] is None or traced["solve_s"] is None:
        raise RunFailed(f"{workload}: every operation failed")
    metrics = {k: _metric(v, unit) for k, (v, unit) in traced["layers"].items()}
    metrics["trace.overhead_solve_s"] = _metric(
        traced["solve_s"] - plain["solve_s"], "s")
    print(f"[{workload}] spans written to {traced['trace_file']}",
          file=sys.stderr)
    return {"correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Run the hyperloc benchmark (see perfbench/README.md).")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: both, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time per workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    if not (ROOT / "src" / "hyperloc" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = run_traced if args.trace else run_untraced
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = runner(name, args.seed, args.seconds, deadline)
            res = results[name]
            print(f"[{name}] attempted {res['attempted']} failed "
                  f"{res['failed']} correct {res['correct']}", file=sys.stderr)
            for key, m in res["metrics"].items():
                print(f"[{name}]   {key:38s} {m['value']:.6g} {m['unit']}",
                      file=sys.stderr)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
