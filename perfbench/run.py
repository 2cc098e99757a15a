"""Benchmark of the orderedbo package: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in a fresh child process with the BLAS thread count
pinned.  Set-up is repeated in two more set-up-only processes so that
``setup_s`` is a median of three.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).  The
lines before it record the environment, the output digest and whether
it matches the reference in ``reference.json``.

Workloads, metrics and their reasons are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("bc-campaign", "pen-campaign", "pen-select", "pen-sweep")
BLAS_THREADS = 1
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0



def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", WORKDIR]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - launched, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited with code {proc.returncode}")
    line = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if not line.startswith("RESULT "):
        raise RuntimeError("workload process printed no result")
    result = json.loads(line[len("RESULT "):])
    return result, result["ready"] - launched


def _git_hash() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _reference(workload: str):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh).get(workload)


def _with_units(declared: list, values: dict) -> dict:
    """Every metric BENCHMARK.json declares, in its order, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orderedbo", "__init__.py")):
        print(f"run.py: no orderedbo package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        setups = [_run_child(args, deadline, True)[1]
                  for _ in range(SETUP_REPEATS - 1)]
        result, setup = _run_child(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    setups.append(setup)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = dict(result["end_to_end"], setup_s=statistics.median(setups),
                      peak_rss_mb=result["peak_rss_mb"])
    e2e = _with_units(spec["end_to_end"], end_to_end)
    reference = _reference(args.workload)
    match = None if reference is None else result["digest"] == reference

    env = dict(result["environment"], git=_git_hash(),
               processes="one workload process at a time")
    print("environment " + json.dumps(env))
    print(f"jobs {result['jobs']}; setup_s samples "
          + ", ".join(f"{s:.4f}" for s in setups))
    for message in result["violations"]:
        print("check failed: " + message)
    print(f"digest {result['digest']}")
    print("outputs_match_reference " + json.dumps(match))
    if args.trace:
        print("traced end-to-end " + json.dumps(e2e))
    print(json.dumps({
        "correct": not result["violations"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": (_with_units(spec["per_layer"], result["per_layer"])
                    if args.trace else e2e),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
