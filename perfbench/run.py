"""gsc benchmark: compile seeded graphs and report end-to-end or per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mincut-mid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each workload runs in a fresh child process (``child.py``) with one BLAS
thread. The child imports ``gsc`` from ``src/`` of this checkout, generates
the workload's graphs from ``--seed``, and compiles them in passes until
``--seconds`` are used, re-checking the small results with ``gsc verify``
between the compiles; a time is the sum over the graphs of each graph's
fastest call. Six more children, three before the run and three after it,
only repeat the set-up, so ``setup_s`` is a median of seven. Every metric is
printed by name with its unit; with one workload the last line of stdout is
a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. The exit code is non-zero when any result fails the
reference check, any operation fails, or a child process fails.
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

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole command must end within 180 s
SETUP_REPEATS = 7  # one in the run itself, the others split before and after it
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(args, mode: str, deadline: float) -> dict:
    """Run child.py to completion and return the JSON it printed."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload}: child ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(args) -> tuple[dict, dict]:
    """Run one workload; return (child output, metrics by name)."""
    deadline = time.monotonic() + DEADLINE_S
    # Set-up children run before and after the measured run, so that the
    # median set-up time spans the whole command, not one spell of the host.
    before = (SETUP_REPEATS - 1) // 2
    setups = [child(args, "setup", deadline) for _ in range(before)]
    out = child(args, "run", deadline)
    setups += [out] + [child(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1 - before)]
    spec = _spec()
    if args.trace:
        names = spec["per_layer"]
        values = dict(out.get("layers", {}))
        values["graph.generate_ms"] = statistics.median(s["generate_ms"] for s in setups)
    else:
        names = spec["end_to_end"]
        values = dict(out)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in names
        if m["name"] in values
    }
    return out, metrics


def report(workload: str, trace: int, out: dict, metrics: dict) -> None:
    """Print every metric by name and unit, then the failure share, the tock
    gap (both can be 0, so neither is a gated metric) and the pass count."""
    label = f"{workload} trace={trace}"
    for name, m in metrics.items():
        print(f"{label}  {name:26s} {m['value']:14.6g} {m['unit']}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"{label}  {'failed_share':26s} {failed / attempted:14.6g} share of {attempted} operations")
    if "tock_gap" in out:
        print(f"{label}  {'tock_gap':26s} {out['tock_gap']:14d} tocks over the overlap bound")
    print(f"{label}  {'passes':26s} {out['passes']:14d} timed passes")
    for err in out["errors"]:
        print(f"{label}  FAIL {err}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]

    if args.workload != "all":
        out, metrics = measure(args)
        report(args.workload, args.trace, out, metrics)
        correct = out["failed"] == 0
        print(json.dumps({
            "correct": correct,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics,
        }))
        return 0 if correct else 1

    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            out, metrics = measure(one)
            report(workload, trace, out, metrics)
            failed += out["failed"]
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
