"""Run chloc's benchmark workloads and print their metrics.

    python3 bench/run.py --workload identity|localize|pf|cli|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in fresh single-threaded processes (bench/worker.py), one
at a time.  With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: median over 11 starts of the workload's process of the time
  from spawning it until its first case can start (interpreter start,
  ``import chloc``, building the seeded inputs); one uncounted start before
  them writes the bytecode caches;
* ``cases_per_s``: the cases run over the time spent in them, over all of
  the run's rounds of the fixed case list;
* ``peak_rss_mb``: peak resident memory of the process, or of its largest
  child for ``cli``.

With ``--trace 1`` it prints the per-layer metrics from a run that wraps
chloc's public functions (bench/spans.py).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Raw results go to bench/out/.  The exit code is 0 when every check passed,
1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("identity", "localize", "pf", "cli")
SETUP_SAMPLES = 11
DEADLINE_S = 175  # one workload must finish within 180 s


class BenchError(Exception):
    """The benchmark could not run a workload."""


def start(workload: str, args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Spawn a worker; return it with the seconds until it reported ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: the worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until the deadline; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"a worker exited with {proc.returncode}")
    return out


def cases_per_second(times: list[list[float]]) -> float:
    """Cases run over the time spent in them, over all of the run's rounds."""
    return sum(map(len, times)) / sum(map(sum, times))


def run_workload(workload: str, args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            proc, setup_s = start(workload, args, setup_only=True)
            finish(proc, deadline)
            if i:  # the first start writes the bytecode caches
                setups.append(setup_s)
    proc, setup_s = start(workload, args, setup_only=False)
    raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    if args.trace:
        metrics = raw.pop("metrics")
    else:
        setups.append(setup_s)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cases_per_s": {"value": cases_per_second(raw["times"]), "unit": "cases/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        raw["setup_samples"] = setups
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result.write_text(json.dumps({"metrics": metrics, **raw}, indent=1), encoding="utf-8")
    problems = list(dict.fromkeys(raw["problems"]))
    return {"correct": not problems, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics, "problems": problems, "rounds": raw["rounds"],
            "known_faults": raw["known_faults"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        figures = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {figures}; {res['rounds']} rounds, "
              f"{res['attempted']} attempted, {res['failed']} failed")
        for fault in res["known_faults"]:
            print(f"bench: known fault, counted as failed: {fault}", file=sys.stderr)
        for problem in res["problems"][:20]:
            print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, res in results.items() for k, m in res["metrics"].items()}
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
