"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``ready`` as soon as chloc is imported and the seeded inputs are
built, then runs whole rounds of the workload's fixed case list until
``--seconds`` have passed (at least two rounds), checks every result, and
prints one JSON object with the raw per-case times, counts and problems.
``bench/run.py`` starts this process and turns its output into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import chloc  # noqa: E402

if Path(chloc.__file__).resolve().parent != SRC / "chloc":
    sys.exit(f"bench: chloc was imported from {chloc.__file__}, not from {SRC}")

import workloads  # noqa: E402

MIN_ROUNDS = 2
SPAWN_SAMPLES = 7
KNOWN_FAULTS: set[str] = set()  # checks that fail on every run, counted as failed


def run_round(wl, times: list[list[float]], tracer=None):
    """Run every case once; return (failed operations, check problems)."""
    results = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, case in enumerate(wl.cases):
            t0 = perf_counter()
            try:
                result = wl.run(case)
            except Exception as exc:  # a failed operation: counted, the round goes on
                result = exc
            times[i].append(perf_counter() - t0)
            results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, problems = 0, []
    for case, result in zip(wl.cases, results):
        if isinstance(result, Exception):
            failed += 1
            problems.append(f"{wl.name}: operation failed: {type(result).__name__}: {result}")
            continue
        problem = wl.check(case, result)
        if isinstance(problem, workloads.KnownFault):
            failed += 1
            KNOWN_FAULTS.add(str(problem))
        elif problem:
            problems.append(problem)
    return failed, problems


def spawn_seconds(env) -> float:
    """Median time to start a child that only imports chloc.cli."""
    samples = []
    for _ in range(SPAWN_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import chloc.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        out = measure(wl, args) if not args.trace else measure_traced(wl, args)
    finally:
        wl.close()
    out["problems"] += workloads.independent_checks(Random(args.seed))
    out["known_faults"] = sorted(KNOWN_FAULTS)
    print(json.dumps(out), flush=True)
    return 0


def measure(wl, args) -> dict:
    times: list[list[float]] = [[] for _ in wl.cases]
    failed, problems, rounds = 0, [], 0
    t0 = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - t0 < args.seconds:
        f, p = run_round(wl, times)
        failed, problems, rounds = failed + f, problems + p, rounds + 1
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"rounds": rounds, "cases": len(wl.cases), "attempted": rounds * len(wl.cases),
            "failed": failed, "problems": problems, "times": times,
            "peak_rss_mb": usage / 1024}


def measure_traced(wl, args) -> dict:
    """Alternate untraced and traced rounds; the CLI runs in process here."""
    import spans

    tracer = spans.Tracer()
    spawn_s = 0.0
    if wl.name == "cli":
        spawn_s = spawn_seconds(wl.env)
        wl.in_process = True
    plain: list[list[float]] = [[] for _ in wl.cases]
    traced: list[list[float]] = [[] for _ in wl.cases]
    failed, problems, rounds, per_round = 0, [], 0, []
    t0 = perf_counter()
    while rounds < 2 * MIN_ROUNDS or perf_counter() - t0 < args.seconds:
        f, p = run_round(wl, plain)
        f2, p2 = run_round(wl, traced, tracer)
        per_round.append(tracer.round_metrics())
        failed, problems, rounds = failed + f + f2, problems + p + p2, rounds + 2
    counts = {k: v for k, (v, unit) in per_round[0].items() if unit != "s"}
    for m in per_round[1:]:
        if {k: v for k, (v, unit) in m.items() if unit != "s"} != counts:
            problems.append(f"{wl.name}: traced counts differ between rounds")
            break
    problems += spans.unused_layer_problems(wl.name, per_round[0])
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":  # times vary from round to round; counts and ratios do not
            value = statistics.median(m[name][0] for m in per_round)
        metrics[name] = {"value": value, "unit": unit}
    plain_s = statistics.median(sum(r) for r in zip(*plain))
    traced_s = statistics.median(sum(r) for r in zip(*traced))
    metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    metrics["cli.spawn_s"] = {"value": spawn_s, "unit": "s"}
    metrics["cli.main_s"] = {"value": plain_s if wl.name == "cli" else 0.0, "unit": "s"}
    return {"rounds": rounds, "cases": len(wl.cases), "attempted": rounds * len(wl.cases),
            "failed": failed, "problems": problems, "metrics": metrics,
            "spans": tracer.dump()}


if __name__ == "__main__":
    sys.exit(main())
