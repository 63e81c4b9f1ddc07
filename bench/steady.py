"""How steady the end-to-end metrics are from one seed to the next.

    python3 bench/steady.py [--runs 10] [--first-seed 1]

Runs bench/run.py once per seed on each workload, for BENCHMARK.json's
run_seconds and one process at a time, alternating the order of the
workloads from one seed to the next.  For each
end-to-end metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json.  The spreads of every metric but setup_s should stay below a
third of their bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    shares: dict[str, set] = {w: set() for w in WORKLOADS}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            shares[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)

    print(f"\n{'workload':9} {'metric':12} {'median':>10} {'Q1':>10} {'Q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for (w, name), vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        bound = bounds.get(name, float("nan"))
        flag = "" if name == "setup_s" or spread < bound / 3 else "  above a third of the bound"
        print(f"{w:9} {name:12} {med:10.5g} {q1:10.5g} {q3:10.5g} "
              f"{spread:7.3f} {bound:6.2f}{flag}")
    for w, s in shares.items():
        print(f"{w}: failed share {sorted(s)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
