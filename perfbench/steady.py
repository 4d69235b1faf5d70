#!/usr/bin/env python3
"""Repeat one workload and print each end-to-end metric's median and quartiles.

    python3 perfbench/steady.py --workload query --runs 10             # seed 1 each time
    python3 perfbench/steady.py --workload query --runs 10 --vary-seeds  # seeds 1 to 10

Runs `run.py` `--runs` times, each in its own process, one after another,
for `run_seconds` from BENCHMARK.json. By default every run uses the same
seed, which measures the run-to-run noise alone; with `--vary-seeds` the
seeds are seed, seed + 1, ..., which adds the cost that differs from one
corpus to the next, as in the acceptance runs. For every end-to-end metric in
BENCHMARK.json it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (Q3 - Q1) as a share of the median, and the metric's bound;
a spread above a third of the bound is flagged. The same figures follow for
the wall-time values in each run's summary line, which have no bound. It
also prints the share of failed operations in each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall-time figures from each run's `# summary` line, printed after the
# reported ones for comparison (their medians over the set-up repetitions
# and over the rounds' slowdowns).
WALL = ("wall_setup_reps_s", "wall_answers_per_s", "wall_latency_p50_s", "round_slowdowns")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seeds", action="store_true")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for k in range(args.runs):
        seed = args.seed + k if args.vary_seeds else args.seed
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        summary = json.loads(lines[-2].removeprefix("# summary "))
        share = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed share={share:.6g} "
            + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
            flush=True,
        )
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
        for metric in WALL:
            value = summary[metric]
            values.setdefault(metric, []).append(
                statistics.median(value) if isinstance(value, list) else value
            )
        print("  " + " ".join(f"{m}={values[m][-1]:.6g}" for m in WALL), flush=True)

    print(f"\n{'metric':20s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>8s} {'bound':>6s}")
    for metric in [*config["end_to_end"], *({"name": name} for name in WALL)]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        if "bound" in metric:
            flag = "  above a third of the bound" if spread > metric["bound"] / 3 else ""
            bound = f"{metric['bound']:6.2f}{flag}"
        else:
            bound = "     -"
        print(f"{name:20s} {median:11.6g} {q1:11.6g} {q3:11.6g} {spread:8.2%} {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
