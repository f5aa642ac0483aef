"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py --workload NAME [--seeds 1-10] [--seconds 10] [--trace 0|1]

Each run's result line is appended to bench/results/<workload>-trace<T>.jsonl.
For every metric it prints the median over the runs and the distance between
the first and third quartile as a share of the median, the figure the
benchmark's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    out = BENCH / "results" / f"{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, check=True)
        line = proc.stdout.splitlines()[-1]
        with out.open("a") as f:
            f.write(line + "\n")
        result = json.loads(line)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{proc.stderr}")
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}", flush=True)
    for name, v in values.items():
        median = statistics.median(v)
        spread = float("nan")
        if len(v) > 1 and median:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
        print(f"{name:55s} median {median:12.6g}   spread {spread:7.2%}")
    print(f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
