"""Accuracy of the decomposition oracle on the benchmark's oracle-sweep states.

    python scripts/oracle_gaps.py --seeds 1-30

Runs decomposition_infimum_oracle on every state of bench/workloads.py's
oracle_sweep(seed), for each seed of the inclusive range, and compares it
with the closed form.  Each random start is searched alone, by wrapping
measures._finish, so the seeded draw is the oracle's own.  Prints one JSON
line: the worst and least gap (the best of STARTS, minus the closed form),
how many single starts end more than 1e-6 above the closed form out of all
starts searched, and every state above 1e-8 as [seed, index, rank, gap].
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from bench_pairs import seed_range  # noqa: E402
from twocopy import SINGLE_COPY, DensityOperator, decomposition_infimum_oracle, wootters_concurrence  # noqa: E402
from twocopy import measures  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_range, help="one oracle-sweep seed K, or an inclusive range A-B")
    seeds = parser.parse_args().seeds
    finish, starts = measures._finish, []

    def alone(tau):
        starts[:] = [finish(tau[k:k + 1]) for k in range(len(tau))]
        return min(starts)

    measures._finish = alone
    gaps, high, total, wide = [], 0, 0, []
    for seed in seeds:
        for index, state in enumerate(workloads.oracle_sweep(seed)):
            rho = DensityOperator(SINGLE_COPY, np.array([[complex(*z) for z in row] for row in state["rho"]]))
            starts.clear()
            closed_form = wootters_concurrence(rho)
            gaps.append(decomposition_infimum_oracle(rho, state["seed"]) - closed_form)
            high += sum(v - closed_form > 1e-6 for v in starts)
            total += len(starts)
            if gaps[-1] > 1e-8:
                wide.append([seed, index, state["rank"], gaps[-1]])
    print(json.dumps({"seeds": [seeds[0], seeds[-1]], "worst_gap": max(gaps), "least_gap": min(gaps),
                      "starts_above_1e-6": [high, total], "states_above_1e-8": wide}))


if __name__ == "__main__":
    main()
