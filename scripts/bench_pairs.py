"""Paired benchmark runs of two revisions, summarised per workload and end-to-end metric.

    python scripts/bench_pairs.py PARENT CHANGE [--seeds 1-10] [--fresh 18-21] [--out BENCH_N.json]

PARENT and CHANGE are git revisions of this repository.  Each is exported
clean with ``git archive`` into a temporary directory (under ``$TMPDIR``);
once each side's tier-1 suite has been timed there (see ``tier1_s``), the
parent's ``bench/``, ``scenarios/`` and ``BENCHMARK.json`` go into both
exports, so the two sides differ only in the program they measure.  For each
seed, and each workload of BENCHMARK.json in turn, ``bench/run.py --workload
W --seed K --seconds S --trace 0`` runs once in each export, S being the
benchmark's ``run_seconds``: the parent first on odd seeds and the change
first on even ones.  The seeds of ``--fresh`` run after
the others in the same way and are summarised on their own.

Each metric of BENCHMARK.json's ``end_to_end`` list gets, per side, the runs
and their median, first and third quartiles (``statistics.quantiles(n=4)``,
as bench/repeat.py computes them) and spread ((q3 - q1) / median); and over
the pairs ``pairs_change_better`` (the seeds on which the change's run beat
the parent's), ``change_over_parent`` (the ratio of the medians),
``worse_than_parent_by`` (change / parent - 1 for a lower-is-better metric,
1 - change / parent for a higher-is-better one), ``median_gain`` (how far
the change's median is better than the parent's, negative if worse) and
``parent_quartile_distance`` (q3 - q1 of the parent's runs).  A workload is
``all_correct`` if every run on both sides was.

``bundled_warm_ms`` is the warm parse-and-run of the bundled scenarios: for
each seed, one interpreter per side, sides alternating as above, runs
``run(parse_config(text))`` over every ``scenarios/*.json`` in
``WARM_ROUNDS`` timed rounds after one untimed round, and its value is the
median round in milliseconds.  ``tier1_s`` is the wall time of the tier-1
suite (``python -m pytest -q --continue-on-collection-errors`` with the
export's ``src`` first on the path), run ``TIER1_RUNS`` times before the
seeds, sides alternating as above, in each export before the parent's
files are lent to the change's, so that each keeps its own ``scenarios/``:
the suite checks the revision's bundled configs against its own golden
reports.  ``tests`` holds each side's
pytest summary without its time.  Both are summarised as a metric
is, without a bound, and gate nothing.  ``by_layer`` holds the per-layer
metrics: after the seeds, ``bench/run.py ... --trace 1`` runs for seeds 1 to
``TRACE_RUNS`` in each export and workload, sides alternating as above, and
each metric of BENCHMARK.json's ``per_layer`` list is summarised per
workload as an end-to-end one is, with its ``better`` and no bound (a ratio
or spread over a median of 0 is null).  Beside each per-layer time in ms
stands ``<name>_share``: in each traced run, that time divided by the sum of
the run's per-layer times, so that a share moves with the code and not with
the speed of the machine, which scales every time of a run alike.  Prints
one JSON line; ``--out`` writes the same object to a file.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# what the parent lends the change's export, so both run the same benchmark
SHARED = ("bench", "scenarios", "BENCHMARK.json")
WARM_ROUNDS = 200
# tier-1 runs per side: each takes about 20 s, so 5 pairs cost some 3.5 minutes
TIER1_RUNS = 5
TIER1_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")
# traced runs per side and workload: each takes one run_seconds, so 3 pairs of 4 workloads cost some 10 minutes
TRACE_RUNS = 3
# one side's warm rounds: the seconds of each timed round and the package it imported
WARM_SCRIPT = """
import json, sys, time
from pathlib import Path
import twocopy
from twocopy.scenarios import parse_config, run
texts = [path.read_text() for path in sorted(Path("scenarios").glob("*.json"))]
rounds = []
for _ in range(int(sys.argv[1]) + 1):
    start = time.perf_counter()
    for text in texts:
        run(parse_config(text))
    rounds.append(time.perf_counter() - start)
print(json.dumps({"package": twocopy.__file__, "configs": len(texts), "round_s": rounds[1:]}))
"""


def seed_range(spec: str) -> list[int]:
    """The seeds of ``--seeds`` or ``--fresh``: one seed ``K``, or an inclusive range ``A-B`` with A <= B.

    An argparse type, shared by the scripts that take seeds: an empty range
    such as ``5-3`` is refused as an argparse error (exit 2).
    """
    lo, _, hi = spec.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}: give one seed K or a range A-B with A <= B")
    return seeds


def side_summary(runs: list[float]) -> dict:
    """The median, quartiles and spread of one side's runs, with the runs."""
    median = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 6) if median else None, "runs": runs}


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' summaries and the pairwise comparison of one metric; run i of each side shares a seed."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = side_summary(parent), side_summary(change)
    ratio = c["median"] / p["median"] if p["median"] else None
    return {
        "parent": p,
        "change": c,
        "pairs_change_better": f"{sum(sign * (b - a) > 0 for a, b in zip(parent, change))}/{len(parent)}",
        "change_over_parent": None if ratio is None else round(ratio, 4),
        "worse_than_parent_by": None if ratio is None else round(-sign * (ratio - 1.0), 4),
        "median_gain": round(sign * (c["median"] - p["median"]), 6),
        "parent_quartile_distance": round(p["q3"] - p["q1"], 6),
    }


def export(rev: str, dest: Path) -> str:
    """Extract a clean ``git archive`` of ``rev`` into ``dest``; returns its commit hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    if proc.returncode:
        sys.exit(f"{tree.name} {workload} seed {seed}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(trees: dict, workloads: list[str], seeds: list[int], seconds: float, trace: int = 0) -> dict:
    """{workload: {side: [result per seed]}}, the parent first on odd seeds."""
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = run_once(trees[side], workload, seed, seconds, trace)
                results[workload][side].append(result)
                print(f"seed {seed} {workload} {side} trace {trace}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", file=sys.stderr, flush=True)
    return results


def warm_once(tree: Path) -> float:
    """The median of one interpreter's warm bundled rounds in ``tree``, in ms."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", WARM_SCRIPT, str(WARM_ROUNDS)],
                          capture_output=True, text=True, cwd=tree, env=env)
    if proc.returncode:
        sys.exit(f"{tree.name} bundled warm rounds exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["package"]).is_relative_to(tree / "src"):
        sys.exit(f"{tree.name} bundled warm rounds imported twocopy from {result['package']}")
    return round_median_ms(result["round_s"])


def round_median_ms(round_s: list[float]) -> float:
    return round(statistics.median(round_s) * 1000.0, 6)


def tier1_once(tree: Path) -> tuple[float, str]:
    """The wall time in seconds of one tier-1 run in ``tree``, and pytest's summary without its time."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], capture_output=True, text=True, cwd=tree, env=env)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.exit(f"{tree.name} tier-1 exited {proc.returncode}\n{proc.stdout[-4000:]}{proc.stderr}")
    return round(seconds, 3), proc.stdout.splitlines()[-1].rsplit(" in ", 1)[0]


def alternate(trees: dict, rounds: list[int], measure, label: str) -> dict:
    """{side: [measure(tree) per round]}, the parent first on odd rounds."""
    runs = {side: [] for side in SIDES}
    for n in rounds:
        for side in SIDES if n % 2 else SIDES[::-1]:
            runs[side].append(measure(trees[side]))
        print(f"{label} {n}: " + ", ".join(f"{side} {runs[side][-1]}" for side in SIDES), file=sys.stderr, flush=True)
    return runs


def unbounded_summary(runs: dict, unit: str, **extra) -> dict:
    """A lower-is-better measure that no bound gates, summarised as a metric is."""
    return {"unit": unit, "better": "lower", "bound": None, **extra,
            "runs_per_side": len(runs["parent"]), **summarise(runs["parent"], runs["change"], "lower")}


def warm_summary(runs: dict) -> dict:
    """The bundled_warm_ms entry: per-seed medians of ``WARM_ROUNDS`` rounds."""
    return unbounded_summary(runs, "ms", rounds=WARM_ROUNDS)


def tier1_summary(runs: dict) -> dict:
    """The tier1_s entry from {side: [(seconds, pytest summary) per run]}: the seconds, and each side's last summary."""
    seconds = {side: [s for s, _ in runs[side]] for side in SIDES}
    tests = {side: runs[side][-1][1] for side in SIDES}
    return unbounded_summary(seconds, "s", command="python " + " ".join(TIER1_COMMAND), tests=tests)


def workload_summary(results: dict, metrics: list[dict]) -> dict:
    out = {
        "runs_per_side": len(results["parent"]),
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed_operations": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_operations": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
    }
    for m in metrics:
        runs = {side: [round(r["metrics"][m["name"]]["value"], 6) for r in results[side]] for side in SIDES}
        out[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                          **summarise(runs["parent"], runs["change"], m["better"])}
    return out


def with_shares(result: dict, per_layer: list[dict]) -> dict:
    """A traced run's ``result`` with each per-layer time in ms also as ``<name>_share`` of the run's summed times."""
    times = {m["name"]: result["metrics"][m["name"]]["value"] for m in per_layer if m["unit"] == "ms"}
    total = sum(times.values())
    shares = {f"{name}_share": {"value": value / total if total else 0.0, "unit": "share"} for name, value in times.items()}
    return {**result, "metrics": {**result["metrics"], **shares}}


def layer_summary(results: dict, per_layer: list[dict]) -> dict:
    """One workload's ``by_layer`` entry: each per-layer metric, and beside each time its share."""
    shares = [{"name": f"{m['name']}_share", "unit": "share", "better": m["better"]} for m in per_layer if m["unit"] == "ms"]
    return workload_summary({side: [with_shares(r, per_layer) for r in results[side]] for side in SIDES}, per_layer + shares)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--fresh", type=seed_range, default=[])
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    if len(args.seeds) < 2 or len(args.fresh) == 1:
        p.error("quartiles need at least two seeds in --seeds and in --fresh")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        commits = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        tier1 = alternate(trees, list(range(1, TIER1_RUNS + 1)), tier1_once, "tier-1 run")
        for name in SHARED:
            source, target = trees["parent"] / name, trees["change"] / name
            if source.is_dir():
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(source, target)
            else:
                shutil.copy2(source, target)
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in benchmark["workloads"]]
        metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
        main_runs = run_pairs(trees, workloads, args.seeds, seconds)
        main_warm = alternate(trees, args.seeds, warm_once, "seed bundled warm ms")
        fresh_runs = run_pairs(trees, workloads, args.fresh, seconds) if args.fresh else None
        fresh_warm = alternate(trees, args.fresh, warm_once, "seed bundled warm ms") if args.fresh else None
        traced = run_pairs(trees, workloads, list(range(1, TRACE_RUNS + 1)), seconds, trace=1)
    summary = {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"python3 bench/run.py --workload W --seed K --seconds {seconds} --trace 0",
        "seeds": [args.seeds[0], args.seeds[-1]],
        "workloads": {w: workload_summary(main_runs[w], metrics) for w in workloads},
        "bundled_warm_ms": warm_summary(main_warm),
        "tier1_s": tier1_summary(tier1),
        "by_layer": {
            "command": f"python3 bench/run.py --workload W --seed K --seconds {seconds} --trace 1",
            "seeds": [1, TRACE_RUNS],
            "workloads": {w: layer_summary(traced[w], benchmark["per_layer"]) for w in workloads},
        },
    }
    if fresh_runs:
        summary["fresh_seed_pairs"] = {
            "seeds": [args.fresh[0], args.fresh[-1]],
            "workloads": {w: workload_summary(fresh_runs[w], metrics) for w in workloads},
            "bundled_warm_ms": warm_summary(fresh_warm),
        }
    print(json.dumps(summary))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
