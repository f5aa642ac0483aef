"""Whether two versions of the package write the same JSON reports, byte for byte.

    python scripts/report_bytes.py OLD/src NEW/src --seeds 1-10

Each side runs in its own interpreter with its ``src`` directory first on
the path.  It takes every valid document of bench/workloads.py's
user_matrices(seed) and scenario_stream(seed), for each seed of the
inclusive range, and the bundled scenarios/*.json of this checkout, through
parse_config, run and emit_report(..., "json").  Prints how many reports
are identical, and for each report that differs its name and the first line
on which the two sides part.  Exits 1 if any report differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def documents(first: int, last: int) -> dict[str, str]:
    """Every report's name and document, in a fixed order."""
    docs = {}
    for seed in range(first, last + 1):
        texts, malformed = workloads.user_matrices(seed)
        docs.update((f"user-matrices seed {seed} #{k}", t) for k, (t, bad) in enumerate(zip(texts, malformed)) if not bad)
        docs.update((f"scenario-stream seed {seed} #{k}", t) for k, t in enumerate(workloads.scenario_stream(seed)))
    docs.update((f"bundled {p.name}", p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json")))
    return docs


def emit(src: str, first: int, last: int) -> None:
    """Print one JSON object: each report's name and its text, as the package in ``src`` writes it."""
    sys.path.insert(0, src)
    from twocopy.scenarios import emit_report, parse_config, run

    reports = {name: emit_report(run(parse_config(doc)), "json") for name, doc in documents(first, last).items()}
    json.dump(reports, sys.stdout)


def reports(src: str, seeds: str) -> dict[str, str]:
    cmd = [sys.executable, __file__, "--emit", str(Path(src).resolve()), "--seeds", seeds]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x.strip()} | {y.strip()}"
    return f"one side ends first ({len(a)} against {len(b)} characters)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="SRC", help="the two src directories to compare")
    parser.add_argument("--seeds", required=True, help="an inclusive range of workload seeds, A-B")
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    if args.emit:
        emit(args.emit, first, last)
        return
    if len(args.sides) != 2:
        parser.error("give two src directories")
    old, new = (reports(src, args.seeds) for src in args.sides)
    differ = [name for name in old if old[name] != new[name]]
    print(f"{len(old) - len(differ)} identical of {len(old)} reports (seeds {first}-{last})")
    for name in differ:
        print(f"differs: {name}: {first_difference(old[name], new[name])}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
