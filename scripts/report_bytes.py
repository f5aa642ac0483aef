"""Whether two versions of the package write the same JSON reports, refusals and CLI output, byte for byte.

    python scripts/report_bytes.py OLD/src NEW/src --seeds 1-10

Each side runs in its own interpreter with its ``src`` directory first on
the path.  It takes every document of bench/workloads.py's
user_matrices(seed) and scenario_stream(seed), for each seed of the
inclusive range, four more per seed whose kets have norm 1 + 9e-11 or
1 - 9e-11 (a pure-copies and a pure-de-finetti document each), and the
bundled scenarios/*.json of this checkout.  A document that parse_config
accepts gives the text of emit_report(run(...), "json"), one it refuses the
text of its ConfigError.

The same interpreter then calls twocopy.cli.main on the fixed argv lists of
cli_runs() and records each run's exit code, stdout and stderr: the bundled
scenarios with ``--format json --seed S`` and with ``--seed S`` (the
default table format, whose check lines are written from each config's
``expect``) for each seed of the range, and
``--seed``, ``--shots`` and ``--phase-points`` overrides on
scenarios/phase-averaged.json, accepted and refused.  The runs take place
in a temporary directory that holds a link to scenarios/ and the document
OVERRIDDEN, whose shots and points only the overrides make valid, so every
path the CLI prints is the same on both sides.  Last, it records the
``float.hex`` of decomposition_infimum_oracle on every state of
oracle_sweep(seed), with that state's own oracle seed.

Prints how many reports, refusals, CLI runs and oracle values are
identical, and for each that differs its name and the first line on which
the two sides part.  Exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import seed_range  # noqa: E402

# a ket norm inside the ket's own bound (1e-10) whose two-copy state has a
# trace defect of about 3.6e-10, outside the state's
NEAR_NORMS = (1 + 9e-11, 1 - 9e-11)


def nearly_normalized(seed: int) -> dict[str, str]:
    """A pure-copies and a 3-member pure-de-finetti document for each norm in NEAR_NORMS."""
    rng = np.random.default_rng(seed)
    docs = {}
    for norm in NEAR_NORMS:
        ket = workloads.vector_json(workloads.haar_ket(rng) * norm)
        members = [{"weight": float(w), "ket": workloads.vector_json(workloads.haar_ket(rng) * norm)}
                   for w in rng.dirichlet(np.ones(3))]
        docs[f"pure-copies at norm {norm!r}"] = json.dumps({"scenario": "pure-copies", "parameters": {"ket": ket}})
        docs[f"pure-de-finetti at norm {norm!r}"] = json.dumps(
            {"scenario": "pure-de-finetti", "parameters": {"members": members}}
        )
    return docs


def documents(first: int, last: int) -> dict[str, str]:
    """Every document's name and text, in a fixed order."""
    docs = {}
    for seed in range(first, last + 1):
        texts, _ = workloads.user_matrices(seed)
        docs.update((f"user-matrices seed {seed} #{k}", t) for k, t in enumerate(texts))
        docs.update((f"scenario-stream seed {seed} #{k}", t) for k, t in enumerate(workloads.scenario_stream(seed)))
        docs.update((f"seed {seed} {name}", t) for name, t in nearly_normalized(seed).items())
    docs.update((f"bundled {p.name}", p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json")))
    return docs


# a document the parser refuses for its shots and its points, unless overrides replace both
OVERRIDDEN = ("overridden.json", {"scenario": "phase-averaged", "shots": 0, "parameters": {"points": 2}})


def cli_runs(first: int, last: int) -> list[list[str]]:
    """Every CLI run's argv, in a fixed order; paths are relative to the directory the runs take place in."""
    bundled = [f"scenarios/{p.name}" for p in sorted((ROOT / "scenarios").glob("*.json"))]
    phase = "scenarios/phase-averaged.json"
    runs = [[*fmt, "--seed", str(seed), *bundled]
            for seed in range(first, last + 1) for fmt in (["--format", "json"], [])]
    runs += [["--seed", "123456789", "--shots", "300", phase], ["--format", "json", "--seed", "5", "--shots", "300", phase]]
    for points in ("8", "discretized", "exact", " +12 ", "4096"):
        runs.append(["--format", "json", "--phase-points", points, phase])
    runs += [
        ["--seed", "-1", phase],
        ["--shots", "9223372036854775808", phase],
        ["--phase-points", "8", "scenarios/pure-copies-bell.json"],
        ["--phase-points", "1" * 5000, phase],
        ["--phase-points", "2", phase],
        ["--format", "json", "--shots", "100", "--phase-points", "64", OVERRIDDEN[0]],
    ]
    return runs


def run_name(argv: list[str]) -> str:
    return shlex.join(arg if len(arg) <= 40 else f"<{len(arg)} characters>" for arg in argv)


def run_cli(main, argv: list[str]) -> str:
    """The exit code, stdout and stderr of ``main(argv)`` as one text; an exit through SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\nstdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"


def emit(src: str, first: int, last: int) -> None:
    """Print one JSON object: each document's report or refusal, each CLI run's output and each oracle value, from ``src``."""
    sys.path.insert(0, src)
    from twocopy import SINGLE_COPY, DensityOperator, decomposition_infimum_oracle
    from twocopy.cli import main as cli_main
    from twocopy.scenarios import ConfigError, emit_report, parse_config, run

    texts = {}
    for name, doc in documents(first, last).items():
        try:
            texts[name] = {"report": emit_report(run(parse_config(doc)), "json")}
        except ConfigError as exc:
            texts[name] = {"refusal": str(exc)}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("scenarios").symlink_to(ROOT / "scenarios")
        Path(OVERRIDDEN[0]).write_text(json.dumps(OVERRIDDEN[1]))
        for argv in cli_runs(first, last):
            texts[f"cli {run_name(argv)}"] = {"cli run": run_cli(cli_main, argv)}
    for seed in range(first, last + 1):
        for k, s in enumerate(workloads.oracle_sweep(seed)):
            rho = DensityOperator(SINGLE_COPY, np.array([[complex(*z) for z in row] for row in s["rho"]]))
            texts[f"oracle-sweep seed {seed} #{k}"] = {"oracle value": decomposition_infimum_oracle(rho, s["seed"]).hex()}
    json.dump(texts, sys.stdout)


def outputs(src: str, first: int, last: int) -> dict[str, dict[str, str]]:
    cmd = [sys.executable, __file__, "--emit", str(Path(src).resolve()), "--seeds", f"{first}-{last}"]
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def first_difference(a: str, b: str) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x.strip()} | {y.strip()}"
    return f"one side ends first ({len(a)} against {len(b)} characters)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="SRC", help="the two src directories to compare")
    parser.add_argument("--seeds", required=True, type=seed_range, help="one workload seed K, or an inclusive range A-B")
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    first, last = args.seeds[0], args.seeds[-1]
    if args.emit:
        emit(args.emit, first, last)
        return
    if len(args.sides) != 2:
        parser.error("give two src directories")
    old, new = (outputs(src, first, last) for src in args.sides)
    differ = [name for name in old if old[name] != new[name]]
    counts = []
    kinds = (("report", "reports"), ("refusal", "refusals"), ("cli run", "CLI runs"), ("oracle value", "oracle values"))
    for kind, plural in kinds:
        names = [name for name in old if kind in old[name]]
        same = sum(name not in differ for name in names)
        counts.append(f"{same} identical of {len(names)} {plural}")
    print(f"{counts[0]} and {counts[1]}, {counts[2]}, and {counts[3]} (seeds {first}-{last})")
    for name in differ:
        a, b = ("\n".join(f"{kind}: {text}" for kind, text in side[name].items()) for side in (old, new))
        print(f"differs: {name}: {first_difference(a, b)}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
