"""Command-line front end for scenario evaluation.

Exit codes: 0 when every embedded expectation holds (or none were given),
1 when an expectation is violated, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .scenarios import SCENARIOS, ConfigError, emit_report, parse_config, run

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_USAGE = 2


def _integer_or_text(text: str) -> int | str:
    """``text`` as an integer when ``int`` reads it, else as it is, for the parser to accept or refuse."""
    try:
        return int(text)
    except ValueError:
        return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twocopy",
        description=(
            "Evaluate two-copy entanglement-estimation scenarios: compute antisymmetric "
            "projection probabilities, the naive concurrence estimate, joint outcome "
            "correlations, and ground-truth measures, then check any expected values "
            "embedded in the configuration."
        ),
    )
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG", help="scenario JSON file(s)")
    parser.add_argument("--shots", type=int, default=None, help="override the sampled shot count")
    parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--phase-points",
        type=_integer_or_text,
        default=None,
        help=(
            "override phase discretization for phase-averaged scenarios "
            "('exact', 'discretized' or an integer)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to a file instead of stdout (single config only)",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="list known scenario names and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name, entry in SCENARIOS.items():
            print(f"{name:<16} {entry.summary}")
        return EXIT_OK

    if not args.configs:
        parser.print_usage(sys.stderr)
        print("twocopy: error: provide at least one scenario file", file=sys.stderr)
        return EXIT_USAGE
    if args.output is not None and len(args.configs) > 1:
        print("twocopy: error: --output requires a single config", file=sys.stderr)
        return EXIT_USAGE

    # the overrides are document fields, which parse_config checks with the document's own
    overrides = {name: value for name, value in (("seed", args.seed), ("shots", args.shots)) if value is not None}
    if args.phase_points is not None:
        overrides["parameters"] = {"points": args.phase_points}
    reports = []
    for path in args.configs:
        try:
            reports.append(run(parse_config(path.read_text(encoding="utf-8"), overrides)))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"twocopy: error reading {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ConfigError as exc:
            print(f"twocopy: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    rendered = "\n\n".join(emit_report(report, args.format) for report in reports) + "\n"
    try:
        if args.output is None:
            print(rendered, end="", flush=True)
        else:
            args.output.write_text(rendered, encoding="utf-8")
    except OSError as exc:
        print(f"twocopy: error writing {args.output or 'stdout'}: {exc}", file=sys.stderr)
        if args.output is None:
            # the interpreter flushes stdout again at exit; send that to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return EXIT_OK if all(report.all_passed for report in reports) else EXIT_EXPECTATION_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
