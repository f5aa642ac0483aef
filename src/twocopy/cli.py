"""Command-line front end for scenario evaluation.

Exit codes: 0 when every embedded expectation holds (or none were given),
1 when an expectation is violated, 2 on configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .protocol import MAX_SHOTS
from .scenarios import (
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    emit_report,
    parse_config,
    run,
)

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_USAGE = 2


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
    parser.add_argument("configs", nargs="*", metavar="CONFIG", help="scenario JSON file(s)")
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
        default=None,
        help="override phase discretization for phase-averaged scenarios ('exact' or an integer)",
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


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates = {}
    if args.shots is not None:
        if not 1 <= args.shots <= MAX_SHOTS:
            raise ConfigError([f"--shots must be an integer from 1 to {MAX_SHOTS}"])
        updates["shots"] = args.shots
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(["--seed must be a nonnegative integer"])
        updates["seed"] = args.seed
    if args.phase_points is not None:
        if config.scenario != "phase-averaged":
            raise ConfigError(["--phase-points only applies to phase-averaged scenarios"])
        points = args.phase_points
        if points != "exact":
            try:
                points = int(points)
            except ValueError:
                raise ConfigError([f"--phase-points must be 'exact' or an integer, got {points!r}"])
        updates["parameters"] = {**config.parameters, "points": points}
    # a replaced config builds its state anew on first use
    return replace(config, **updates) if updates else config


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

    any_failed = False
    outputs = []
    for path_str in args.configs:
        path = Path(path_str)
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"twocopy: error reading {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            config = parse_config(text)
            config = _apply_overrides(config, args)
            report = run(config)
        except ConfigError as exc:
            print(f"twocopy: {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        outputs.append(emit_report(report, args.format))
        if not report.all_passed:
            any_failed = True

    rendered = "\n\n".join(outputs)
    if args.output is not None:
        args.output.write_text(rendered + "\n")
    else:
        print(rendered)
    return EXIT_EXPECTATION_FAILED if any_failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
