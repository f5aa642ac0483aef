"""Scenario configuration, execution, and report serialization.

A scenario is described by one JSON document:

    {
      "scenario": "phase-averaged",
      "seed": 1,
      "shots": 100000,
      "parameters": {"points": "exact"},
      "default_tolerance": 1e-9,
      "expect": {
        "p_a_alice": {"value": 0.25, "tol": 1e-12},
        "naive_concurrence": {"value": 1.0},
        "estimator_valid": {"value": true}
      }
    }

``scenario`` is one of pure-copies, de-finetti, pure-de-finetti,
phase-averaged, eve-antisym, eve-sym, custom.  Complex numbers are written
as [re, im] pairs; kets are lists of 4 such pairs, matrices are nested
lists of them (4x4 for single-copy hypotheses, 16x16 for custom states).
``seed`` defaults to 0 and ``shots`` to none.  Expected values without a
``tol`` use ``default_tolerance``; boolean metrics must match exactly.

Reports serialize to JSON losslessly: parsing an emitted structured report
reconstructs an equal report.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional, Union, get_type_hints

import numpy as np

from .linalg import COPY_MAJOR, SINGLE_COPY, DensityOperator, Ket
from .protocol import (
    MAX_SHOTS,
    OUTCOMES,
    EstimateVerdict,
    OutcomeDistribution,
    ShotRecord,
    evaluate_scenario,
    joint_outcome_distribution,
    sample_outcomes,
)
from .states import (
    custom_state,
    de_finetti_state,
    eve_state,
    identical_pure_copies,
    phase_averaged_decomposition,
    phase_averaged_state,
    pure_de_finetti_state,
)

# every field of the two report records is a metric an expectation may name
METRIC_NAMES = tuple(f.name for record in (EstimateVerdict, OutcomeDistribution) for f in fields(record))
# an expectation's value takes its metric's type, read from the field annotations
_BOOLEAN_METRICS = frozenset(
    name for record in (EstimateVerdict, OutcomeDistribution) for name, kind in get_type_hints(record).items() if kind is bool
)

DEFAULT_EXPECT_TOL = 1e-9  # how close a numeric expectation without its own tol must come


class ConfigError(ValueError):
    """Invalid scenario configuration; carries every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class Expectation:
    metric: str
    value: Union[float, bool]
    tol: float


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario with its two-copy state, built and validated once by :func:`build_state`."""

    scenario: str
    parameters: dict
    state: DensityOperator = field(compare=False, repr=False)
    seed: int = 0
    shots: Optional[int] = None
    expectations: tuple[Expectation, ...] = ()
    default_tolerance: float = DEFAULT_EXPECT_TOL

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "seed": self.seed,
            "shots": self.shots,
            "default_tolerance": self.default_tolerance,
        }
        if self.expectations:
            doc["expect"] = {
                e.metric: ({"value": e.value} if isinstance(e.value, bool) else {"value": e.value, "tol": e.tol})
                for e in self.expectations
            }
        return doc


@dataclass(frozen=True)
class CheckResult:
    metric: str
    expected: Union[float, bool]
    actual: Union[float, bool, None]
    tol: float
    passed: bool


@dataclass(frozen=True)
class ScenarioReport:
    config: dict
    verdict: EstimateVerdict
    joint: OutcomeDistribution
    shot_record: Optional[ShotRecord]
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _key(key: str) -> str:
    """A config key as a refusal echoes it: as written, or shortened by ``reprlib`` when long."""
    short = reprlib.repr(key)
    return key if short == repr(key) else short


def _finite(node) -> Optional[float]:
    """A JSON number as a finite float; None for anything else.

    ``json.loads`` accepts NaN, Infinity, overflowing literals such as 1e400
    and integers of any size; none of them may reach a report.
    """
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    try:
        x = float(node)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _parse_amplitudes(node, shape: tuple[int, ...], where: str, problems: list[str]):
    """An array of ``shape`` amplitudes; each leaf is a number or an [re, im] pair of finite numbers.

    An array written in one form throughout, all bare numbers or all pairs,
    is read in one step; anything else takes the leaf-by-leaf walk, which
    alone reads mixed forms and writes refusals.
    """
    leaves = np.array(node, dtype=object)
    if leaves.shape in (shape, shape + (2,)) and set(map(type, leaves.flat)) <= {int, float}:
        try:
            parts = leaves.astype(float)
        except OverflowError:
            parts = None
        if parts is not None and np.isfinite(parts).all():
            out = np.empty(shape, dtype=complex)
            out.real, out.imag = (parts, 0.0) if leaves.shape == shape else (parts[..., 0], parts[..., 1])
            return out
    return _walk_amplitudes(node, shape, where, problems)


def _walk_amplitudes(node, shape: tuple[int, ...], where: str, problems: list[str]):
    """:func:`_parse_amplitudes` one leaf at a time, appending a refusal for each bad leaf or list."""
    if not shape:
        parts = node if isinstance(node, list) and len(node) == 2 else (node, 0)
        re, im = _finite(parts[0]), _finite(parts[1])
        if re is None or im is None:
            problems.append(f"{where}: expected a finite number or [re, im] pair, got {reprlib.repr(node)}")
            return 0j
        return complex(re, im)
    if not isinstance(node, list) or len(node) != shape[0]:
        wanted = f"a list of {shape[0]} amplitudes" if len(shape) == 1 else f"a {'x'.join(map(str, shape))} matrix"
        problems.append(f"{where}: expected {wanted}")
        return np.zeros(shape, dtype=complex)
    return np.array([_walk_amplitudes(v, shape[1:], f"{where}[{i}]", problems) for i, v in enumerate(node)])


def _parse_expectations(node, default_tol: float, scenario: str, problems: list[str]) -> tuple[Expectation, ...]:
    if node is None:
        return ()
    if not isinstance(node, dict):
        problems.append("expect: must be a mapping of metric name to {value, tol}")
        return ()
    out = []
    for metric, spec in node.items():
        if metric not in METRIC_NAMES:
            problems.append(f"expect.{_key(metric)}: unknown metric (choose from {', '.join(METRIC_NAMES)})")
            continue
        if not isinstance(spec, dict) or "value" not in spec:
            problems.append(f"expect.{metric}: must be a mapping with a 'value' entry")
            continue
        if unknown := [k for k in spec if k not in ("value", "tol")]:
            problems.append(f"expect.{metric}: unknown keys {reprlib.repr(unknown)}")
            continue
        if metric == "truth_decomposition_bound" and SCENARIOS[scenario].decomposition is None:
            problems.append(f"expect.{metric}: not reported by scenario {scenario!r}, which has no decomposition")
            continue
        value = spec["value"]
        if metric in _BOOLEAN_METRICS:
            if not isinstance(value, bool):
                problems.append(f"expect.{metric}: value must be a boolean")
            elif "tol" in spec:
                problems.append(f"expect.{metric}: tol does not apply to a boolean value")
            else:
                out.append(Expectation(metric, value, 0.0))
            continue
        if _finite(value) is None:
            problems.append(f"expect.{metric}: value must be a finite number")
            continue
        tol = _finite(spec.get("tol", default_tol))
        if tol is None or tol < 0:
            problems.append(f"expect.{metric}: tol must be a finite nonnegative number")
            continue
        out.append(Expectation(metric, _finite(value), tol))
    return tuple(out)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate one JSON scenario document, including its state.

    Raises :class:`ConfigError` listing every violation found.
    """
    # ValueError also covers an integer literal beyond int()'s 4,300 digits;
    # RecursionError comes from nesting deeper than the interpreter's limit
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top-level document must be a JSON object"])

    problems: list[str] = []
    known_keys = {"scenario", "parameters", "seed", "shots", "expect", "default_tolerance"}
    for key in doc:
        if key not in known_keys:
            problems.append(f"unknown key {reprlib.repr(key)}")

    scenario = doc.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        problems.append(f"scenario: must be one of {', '.join(SCENARIOS)}, got {reprlib.repr(scenario)}")
        raise ConfigError(problems)

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        problems.append(f"seed: must be a nonnegative integer, got {reprlib.repr(seed)}")
        seed = 0
    shots = doc.get("shots")
    if shots is not None and (not isinstance(shots, int) or isinstance(shots, bool) or not 1 <= shots <= MAX_SHOTS):
        problems.append(f"shots: must be an integer from 1 to {MAX_SHOTS}, got {reprlib.repr(shots)}")
        shots = None
    default_tol = _finite(doc.get("default_tolerance", DEFAULT_EXPECT_TOL))
    if default_tol is None or default_tol < 0:
        got = reprlib.repr(doc["default_tolerance"])
        problems.append(f"default_tolerance: must be a finite nonnegative number, got {got}")
        default_tol = DEFAULT_EXPECT_TOL

    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        problems.append("parameters: must be a mapping")
    expectations = _parse_expectations(doc.get("expect"), default_tol, scenario, problems)
    if isinstance(parameters, dict):
        try:
            state = build_state(scenario, parameters)
        except ConfigError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(scenario, parameters, state, seed, shots, expectations, default_tol)


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------


def _parse_state(node, where: str, labels=SINGLE_COPY, pure: bool = False):
    """A ket (``pure``) or density operator on ``labels``, validated exactly once."""
    problems: list[str] = []
    dim = 2 ** len(labels)
    entries = _parse_amplitudes(node, (dim,) if pure else (dim, dim), where, problems)
    if problems:
        raise ConfigError(problems)
    try:
        return (Ket if pure else DensityOperator)(labels, entries)
    except ValueError as exc:
        raise ConfigError([f"{where}: {exc}"]) from None


def _members(node, key: str) -> tuple:
    """(weight, member) pairs; members are kets for key "ket", densities for "rho"."""
    if not isinstance(node, list) or not node:
        raise ConfigError(["members: expected a nonempty list"])
    members, problems = [], []
    for i, entry in enumerate(node):
        if not isinstance(entry, dict) or "weight" not in entry:
            problems.append(f"members[{i}]: expected a mapping with 'weight'")
        elif unknown := [k for k in entry if k not in ("weight", key)]:
            problems.append(f"members[{i}]: unknown keys {reprlib.repr(unknown)}")
        elif _finite(entry["weight"]) is None:
            problems.append(f"members[{i}].weight: must be a finite number")
        elif key not in entry:
            problems.append(f"members[{i}].{key}: required")
        else:
            try:
                member = _parse_state(entry[key], f"members[{i}].{key}", pure=key == "ket")
            except ConfigError as exc:
                problems.extend(exc.problems)
            else:
                members.append((_finite(entry["weight"]), member))
    if problems:
        raise ConfigError(problems)
    return tuple(members)


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table.

    ``build`` takes the config's parameters, once their keys are checked
    against ``required`` and ``optional``, and returns the validated state.
    ``decomposition``, when given, returns an explicit pure-state
    decomposition of that state whose entanglement bounds the truth.
    """

    summary: str
    build: Callable[[dict], DensityOperator]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    decomposition: Optional[Callable[[], tuple[tuple[float, Ket], ...]]] = None


# The builders look the state constructors up by name on every call, so a
# wrapper installed on those names, such as a call tracer, sees every build.
SCENARIOS = {
    "pure-copies": Scenario(
        "two identical copies of a given pure 2-qubit ket",
        lambda p: identical_pure_copies(_parse_state(p["ket"], "ket", pure=True)),
        required=("ket",),
    ),
    "de-finetti": Scenario(
        "mixture of identical per-copy mixed-state hypotheses",
        lambda p: de_finetti_state(_members(p["members"], "rho")),
        required=("members",),
    ),
    "pure-de-finetti": Scenario(
        "mixture of identical per-copy pure-state hypotheses",
        lambda p: pure_de_finetti_state(_members(p["members"], "ket")),
        required=("members",),
    ),
    "phase-averaged": Scenario(
        "two maximally entangled copies with a shared unknown phase",
        lambda p: phase_averaged_state(p.get("points", "exact")),
        optional=("points",),
        decomposition=phase_averaged_decomposition,
    ),
    "eve-antisym": Scenario(
        "adversarial singlets on both local pairs (p_a forced to 1)",
        lambda p: eve_state("antisymmetric"),
    ),
    "eve-sym": Scenario(
        "adversarial symmetric states on both local pairs (p_a forced to 0)",
        lambda p: eve_state("symmetric"),
    ),
    "custom": Scenario(
        "explicit 16x16 two-copy density matrix",
        lambda p: custom_state(_parse_state(p["rho"], "rho", labels=COPY_MAJOR)),
        required=("rho",),
    ),
}


def build_state(scenario: str, parameters: dict) -> DensityOperator:
    """Construct the scenario's two-copy state from its parameters.

    Raises :class:`ConfigError` listing every problem with the parameters.
    """
    entry = SCENARIOS[scenario]
    problems = [
        f"parameters.{_key(key)}: not a parameter of scenario {scenario!r}"
        for key in parameters
        if key not in entry.required + entry.optional
    ]
    missing = [f"parameters.{key}: required for {scenario}" for key in entry.required if key not in parameters]
    if missing:
        raise ConfigError(problems + missing)
    try:
        state = entry.build(parameters)
    except ConfigError as exc:
        problems.extend(exc.problems)
    except ValueError as exc:
        problems.append(f"parameters: {exc}")
    if problems:
        raise ConfigError(problems)
    return state


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run(config: ScenarioConfig) -> ScenarioReport:
    """Evaluate a scenario deterministically and check its expectations."""
    state = config.state
    joint = joint_outcome_distribution(state)
    decomposition = SCENARIOS[config.scenario].decomposition
    verdict = evaluate_scenario(state, joint, decomposition=decomposition() if decomposition else None)
    record = sample_outcomes(joint, config.shots, config.seed) if config.shots else None

    checks = []
    for exp in config.expectations:
        actual = getattr(joint if hasattr(joint, exp.metric) else verdict, exp.metric)
        if isinstance(exp.value, bool):
            passed = actual is exp.value
        elif actual is None:
            passed = False
        else:
            passed = abs(actual - exp.value) <= exp.tol
        checks.append(CheckResult(exp.metric, exp.value, actual, exp.tol, passed))
    return ScenarioReport(
        config=config.to_dict(),
        verdict=verdict,
        joint=joint,
        shot_record=record,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _dumps(node, indent: str = "") -> str:
    """The text of ``json.dumps(node, indent=2, sort_keys=True)`` for string-keyed mappings.

    ``json.dumps`` writes indented JSON only through its pure-Python
    encoder, one generator step per node; this writes the same bytes with
    the same scalar encoders and one call per node.
    """
    if isinstance(node, float) and math.isfinite(node):
        return float.__repr__(node)
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if node and isinstance(node, (list, tuple, dict)):
        inner = indent + "  "
        if isinstance(node, dict):
            items = [f"{encode_basestring_ascii(k)}: {_dumps(node[k], inner)}" for k in sorted(node)]
            opening, closing = "{", "}"
        else:
            items = [_dumps(v, inner) for v in node]
            opening, closing = "[", "]"
        return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"
    # None, booleans, integers, non-finite floats and empty containers
    return json.dumps(node)


def report_to_json(r: ScenarioReport) -> str:
    """Structured machine format; full precision, byte-stable across runs.

    The text is that of ``json.dumps(..., indent=2, sort_keys=True)`` byte
    for byte: two-space indents, sorted keys, ASCII escapes in strings and
    floats as Python writes them with ``repr``.
    """
    record = None
    if r.shot_record is not None:
        record = {**vars(r.shot_record), "counts": dict(zip(OUTCOMES, r.shot_record.counts))}
    doc = {
        "config": r.config,
        "verdict": vars(r.verdict),
        "joint_distribution": vars(r.joint),
        "shot_record": record,
        "checks": [vars(c) for c in r.checks],
        "all_passed": r.all_passed,
    }
    return _dumps(doc)


def report_from_json(text: str) -> ScenarioReport:
    doc = json.loads(text)
    record = doc.get("shot_record")
    if record is not None:
        record = ShotRecord(**{**record, "counts": tuple(record["counts"][k] for k in OUTCOMES)})
    return ScenarioReport(
        config=doc["config"],
        verdict=EstimateVerdict(**doc["verdict"]),
        joint=OutcomeDistribution(**doc["joint_distribution"]),
        shot_record=record,
        checks=tuple(CheckResult(**c) for c in doc.get("checks", [])),
    )


def _sig(x: Optional[float]) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if x == 0:
        return "0"
    return f"{x:.6g}"


def render_table(r: ScenarioReport) -> str:
    """Human-readable aligned table; values shown to 6 significant digits."""
    rows: list[tuple[str, str]] = [
        ("scenario", str(r.config.get("scenario"))),
        ("seed", str(r.config.get("seed"))),
        *((f.name, _sig(getattr(r.verdict, f.name))) for f in fields(EstimateVerdict)),
        ("joint p_aa/p_as/p_sa/p_ss", "/".join(_sig(p) for p in r.joint.as_tuple())),
    ]
    if r.shot_record is not None:
        rows.append(("shots", str(r.shot_record.shots)))
        rows.append(("counts aa/as/sa/ss", "/".join(str(c) for c in r.shot_record.counts)))
        rows.append(("sampling seed", str(r.shot_record.seed)))
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    if r.checks:
        lines.append("")
        lines.append("checks:")
        for c in r.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.metric}: expected {_sig(c.expected)}"
                + ("" if isinstance(c.expected, bool) else f" +- {c.tol:g}")
                + f", got {_sig(c.actual)}"
            )
        lines.append(f"result: {'all expectations met' if r.all_passed else 'EXPECTATION VIOLATED'}")
    return "\n".join(lines)


def emit_report(r: ScenarioReport, format: str = "table") -> str:
    """Render a report as 'json' (machine, lossless) or 'table' (human)."""
    if format == "json":
        return report_to_json(r)
    if format == "table":
        return render_table(r)
    raise ValueError(f"format must be 'json' or 'table', got {format!r}")
