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

``scenario`` names a row of :data:`SCENARIOS`.  Complex numbers are written
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
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Union, get_type_hints

import numpy as np

from .linalg import COPY_MAJOR, SINGLE_COPY, DensityOperator, Ket
from .measures import ensemble_upper_bound_entanglement
from .protocol import (
    MAX_SHOTS,
    EstimateVerdict,
    OutcomeDistribution,
    ShotRecord,
    evaluate_scenario,
    joint_outcome_distribution,
    sample_outcomes,
)
from .states import (
    OUTCOMES,
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
class ScenarioConfig:
    """A parsed scenario with its two-copy state, built and validated once by :func:`build_state`."""

    scenario: str
    parameters: dict
    state: DensityOperator = field(compare=False, repr=False)
    seed: int = 0
    shots: Optional[int] = None
    # metric -> the entry the report echoes: {"value": v} for a boolean metric, {"value": v, "tol": t} otherwise
    expect: dict = field(default_factory=dict)
    default_tolerance: float = DEFAULT_EXPECT_TOL

    def to_dict(self) -> dict:
        """The document as a report echoes it: every field but ``state``, and ``expect`` only when non-empty."""
        return {name: getattr(self, name) for name in _ECHOED_FIELDS if name != "expect" or self.expect}


_ECHOED_FIELDS = tuple(f.name for f in fields(ScenarioConfig) if f.name != "state")


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
    """A plain number, as :func:`_number_grid` defines it, as a float; None for anything else.

    ``json.loads`` accepts NaN, Infinity, overflowing literals such as 1e400
    and integers of any size; none of them may reach a report.
    """
    grid = _number_grid(node)
    return float(node) if grid and not grid[0] else None


def _number_grid(node) -> Optional[tuple[tuple[int, ...], list]]:
    """The shape and row-major leaves of ``node`` if it is a rectangular nest of lists of plain numbers.

    A plain number is a finite exact ``int`` or ``float``: not a bool, a
    numpy scalar, a non-finite float or an integer beyond the float range,
    which the parser refuses and ``%s`` would write otherwise than
    ``json.dumps``.  Rows must be lists of one length, none empty.
    """
    shape, leaves = [], [node]
    while (kinds := set(map(type, leaves))) == {list}:
        width = len(leaves[0])
        if not width or set(map(len, leaves)) != {width}:
            return None
        shape.append(width)
        leaves = list(chain.from_iterable(leaves))
    try:
        # math.isfinite overflows on an integer beyond the float range, such as 10**400
        return (tuple(shape), leaves) if kinds <= {int, float} and all(map(math.isfinite, leaves)) else None
    except OverflowError:
        return None


def _parse_amplitudes(node, shape: tuple[int, ...], where: str, problems: list[str]):
    """An array of ``shape`` amplitudes; each leaf is a number or an [re, im] pair of finite numbers.

    One reader, as :func:`_dumps` writes: a node that is a :func:`_number_grid`
    of ``shape``, all bare numbers, or of ``shape + (2,)``, all pairs, is read
    in one step, down to a single leaf of shape ``()``.  Any other node is
    refused if it is a leaf or not a list of ``shape[0]`` entries, and read
    entry by entry otherwise, so one array may mix the two forms.  Each
    refusal is appended to ``problems`` under its index path, in order.
    """
    grid = _number_grid(node)
    if grid and grid[0] in (shape, shape + (2,)):
        parts = np.array(grid[1], dtype=float).reshape(grid[0])
        return parts.astype(complex) if parts.shape == shape else parts.view(complex).reshape(shape)
    if not shape:
        problems.append(f"{where}: expected a finite number or [re, im] pair, got {reprlib.repr(node)}")
        return 0j
    if not isinstance(node, list) or len(node) != shape[0]:
        wanted = f"a list of {shape[0]} amplitudes" if len(shape) == 1 else f"a {'x'.join(map(str, shape))} matrix"
        problems.append(f"{where}: expected {wanted}")
        return np.zeros(shape, dtype=complex)
    return np.array([_parse_amplitudes(v, shape[1:], f"{where}[{i}]", problems) for i, v in enumerate(node)])


def _parse_expectations(node, default_tol: float, scenario: str, problems: list[str]) -> dict:
    """The ``expect`` mapping as the report echoes it, appending a refusal for each bad entry."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        problems.append("expect: must be a mapping of metric name to {value, tol}")
        return {}
    expect = {}
    for metric, spec in node.items():
        if metric not in METRIC_NAMES:
            problems.append(f"expect.{_key(metric)}: unknown metric (choose from {', '.join(METRIC_NAMES)})")
        elif not isinstance(spec, dict) or "value" not in spec:
            problems.append(f"expect.{metric}: must be a mapping with a 'value' entry")
        elif unknown := [k for k in spec if k not in ("value", "tol")]:
            problems.append(f"expect.{metric}: unknown keys {reprlib.repr(unknown)}")
        elif metric == "truth_decomposition_bound" and SCENARIOS[scenario].decomposition_bound is None:
            problems.append(f"expect.{metric}: not reported by scenario {scenario!r}, which has no decomposition")
        elif metric in _BOOLEAN_METRICS and not isinstance(spec["value"], bool):
            problems.append(f"expect.{metric}: value must be a boolean")
        elif metric in _BOOLEAN_METRICS and "tol" in spec:
            problems.append(f"expect.{metric}: tol does not apply to a boolean value")
        elif metric in _BOOLEAN_METRICS:
            expect[metric] = {"value": spec["value"]}
        elif (value := _finite(spec["value"])) is None:
            problems.append(f"expect.{metric}: value must be a finite number")
        elif (tol := _finite(spec.get("tol", default_tol))) is None or tol < 0:
            problems.append(f"expect.{metric}: tol must be a finite nonnegative number")
        else:
            expect[metric] = {"value": value, "tol": tol}
    return expect


def parse_config(text: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate one JSON scenario document, including its state.

    ``overrides`` holds document fields that replace the document's own
    once the text decodes to an object and before any check, so they are
    checked, and refused, exactly as if the document had held them.  A
    mapping, such as ``{"parameters": {"points": 8}}``, is merged into the
    document's field when that is a mapping and leaves any other value to
    be refused.  ``overrides`` itself is never changed.

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
    for key, value in (overrides or {}).items():
        if not isinstance(value, dict):
            doc[key] = value
        elif isinstance(found := doc.get(key, {}), dict):
            doc[key] = {**found, **value}

    problems: list[str] = []
    for key in doc:
        if key not in _ECHOED_FIELDS:
            problems.append(f"unknown key {reprlib.repr(key)}")

    scenario = doc.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        problems.append(f"scenario: must be one of {', '.join(SCENARIOS)}, got {reprlib.repr(scenario)}")
        raise ConfigError(problems)

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        problems.append(f"seed: must be a nonnegative integer, got {reprlib.repr(seed)}")
    shots = doc.get("shots")
    if shots is not None and (not isinstance(shots, int) or isinstance(shots, bool) or not 1 <= shots <= MAX_SHOTS):
        problems.append(f"shots: must be an integer from 1 to {MAX_SHOTS}, got {reprlib.repr(shots)}")
    default_tol = _finite(doc.get("default_tolerance", DEFAULT_EXPECT_TOL))
    if default_tol is None or default_tol < 0:
        got = reprlib.repr(doc["default_tolerance"])
        problems.append(f"default_tolerance: must be a finite nonnegative number, got {got}")
        default_tol = DEFAULT_EXPECT_TOL

    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        problems.append("parameters: must be a mapping")
    expect = _parse_expectations(doc.get("expect"), default_tol, scenario, problems)
    if isinstance(parameters, dict):
        try:
            state = build_state(scenario, parameters)
        except ConfigError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(scenario, parameters, state, seed, shots, expect, default_tol)


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
        elif (weight := _finite(entry["weight"])) is None:
            problems.append(f"members[{i}].weight: must be a finite number")
        elif key not in entry:
            problems.append(f"members[{i}].{key}: required")
        else:
            try:
                member = _parse_state(entry[key], f"members[{i}].{key}", pure=key == "ket")
            except ConfigError as exc:
                problems.extend(exc.problems)
            else:
                members.append((weight, member))
    if problems:
        raise ConfigError(problems)
    return tuple(members)


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table.

    ``build`` takes the config's parameters, once their keys are checked
    against ``required`` and ``optional``, and returns the validated state.
    ``decomposition_bound``, when given, is the entanglement of an explicit
    pure-state decomposition of that state, which bounds the truth.
    """

    summary: str
    build: Callable[[dict], DensityOperator]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    decomposition_bound: Optional[float] = None


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
        decomposition_bound=ensemble_upper_bound_entanglement(phase_averaged_decomposition()),
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


def _evaluate(scenario: str, state: DensityOperator) -> tuple[OutcomeDistribution, EstimateVerdict]:
    """The state's joint outcome distribution and its verdict under the scenario's row."""
    joint = joint_outcome_distribution(state)
    return joint, evaluate_scenario(state, joint, SCENARIOS[scenario].decomposition_bound)


# Each scenario's constant states, evaluated once, keyed by the row's name and
# the state, which equals only itself.  Any other pairing of row and state is
# evaluated per run.
_CONSTANT_EVALUATIONS = {
    (name, state): _evaluate(name, state)
    for name, state in [("eve-antisym", eve_state("antisymmetric")), ("eve-sym", eve_state("symmetric"))]
    + [("phase-averaged", phase_averaged_state(points)) for points in ("exact", "discretized")]
}


def run(config: ScenarioConfig) -> ScenarioReport:
    """Evaluate a scenario deterministically and check its expectations."""
    joint, verdict = _CONSTANT_EVALUATIONS.get((config.scenario, config.state)) or _evaluate(config.scenario, config.state)
    record = sample_outcomes(joint, config.shots, config.seed) if config.shots else None

    checks = []
    for metric, entry in config.expect.items():
        actual = getattr(joint if hasattr(joint, metric) else verdict, metric)
        expected, tol = entry["value"], entry.get("tol", 0.0)
        if isinstance(expected, bool):
            passed = actual is expected
        else:
            passed = actual is not None and abs(actual - expected) <= tol
        checks.append(CheckResult(metric, expected, actual, tol, passed))
    return ScenarioReport(config.to_dict(), verdict, joint, record, tuple(checks))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


@lru_cache
def _grid_layout(shape: tuple[int, ...], indent: str) -> str:
    """The layout ``json.dumps`` gives every nest of ``shape`` at ``indent``, with a ``%s`` slot per leaf."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        outer = indent + "  " * depth
        text = f"[\n{outer}  " + f",\n{outer}  ".join([text] * shape[depth]) + f"\n{outer}]"
    return text


@lru_cache
def _mapping_layout(keys: tuple[str, ...], indent: str) -> tuple[tuple[str, ...], str]:
    """The sorted ``keys`` and the layout ``json.dumps`` gives a mapping of them at ``indent``, a ``%s`` slot per value."""
    order = tuple(sorted(keys))
    items = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in order]
    return order, f"{{\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}}}"


def _dumps(node, indent: str = "") -> str:
    """The text of ``json.dumps(node, indent=2, sort_keys=True)`` for string-keyed mappings.

    ``json.dumps`` writes indented JSON only through its pure-Python
    encoder, one generator step per node; this writes the same bytes with
    the same scalar encoders and one call per node.  A mapping is written
    into its key set's :func:`_mapping_layout`, each value by this function
    at the next indent.  A list that :func:`_number_grid` accepts, such as
    an echoed amplitude array, is written in one step: its shape's
    :func:`_grid_layout` filled by ``%``, which writes an exact ``int`` or
    ``float`` by its ``__repr__`` as ``json.dumps`` does.  An empty list,
    tuple or mapping is written as ``[]`` or ``{}``.  Mapping keys must be
    strings: any other key, such as ``1``, ``True``, ``None`` or ``1.5``,
    raises ``TypeError``, where ``json.dumps`` would write it as a string.
    """
    if isinstance(node, float) and math.isfinite(node):
        return float.__repr__(node)
    if isinstance(node, dict) and node:
        order, text = _mapping_layout(tuple(node), indent)
        inner = indent + "  "
        return text % tuple([_dumps(node[key], inner) for key in order])
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if type(node) is int:
        return int.__repr__(node)
    if isinstance(node, list) and (grid := _number_grid(node)):
        return _grid_layout(grid[0], indent) % tuple(grid[1])
    if isinstance(node, (list, tuple)) and node:
        inner = indent + "  "
        return f"[\n{inner}" + f",\n{inner}".join([_dumps(v, inner) for v in node]) + f"\n{indent}]"
    if isinstance(node, (list, tuple, dict)):
        return "{}" if isinstance(node, dict) else "[]"
    # integer subclasses and non-finite floats
    return json.dumps(node)


def report_to_json(r: ScenarioReport) -> str:
    """Structured machine format; full precision, byte-stable across runs.

    The text is that of ``json.dumps(..., indent=2, sort_keys=True)`` byte
    for byte: two-space indents, sorted keys, ASCII escapes in strings and
    floats as Python writes them with ``repr``.  The report is one plain
    mapping of its config, records and checks, written by :func:`_dumps`,
    so any value of a hand-built record is written as ``json.dumps`` writes
    it, or refused as it refuses it, and a new record field needs no edit.
    The one exception is a mapping key that is not a string, which only a
    hand-built ``config`` can hold: it raises ``TypeError``.
    """
    record = r.shot_record and {**vars(r.shot_record), "counts": dict(zip(OUTCOMES, r.shot_record.counts))}
    return _dumps({"config": r.config, "verdict": vars(r.verdict), "joint_distribution": vars(r.joint),
                   "shot_record": record, "checks": [vars(c) for c in r.checks], "all_passed": r.all_passed})


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
