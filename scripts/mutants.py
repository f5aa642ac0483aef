"""Run each mutant of a committed table against the tests that should kill it.

    python scripts/mutants.py

Each row of ``MUTANTS`` names one deliberate fault: a file under ``src``,
an exact old text that occurs once in it, the new text that replaces it,
the pytest node id that should fail on the result, and what the fault
breaks.  For each row, this checkout's ``src`` is copied to a temporary
directory (under ``$TMPDIR``), the one replacement is applied, and
``python -m pytest -x -vv -rfE NODE`` runs from the checkout with the copy
first on ``PYTHONPATH``.  A mutant is killed when a test fails on an
assertion: every line of pytest's short summary is ``FAILED`` with an
``AssertionError`` (an ``assert`` statement's, which pytest shows as
``assert ...``, or one raised by ``numpy.testing``) or pytest's ``Failed``
(``pytest.fail``, a ``pytest.raises`` that saw nothing raised).  It
survives when the tests pass.  It crashed when a test fails on any other
exception (a ``LinAlgError``, a ``TypeError``) or errors in its setup: a
crash shows that the fault breaks something, not that a test checks what
it breaks.  The script stops if an old text does not occur exactly once,
if the copy is not the package that gets imported, or if pytest ends
otherwise (no test collected, a usage error).

Prints one JSON line, ``{"killed": K, "total": N, "survivors": [names],
"crashed": [names], "wall_s": S}``.  Exits 1 if any mutant survives or
crashes.  Uses only the standard library and the installed pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src
    old: str
    new: str
    node: str  # the pytest node id that should fail
    breaks: str


MUTANTS = (
    Mutant(
        "keys-without-percent-doubling", "twocopy/scenarios.py",
        'encode_basestring_ascii(key).replace("%", "%%") + ": %s"', 'encode_basestring_ascii(key) + ": %s"',
        "tests/test_scenarios.py::test_hand_built_config_keys_are_written_as_the_standard_library[paired-percent-keys]",
        "a key holding % is read as a format slot when the mapping's values are filled in",
    ),
    Mutant(
        "keys-in-insertion-order", "twocopy/scenarios.py",
        "order = tuple(sorted(keys))", "order = keys",
        "tests/test_scenarios.py::test_hand_built_config_keys_are_written_as_the_standard_library",
        "a mapping's keys are written as inserted, not sorted as json.dumps(sort_keys=True) writes them",
    ),
    Mutant(
        "unbounded-mapping-cache", "twocopy/scenarios.py",
        "@lru_cache\ndef _mapping_layout(", "@lru_cache(maxsize=None)\ndef _mapping_layout(",
        "tests/test_scenarios.py::test_more_key_sets_than_the_layout_cache_holds_match_the_standard_library",
        "the mapping layouts grow with every distinct key set a process writes",
    ),
    Mutant(
        "unbounded-grid-cache", "twocopy/scenarios.py",
        "@lru_cache\ndef _grid_layout(", "@lru_cache(maxsize=None)\ndef _grid_layout(",
        "tests/test_scenarios.py::test_more_grid_shapes_than_the_layout_cache_holds_match_the_standard_library",
        "the grid layouts grow with every distinct amplitude shape a process writes",
    ),
    Mutant(
        "grid-layout-ignores-indent", "twocopy/scenarios.py",
        'outer = indent + "  " * depth', 'outer = "  " * depth',
        "tests/test_scenarios.py::test_more_grid_shapes_than_the_layout_cache_holds_match_the_standard_library",
        "an amplitude array below the top level is written at the top level's indent",
    ),
    Mutant(
        "empty-mapping-as-list", "twocopy/scenarios.py",
        'return "{}" if isinstance(node, dict) else "[]"', 'return "[]"',
        "tests/test_properties.py::test_json_writer_matches_the_standard_library_on_number_grids",
        "an empty mapping is written as [] and reads back as a list",
    ),
    Mutant(
        "shot-record-without-length-check", "twocopy/protocol.py",
        "        if len(self.counts) != len(OUTCOMES):\n"
        "            raise ValueError(f\"expected one count per outcome ({', '.join(OUTCOMES)}), got {len(self.counts)}\")\n",
        "",
        "tests/test_protocol.py::TestSampleOutcomes::test_counts_must_be_one_per_outcome",
        "a record with three or five counts is built, and the writer and table then misreport it",
    ),
    Mutant(
        "state-accepted-as-document-key", "twocopy/scenarios.py",
        "if key not in _ECHOED_FIELDS:", "if key not in [f.name for f in fields(ScenarioConfig)]:",
        "tests/test_scenarios.py::TestParseConfig::test_the_config_state_is_not_a_document_key",
        "a document's 'state' key is accepted and silently ignored",
    ),
    Mutant(
        "one-step-read-takes-only-pairs", "twocopy/scenarios.py",
        "if grid and grid[0] in (shape, shape + (2,)):", "if grid and grid[0] == shape + (2,):",
        "tests/test_scenarios.py::TestParseAmplitudes::test_accepted_arrays_keep_every_bit",
        "a bare number is no amplitude, so an array of bare numbers is refused leaf by leaf",
    ),
    Mutant(
        "leaf-refusal-not-appended", "twocopy/scenarios.py",
        '        problems.append(f"{where}: expected a finite number or [re, im] pair, got {reprlib.repr(node)}")\n', "",
        "tests/test_scenarios.py::TestParseAmplitudes::test_refusals_are_the_walks",
        "a bad leaf is read as 0 and the document is accepted, or refused without naming it",
    ),
    Mutant(
        "support-sum-by-broadcast", "twocopy/states.py",
        'np.einsum("n,na,nb->ab", weights, block, block)',
        "(weights[:, None, None] * block[:, :, None] * block[:, None, :]).sum(axis=0)",
        "tests/test_properties.py::test_mixture_has_the_bytes_of_the_full_einsum",
        "a sparse mixture of copies is summed in another order and loses the bytes of the full einsum",
    ),
    Mutant(
        "support-sum-optimized", "twocopy/states.py",
        'np.einsum("n,na,nb->ab", weights, block, block)', 'np.einsum("n,na,nb->ab", weights, block, block, optimize=True)',
        "tests/test_properties.py::test_mixture_has_the_bytes_of_the_full_einsum",
        "a sparse mixture of copies is contracted pairwise and loses the bytes of the full einsum",
    ),
    Mutant(
        "pure-copies-without-trace-check", "twocopy/states.py",
        "if len(amplitudes) <= TRACE_ONLY_MEMBERS and abs(m.trace() - 1.0) <= ATOL:",
        "if len(amplitudes) <= TRACE_ONLY_MEMBERS:",
        "tests/test_properties.py::test_mixtures_of_pure_copies_can_miss_only_the_trace_bound",
        "a mixture of pure copies outside the trace bound is accepted unvalidated",
    ),
    Mutant(
        "pure-copies-trace-check-at-twice-the-bound", "twocopy/states.py",
        "if len(amplitudes) <= TRACE_ONLY_MEMBERS and abs(m.trace() - 1.0) <= ATOL:",
        "if len(amplitudes) <= TRACE_ONLY_MEMBERS and abs(m.trace() - 1.0) <= 2 * ATOL:",
        "tests/test_properties.py::test_mixtures_of_pure_copies_can_miss_only_the_trace_bound",
        "a mixture of pure copies up to twice the trace bound off is accepted, where DensityOperator refuses it",
    ),
    Mutant(
        "pure-copies-without-member-count-guard", "twocopy/states.py",
        "if len(amplitudes) <= TRACE_ONLY_MEMBERS and abs(m.trace() - 1.0) <= ATOL:",
        "if abs(m.trace() - 1.0) <= ATOL:",
        "tests/test_states.py::TestTraceOnlyMixtures::test_more_members_than_the_bound_are_validated_in_full",
        "a mixture of more members than the rounding argument covers is checked by its trace alone",
    ),
    Mutant(
        "support-of-the-first-member", "twocopy/states.py",
        "support = np.flatnonzero(flat.any(axis=0))", "support = np.flatnonzero(flat[0])",
        "tests/test_properties.py::test_mixture_has_the_bytes_of_the_full_einsum",
        "an entry nonzero only in a later member is left out of the mixture of copies",
    ),
    Mutant(
        "p-as-p-sa-swapped", "twocopy/protocol.py",
        "OutcomeDistribution(*tr.real.tolist())", "OutcomeDistribution(*tr.real[[0, 2, 1, 3]].tolist())",
        "tests/test_properties.py::test_random_reports_agree_with_the_independent_reference",
        "Alice's and Bob's mixed outcomes are exchanged, so p_a_alice reads Bob's probability",
    ),
    Mutant(
        "concurrence-without-eigenvalue-clip", "twocopy/measures.py",
        "y = vecs * np.sqrt(np.maximum(lam, 0.0))", "y = vecs * np.sqrt(lam)",
        "tests/test_measures.py::TestWoottersConcurrence::test_zero_eigenvalues_rounded_below_zero_keep_the_closed_form",
        "an eigenvalue rounded below zero makes a NaN root, and the singular values of a rank-1 state fail",
    ),
    Mutant(
        "marginal-of-the-other-copy", "twocopy/states.py",
        "partial_trace(state.entries, copy)", "partial_trace(state.entries, 3 - copy)",
        "tests/test_properties.py::test_random_reports_agree_with_the_independent_reference",
        "the truth is the concurrence of copy 2 where copy 1 is asked for",
    ),
    Mutant(
        "bool-is-a-plain-number", "twocopy/scenarios.py",
        "kinds <= {int, float} and", "kinds <= {int, float, bool} and",
        "tests/test_properties.py::test_json_writer_matches_the_standard_library_on_number_grids",
        "a grid holding True is written True, where json.dumps writes true",
    ),
    Mutant(
        "number-grid-without-finiteness-check", "twocopy/scenarios.py",
        "kinds <= {int, float} and all(map(math.isfinite, leaves))", "kinds <= {int, float}",
        "tests/test_properties.py::test_json_writer_matches_the_standard_library_on_number_grids",
        "a grid holding NaN is written nan, where json.dumps writes NaN",
    ),
    Mutant(
        "number-grid-without-overflow-guard", "twocopy/scenarios.py",
        "    try:\n"
        "        # math.isfinite overflows on an integer beyond the float range, such as 10**400\n"
        "        return (tuple(shape), leaves) if kinds <= {int, float} and all(map(math.isfinite, leaves)) else None\n"
        "    except OverflowError:\n"
        "        return None\n",
        "    return (tuple(shape), leaves) if kinds <= {int, float} and all(map(math.isfinite, leaves)) else None\n",
        "tests/test_scenarios.py::TestParseAmplitudes::test_an_integer_beyond_the_float_range_is_no_plain_number",
        "[10**400] raises OverflowError in the reader and the writer, where the parser refuses it",
    ),
    Mutant(
        "oracle-start-that-never-moves", "twocopy/measures.py",
        "better = live & (moved_value < value)", "better = live & (moved_value < value) & (np.arange(len(value)) > 0)",
        "tests/test_measures.py::TestQuasiNewtonFinish::test_objective_never_rises",
        "start 0 never takes a step, so the oracle searches from fewer starts than STARTS",
    ),
    Mutant(
        "stopped-start-keeps-moving", "twocopy/measures.py",
        "better = live & (moved_value < value)", "better = moved_value < value",
        "tests/test_measures.py::TestQuasiNewtonFinish::test_a_stopped_start_stays_as_it_is",
        "a start that has stalled FINISH_STALL times keeps taking steps, so the oracle's result depends on when the others stop",
    ),
    Mutant(
        "constant-states-without-table-lookup", "twocopy/scenarios.py",
        "joint, verdict = _CONSTANT_EVALUATIONS.get((config.scenario, config.state)) or _evaluate(config.scenario, config.state)",
        "joint, verdict = _evaluate(config.scenario, config.state)",
        "tests/test_scenarios.py::TestComputedOnce::test_state_and_distribution_once_per_scenario",
        "the eve and phase-averaged states are evaluated again on every run",
    ),
    Mutant(
        "constant-states-looked-up-by-id-alone", "twocopy/scenarios.py",
        "_CONSTANT_EVALUATIONS.get((config.scenario, config.state))",
        "_CONSTANT_EVALUATIONS.get(next((k for k in _CONSTANT_EVALUATIONS if k[1] == config.state), None))",
        "tests/test_scenarios.py::TestConstantEvaluations::test_constant_state_under_another_row_takes_that_rows_bound",
        "a constant state under another scenario row gets its own row's verdict and decomposition bound",
    ),
    Mutant(
        "phase-points-looked-up-in-a-set", "twocopy/states.py",
        'if points in ("exact", "discretized"):', 'if points in {"exact", "discretized"}:',
        "tests/test_states.py::TestPhaseAveragedState::test_unhashable_points_are_refused_with_a_value_error",
        "unhashable points raise TypeError, which the parser does not turn into a refusal",
    ),
    Mutant(
        "discretized-grid-of-63-points", "twocopy/states.py",
        '"discretized": phase_averaged_state(DEFAULT_PHASE_POINTS),',
        '"discretized": phase_averaged_state(DEFAULT_PHASE_POINTS - 1),',
        "tests/test_scenarios.py::TestConstantEvaluations::test_discretized_grid_is_the_64_point_grid",
        "the shared \"discretized\" state is a 63-point grid, not the documented 64",
    ),
    Mutant(
        "alice-probability-unclamped", "twocopy/protocol.py",
        "p_alice = min(dist.p_aa + dist.p_as, 1.0)", "p_alice = dist.p_aa + dist.p_as",
        "tests/test_protocol.py::TestNaiveEstimate::test_alice_probability_above_one_within_the_tolerance_reads_one",
        "Alice's probability reads above 1 when p_aa + p_as rounds past it within the tolerance",
    ),
    Mutant(
        "construction-without-finiteness-check", "twocopy/linalg.py",
        "    if not np.isfinite(arr.view(float)).all():\n        raise ValueError(\"entries must be finite (no NaN/Inf)\")\n", "",
        "tests/test_linalg.py::TestLayout::test_construction_refusals_in_order",
        "a ket with a NaN amplitude passes its norm check, and a NaN matrix reaches the eigensolver",
    ),
    Mutant(
        "construction-keeps-labels-as-given", "twocopy/linalg.py",
        'object.__setattr__(state, "labels", labels)', 'object.__setattr__(state, "labels", state.labels)',
        "tests/test_linalg.py::TestLayout::test_labels_fix_the_shape",
        "a state built from a list of labels keeps the list, which equals neither register",
    ),
)


def mutate(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant``'s one replacement to the copy ``src``; stop unless its old text occurs exactly once."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        sys.exit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


# a short-summary line of a test that failed on an assertion:
# FAILED NODE - AssertionError: ..., - assert ... (a rewritten assert) or - Failed: ...
ASSERTION_FAILURE = re.compile(r"FAILED .+? - (?:(?:AssertionError|Failed)(?::|$)|assert\b)")


def summary(stdout: str) -> list[str]:
    """The ``FAILED`` and ``ERROR`` lines of a ``pytest -vv -rfE`` run's short summary."""
    return [line for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def verdict(returncode: int, stdout: str) -> str:
    """``survived``, ``killed`` or ``crashed``, from a ``pytest -vv -rfE`` run's exit code (0 or 1) and output."""
    if returncode == 0:
        return "survived"
    lines = summary(stdout)
    return "killed" if lines and all(map(ASSERTION_FAILURE.match, lines)) else "crashed"


def outcome(mutant: Mutant, tmp: Path) -> str:
    """``mutant``'s verdict: how its node ends on a mutated copy of this checkout's ``src``."""
    src = tmp / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    mutate(mutant, src)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    package = subprocess.run([sys.executable, "-c", "import twocopy; print(twocopy.__file__)"],
                             capture_output=True, text=True, cwd=ROOT, env=env).stdout.strip()
    if not package or not Path(package).is_relative_to(src):
        sys.exit(f"{mutant.name}: twocopy imported from {package or 'nowhere'}, not from the mutated copy")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-vv", "-rfE", "-p", "no:cacheprovider", mutant.node],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    if proc.returncode not in (0, 1):
        sys.exit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-4000:]}{proc.stderr}")
    result = verdict(proc.returncode, proc.stdout)
    print(f"{mutant.name}: {result}", *summary(proc.stdout) if result == "crashed" else (), sep="\n  ",
          file=sys.stderr, flush=True)
    return result


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        results = {m.name: outcome(m, Path(tmp)) for m in MUTANTS}
    wall = round(time.perf_counter() - start, 1)
    survivors, crashed = ([name for name, r in results.items() if r == kind] for kind in ("survived", "crashed"))
    killed = len(MUTANTS) - len(survivors) - len(crashed)
    print(json.dumps({"killed": killed, "total": len(MUTANTS), "survivors": survivors, "crashed": crashed, "wall_s": wall}))
    sys.exit(1 if survivors or crashed else 0)


if __name__ == "__main__":
    main()
