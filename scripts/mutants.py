"""Run each mutant of a committed table against the tests that should kill it.

    python scripts/mutants.py

Each row of ``MUTANTS`` names one deliberate fault: a file under ``src``,
an exact old text that occurs once in it, the new text that replaces it,
the pytest node id that should fail on the result, and what the fault
breaks.  For each row, this checkout's ``src`` is copied to a temporary
directory (under ``$TMPDIR``), the one replacement is applied, and
``python -m pytest -x -q NODE`` runs from the checkout with the copy first
on ``PYTHONPATH``.  A mutant is killed when
pytest reports a failing test; it survives when the tests pass.  The script
stops if an old text does not occur exactly once, if the copy is not the
package that gets imported, or if pytest ends otherwise (no test collected,
a usage error).

Prints one JSON line, ``{"killed": K, "total": N, "survivors": [names],
"wall_s": S}``.  Exits 1 if any mutant survives.  Uses only the standard
library and the installed pytest.
"""

from __future__ import annotations

import argparse
import json
import os
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
        "tests/test_scenarios.py::test_hand_built_config_keys_are_written_as_the_standard_library",
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
        "dense-mixture-returns-a-view", "twocopy/states.py",
        '        np.einsum("n,nij,nkl->ikjl", weights, rhos, rhos, out=total.reshape(4, 4, 4, 4))\n        return total\n',
        '        return np.einsum("n,nij,nkl->ikjl", weights, rhos, rhos).reshape(16, 16)\n',
        "tests/test_properties.py::test_mixture_has_the_bytes_of_the_full_einsum",
        "a dense mixture is a view of the einsum's 4x4x4x4 result, so the frozen state does not own its data",
    ),
)


def mutate(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant``'s one replacement to the copy ``src``; stop unless its old text occurs exactly once."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        sys.exit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def killed(mutant: Mutant, tmp: Path) -> bool:
    """Whether ``mutant``'s node fails on a mutated copy of this checkout's ``src``."""
    src = tmp / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    mutate(mutant, src)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    package = subprocess.run([sys.executable, "-c", "import twocopy; print(twocopy.__file__)"],
                             capture_output=True, text=True, cwd=ROOT, env=env).stdout.strip()
    if not package or not Path(package).is_relative_to(src):
        sys.exit(f"{mutant.name}: twocopy imported from {package or 'nowhere'}, not from the mutated copy")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.node],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    if proc.returncode not in (0, 1):
        sys.exit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-4000:]}{proc.stderr}")
    print(f"{mutant.name}: {'killed' if proc.returncode else 'survived'}", file=sys.stderr, flush=True)
    return proc.returncode == 1


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        survivors = [m.name for m in MUTANTS if not killed(m, Path(tmp))]
    wall = round(time.perf_counter() - start, 1)
    print(json.dumps({"killed": len(MUTANTS) - len(survivors), "total": len(MUTANTS), "survivors": survivors, "wall_s": wall}))
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
