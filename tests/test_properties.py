"""Property-based tests: malformed configs, CLI exit codes, joint-distribution invariants."""

import copy
import json
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twocopy import COPY_MAJOR, DensityOperator, joint_outcome_distribution
from twocopy.cli import main
from twocopy.protocol import PROBABILITY_ATOL, evaluate_scenario
from twocopy.scenarios import ConfigError, emit_report, parse_config, run
from twocopy.states import custom_state

from conftest import ALICE_ANTISYMMETRIC, exchange_copies, stdlib_report_json

REPO_ROOT = Path(__file__).resolve().parent.parent
# the bundled configs plus a custom one, so every scenario family is a base
BASE_DOCS = [json.loads(p.read_text()) for p in sorted((REPO_ROOT / "scenarios").glob("*.json"))] + [
    {"scenario": "custom", "parameters": {"rho": (np.eye(16) / 16).tolist()}, "shots": 10}
]

REPRODUCIBLE = settings(derandomize=True, deadline=None, max_examples=200)

# a leaf that documents() turns into an integer literal beyond int()'s
# 4,300-digit limit, which json.dumps cannot write
HUGE = "@huge"

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["exact", "ket", "rho", "weight", "members", "value", "tol", HUGE]),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@st.composite
def mutated_configs(draw):
    """A base config with the value at one random path deleted, nudged or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["delete", "nudge", "replace"]))
        if action == "delete":
            del node[key]
        elif action == "nudge" and type(child) is int:
            node[key] = child + draw(st.integers(-2, 2))
        elif action == "nudge" and type(child) is float:
            node[key] = child + draw(st.floats(-1e-3, 1e-3))
        else:
            node[key] = draw(JSON)
        return doc


@st.composite
def documents(draw):
    """The text of a mutated config or of any JSON value, with each HUGE leaf a 5,000-digit integer."""
    return json.dumps(draw(st.one_of(mutated_configs(), JSON))).replace(json.dumps(HUGE), "9" * 5000)


@st.composite
def two_copy_states(draw):
    """A valid 16x16 density matrix of rank 1 to 4 on the copy-major layout."""
    rank = draw(st.integers(1, 4))
    parts = draw(arrays(np.float64, (2, 16, rank), elements=st.floats(-1.0, 1.0)))
    g = parts[0] + 1j * parts[1]
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-3)
    return custom_state(DensityOperator(COPY_MAJOR, m / trace))


@st.composite
def alice_antisymmetric_states(draw):
    """A valid 16x16 density matrix whose Alice pair is antisymmetric with certainty."""
    parts = draw(arrays(np.float64, (2, 16, 16), elements=st.floats(-1.0, 1.0)))
    g = ALICE_ANTISYMMETRIC @ (parts[0] + 1j * parts[1])
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-3)
    return custom_state(DensityOperator(COPY_MAJOR, m / trace))


@REPRODUCIBLE
@given(documents())
def test_any_document_runs_or_raises_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    report = run(config)
    assert emit_report(report, "json") == stdlib_report_json(report)


@REPRODUCIBLE
@given(text=documents())
def test_cli_exits_zero_one_or_two_on_any_document(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(text)
    assert main([str(path), "--format", "json"]) in (0, 1, 2)


@REPRODUCIBLE
@given(two_copy_states())
def test_joint_distribution_sums_to_one_and_aa_is_below_each_marginal(state):
    d = joint_outcome_distribution(state)
    assert abs(sum(d.as_tuple()) - 1.0) <= PROBABILITY_ATOL
    assert d.p_aa <= min(d.marginal("alice"), d.marginal("bob"))


@REPRODUCIBLE
@given(two_copy_states())
def test_exchanging_the_copies_leaves_the_joint_distribution_unchanged(state):
    exchanged = custom_state(DensityOperator(COPY_MAJOR, exchange_copies(state.entries)))
    before = joint_outcome_distribution(state).as_tuple()
    after = joint_outcome_distribution(exchanged).as_tuple()
    assert np.allclose(before, after, rtol=0.0, atol=1e-12)


@REPRODUCIBLE
@given(alice_antisymmetric_states())
def test_alice_certain_states_evaluate_with_p_a_one(state):
    verdict = evaluate_scenario(state, joint_outcome_distribution(state))
    assert abs(verdict.p_a_alice - 1.0) <= 1e-12
