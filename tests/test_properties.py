"""Property-based tests: malformed configs, CLI exit codes, joint-distribution invariants, states at the
boundary's edges, and random reports against the independent reference."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import twocopy
from twocopy import COPY_MAJOR, DensityOperator, joint_outcome_distribution, validate_density
from twocopy.cli import main
from twocopy.linalg import ATOL, EIGENVALUE_FLOOR
from twocopy.protocol import OUTCOMES, evaluate_scenario
from twocopy.scenarios import ConfigError, emit_report, parse_config, report_from_json, report_to_json, run
from twocopy.states import custom_state

from conftest import (
    ALICE_ANTISYMMETRIC,
    BENCH,
    antisym,
    custom_document,
    exchange_copies,
    load_bench_module,
    projector_range,
    sign_pattern,
    stdlib_report_json,
)

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


@st.composite
def boundary_states(draw):
    """A 16x16 matrix at the edges of what the boundary accepts, aligned with the joint projectors.

    Each projector's range, rotated by a random unitary, holds one block of
    eigenvalues: all just above EIGENVALUE_FLOOR, or positive.  The trace
    misses 1 by just under ATOL, and an anti-Hermitian part along one
    projector's signs makes a Hermiticity defect of just under ATOL.
    """
    at_floor = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(lambda f: not all(f)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inside = st.floats(0.9, 0.999)
    blocks, eigenvalues = [], []
    for outcome, floor in zip(OUTCOMES, at_floor):
        basis = projector_range(outcome)
        k = basis.shape[1]
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        blocks.append(basis @ q)
        eigenvalues.append(np.full(k, draw(inside) * EIGENVALUE_FLOOR) if floor else rng.random(k) + 1e-3)
    lam = np.concatenate(eigenvalues)
    positive = lam > 0
    trace = 1.0 + draw(st.floats(-0.999, 0.999)) * ATOL
    lam[positive] *= (trace - lam[~positive].sum()) / lam[positive].sum()
    w = np.hstack(blocks)
    m = (w * lam) @ w.conj().T
    m = (m + m.conj().T) / 2
    return m + 1j * draw(inside) * ATOL / 2 * sign_pattern(draw(st.sampled_from(OUTCOMES)))


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
    assert abs(sum(d.as_tuple()) - 1.0) <= ATOL
    assert d.p_aa <= min(antisym(state, "alice"), antisym(state, "bob"))


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


@settings(REPRODUCIBLE, max_examples=50)
@given(boundary_states())
def test_states_the_boundary_accepts_run_and_round_trip(m):
    assume(validate_density(m).passed)
    report = run(parse_config(custom_document(m)))
    assert report_from_json(report_to_json(report)) == report


@pytest.fixture(scope="module")
def bench():
    """``bench/run.py``, ``reference.py`` and ``workloads.py``, loaded once for the module."""
    with pytest.MonkeyPatch.context() as mp:
        # bench/run.py imports its sibling modules by name
        mp.syspath_prepend(str(BENCH))
        return {name: load_bench_module(name) for name in ("run", "reference", "workloads")}


@st.composite
def workload_documents(draw, workloads):
    """A seeded custom (rank 1 to 16), pure-copies or de-finetti document from the benchmark's generators."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["custom", "pure-copies", "de-finetti"]))
    if kind == "custom":
        return workloads._custom(rng, draw(st.integers(1, 16)))
    if kind == "de-finetti":
        return workloads._de_finetti(rng, draw(st.integers(1, 4)))
    return workloads._doc(rng, "pure-copies", {"ket": workloads.vector_json(workloads.haar_ket(rng))})


@settings(REPRODUCIBLE, max_examples=30)
@given(data=st.data())
def test_random_reports_agree_with_the_independent_reference(bench, data):
    text = data.draw(workload_documents(bench["workloads"]))
    doc = json.loads(text)
    report = report_to_json(run(parse_config(text)))
    expected = bench["reference"].expected(doc)
    assert bench["run"].check_report(twocopy, doc, report, expected, doc["seed"]) == ([], False)
