"""Property-based tests: malformed configs, CLI exit codes, joint-distribution invariants, the rank-2 twin
of every Bell-diagonal state, states at the boundary's edges, random reports against the independent
reference, the JSON writer on number grids, and the bytes of the two-copy mixtures and the rounding of
mixtures of pure copies."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import twocopy
from twocopy import COPY_MAJOR, SINGLE_COPY, DensityOperator, Ket, joint_outcome_distribution, validate_density
from twocopy.cli import main
from twocopy.linalg import ATOL, EIGENVALUE_FLOOR, PROBABILITY_ATOL
from twocopy.protocol import OutcomeDistribution, evaluate_scenario
from twocopy.scenarios import ConfigError, _dumps, emit_report, parse_config, report_from_json, report_to_json, run
from twocopy.states import (
    MAX_PHASE_POINTS,
    OUTCOMES,
    _mixture_of_copies,
    custom_state,
    de_finetti_state,
    identical_pure_copies,
    phase_averaged_state,
    pure_de_finetti_state,
    single_copy_marginal,
)

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


# the writer's edge cases among the numbers: integers beyond 64 bits and beyond
# float's range, the signed zero, the least subnormal, a float that repr
# writes with an exponent, and the three non-finite floats
NUMBERS = (
    st.integers()
    | st.floats()
    | st.sampled_from([2**64, 10**400, -0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf")])
)


def _nest(leaves: list, shape: list[int]) -> list:
    """``leaves`` as nested lists of ``shape``, row by row."""
    if len(shape) == 1:
        return leaves
    step = len(leaves) // shape[0]
    return [_nest(leaves[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def _replace(node: list, path: list[int], change):
    """A copy of ``node`` with ``change`` applied to the item at ``path``."""
    if not path:
        return change(node)
    i = path[0]
    return [*node[:i], _replace(node[i], path[1:], change), *node[i + 1:]]


@st.composite
def number_grids(draw):
    """A rectangular nest of lists of numbers, depth 1-3 and each dimension 1-5.

    Sometimes one leaf is a bool, None, a string or a numpy float, or one row
    is ragged, empty or a tuple; the writer must then take its item-by-item
    path and still give the standard library's bytes.
    """
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    grid = _nest(draw(st.lists(NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape))), shape)
    flaw = draw(st.sampled_from(["none", "leaf", "row"]))
    if flaw == "leaf":
        other = draw(st.sampled_from([True, False, None, "1.0", np.float64(0.1)]))
        return _replace(grid, [draw(st.integers(0, n - 1)) for n in shape], lambda _: other)
    if flaw == "row":
        change = draw(st.sampled_from([lambda row: row + row[:1], lambda row: [], tuple]))
        return _replace(grid, [draw(st.integers(0, n - 1)) for n in shape[:-1]], change)
    return grid


class EmptyDict(dict):
    """A mapping subclass, which the writer and ``json.dumps`` write as ``{}`` when empty."""


# the empty containers, which the writer writes as text
EMPTY = st.sampled_from([[], (), {}, EmptyDict()])

# number grids and empty containers inside the JSON trees above, as list items and dict values
GRID_JSON = st.recursive(
    number_grids() | EMPTY | JSON,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=4,
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
def copy_stacks(draw):
    """Weights and an (N, 4, 4) stack of single-copy densities and ket projectors that share zero entries.

    Some basis states are outside every member's support, and there is no
    coherence between two groups of basis states (a pinching, which keeps
    each member positive).  Zero parts are written as -0.0 at random.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    # a member drawn False keeps one column of g: it is a ket's projector
    g[:, :, 1:] *= np.array([draw(st.booleans()) for _ in range(n)])[:, None, None]
    rhos = g @ g.conj().transpose(0, 2, 1)
    outside = list(draw(st.sets(st.integers(0, 3), max_size=3)))
    rhos[:, outside, :] = 0
    rhos[:, :, outside] = 0
    group = np.array(draw(st.lists(st.booleans(), min_size=4, max_size=4)))
    rhos[:, group[:, None] != group] = 0
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    for part in (rhos.real, rhos.imag):
        part[(part == 0) & (rng.random(part.shape) < 0.5)] = -0.0
    weights = rng.random(n) + 0.01
    return weights / weights.sum(), rhos


def full_mixture(weights, rhos) -> np.ndarray:
    """sum_i w_i rho_i x rho_i as numpy's unoptimized einsum over every entry writes it."""
    return np.einsum("n,nij,nkl->ikjl", weights, rhos, rhos).reshape(16, 16)


def ket_projectors(amplitudes: np.ndarray) -> np.ndarray:
    """(N, 4, 4) stack of |psi_i><psi_i| from an (N, 4) array of amplitudes, as the constructors write it."""
    return np.einsum("ni,nj->nij", amplitudes, amplitudes.conj())


def phase_grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights and ket projectors of phase_averaged_state(points)."""
    amplitudes = np.zeros((points, 4), dtype=complex)
    amplitudes[:, 1] = 1.0
    amplitudes[:, 2] = np.exp(2j * math.pi * np.arange(points) / points)
    amplitudes /= math.sqrt(2.0)
    return np.full(points, 1.0 / points), ket_projectors(amplitudes)


@st.composite
def pure_copy_mixtures(draw):
    """A constructor call building a mixture of pure copies, and the same sum by the full einsum.

    One ket for identical_pure_copies, 1 to 3,000 members for
    pure_de_finetti_state, or a phase grid of 3 to MAX_PHASE_POINTS points.
    Ket norms and the weights' sum miss 1 by up to just under ATOL each, so
    the two-copy trace both meets its bound and misses it.
    """
    kind = draw(st.sampled_from(["pure-copies", "pure-de-finetti", "phase-grid"]))
    if kind == "phase-grid":
        points = draw(st.integers(3, MAX_PHASE_POINTS))
        return (lambda: phase_averaged_state(points)), full_mixture(*phase_grid(points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 if kind == "pure-copies" else draw(st.integers(1, 3000))
    low, high = sorted(draw(st.floats(-0.999, 0.999)) for _ in range(2))
    z = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    amplitudes = z / np.linalg.norm(z, axis=1)[:, None] * (1.0 + ATOL * rng.uniform(low, high, (n, 1)))
    kets = [Ket(SINGLE_COPY, a) for a in amplitudes]
    if kind == "pure-copies":
        return (lambda: identical_pure_copies(kets[0])), full_mixture([1.0], ket_projectors(amplitudes))
    weights = rng.dirichlet(np.ones(n)) * (1.0 + ATOL * draw(st.floats(-0.999, 0.999)))
    members = list(zip(weights.tolist(), kets))
    return (lambda: pure_de_finetti_state(members)), full_mixture(weights, ket_projectors(amplitudes))


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


# a shift of one probability: an edge of the bound, half of it, none, or any within it
SHIFTS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]).map(lambda x: x * PROBABILITY_ATOL) | st.floats(
    -PROBABILITY_ATOL, PROBABILITY_ATOL
)


@REPRODUCIBLE
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.lists(SHIFTS, min_size=4, max_size=4))
@example([0.5, 0.0, 0.0, 0.5], [3e-8, -1.5e-8, -1.5e-8, 0.0])
@example([0.0, 0.0, 0.5, 0.5], [-1.5e-8, -1.5e-8, 0.0, 3e-8])
@example([1.0, 0.0, 0.0, 0.0], [PROBABILITY_ATOL, 0.0, -PROBABILITY_ATOL, 0.0])
@example([0.0, 0.0, 0.0, 1.0], [-PROBABILITY_ATOL, -PROBABILITY_ATOL, PROBABILITY_ATOL, PROBABILITY_ATOL])
def test_every_accepted_distribution_evaluates_within_zero_and_one(weights, shifts):
    assume(sum(weights) > 0.0)
    probs = [w / sum(weights) + s for w, s in zip(weights, shifts)]
    try:
        d = OutcomeDistribution(*probs)
    except ValueError:
        assume(False)
    assert all(0.0 <= p <= 1.0 for p in d.as_tuple())
    verdict = evaluate_scenario(phase_averaged_state("exact"), d)
    for p in (verdict.disagreement_prob, verdict.p_a_alice, verdict.p_a_bob):
        assert 0.0 <= p <= 1.0


# the Bell states phi+, phi-, psi+ and psi- as rows
BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)


def bell_diagonal_copies(lam) -> DensityOperator:
    """rho x rho for the Bell-diagonal rho = sum_i lam_i |B_i><B_i|."""
    rho = DensityOperator(SINGLE_COPY, np.einsum("i,ij,ik->jk", lam, BELL_BASIS, BELL_BASIS))
    return de_finetti_state(((1.0, rho),))


@REPRODUCIBLE
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
@example([0.75, 1 / 12, 1 / 12, 1 / 12])
@example([0.5, 0.5, 0.0, 0.0])
@example([1.0, 0.0, 0.0, 0.0])
def test_every_bell_diagonal_state_has_a_rank_two_twin_at_the_bound(weights):
    # both have Tr rho_A^2 = Tr rho_B^2 = 1/2 and the same t = Tr rho^2, so one
    # joint distribution; the twin's concurrence is sqrt(2t - 1), the bound
    assume(sum(weights) > 0.0)
    lam = np.array(weights) / sum(weights)
    t = float(lam @ lam)
    assume(2.0 * t >= 1.0)
    s = math.sqrt(2.0 * t - 1.0)
    # l1 = (1 + s) / 2 on psi- and l2 = (1 - s) / 2 on psi+
    state, twin = bell_diagonal_copies(lam), bell_diagonal_copies([0.0, 0.0, (1.0 - s) / 2.0, (1.0 + s) / 2.0])
    joint, twin_joint = joint_outcome_distribution(state), joint_outcome_distribution(twin)
    assert max(abs(x - y) for x, y in zip(joint.as_tuple(), twin_joint.as_tuple())) <= 1e-14
    assert abs(evaluate_scenario(twin, twin_joint).truth_single_copy_concurrence - s) <= 1e-12


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


@REPRODUCIBLE
@given(GRID_JSON)
@example([])
@example(())
@example({})
@example(EmptyDict())
@example({"a": [[], (), {}, EmptyDict()], "b": {"c": EmptyDict(), "d": ()}})
def test_json_writer_matches_the_standard_library_on_number_grids(node):
    assert _dumps(node) == json.dumps(node, indent=2, sort_keys=True)


def signed_zero_stack() -> tuple[np.ndarray, np.ndarray]:
    """Four members that together cover every entry; |0><0| writes each of its zeros as -0.0."""
    kets = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, 2, 0, 0]])
    corner = np.full((4, 4), complex(-0.0, -0.0))
    corner[0, 0] = 1.0
    rhos = np.concatenate([ket_projectors(kets / np.linalg.norm(kets, axis=1)[:, None]), corner[None]])
    return np.array([0.1, 0.2, 0.3, 0.4]), rhos


def staggered_stack() -> tuple[np.ndarray, np.ndarray]:
    """|01> and then (|01> + |10>)/sqrt 2: the second member's support holds the first's and more."""
    kets = np.array([[0, 1, 0, 0], [0, 1, 1, 0]], dtype=complex)
    return np.array([0.25, 0.75]), ket_projectors(kets / np.linalg.norm(kets, axis=1)[:, None])


@REPRODUCIBLE
@given(copy_stacks())
@example((np.ones(1), ket_projectors(np.array([[1, 1j, -1, 2]]) / math.sqrt(7.0))))
@example(signed_zero_stack())
@example(phase_grid(5))
@example(staggered_stack())
def test_mixture_has_the_bytes_of_the_full_einsum(stack):
    weights, rhos = stack
    mixture = _mixture_of_copies(weights, rhos)
    assert mixture.tobytes() == full_mixture(weights, rhos).tobytes()
    assert mixture.base is None and mixture.flags.owndata


@pytest.mark.parametrize("points", [*range(3, 65), 151, 152, 300, 4096])
def test_phase_grid_has_the_bytes_of_the_full_einsum(points):
    assert phase_averaged_state(points).entries.tobytes() == full_mixture(*phase_grid(points)).tobytes()


@REPRODUCIBLE
@given(pure_copy_mixtures())
def test_mixtures_of_pure_copies_can_miss_only_the_trace_bound(mixture):
    build, full = mixture
    report = validate_density(full)
    assert report.hermiticity_defect <= 1e-12 and report.min_eigenvalue >= -1e-12
    try:
        state = build()
    except ValueError as exc:
        assert not report.passed
        with pytest.raises(ValueError) as refusal:
            DensityOperator(COPY_MAJOR, full)
        assert str(exc) == str(refusal.value)
    else:
        assert report.passed
        assert state.entries.tobytes() == full.tobytes()


def test_marginal_below_the_eigenvalue_floor_agrees_with_the_reference(bench):
    # eigenvalue -0.9e-9 on the four states |00>|t>, inside the floor, gives
    # the copy-1 marginal an eigenvalue of -3.6e-9, outside it
    text = custom_document(np.diag([-0.9e-9] * 4 + [(1 + 3.6e-9) / 12] * 12))
    config = parse_config(text)
    assert not validate_density(single_copy_marginal(config.state, 1).entries).passed
    truth = run(config).verdict.truth_single_copy_concurrence
    expected = bench["reference"].expected(json.loads(text))["truth_single_copy_concurrence"]
    assert abs(truth - expected) <= 1e-10
