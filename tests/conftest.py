"""Shared helpers: seeded random states and ensembles, reference quantities, and the standard library's report text."""

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from twocopy import SINGLE_COPY, DensityOperator, Ket, evaluate_scenario, joint_outcome_distribution
from twocopy.states import JOINT_PROJECTORS, OUTCOMES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def random_unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ket(rng, labels=SINGLE_COPY) -> Ket:
    return Ket(labels, random_unit_vector(rng, 2 ** len(labels)))


def bell() -> Ket:
    """The Bell state (|01> + |10>) / sqrt 2 on the single-copy register."""
    return Ket(SINGLE_COPY, np.array([0, 1, 1, 0]) / np.sqrt(2))


def basis_ket(labels, bits: str) -> Ket:
    """The computational basis state with the given bits, first label first."""
    return Ket(labels, np.eye(2 ** len(labels))[int(bits, 2)])


def random_product_ket(rng) -> Ket:
    """A single-copy product state: one random qubit for A, then one for B."""
    a = random_unit_vector(rng, 2)
    return Ket(SINGLE_COPY, np.kron(a, random_unit_vector(rng, 2)))


def random_density(rng, labels=SINGLE_COPY, rank=None) -> DensityOperator:
    dim = 2 ** len(labels)
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityOperator(labels, m / np.trace(m).real)


def density(ket: Ket) -> DensityOperator:
    """The rank-1 density operator |psi><psi| of a ket, on its register."""
    a = ket.amplitudes
    return DensityOperator(ket.labels, np.outer(a, a.conj()))


def antisym(state: DensityOperator, side: str) -> float:
    """Probability that ``side``, "alice" or "bob", finds its pair antisymmetric: a joint-outcome marginal."""
    d = joint_outcome_distribution(state)
    return d.p_aa + {"alice": d.p_as, "bob": d.p_sa}[side]


def verdict_of(state: DensityOperator):
    """The protocol's verdict on ``state`` from its joint outcome distribution, with no decomposition bound."""
    return evaluate_scenario(state, joint_outcome_distribution(state))


def pure_concurrence(ket: Ket) -> float:
    """Concurrence 2|ad - bc| of a single-copy ket with amplitudes (a, b, c, d)."""
    a, b, c, d = ket.amplitudes
    return 2.0 * abs(a * d - b * c)


def exchange_copies(m: np.ndarray) -> np.ndarray:
    """A copy-major 16x16 matrix with copies (A1, B1) and (A2, B2) exchanged."""
    return m.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)


# Alice's antisymmetric projector (I - SWAP(A1, A2)) / 2 on the copy-major
# register, where A1 and A2 are qubits 0 and 2
_SWAP_A1_A2 = np.eye(16).reshape(2, 2, 2, 2, 16).transpose(2, 1, 0, 3, 4).reshape(16, 16)
ALICE_ANTISYMMETRIC = (np.eye(16) - _SWAP_A1_A2) / 2


def projector_range(outcome: str) -> np.ndarray:
    """An orthonormal basis, as columns, of the range of the joint projector of ``outcome``."""
    lam, vecs = np.linalg.eigh(JOINT_PROJECTORS[outcome])
    return vecs[:, lam > 0.5]


def sign_pattern(outcome: str) -> np.ndarray:
    """The signs of the joint projector of ``outcome``, with a zero diagonal.

    ``1j * c * sign_pattern(o)`` is anti-Hermitian and traceless: added to a
    Hermitian matrix it makes a Hermiticity defect of 2c, and for entries of
    modulus at most c with a zero diagonal, the largest imaginary part of the
    trace against that projector.
    """
    signs = np.sign(JOINT_PROJECTORS[outcome].real)
    np.fill_diagonal(signs, 0.0)
    return signs


def custom_document(m: np.ndarray) -> str:
    """A custom scenario document holding the 16x16 matrix ``m`` as [re, im] pairs."""
    rho = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]
    return json.dumps({"scenario": "custom", "parameters": {"rho": rho}})


def random_weights(rng, k: int) -> np.ndarray:
    w = rng.random(k) + 1e-3
    return w / w.sum()


def random_pure_ensemble(rng, k: int = 3) -> tuple[tuple[float, Ket], ...]:
    w = random_weights(rng, k)
    return tuple((float(wi), random_ket(rng)) for wi in w)


def random_de_finetti_ensemble(rng, k: int = 3) -> tuple[tuple[float, DensityOperator], ...]:
    w = random_weights(rng, k)
    return tuple((float(wi), random_density(rng)) for wi in w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def stdlib_report_json(r) -> str:
    """A report's JSON text as the standard library writes it, from ``dataclasses.asdict`` copies."""
    record = None
    if r.shot_record is not None:
        record = {**asdict(r.shot_record), "counts": dict(zip(OUTCOMES, r.shot_record.counts))}
    doc = {
        "config": r.config,
        "verdict": asdict(r.verdict),
        "joint_distribution": asdict(r.joint),
        "shot_record": record,
        "checks": [asdict(c) for c in r.checks],
        "all_passed": r.all_passed,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_bench_module(name: str):
    """``bench/<name>.py`` as a module; ``bench/run.py`` needs ``bench`` on ``sys.path`` while it loads."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
