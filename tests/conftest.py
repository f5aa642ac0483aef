"""Shared helpers: seeded random states and ensembles, and the standard library's report text."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from twocopy import SINGLE_COPY, DensityOperator, Ket
from twocopy.protocol import OUTCOMES


def random_unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ket(rng, labels=SINGLE_COPY) -> Ket:
    return Ket(labels, random_unit_vector(rng, 2 ** len(labels)))


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


def exchange_copies(m: np.ndarray) -> np.ndarray:
    """A copy-major 16x16 matrix with copies (A1, B1) and (A2, B2) exchanged."""
    return m.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)


# Alice's antisymmetric projector (I - SWAP(A1, A2)) / 2 on the copy-major
# register, where A1 and A2 are qubits 0 and 2
_SWAP_A1_A2 = np.eye(16).reshape(2, 2, 2, 2, 16).transpose(2, 1, 0, 3, 4).reshape(16, 16)
ALICE_ANTISYMMETRIC = (np.eye(16) - _SWAP_A1_A2) / 2


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
