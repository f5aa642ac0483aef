"""Constructors for every two-copy state family used by the scenarios.

The canonical two-copy layout is copy major, (A1, B1, A2, B2): copy k is
the bipartite pair (Ak, Bk) shared by Alice and Bob.  Alice holds the pair
(A1, A2) and Bob holds (B1, B2); the side-major view (A1, A2, B1, B2) is
obtained by subsystem permutation when needed.

Single-copy inputs may use any 2-qubit layout; the first label is taken as
Alice's qubit and the second as Bob's, and copies are relabeled to
(A1, B1) and (A2, B2) positionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import (
    DensityOperator,
    Ket,
    QubitLayout,
    basis_ket,
    permute_subsystems,
    relabel,
    tensor_product,
)
from .measures import PureEnsemble, check_weights
from .projectors import SYMMETRIC, pair_projector

COPY_MAJOR = ("A1", "B1", "A2", "B2")
ALICE_PAIR = ("A1", "A2")
BOB_PAIR = ("B1", "B2")

COPY_1 = ("A1", "B1")
COPY_2 = ("A2", "B2")

DEFAULT_PHASE_POINTS = 64
# Any grid of 3 or more points is already exact (see phase_averaged_state),
# so a larger grid only costs time and memory.
MAX_PHASE_POINTS = 4096


@dataclass(frozen=True)
class TwoCopyState:
    """Density operator on the canonical copy-major four-qubit layout."""

    state: DensityOperator
    provenance: str

    def __post_init__(self) -> None:
        if self.state.layout.labels != COPY_MAJOR:
            raise ValueError(f"two-copy states live on {COPY_MAJOR}, got {self.state.layout.labels}")


@dataclass(frozen=True)
class DeFinettiEnsemble:
    """Weighted list of single-copy density operators, one per hypothesis."""

    members: tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self) -> None:
        members = tuple((float(w), rho) for w, rho in self.members)
        object.__setattr__(self, "members", members)
        check_weights([w for w, _ in members])
        for _, rho in members:
            if rho.layout.n_qubits != 2:
                raise ValueError("ensemble members must be single-copy 2-qubit states")


def _mixture_of_copies(weights, rhos: np.ndarray, provenance: str) -> TwoCopyState:
    """sum_i w_i rho_i x rho_i from an (N, 4, 4) stack of single-copy matrices."""
    total = np.einsum("n,nij,nkl->ikjl", weights, rhos, rhos).reshape(16, 16)
    return TwoCopyState(DensityOperator(QubitLayout(COPY_MAJOR), total), provenance)


def _projectors(amplitudes: np.ndarray) -> np.ndarray:
    """(N, 4, 4) stack of |psi_i><psi_i| from an (N, 4) array of amplitudes."""
    return np.einsum("ni,nj->nij", amplitudes, amplitudes.conj())


def identical_pure_copies(psi: Ket) -> TwoCopyState:
    """Two exact copies |psi><psi| x |psi><psi| of one pure bipartite state."""
    if psi.layout.n_qubits != 2:
        raise ValueError("identical_pure_copies expects a 2-qubit ket")
    return _mixture_of_copies([1.0], _projectors(psi.amplitudes[None]), "pure-copies")


def de_finetti_state(e: DeFinettiEnsemble) -> TwoCopyState:
    """Mixture of identical per-copy hypotheses, sum_i p_i rho_i x rho_i."""
    rhos = np.array([rho.entries for _, rho in e.members])
    return _mixture_of_copies([w for w, _ in e.members], rhos, "de-finetti")


def pure_de_finetti_state(e: PureEnsemble) -> TwoCopyState:
    """De Finetti mixture whose hypotheses are all pure states."""
    amplitudes = np.array([psi.amplitudes for _, psi in e.members])
    return _mixture_of_copies([w for w, _ in e.members], _projectors(amplitudes), "pure-de-finetti")


def logical_bell_state() -> Ket:
    """Maximally entangled state of the two logical qubits.

    The logical zero on each side is the physical pair |0>|1> and the
    logical one is |1>|0>; Alice's logical qubit lives on (A1, A2), Bob's
    on (B1, B2).  In copy-major physical order this is
    (|0110> + |1001>)/sqrt(2).
    """
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = 1.0 / math.sqrt(2.0)
    amps[0b1001] = 1.0 / math.sqrt(2.0)
    return Ket(QubitLayout(COPY_MAJOR), amps)


def phase_averaged_decomposition() -> tuple[tuple[float, Ket], ...]:
    """The explicit three-member decomposition of the phase-averaged state.

    Two product members across the Alice/Bob cut plus the logical Bell
    state with weight one half.
    """
    return (
        (0.25, basis_ket(COPY_MAJOR, "0101")),
        (0.25, basis_ket(COPY_MAJOR, "1010")),
        (0.5, logical_bell_state()),
    )


def phase_averaged_state(points: Union[int, str] = "exact") -> TwoCopyState:
    """Two copies of a maximally entangled state with a shared unknown phase.

    ``points="exact"`` returns the closed form of the circle average,
    (1/4)|0101><0101| + (1/4)|1010><1010| + (1/2)|PsiL><PsiL| in copy-major
    order with PsiL the logical Bell state.  An integer ``points >= 3``
    returns the uniform Riemann sum over the circle instead, which already
    reproduces the closed form to machine precision because the integrand
    has no Fourier component beyond order two.  ``points="discretized"``
    uses the default grid of 64 points.
    """
    if points == "exact":
        total = np.zeros((16, 16), dtype=complex)
        for w, psi in phase_averaged_decomposition():
            total += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho = DensityOperator(QubitLayout(COPY_MAJOR), total)
        return TwoCopyState(rho, "phase-averaged")
    if points == "discretized":
        points = DEFAULT_PHASE_POINTS
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValueError(f"points must be 'exact', 'discretized', or an integer, got {points!r}")
    if not 3 <= points <= MAX_PHASE_POINTS:
        raise ValueError(f"phase discretization needs 3 to {MAX_PHASE_POINTS} points, got {points}")
    # members (|01> + exp(i phi)|10>)/sqrt(2) at the uniform grid phases
    amplitudes = np.zeros((points, 4), dtype=complex)
    amplitudes[:, 1] = 1.0
    amplitudes[:, 2] = np.exp(2j * math.pi * np.arange(points) / points)
    amplitudes /= math.sqrt(2.0)
    return _mixture_of_copies(np.full(points, 1.0 / points), _projectors(amplitudes), "phase-averaged")


def eve_state(kind: str) -> TwoCopyState:
    """Adversarial preparation pinning both local pair measurements.

    ``antisymmetric`` places an exact singlet on Alice's pair and another
    on Bob's, so both sides project onto the antisymmetric subspace with
    certainty.  ``symmetric`` places the maximally mixed state of the
    symmetric subspace on each pair, making the antisymmetric outcome
    impossible.  Either way the two sides always agree.
    """
    if kind == "antisymmetric":
        singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        alice = Ket(QubitLayout(ALICE_PAIR), singlet).density()
        bob = Ket(QubitLayout(BOB_PAIR), singlet).density()
    elif kind == "symmetric":
        alice = DensityOperator(
            QubitLayout(ALICE_PAIR), pair_projector(SYMMETRIC, ALICE_PAIR).matrix.entries / 3.0
        )
        bob = DensityOperator(
            QubitLayout(BOB_PAIR), pair_projector(SYMMETRIC, BOB_PAIR).matrix.entries / 3.0
        )
    else:
        raise ValueError(f"kind must be 'antisymmetric' or 'symmetric', got {kind!r}")
    side_major = tensor_product(alice, bob)
    rho = permute_subsystems(side_major, COPY_MAJOR)
    return TwoCopyState(rho, "adversarial")


def custom_state(rho: DensityOperator) -> TwoCopyState:
    """Wrap an arbitrary valid four-qubit density operator as a scenario state.

    A state on the copy-major labels in another order is permuted; other
    label sets are renamed positionally.
    """
    if rho.layout.n_qubits != 4:
        raise ValueError("custom two-copy states need exactly four qubits")
    if rho.layout.labels != COPY_MAJOR:
        if set(rho.layout.labels) == set(COPY_MAJOR):
            rho = permute_subsystems(rho, COPY_MAJOR)
        else:
            rho = relabel(rho, COPY_MAJOR)
    return TwoCopyState(rho, "custom")


def single_copy_marginal(state: TwoCopyState, copy: int = 1) -> DensityOperator:
    """Reduced state of one copy, on labels (A1, B1) or (A2, B2)."""
    if copy not in (1, 2):
        raise ValueError("copy must be 1 or 2")
    from .linalg import partial_trace

    return partial_trace(state.state, COPY_1 if copy == 1 else COPY_2)
