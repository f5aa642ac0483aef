"""Constructors for every two-copy state family used by the scenarios, and the projector table.

Each constructor returns a :class:`DensityOperator` on the copy-major
register (A1, B1, A2, B2) that meets the class's invariants: a mixture of
pure copies is checked by its trace alone, the one invariant its sum can
miss, and every other state in full.  Copy k is the bipartite pair (Ak, Bk)
shared by Alice and Bob.  Alice holds the pair (A1, A2) and Bob holds
(B1, B2); the side-major view (A1, A2, B1, B2) is obtained by exchanging
the middle two qubits when needed.  Single-copy inputs live on (A, B),
Alice's qubit first; an ensemble is a sequence of (weight, member) pairs.
The checks of an input's register and of an ensemble's weights are made in
:mod:`twocopy.linalg`, the one package module imported here.  The
protocol's projectors, each side's and the four joint outcomes', are built
once here; the eve states are the corners of that table.
"""

from __future__ import annotations

import math
import reprlib
from typing import Sequence, Union

import numpy as np

from .linalg import (
    ATOL,
    COPY_MAJOR,
    SINGLE_COPY,
    TRACE_ONLY_MEMBERS,
    DensityOperator,
    Ket,
    _derived,
    _require_register,
    ensemble_weights,
    partial_trace,
    permute_subsystems,
)

# exchange of the two qubits of a pair
PAIR_SWAP = np.eye(4)[[0, 2, 1, 3]]
OUTCOMES = ("aa", "as", "sa", "ss")
# one side's antisymmetric ("a") and symmetric ("s") projectors on its pair:
# (I - SWAP)/2 onto the singlet, (I + SWAP)/2 onto its 3-dimensional complement
PAIR_PROJECTORS = {
    "a": (np.eye(4, dtype=complex) - PAIR_SWAP) / 2.0,
    "s": (np.eye(4, dtype=complex) + PAIR_SWAP) / 2.0,
}
# the projector of each outcome "xy" (x Alice's, y Bob's; a antisymmetric,
# s symmetric) on the copy-major register, stacked in OUTCOMES order; the
# Kronecker product of the two sides' projectors is side major
_JOINT_STACK = np.stack([permute_subsystems(np.kron(PAIR_PROJECTORS[x], PAIR_PROJECTORS[y])) for x, y in OUTCOMES])
for _m in (PAIR_SWAP, *PAIR_PROJECTORS.values(), _JOINT_STACK):
    _m.setflags(write=False)
JOINT_PROJECTORS = dict(zip(OUTCOMES, _JOINT_STACK))

DEFAULT_PHASE_POINTS = 64
# Any grid of 3 or more points is already exact (see phase_averaged_state),
# so a larger grid only costs time and memory.
MAX_PHASE_POINTS = 4096


def _mixture_of_copies(weights, rhos: np.ndarray) -> np.ndarray:
    """sum_i w_i rho_i x rho_i, a 16x16 array, from an (N, 4, 4) stack of single-copy matrices.

    The bytes are those of the full ``einsum("n,nij,nkl->ikjl")``, though the
    sum runs only over the stack's support, the entries nonzero in some
    member: each (w a) b is added in member order from +0, as that einsum
    adds it, and an entry zero in every member gets only +-0 terms, so +0.
    The result owns its data, so once frozen no writable array shares it.
    """
    flat = rhos.reshape(len(rhos), 16)
    support = np.flatnonzero(flat.any(axis=0))
    total = np.zeros((16, 16), dtype=complex)
    block = flat[:, support]
    # the product of the single-copy entries a = 4i + j and b = 4k + l goes
    # to row 4i + k, column 4j + l: to [i, k, j, l] of the 4x4x4x4 view
    i, j = np.divmod(support, 4)
    total.reshape(4, 4, 4, 4)[i[:, None], i, j[:, None], j] = np.einsum("n,na,nb->ab", weights, block, block)
    return total


def _mixture_of_pure_copies(weights, amplitudes: np.ndarray) -> DensityOperator:
    """sum_i w_i |psi_i psi_i><psi_i psi_i| from an (N, 4) array of unit kets' amplitudes.

    With nonnegative weights and at most ``TRACE_ONLY_MEMBERS`` members the
    sum is Hermitian and positive semidefinite within its rounding, so only
    its trace is checked.  A sum outside the trace bound, or of more members,
    goes through ``DensityOperator``, which refuses it as it refuses any
    other matrix.
    """
    m = _mixture_of_copies(weights, np.einsum("ni,nj->nij", amplitudes, amplitudes.conj()))
    if len(amplitudes) <= TRACE_ONLY_MEMBERS and abs(m.trace() - 1.0) <= ATOL:
        return _derived(COPY_MAJOR, m)
    return DensityOperator(COPY_MAJOR, m)


def identical_pure_copies(psi: Ket) -> DensityOperator:
    """Two exact copies |psi><psi| x |psi><psi| of one pure bipartite state."""
    return _mixture_of_pure_copies(ensemble_weights(((1.0, psi),), SINGLE_COPY), psi.amplitudes[None])


def de_finetti_state(members: Sequence[tuple[float, DensityOperator]]) -> DensityOperator:
    """Mixture of identical per-copy hypotheses, sum_i p_i rho_i x rho_i, from (p_i, rho_i) pairs.

    Validated in full: rho x rho of a member at the eigenvalue floor can fall below it.
    """
    weights = ensemble_weights(members, SINGLE_COPY)
    return DensityOperator(COPY_MAJOR, _mixture_of_copies(weights, np.array([rho.entries for _, rho in members])))


def pure_de_finetti_state(members: Sequence[tuple[float, Ket]]) -> DensityOperator:
    """De Finetti mixture whose hypotheses are all pure, from (p_i, psi_i) pairs."""
    weights = ensemble_weights(members, SINGLE_COPY)
    return _mixture_of_pure_copies(weights, np.array([psi.amplitudes for _, psi in members]))


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
    return Ket(COPY_MAJOR, amps)


def phase_averaged_decomposition() -> tuple[tuple[float, Ket], ...]:
    """The explicit three-member decomposition of the phase-averaged state.

    Two product members across the Alice/Bob cut plus the logical Bell
    state with weight one half.
    """
    return _DECOMPOSITION


def phase_averaged_state(points: Union[int, str] = "exact") -> DensityOperator:
    """Two copies of a maximally entangled state with a shared unknown phase.

    ``points="exact"`` returns the closed form of the circle average,
    (1/4)|0101><0101| + (1/4)|1010><1010| + (1/2)|PsiL><PsiL| in copy-major
    order with PsiL the logical Bell state.  An integer ``points >= 3``
    returns the uniform Riemann sum over the circle instead, which already
    reproduces the closed form to machine precision because the integrand
    has no Fourier component beyond order two.  ``points="discretized"``
    returns the default grid of 64 points, built once at import like the
    closed form.
    """
    # a tuple first: a dict lookup would raise TypeError on an unhashable points
    if points in ("exact", "discretized"):
        return _PHASE_AVERAGED[points]
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValueError(f"points must be 'exact', 'discretized', or an integer, got {reprlib.repr(points)}")
    if not 3 <= points <= MAX_PHASE_POINTS:
        raise ValueError(f"phase discretization needs 3 to {MAX_PHASE_POINTS} points, got {reprlib.repr(points)}")
    # members (|01> + exp(i phi)|10>)/sqrt(2) at the uniform grid phases
    amplitudes = np.zeros((points, 4), dtype=complex)
    amplitudes[:, 1] = 1.0
    amplitudes[:, 2] = np.exp(2j * math.pi * np.arange(points) / points)
    amplitudes /= math.sqrt(2.0)
    return _mixture_of_pure_copies(np.full(points, 1.0 / points), amplitudes)


def eve_state(kind: str) -> DensityOperator:
    """Adversarial preparation pinning both local pair measurements.

    ``antisymmetric`` places an exact singlet on Alice's pair and another
    on Bob's, so both sides project onto the antisymmetric subspace with
    certainty.  ``symmetric`` places the maximally mixed state of the
    symmetric subspace on each pair, making the antisymmetric outcome
    impossible.  Either way the two sides always agree.  The two states are
    the table's corners ``JOINT_PROJECTORS["aa"]`` and ``JOINT_PROJECTORS["ss"] / 9``.
    """
    # a tuple first: a dict lookup would raise TypeError on an unhashable kind
    if kind not in ("antisymmetric", "symmetric"):
        raise ValueError(f"kind must be 'antisymmetric' or 'symmetric', got {kind!r}")
    return _EVE_STATES[kind]


def custom_state(rho: DensityOperator) -> DensityOperator:
    """An arbitrary valid density operator on (A1, B1, A2, B2), as it is, as a scenario state."""
    _require_register(rho, COPY_MAJOR)
    return rho


def single_copy_marginal(state: DensityOperator, copy: int = 1) -> DensityOperator:
    """Reduced state of copy 1 (A1, B1) or copy 2 (A2, B2) of a two-copy state, on (A, B)."""
    return _derived(SINGLE_COPY, partial_trace(state.entries, copy))


# The constant states, built and validated once at import and returned as
# they are by the functions above: frozen, so safe to share.
_DECOMPOSITION = (
    (0.25, Ket(COPY_MAJOR, np.eye(16)[0b0101])),
    (0.25, Ket(COPY_MAJOR, np.eye(16)[0b1010])),
    (0.5, logical_bell_state()),
)
_PHASE_AVERAGED = {
    "exact": DensityOperator(
        COPY_MAJOR,
        sum((w * np.outer(psi.amplitudes, psi.amplitudes.conj()) for w, psi in _DECOMPOSITION), np.zeros((16, 16))),
    ),
    "discretized": phase_averaged_state(DEFAULT_PHASE_POINTS),
}
# Eve's states are the table's corners P_x x P_x / d_x^2, with d_a = 1 and d_s = 3
_EVE_STATES = {
    "antisymmetric": DensityOperator(COPY_MAJOR, JOINT_PROJECTORS["aa"]),
    "symmetric": DensityOperator(COPY_MAJOR, JOINT_PROJECTORS["ss"] / 9.0),
}
