"""Dense complex linear algebra on the package's two qubit registers.

Every state lives on one of two registers.  ``SINGLE_COPY = ("A", "B")`` is
one copy of a two-qubit state, Alice's qubit A and Bob's qubit B (4x4).
``COPY_MAJOR = ("A1", "B1", "A2", "B2")`` is two copies of it, copy k being
the pair (Ak, Bk) (16x16).  The first label is most significant, so on
``SINGLE_COPY`` the four basis states are ordered

    index 0  ->  |A=0, B=0>
    index 1  ->  |A=0, B=1>
    index 2  ->  |A=1, B=0>
    index 3  ->  |A=1, B=1>

that is ``index = 2*a + b``, and on ``COPY_MAJOR`` the index is
``8*a1 + 4*b1 + 2*a2 + b2``, so ``np.kron`` of two single-copy arrays is
their two-copy product.  Observables are plain matrices in the same index
order.  Alice holds the pair (A1, A2) and Bob (B1, B2); exchanging the
middle two qubits gives the side-major order (A1, A2, B1, B2).

Every validity check on the package's states is made here, beside the
tolerances it uses: the entries of a :class:`Ket` or
:class:`DensityOperator`, the register a state must be on, and the weights
and members of an ensemble (:func:`ensemble_weights`).  Everything here is
a pure function of its inputs.  A :class:`Ket` and a
:class:`DensityOperator` meet one construction check (``_freeze``): the
labels name a register, the array has that register's shape and finite
entries, and it is stored as a frozen complex copy, so values are safe to
share between threads.  Each class then adds its own check, the norm or
the density invariants.  A state equals only itself and hashes by identity:
an array field has no one truth value to compare by.
Every :class:`DensityOperator` built from a matrix is validated, the one
``tensor_product`` returns too: the product of two valid factors may leave
the trace bound, as two traces of 1 + 9e-11 give 1 + 1.8e-10.  Only
``_derived`` skips the check: for ``states.single_copy_marginal``, and for
the mixtures of pure copies that ``states.identical_pure_copies``,
``pure_de_finetti_state`` and ``phase_averaged_state(points)`` build, whose
trace alone is checked.  Up to ``TRACE_ONLY_MEMBERS`` members (450,349) the
trace is the one invariant such a sum can miss; a larger one is validated in
full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# The package's tolerances: two set at the boundary, two derived from them,
# and the member count below which a sum's rounding stays within them.
# Matrices here are at most 16 on a side, where double-precision
# accumulation error stays far below these.
# norm, Hermiticity (entrywise), trace and ensemble-weight sum
ATOL = 1e-10
# least eigenvalue a valid density operator may have
EIGENVALUE_FLOOR = -1e-9
# a projector's expectation on a valid state lies in [16 F, 1 + ATOL + 16|F|]
# (F the floor), and the four outcomes sum to within this of 1
PROBABILITY_ATOL = ATOL + 16 * -EIGENVALUE_FLOOR
# |Im tr(P rho)| <= ||P||_F ||(rho - rho^H) / 2i||_F <= 4 * 8 * ATOL for any
# projector P on the 16-dimensional register: ||P||_F <= 4, entries <= ATOL / 2
IMAG_ATOL = 32 * ATOL
# sum_i w_i |psi_i psi_i><psi_i psi_i| over N kets of norm within ATOL of 1 and
# nonnegative weights is Hermitian and positive semidefinite exactly, so only
# its trace needs a check while N is at most this.  Each computed entry M_ab is
# off by at most (N + 10) u S_ab, with u = 2^-53 and S_ab = sum_i w_i |a_i||b_i|
# <= (1 + ATOL)^5 (a_i, b_i the entries of |psi_i><psi_i|): N - 1 for the sum in
# any order, under 10 for the projector entries and the products w_i a_i b_i.
# The Hermiticity defect is then at most 2 (N + 10) u, within ATOL; the least
# eigenvalue lies at most ||E||_F <= (N + 10) u sum_i w_i |psi_i|^4 below 0
# (Weyl), that is by 5e-11 at most, far above EIGENVALUE_FLOOR.
TRACE_ONLY_MEMBERS = int(ATOL / (2 * 2.0**-53)) - 10  # 450,349

SINGLE_COPY = ("A", "B")
COPY_MAJOR = ("A1", "B1", "A2", "B2")


def _freeze(state, name: str, ndim: int) -> np.ndarray:
    """Check a new state's register and its array ``name``, set both frozen on it, and return the array.

    ``state.labels`` must name ``SINGLE_COPY`` or ``COPY_MAJOR``; it is stored
    as a tuple.  The array is copied as complex, must have ``ndim`` axes of
    that register's dimension and finite entries, and is stored read-only.
    The refusals come in that order: labels, shape, finiteness.
    """
    labels = tuple(state.labels)
    if labels not in (SINGLE_COPY, COPY_MAJOR):
        raise ValueError(f"labels must be {SINGLE_COPY} or {COPY_MAJOR}, got {labels}")
    arr = np.array(getattr(state, name), dtype=complex)
    shape = (2 ** len(labels),) * ndim
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.isfinite(arr.view(float)).all():
        raise ValueError("entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    object.__setattr__(state, "labels", labels)
    object.__setattr__(state, name, arr)
    return arr


def _require_register(x, labels: tuple[str, ...]) -> None:
    """Refuse a state ``x`` that is not on ``labels``, which is ``SINGLE_COPY`` or ``COPY_MAJOR``."""
    if x.labels != labels:
        kind = "2-qubit state" if labels == SINGLE_COPY else "two-copy state of four qubits"
        raise ValueError(f"expected a {kind} on {labels}, got {x.labels}")


def ensemble_weights(members: Sequence[tuple[float, object]], labels: tuple[str, ...]) -> list[float]:
    """The weights of an ensemble's (weight, member) pairs, once they and each member's register are checked.

    The weights must be nonnegative and sum to 1 within ``ATOL``; nothing is
    silently renormalized.  Every member must be a state on ``labels``.
    """
    weights = [float(w) for w, _ in members]
    if not weights:
        raise ValueError("ensemble must have at least one member")
    total = sum(weights)
    if not (min(weights) >= 0.0 and abs(total - 1.0) <= ATOL):
        raise ValueError(f"weights must be nonnegative and sum to 1, got sum {total!r}")
    for _, member in members:
        _require_register(member, labels)
    return weights


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized pure state on ``SINGLE_COPY`` or ``COPY_MAJOR``."""

    labels: tuple[str, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = _freeze(self, "amplitudes", 1)
        # a norm beyond the largest double is inf, and refused as such
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"ket must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on one of the two registers.

    Construction enforces the invariants (Hermitian within 1e-10, eigenvalues
    above -1e-9, trace 1 within 1e-10); use :func:`validate_density` to
    inspect a matrix without raising.
    """

    labels: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        report = validate_density(_freeze(self, "entries", 2))
        if not report.passed:
            raise ValueError(f"not a valid density operator ({report})")


def _derived(labels: tuple[str, ...], entries: np.ndarray) -> DensityOperator:
    """A density operator computed from valid ones, frozen but not validated again."""
    rho = object.__new__(DensityOperator)
    entries = np.asarray(entries, dtype=complex)
    entries.setflags(write=False)
    object.__setattr__(rho, "labels", labels)
    object.__setattr__(rho, "entries", entries)
    return rho


@dataclass(frozen=True)
class DensityValidation:
    """Report of how far a matrix is from being a density operator."""

    hermiticity_defect: float
    min_eigenvalue: float
    trace_defect: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= ATOL
            and self.min_eigenvalue >= EIGENVALUE_FLOOR
            and self.trace_defect <= ATOL
        )

    def __str__(self) -> str:
        return (
            f"hermiticity defect {self.hermiticity_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}, "
            f"trace defect {self.trace_defect:.3e}"
        )


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def validate_density(rho: np.ndarray) -> DensityValidation:
    """Report-only check of the density-operator invariants of a square matrix."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # eigvalsh assumes Hermitian input; symmetrize so a grossly non-Hermitian
    # matrix still yields a meaningful spectrum for the report.  Halving each
    # term first keeps finite entries finite, and is exact for normal floats.
    eigs = np.linalg.eigvalsh(m / 2.0 + m.conj().T / 2.0)
    # finite entries near the largest double can give an infinite or NaN
    # defect or trace, which the report shows and refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return DensityValidation(
            hermiticity_defect=hermiticity_defect(m),
            min_eigenvalue=float(eigs[0]),
            trace_defect=float(abs(np.trace(m) - 1.0)),
        )


def tensor_product(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """The two-copy state rho x sigma on ``COPY_MAJOR`` from two single-copy states."""
    if not all(isinstance(x, DensityOperator) and x.labels == SINGLE_COPY for x in (rho, sigma)):
        raise ValueError(f"both factors must be single-copy density operators on {SINGLE_COPY}")
    return DensityOperator(COPY_MAJOR, np.kron(rho.entries, sigma.entries))


def permute_subsystems(x: np.ndarray) -> np.ndarray:
    """Exchange the middle two qubits of a 16-vector or 16x16 matrix.

    Maps copy-major (A1, B1, A2, B2) index order to side-major
    (A1, A2, B1, B2) and back.  A pure reordering of basis indices: the
    spectrum is untouched and applying it twice restores ``x`` exactly.
    """
    x = np.asarray(x)
    if x.shape not in ((16,), (16, 16)):
        raise ValueError(f"expected a 16-vector or a 16x16 matrix, got shape {x.shape}")
    # matrices carry one axis per qubit for rows and one for columns
    axes = (0, 2, 1, 3, 4, 6, 5, 7)[: 4 * x.ndim]
    return x.reshape((2,) * (4 * x.ndim)).transpose(axes).reshape(x.shape)


def partial_trace(m: np.ndarray, keep: int) -> np.ndarray:
    """Reduce a 16x16 matrix to its qubit pair ``keep``: 1 (first two qubits) or 2 (last two)."""
    if keep not in (1, 2):
        raise ValueError(f"keep must be pair 1 or 2, got {keep!r}")
    m = np.asarray(m)
    if m.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {m.shape}")
    m = m.reshape(4, 4, 4, 4)
    if keep == 2:
        m = m.transpose(1, 0, 3, 2)
    return np.einsum("itjt->ij", m)


def expectation_value(obs: np.ndarray, rho: DensityOperator) -> float:
    """Tr(obs . rho) for a Hermitian observable, a matrix in ``rho``'s index order.

    The imaginary residue of the trace is checked against ``IMAG_ATOL`` and
    then discarded.
    """
    if obs.shape != rho.entries.shape:
        raise ValueError(f"shape mismatch: observable {obs.shape}, state {rho.entries.shape}")
    if hermiticity_defect(obs) > ATOL:
        raise ValueError("observable must be Hermitian")
    tr = complex(np.trace(obs @ rho.entries))
    if abs(tr.imag) >= IMAG_ATOL:
        raise ValueError(f"expectation has non-negligible imaginary part {tr.imag:.3e}")
    return tr.real
