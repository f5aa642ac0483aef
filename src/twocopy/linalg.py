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

Everything here is a pure function of its inputs.  Arrays are copied on
construction and frozen, so values are safe to share between threads.
A :class:`DensityOperator` built from a matrix is validated; one derived
from valid ones (``tensor_product``) is valid by construction and is not
checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The package's tolerances: two set at the boundary, two derived from them.
# Matrices here are at most 16 on a side, where double-precision
# accumulation error stays far below these.
# norm, Hermiticity (entrywise), trace and ensemble-weight sum
ATOL = 1e-10
# least eigenvalue a valid density operator may have
EIGENVALUE_FLOOR = -1e-9
# a projector's expectation on a valid state lies in [16 F, 1 + ATOL + 16|F|]
# (F the floor), and the four outcomes' clamped values sum to within this of 1
PROBABILITY_ATOL = ATOL + 16 * -EIGENVALUE_FLOOR
# |Im tr(P rho)| <= ||P||_F ||(rho - rho^H) / 2i||_F <= 4 * 8 * ATOL for any
# projector P on the 16-dimensional register: ||P||_F <= 4, entries <= ATOL / 2
IMAG_ATOL = 32 * ATOL

SINGLE_COPY = ("A", "B")
COPY_MAJOR = ("A1", "B1", "A2", "B2")


def _register(labels) -> tuple[tuple[str, ...], int]:
    """The register ``labels`` names and its dimension."""
    labels = tuple(labels)
    if labels not in (SINGLE_COPY, COPY_MAJOR):
        raise ValueError(f"labels must be {SINGLE_COPY} or {COPY_MAJOR}, got {labels}")
    return labels, 2 ** len(labels)


def _frozen_complex(a, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Ket:
    """Normalized pure state on ``SINGLE_COPY`` or ``COPY_MAJOR``."""

    labels: tuple[str, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels, dim = _register(self.labels)
        object.__setattr__(self, "labels", labels)
        amps = _frozen_complex(self.amplitudes, (dim,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"ket must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on one of the two registers.

    Construction enforces the invariants (Hermitian within 1e-10, eigenvalues
    above -1e-9, trace 1 within 1e-10); use :func:`validate_density` to
    inspect a matrix without raising.
    """

    labels: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        labels, dim = _register(self.labels)
        object.__setattr__(self, "labels", labels)
        entries = _frozen_complex(self.entries, (dim, dim))
        report = validate_density(entries)
        if not report.passed:
            raise ValueError(f"not a valid density operator ({report})")
        object.__setattr__(self, "entries", entries)


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
    herm = hermiticity_defect(m)
    # eigvalsh assumes Hermitian input; symmetrize so a grossly non-Hermitian
    # matrix still yields a meaningful spectrum for the report
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return DensityValidation(
        hermiticity_defect=herm,
        min_eigenvalue=float(eigs[0]),
        trace_defect=float(abs(np.trace(m) - 1.0)),
    )


def tensor_product(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """The two-copy state rho x sigma on ``COPY_MAJOR`` from two single-copy states."""
    if not all(isinstance(x, DensityOperator) and x.labels == SINGLE_COPY for x in (rho, sigma)):
        raise ValueError(f"both factors must be single-copy density operators on {SINGLE_COPY}")
    return _derived(COPY_MAJOR, np.kron(rho.entries, sigma.entries))


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
