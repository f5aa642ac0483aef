"""Dense complex linear algebra over small labeled qubit registers.

States and operators carry a :class:`QubitLayout`, an ordered tuple of
subsystem labels.  The label order fixes the amplitude indexing, with the
first label most significant.  For a layout ``("A", "B")`` the four basis
states are ordered

    index 0  ->  |A=0, B=0>
    index 1  ->  |A=0, B=1>
    index 2  ->  |A=1, B=0>
    index 3  ->  |A=1, B=1>

so ``index = 2*a + b`` and ``np.kron`` composes amplitudes in layout order.

Everything here is a pure function of its inputs.  Arrays are copied on
construction and frozen, so values are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

# Structural tolerances.  Matrices in this package are at most 2^MAX_QUBITS
# on a side, where double-precision accumulation error stays far below these.
NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
IMAG_ATOL = 1e-10
MAX_QUBITS = 8

LabelSpec = Union["QubitLayout", Sequence[str]]


@dataclass(frozen=True)
class QubitLayout:
    """Ordered register of uniquely labeled qubits."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not 1 <= len(labels) <= MAX_QUBITS:
            raise ValueError(f"layout must have 1..{MAX_QUBITS} qubits, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout {labels}")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in layout {self.labels}") from None

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels


def as_layout(layout: LabelSpec) -> QubitLayout:
    if isinstance(layout, QubitLayout):
        return layout
    return QubitLayout(tuple(layout))


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
    """Normalized pure state over a qubit layout."""

    layout: QubitLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        layout = as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        amps = _frozen_complex(self.amplitudes, (layout.dim,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"ket must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityOperator":
        """Rank-1 density operator |psi><psi|."""
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on a qubit layout."""

    layout: QubitLayout
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        layout = as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", _frozen_complex(self.entries, (layout.dim, layout.dim)))

    def is_hermitian(self, atol: float = HERMITICITY_ATOL) -> bool:
        return hermiticity_defect(self.entries) <= atol


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator.

    Construction enforces the invariants (Hermitian within 1e-10, eigenvalues
    above -1e-9, trace 1 within 1e-10); use :func:`validate_density` to
    inspect a matrix without raising.
    """

    layout: QubitLayout
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        layout = as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        entries = _frozen_complex(self.entries, (layout.dim, layout.dim))
        report = validate_density(entries)
        if not report.passed:
            raise ValueError(f"not a valid density operator ({report})")
        object.__setattr__(self, "entries", entries)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


StateOrOperator = Union[Ket, Operator, DensityOperator]


@dataclass(frozen=True)
class DensityValidation:
    """Report of how far a matrix is from being a density operator."""

    hermiticity_defect: float
    min_eigenvalue: float
    trace_defect: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= HERMITICITY_ATOL
            and self.min_eigenvalue >= EIGENVALUE_FLOOR
            and self.trace_defect <= TRACE_ATOL
        )

    def __str__(self) -> str:
        return (
            f"hermiticity defect {self.hermiticity_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}, "
            f"trace defect {self.trace_defect:.3e}"
        )


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def validate_density(rho: Union[np.ndarray, DensityOperator]) -> DensityValidation:
    """Report-only check of the density-operator invariants."""
    m = rho.entries if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
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


def _require_same_layout(a: QubitLayout, b: QubitLayout) -> None:
    if a.labels != b.labels:
        raise ValueError(f"layout mismatch: {a.labels} vs {b.labels}")


def basis_ket(layout: LabelSpec, bits: str) -> Ket:
    """Computational basis state from a bit string in layout order.

    ``basis_ket(("A", "B"), "01")`` is the state with A=0, B=1, amplitude 1
    at index 1.
    """
    layout = as_layout(layout)
    if len(bits) != layout.n_qubits or any(c not in "01" for c in bits):
        raise ValueError(f"bits {bits!r} do not match layout of {layout.n_qubits} qubits")
    amps = np.zeros(layout.dim, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return Ket(layout, amps)


def identity_operator(layout: LabelSpec) -> Operator:
    layout = as_layout(layout)
    return Operator(layout, np.eye(layout.dim, dtype=complex))


def relabel(x: StateOrOperator, labels: LabelSpec) -> StateOrOperator:
    """Same amplitudes/entries under new labels (positional renaming)."""
    layout = as_layout(labels)
    if layout.n_qubits != x.layout.n_qubits:
        raise ValueError("relabel must preserve the number of qubits")
    if isinstance(x, Ket):
        return Ket(layout, x.amplitudes)
    return type(x)(layout, x.entries)


def tensor_product(a: StateOrOperator, b: StateOrOperator) -> StateOrOperator:
    """Kronecker composition; operand layouts must have disjoint labels."""
    if type(a) is not type(b):
        raise ValueError(f"operands must be the same kind, got {type(a).__name__} and {type(b).__name__}")
    common = set(a.layout.labels) & set(b.layout.labels)
    if common:
        raise ValueError(f"label collision in tensor product: {sorted(common)}")
    layout = QubitLayout(a.layout.labels + b.layout.labels)
    if isinstance(a, Ket):
        return Ket(layout, np.kron(a.amplitudes, b.amplitudes))
    return type(a)(layout, np.kron(a.entries, b.entries))


def _permutation(old: QubitLayout, new_order: LabelSpec) -> tuple[QubitLayout, list[int]]:
    new_layout = as_layout(new_order)
    if sorted(new_layout.labels) != sorted(old.labels):
        raise ValueError(f"{new_layout.labels} is not a permutation of {old.labels}")
    return new_layout, [old.position(lbl) for lbl in new_layout.labels]


def permute_subsystems(x: StateOrOperator, new_order: LabelSpec) -> StateOrOperator:
    """Reorder the subsystems of a ket or operator to ``new_order``.

    Pure relabeling of basis indices: the spectrum is untouched and applying
    the inverse permutation restores the original entries exactly.
    """
    new_layout, perm = _permutation(x.layout, new_order)
    n = x.layout.n_qubits
    if isinstance(x, Ket):
        amps = x.amplitudes.reshape((2,) * n).transpose(perm).reshape(-1)
        return Ket(new_layout, amps)
    # operators carry one axis per qubit for rows and one for columns
    axes = perm + [n + p for p in perm]
    entries = x.entries.reshape((2,) * (2 * n)).transpose(axes).reshape(x.layout.dim, x.layout.dim)
    return type(x)(new_layout, entries)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every subsystem not in ``keep``.

    The kept labels retain their original relative order.
    """
    keep = set(keep)
    unknown = keep - set(rho.layout.labels)
    if unknown:
        raise ValueError(f"unknown labels in keep set: {sorted(unknown)}")
    if not keep:
        raise ValueError("keep set must be nonempty")
    kept_labels = tuple(lbl for lbl in rho.layout.labels if lbl in keep)
    traced = tuple(lbl for lbl in rho.layout.labels if lbl not in keep)
    if not traced:
        return rho
    n = rho.layout.n_qubits
    kept_pos = [rho.layout.position(lbl) for lbl in kept_labels]
    traced_pos = [rho.layout.position(lbl) for lbl in traced]
    dk = 2 ** len(kept_pos)
    dt = 2 ** len(traced_pos)
    axes = kept_pos + traced_pos + [n + p for p in kept_pos] + [n + p for p in traced_pos]
    m = rho.entries.reshape((2,) * (2 * n)).transpose(axes).reshape(dk, dt, dk, dt)
    reduced = np.einsum("itjt->ij", m)
    return DensityOperator(QubitLayout(kept_labels), reduced)


def expectation_value(obs: Operator, rho: DensityOperator) -> float:
    """Tr(obs . rho) for a Hermitian observable.

    The imaginary residue of the trace is checked against 1e-10 and then
    discarded.
    """
    _require_same_layout(obs.layout, rho.layout)
    if not obs.is_hermitian():
        raise ValueError("observable must be Hermitian")
    tr = complex(np.trace(obs.entries @ rho.entries))
    if abs(tr.imag) >= IMAG_ATOL:
        raise ValueError(f"expectation has non-negligible imaginary part {tr.imag:.3e}")
    return tr.real

