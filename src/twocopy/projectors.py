"""Symmetric and antisymmetric projectors on a qubit pair.

The antisymmetric subspace of two qubits is spanned by the singlet
(|01> - |10>)/sqrt(2); the symmetric subspace is its 3-dimensional
complement.  Two identical pure states always lie in the symmetric
subspace, which is what makes the antisymmetric projection probability
an entanglement signal for identical pure copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    LabelSpec,
    Operator,
    QubitLayout,
    as_layout,
    permute_subsystems,
    tensor_product,
    identity_operator,
)

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"

_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class PairProjector:
    """Projector onto the symmetric or antisymmetric subspace of a pair."""

    kind: str
    pair: tuple[str, str]
    matrix: Operator


def pair_projector(kind: str, pair: tuple[str, str]) -> PairProjector:
    """(I - S)/2 for antisymmetric, (I + S)/2 for symmetric; the two sum to I."""
    if kind not in (ANTISYMMETRIC, SYMMETRIC):
        raise ValueError(f"kind must be {ANTISYMMETRIC!r} or {SYMMETRIC!r}, got {kind!r}")
    sign = -1.0 if kind == ANTISYMMETRIC else 1.0
    mat = (np.eye(4, dtype=complex) + sign * _SWAP) / 2.0
    return PairProjector(kind, (pair[0], pair[1]), Operator(QubitLayout(tuple(pair)), mat))


def embed_pair_projector(p: PairProjector, layout: LabelSpec) -> Operator:
    """Extend a pair projector to a larger layout, identity elsewhere.

    Built by forming kron(P, I) on the layout that lists the pair first,
    then permuting back to the requested label order, so the index
    arithmetic is entirely delegated to ``permute_subsystems``.
    """
    layout = as_layout(layout)
    for lbl in p.pair:
        if lbl not in layout:
            raise ValueError(f"pair label {lbl!r} missing from layout {layout.labels}")
    return _embedded(p.kind, p.pair, layout.labels)


@lru_cache(maxsize=None)
def _embedded(kind: str, pair: tuple[str, str], labels: tuple[str, ...]) -> Operator:
    layout = QubitLayout(labels)
    proj = pair_projector(kind, pair)
    rest = tuple(lbl for lbl in labels if lbl not in pair)
    if rest:
        front = tensor_product(proj.matrix, identity_operator(rest))
    else:
        front = proj.matrix
    return permute_subsystems(front, layout)
