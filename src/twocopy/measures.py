"""Ground-truth entanglement measures for two-qubit states.

Conventions are pinned to the index ordering documented in
:mod:`twocopy.linalg`: for a ket (a, b, c, d) on labels (A, B) the
concurrence of the pure state is 2|ad - bc|, and the spin flip used by the
closed-form mixed-state concurrence is entrywise conjugation followed by
conjugation with the antidiagonal matrix diag-flip(-1, 1, 1, -1).

The decomposition-infimum oracle searches over explicit pure-state
decompositions and therefore approaches the convex-roof concurrence from
above; it shares no code path with the closed form it is compared against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityOperator,
    Ket,
    NORM_ATOL,
    partial_trace,
)

# spin flip on two qubits: (sigma_y x sigma_y), antidiagonal in the
# computational basis
_SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)

# quadratic form q(w) = w0*w3 - w1*w2 whose modulus is half the
# preconcurrence of an unnormalized two-qubit vector
_PRECONCURRENCE_FORM = np.array(
    [
        [0, 0, 0, 0.5],
        [0, 0, -0.5, 0],
        [0, -0.5, 0, 0],
        [0.5, 0, 0, 0],
    ],
    dtype=complex,
)


def _require_two_qubits(x) -> None:
    if x.layout.n_qubits != 2:
        raise ValueError(f"expected a 2-qubit system, got layout {x.layout.labels}")


def check_weights(weights: Sequence[float]) -> None:
    """Reject ensemble weights that are missing, negative or do not sum to 1.

    The sum must be 1 within 1e-10; nothing is silently renormalized.
    """
    if not weights:
        raise ValueError("ensemble must have at least one member")
    total = sum(weights)
    if not (min(weights) >= 0.0 and abs(total - 1.0) <= NORM_ATOL):
        raise ValueError(f"weights must be nonnegative and sum to 1, got sum {total!r}")


@dataclass(frozen=True)
class PureEnsemble:
    """Weighted list of normalized pure states on a shared 2-qubit space."""

    members: tuple[tuple[float, Ket], ...]

    def __post_init__(self) -> None:
        members = tuple((float(w), psi) for w, psi in self.members)
        object.__setattr__(self, "members", members)
        check_weights([w for w, _ in members])
        layouts = {psi.layout.labels for _, psi in members}
        if len(layouts) != 1:
            raise ValueError(f"ensemble members must share one layout, got {sorted(layouts)}")
        for _, psi in members:
            _require_two_qubits(psi)


def pure_concurrence(psi: Ket) -> float:
    """Concurrence 2|ad - bc| of a pure 2-qubit state with amplitudes (a, b, c, d).

    Zero exactly for product states, 1 for maximally entangled ones.
    """
    _require_two_qubits(psi)
    a, b, c, d = psi.amplitudes
    return 2.0 * float(abs(a * d - b * c))


def wootters_concurrence(rho: DensityOperator) -> float:
    """Closed-form convex-roof concurrence of a 2-qubit density operator.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho . rho_tilde and rho_tilde is the
    spin-flipped state.  They are the singular values of Y^T (sigma_y x
    sigma_y) Y for rho = Y Y^dagger (eigenvectors scaled by the square roots
    of their eigenvalues, clamped at zero): eigenvalues of the non-Hermitian
    product carry solver noise that the square root would amplify.
    """
    _require_two_qubits(rho)
    lam, vecs = np.linalg.eigh(rho.entries)
    y = vecs * np.sqrt(np.clip(lam, 0.0, None))
    s = np.linalg.svd(y.T @ _SPIN_FLIP @ y, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy in bits; eigenvalues below 1e-15 are treated as zero."""
    eigs = np.linalg.eigvalsh(rho.entries)
    eigs = eigs[eigs > 1e-15]
    return float(-np.sum(eigs * np.log2(eigs)))


def entanglement_entropy(psi: Ket, a_side: Iterable[str]) -> float:
    """Entropy of entanglement (ebits) of a pure state across a label split."""
    a_side = set(a_side)
    labels = set(psi.layout.labels)
    if not a_side or not a_side < labels:
        raise ValueError(f"a_side must be a nonempty proper subset of {sorted(labels)}")
    return von_neumann_entropy(partial_trace(psi.density(), a_side))


def ensemble_upper_bound_entanglement(
    members: Sequence[tuple[float, Ket]], a_side: Iterable[str]
) -> float:
    """Average entanglement entropy of an explicit decomposition (ebits).

    Upper-bounds the entanglement of formation of the mixture
    sum_i p_i |psi_i><psi_i| across the given bipartition.
    """
    a_side = frozenset(a_side)
    check_weights([float(w) for w, _ in members])
    layouts = {psi.layout.labels for _, psi in members}
    if len(layouts) != 1:
        raise ValueError(f"inconsistent bipartitions: members span layouts {sorted(layouts)}")
    return float(sum(w * entanglement_entropy(psi, a_side) for w, psi in members))


# ---------------------------------------------------------------------------
# Decomposition-infimum oracle
# ---------------------------------------------------------------------------
#
# Any decomposition rho = sum_i |w_i><w_i| arises from an isometry mixing of
# the eigendecomposition: w_i = sum_j U_ij sqrt(l_j) |v_j> with U an m x r
# matrix of orthonormal columns.  The average concurrence of the induced
# ensemble is 2 sum_i |tau_ii| with tau = U tau0 U^T and
# tau0 = Y^T Q Y for Y the matrix of scaled eigenvectors, so the search
# space is the isometry manifold and every evaluated point is a genuine
# decomposition (the result can only sit above the infimum).
#
# Local refinement is coordinate descent over row pairs.  For one pair the
# restricted objective depends on the 2x2 symmetric block, whose minimum
# under unitary mixing is s1 - s2 in terms of the block's Takagi values.
# The minimizing mixings form a one-parameter family; the split parameter is
# drawn at random (from the seeded generator) because always placing the
# whole remainder on one member creates sticky zero patterns that stall the
# descent.


def _takagi2(t1: complex, t2: complex, t3: complex):
    """Takagi factorization of [[t1, t3], [t3, t2]].

    Returns (s1, s2, (v10, v11, v20, v21)) with s1 >= s2 >= 0 and V unitary
    such that the matrix equals V diag(s1, s2) V^T, or (0, 0, None) for a
    negligible block.
    """
    a11 = abs(t1) ** 2 + abs(t3) ** 2
    a22 = abs(t3) ** 2 + abs(t2) ** 2
    a12 = t1 * t3.conjugate() + t3 * t2.conjugate()
    mean = 0.5 * (a11 + a22)
    disc = math.sqrt(max(0.25 * (a11 - a22) ** 2 + abs(a12) ** 2, 0.0))
    mu2 = mean - disc
    s1 = math.sqrt(max(mean + disc, 0.0))
    s2 = math.sqrt(max(mu2, 0.0))
    if s1 < 1e-300:
        return 0.0, 0.0, None
    # dominant eigenvector of the Hermitian product [[a11, a12], [a12*, a22]]
    c10, c11 = a11 - mu2, a12.conjugate()
    c20, c21 = a12, a22 - mu2
    n1 = abs(c10) ** 2 + abs(c11) ** 2
    n2 = abs(c20) ** 2 + abs(c21) ** 2
    if n1 >= n2:
        u0, u1, nu = c10, c11, math.sqrt(n1)
    else:
        u0, u1, nu = c20, c21, math.sqrt(n2)
    if nu < 1e-300:
        u0, u1 = 1.0, 0.0
    else:
        u0, u1 = u0 / nu, u1 / nu
    # Takagi vector for s1: one of T u* + s1 u and i(T u* - s1 u) has norm
    # at least sqrt(2) s1
    tu0 = t1 * u0.conjugate() + t3 * u1.conjugate()
    tu1 = t3 * u0.conjugate() + t2 * u1.conjugate()
    va0, va1 = tu0 + s1 * u0, tu1 + s1 * u1
    vb0, vb1 = 1j * (tu0 - s1 * u0), 1j * (tu1 - s1 * u1)
    na = abs(va0) ** 2 + abs(va1) ** 2
    nb = abs(vb0) ** 2 + abs(vb1) ** 2
    if na >= nb:
        v10, v11, nv = va0, va1, math.sqrt(na)
    else:
        v10, v11, nv = vb0, vb1, math.sqrt(nb)
    v10, v11 = v10 / nv, v11 / nv
    # orthogonal partner, rotated by the half phase that makes it a Takagi
    # vector for s2
    v20, v21 = -v11.conjugate(), v10.conjugate()
    w0 = t1 * v20.conjugate() + t3 * v21.conjugate()
    w1 = t3 * v20.conjugate() + t2 * v21.conjugate()
    ph = v20.conjugate() * w0 + v21.conjugate() * w1
    if abs(ph) > 1e-300:
        e = cmath.exp(0.5j * cmath.phase(ph))
        v20, v21 = v20 * e, v21 * e
    return s1, s2, (v10, v11, v20, v21)


def _refine(tau, U, m, r, pairs, rng, max_sweeps, tol) -> float:
    """Coordinate descent over row pairs, in place; returns 2 sum_i |tau_ii|."""
    for _ in range(max_sweeps):
        improvement = 0.0
        for i, j in pairs:
            t1 = tau[i][i]
            t2 = tau[j][j]
            t3 = tau[i][j]
            s1, s2, v = _takagi2(t1, t2, t3)
            if v is None:
                continue
            gain = abs(t1) + abs(t2) - (s1 - s2)
            if gain < 1e-15:
                continue
            improvement += gain
            # any split g in [s2/(s1+s2), s1/(s1+s2)] realizes the pair
            # minimum; draw it at random to keep the descent exploring
            tot = s1 + s2
            lo = s2 / tot
            g = lo + rng.random() * (s1 / tot - lo)
            c = math.sqrt(g)
            s = math.sqrt(1.0 - g)
            v10, v11, v20, v21 = v
            g00 = c * v10.conjugate() + 1j * s * v20.conjugate()
            g01 = c * v11.conjugate() + 1j * s * v21.conjugate()
            g10 = 1j * s * v10.conjugate() + c * v20.conjugate()
            g11 = 1j * s * v11.conjugate() + c * v21.conjugate()
            ui, uj = U[i], U[j]
            for k in range(r):
                a, b = ui[k], uj[k]
                ui[k] = g00 * a + g01 * b
                uj[k] = g10 * a + g11 * b
            ti, tj = tau[i], tau[j]
            for k in range(m):
                if k == i or k == j:
                    continue
                a, b = ti[k], tj[k]
                na = g00 * a + g01 * b
                nb = g10 * a + g11 * b
                ti[k] = na
                tj[k] = nb
                tau[k][i] = na
                tau[k][j] = nb
            ti[i] = g * s1 - (1.0 - g) * s2
            tj[j] = g * s2 - (1.0 - g) * s1
            off = 1j * c * s * tot
            ti[j] = off
            tj[i] = off
        if 2.0 * improvement < tol:
            break
    return 2.0 * sum(abs(tau[k][k]) for k in range(m))


def decomposition_infimum_oracle(
    rho: DensityOperator,
    restarts: int = 200,
    ensemble_size: int = 4,
    seed: int = 0,
) -> float:
    """Approximate convex-roof concurrence by explicit decomposition search.

    Minimizes the ensemble-averaged concurrence over decompositions of
    ``rho`` into ``ensemble_size`` pure states, using randomly seeded
    isometries (QR-orthonormalized complex Gaussians) refined by coordinate
    descent on pair mixing angles (stopping once a sweep improves by less
    than 1e-9).  Deterministic for fixed (seed, restarts).

    Every candidate is an exact decomposition, so the result is always an
    upper bound on the infimum up to floating-point error.
    """
    _require_two_qubits(rho)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    lam, vecs = np.linalg.eigh(rho.entries)
    keep = lam > 1e-12
    rank = int(np.sum(keep))
    if ensemble_size < rank:
        raise ValueError(f"ensemble_size {ensemble_size} is below the state rank {rank}")
    m = ensemble_size
    scaled = vecs[:, keep] * np.sqrt(lam[keep])
    tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
    rng = np.random.default_rng(np.random.Philox(seed))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    best = math.inf
    finalists: list[tuple[float, list, list]] = []
    for _ in range(restarts):
        z = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        q, _ = np.linalg.qr(z)
        tau_np = q @ tau0 @ q.T
        tau_np = (tau_np + tau_np.T) / 2.0
        tau = [[complex(tau_np[a, b]) for b in range(m)] for a in range(m)]
        u = [[complex(q[a, b]) for b in range(rank)] for a in range(m)]
        # a few cheap sweeps decide whether this start is worth finishing
        value = _refine(tau, u, m, rank, pairs, rng, 3, 1e-7)
        if value > best + 0.02:
            continue
        value = _refine(tau, u, m, rank, pairs, rng, 22, 1e-7)
        best = min(best, value)
        finalists.append((value, tau, u))
        finalists.sort(key=lambda t: t[0])
        del finalists[3:]
    # finish the leading candidates at full precision
    for value, tau, u in finalists:
        best = min(best, _refine(tau, u, m, rank, pairs, rng, 300, 1e-9))
    return best
