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

from typing import Sequence

import numpy as np

from .linalg import (
    COPY_MAJOR,
    NORM_ATOL,
    SINGLE_COPY,
    DensityOperator,
    Ket,
    partial_trace,
    permute_subsystems,
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


# eigenvalues below this are rounding noise of zero ones (some negative, where
# log2 fails); dropping one moves the entropy by less than 5e-14 bits
ENTROPY_EIGENVALUE_FLOOR = 1e-15


def _require_two_qubits(x) -> None:
    if x.labels != SINGLE_COPY:
        raise ValueError(f"expected a 2-qubit system on {SINGLE_COPY}, got {x.labels}")


def check_weights(weights: Sequence[float]) -> None:
    """Reject ensemble weights that are missing, negative or do not sum to 1.

    The sum must be 1 within 1e-10; nothing is silently renormalized.
    """
    if not weights:
        raise ValueError("ensemble must have at least one member")
    total = sum(weights)
    if not (min(weights) >= 0.0 and abs(total - 1.0) <= NORM_ATOL):
        raise ValueError(f"weights must be nonnegative and sum to 1, got sum {total!r}")


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


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy in bits of a density matrix; eigenvalues below 1e-15 are treated as zero."""
    eigs = np.linalg.eigvalsh(m)
    eigs = eigs[eigs > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(eigs * np.log2(eigs)))


def entanglement_entropy(psi: Ket) -> float:
    """Entropy of entanglement (ebits) of a two-copy pure state across the Alice/Bob cut."""
    if psi.labels != COPY_MAJOR:
        raise ValueError(f"expected a two-copy state on {COPY_MAJOR}, got {psi.labels}")
    # Alice's pair (A1, A2) is the first pair in side-major order
    return von_neumann_entropy(partial_trace(permute_subsystems(psi.density().entries), 1))


def ensemble_upper_bound_entanglement(members: Sequence[tuple[float, Ket]]) -> float:
    """Average entanglement entropy of an explicit two-copy decomposition (ebits).

    Upper-bounds the entanglement of formation of the mixture
    sum_i p_i |psi_i><psi_i| across the Alice/Bob cut.
    """
    check_weights([float(w) for w, _ in members])
    return float(sum(w * entanglement_entropy(psi) for w, psi in members))


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
# decomposition (the result can only sit above the infimum).  Only tau is
# tracked: a unitary mixing G of two rows maps tau to G tau G^T.
#
# Local refinement is coordinate descent over row pairs, run on a stack of
# all restarts at once.  For one pair the restricted objective depends on
# the 2x2 symmetric block, whose minimum under unitary mixing is s1 - s2 in
# terms of the block's Takagi values.  The minimizing mixings form a
# one-parameter family; the split parameter is drawn at random (from the
# seeded generator) because always placing the whole remainder on one member
# creates sticky zero patterns that stall the descent.

RANK_CUTOFF = 1e-12  # eigenvalues below this are rounding noise of a rank-deficient state
MIN_GAIN = 1e-15  # a pair move predicted to gain less than this only moves rounding noise
PRUNE_MARGIN = 0.02  # after the probe sweeps, starts this far above the best rarely win
PROBE_SWEEPS = 3  # enough to tell which starts are worth pursuing
DESCENT_SWEEPS = 22  # further sweeps for the starts that survive the probe
FINISH_SWEEPS = 300  # the finalists' budget; FINISH_TOL ends them well before it
DESCENT_TOL = 1e-7  # enough to rank the starts, whose gaps are far larger
FINISH_TOL = 1e-9  # well inside the 1e-6 the oracle is held to below the closed form
FINALISTS = 3  # candidates finished at full precision


def _refine(tau: np.ndarray, pairs, rng, max_sweeps: int, tol: float) -> np.ndarray:
    """Coordinate descent over row pairs on an (R, m, m) stack, in place.

    A restart stops once a sweep improves it by less than ``tol / 2``, the
    stage once every restart has stopped.  Returns the (R,) values
    2 sum_i |tau_ii|.
    """
    live = np.arange(len(tau))
    for _ in range(max_sweeps):
        t = tau[live]
        improvement = np.zeros(len(t))
        for ij in pairs:
            block = t[:, ij[:, None], ij]
            # Takagi factors V diag(s) V^T of the symmetric block from its SVD
            # W diag(s) Zh: symmetry makes Zh = diag(d) W^T with |d| = 1 for
            # distinct s, so V = W diag(sqrt(d))
            w, s, zh = np.linalg.svd(block)
            d = np.einsum("rik,rki->rk", w.conj(), zh)
            v = w * np.exp(0.5j * np.angle(d))[:, None, :]
            s1, s2 = s[:, 0], s[:, 1]
            gain = np.abs(block[:, 0, 0]) + np.abs(block[:, 1, 1]) - (s1 - s2)
            move = gain >= MIN_GAIN
            improvement += np.where(move, gain, 0.0)
            # any split g in [s2/(s1+s2), s1/(s1+s2)] realizes the pair
            # minimum; draw it at random to keep the descent exploring
            g = ((s2 + rng.random(len(t)) * (s1 - s2)) / np.where(move, s1 + s2, 1.0))[:, None]
            c, sn = np.sqrt(g), 1j * np.sqrt(1.0 - g)
            # G = [[c, i s], [i s, c]] V^H is unitary whatever the accuracy of
            # V, so every candidate stays an exact decomposition
            vh = v.conj().transpose(0, 2, 1)
            mix = np.stack([c * vh[:, 0] + sn * vh[:, 1], sn * vh[:, 0] + c * vh[:, 1]], axis=1)
            mix = np.where(move[:, None, None], mix, np.eye(2))
            t[:, ij, :] = mix @ t[:, ij, :]
            t[:, :, ij] = t[:, :, ij] @ mix.transpose(0, 2, 1)
        tau[live] = t
        live = live[2.0 * improvement >= tol]
        if not live.size:
            break
    return 2.0 * np.abs(np.diagonal(tau, axis1=1, axis2=2)).sum(axis=1)


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
    keep = lam > RANK_CUTOFF
    rank = int(np.sum(keep))
    if ensemble_size < rank:
        raise ValueError(f"ensemble_size {ensemble_size} is below the state rank {rank}")
    m = ensemble_size
    scaled = vecs[:, keep] * np.sqrt(lam[keep])
    tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
    rng = np.random.default_rng(np.random.Philox(seed))
    pairs = [np.array([i, j]) for i in range(m) for j in range(i + 1, m)]
    shape = (restarts, m, rank)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tau = q @ tau0 @ q.transpose(0, 2, 1)
    tau = (tau + tau.transpose(0, 2, 1)) / 2.0
    # a few cheap sweeps decide which starts are worth finishing
    values = _refine(tau, pairs, rng, PROBE_SWEEPS, DESCENT_TOL)
    tau = tau[values <= values.min() + PRUNE_MARGIN]
    values = _refine(tau, pairs, rng, DESCENT_SWEEPS, DESCENT_TOL)
    # finish the leading candidates at full precision
    tau = tau[np.argsort(values)[:FINALISTS]]
    return float(min(values.min(), _refine(tau, pairs, rng, FINISH_SWEEPS, FINISH_TOL).min()))
