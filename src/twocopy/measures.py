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


def entanglement_entropy(psi: Ket) -> float:
    """Entropy of entanglement (ebits) of a two-copy pure state across the Alice/Bob cut."""
    if psi.labels != COPY_MAJOR:
        raise ValueError(f"expected a two-copy state on {COPY_MAJOR}, got {psi.labels}")
    # Shannon entropy of the squared Schmidt coefficients; in side-major order
    # the rows of the 4x4 amplitude matrix are Alice's pair (A1, A2)
    p = np.linalg.svd(permute_subsystems(psi.amplitudes).reshape(4, 4), compute_uv=False) ** 2
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


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
# the 2x2 symmetric block B = [[a, b], [b, d]], whose minimum under unitary
# mixing is s1 - s2 in terms of the block's Takagi values.  These and the
# Takagi vectors have closed forms: s1 + s2 = sqrt(||B||_F^2 + 2|det B|),
# s1^2 - s2^2 is the eigenvalue gap of the 2x2 Hermitian B B^H, whose
# eigenvectors are the Takagi vectors up to a phase that w^H B conj(w) fixes.
# The minimizing mixings form a one-parameter family; the split parameter is
# drawn at random (from the seeded generator) because always placing the
# whole remainder on one member creates sticky zero patterns that stall the
# descent.  A sweep visits the pairs in rounds of disjoint pairs, and each
# round moves all its pairs of all restarts in one batched update.

MEMBERS = 4  # an optimal decomposition needs at most 4 (Wootters, PRL 80, 2245); no rank exceeds 4
RESTARTS = 200  # random starts; at this count criterion 8's 50 states stay within 1e-3 of the truth
RANK_CUTOFF = 1e-12  # eigenvalues below this are rounding noise of a rank-deficient state
MIN_GAIN = 1e-15  # a pair move predicted to gain less than this only moves rounding noise
PRUNE_MARGIN = 0.02  # after the probe sweeps, starts this far above the best rarely win
PROBE_SWEEPS = 3  # enough to tell which starts are worth pursuing
DESCENT_SWEEPS = 22  # further sweeps for the starts that survive the probe
FINISH_SWEEPS = 300  # the finalists' budget; FINISH_TOL ends them well before it
DESCENT_TOL = 1e-7  # enough to rank the starts, whose gaps are far larger
FINISH_TOL = 1e-9  # well inside the 1e-6 the oracle is held to below the closed form
FINALISTS = 3  # candidates finished at full precision
# (s1 - s2) / (s1 + s2) below this is rounding: B B^H is s^2 I, whose computed
# eigenvectors are arbitrary (18 ulps; scaled random symmetric unitaries give up to 4)
DEGENERATE_RATIO = 4e-15

# the two columns of the identity, the mixing of a block that does not move
_STAY = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
_PLUS_MINUS = np.array([[1.0], [-1.0]])
_ONE_I = np.array([[1.0], [1j]])
_TINY = np.finfo(float).tiny
# a sweep's rounds (0,1)(2,3), (0,2)(1,3), (0,3)(1,2), as rows i over rows j; the
# order fixes which random split each move draws, so reordering changes every result
_ROUNDS = np.array([[[0, 2], [1, 3]], [[0, 1], [2, 3]], [[0, 1], [3, 2]]])


def _pair_moves(a, b, d, u):
    """Closed-form Takagi moves on symmetric blocks [[a, b], [b, d]], elementwise.

    ``u`` in [0, 1) picks the split of each minimizing move.  Returns the
    gain |a| + |d| - (s1 - s2) of each block that moves (0 for the rest) and
    the two columns of each mixing G, stacked on a new axis 1 and with a
    trailing axis, so that row x of the mixed pair is
    ``g0[:, x] * row_i + g1[:, x] * row_j``.  A block gaining less than
    MIN_GAIN gets the identity.
    """
    aa, bb, dd = np.abs(a), np.abs(b), np.abs(d)
    # s1 + s2 = sqrt(|a|^2 + 2|b|^2 + |d|^2 + 2|ad - b^2|), and s1 - s2 as
    # (s1^2 - s2^2) / (s1 + s2), where s1^2 - s2^2 is the eigenvalue gap of
    # B B^H = [[p, q], [q*, r]]; unlike the square root of
    # |a|^2 + 2|b|^2 + |d|^2 - 2|ad - b^2|, neither cancels at s1 ~ s2
    total = np.sqrt(aa * aa + 2.0 * bb * bb + dd * dd + 2.0 * np.abs(a * d - b * b))
    q = a * b.conj() + b * d.conj()
    p_r, q2 = (aa - dd) * (aa + dd), 2.0 * np.abs(q)
    ratio = np.hypot(p_r, q2) / np.maximum(total * total, _TINY)  # (s1 - s2) / (s1 + s2)
    gain = aa + dd - ratio * total
    move = gain >= MIN_GAIN
    flat = move & (ratio <= DEGENERATE_RATIO)
    if flat.any():
        # B B^H = s^2 I: any vector is its eigenvector, but a Takagi vector is
        # v = B conj(x) + s x, for x = (1, 0) or, where Re a < 0 would cancel
        # it, i x; below, v is the top eigenvector of v v^H, from its q, p - r
        sign = np.where(a.real < 0.0, -1.0, 1.0)
        v0, v1 = 0.5 * total + sign * a, sign * b
        q = np.where(flat, v0 * v1.conj(), q)
        p_r = np.where(flat, (np.abs(v0) - np.abs(v1)) * (np.abs(v0) + np.abs(v1)), p_r)
        q2 = 2.0 * np.abs(q)
    # unit eigenvectors of B B^H: w1 = (ct, st e) and w2 = (-st e*, ct), with
    # e = exp(-i arg q) and 2 theta = arctan2(2|q|, p - r)
    two_theta = np.arctan2(q2, p_r)
    ct, st = np.cos(0.5 * two_theta), np.sin(0.5 * two_theta)
    e_conj = np.exp(1j * np.angle(q))
    beta, delta = e_conj * b, e_conj * e_conj * d
    # twice w1^H B conj(w1) and twice e^-2 w2^H B conj(w2); with p1, p2 their
    # half phases, the Takagi vectors are v1 = w1 p1 and v2 = w2 e p2
    spread = np.cos(two_theta) * (a - delta) + 2.0 * np.sin(two_theta) * beta
    zeta = (a + delta)[:, None] + _PLUS_MINUS * spread[:, None]
    p_conj = np.exp(-0.5j * np.angle(zeta))
    # any split g in [s2/(s1+s2), s1/(s1+s2)] realizes the pair minimum;
    # draw it at random to keep the descent exploring.  M = [[c, i s], [i s, c]]
    # with c = sqrt(g) and s = sqrt(1 - g) has the columns (c, i s) and (i s, c)
    c_is = np.sqrt(0.5 + _PLUS_MINUS * ((u - 0.5) * ratio)[:, None]) * _ONE_I
    # G = M V^H, with V^H = [[ct p1*, st e* p1*], [-st p2*, ct e* p2*]], is
    # unitary whatever the accuracy of V, so every candidate stays an exact
    # decomposition
    left, right = c_is * p_conj[:, :1], c_is[:, ::-1] * p_conj[:, 1:]
    ct, st, e_conj, keep = ct[:, None], st[:, None], e_conj[:, None], move[:, None]
    g0 = np.where(keep, ct * left - st * right, _STAY[0])
    g1 = np.where(keep, e_conj * (st * left + ct * right), _STAY[1])
    return np.where(move, gain, 0.0), g0[..., None], g1[..., None]


def _mix_rows(x: np.ndarray, ij: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> None:
    """Replace rows (i, j) of each (m, m) matrix in the stack x by G @ rows, in place."""
    rows = x[:, ij]
    x[:, ij] = g0 * rows[:, :1] + g1 * rows[:, 1:]


def _refine(tau: np.ndarray, rng, max_sweeps: int, tol: float) -> np.ndarray:
    """Coordinate descent over row pairs on an (R, 4, 4) stack, in place.

    A sweep runs the three rounds of ``_ROUNDS``, each as one batched
    congruence G tau G^T.  A restart stops once a sweep improves it by less
    than ``tol / 2``, the stage once every restart has stopped.  Returns the
    (R,) values 2 sum_i |tau_ii|.
    """
    live = np.arange(len(tau))
    for _ in range(max_sweeps):
        t = tau[live]
        improvement = np.zeros(len(t))
        for ij in _ROUNDS:
            i, j = ij
            gain, g0, g1 = _pair_moves(t[:, i, i], t[:, i, j], t[:, j, j], rng.random((len(t), 2)))
            improvement += gain.sum(axis=1)
            _mix_rows(t, ij, g0, g1)
            _mix_rows(t.transpose(0, 2, 1), ij, g0, g1)
        tau[live] = t
        live = live[2.0 * improvement >= tol]
        if not live.size:
            break
    return 2.0 * np.abs(np.diagonal(tau, axis1=1, axis2=2)).sum(axis=1)


def decomposition_infimum_oracle(rho: DensityOperator, seed: int = 0) -> float:
    """Approximate convex-roof concurrence by explicit decomposition search.

    Minimizes the ensemble-averaged concurrence over decompositions of
    ``rho`` into 4 pure states (MEMBERS), from 200 (RESTARTS) randomly
    seeded isometries (QR-orthonormalized complex Gaussians) refined by
    coordinate descent on pair mixing angles.  A restart stops once a sweep
    improves it by less than half its stage's tolerance: 5e-8 (DESCENT_TOL
    / 2) while the starts are ranked, 5e-10 (FINISH_TOL / 2) for the finalists.
    Deterministic for a fixed seed.

    Every candidate is an exact decomposition, so the result is always an
    upper bound on the infimum up to floating-point error.
    """
    _require_two_qubits(rho)
    lam, vecs = np.linalg.eigh(rho.entries)
    keep = lam > RANK_CUTOFF
    scaled = vecs[:, keep] * np.sqrt(lam[keep])
    tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
    rng = np.random.default_rng(np.random.Philox(seed))
    shape = (RESTARTS, MEMBERS, scaled.shape[1])
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tau = q @ tau0 @ q.transpose(0, 2, 1)
    tau = (tau + tau.transpose(0, 2, 1)) / 2.0
    # a few cheap sweeps decide which starts are worth finishing
    values = _refine(tau, rng, PROBE_SWEEPS, DESCENT_TOL)
    tau = tau[values <= values.min() + PRUNE_MARGIN]
    values = _refine(tau, rng, DESCENT_SWEEPS, DESCENT_TOL)
    # finish the leading candidates at full precision
    tau = tau[np.argsort(values)[:FINALISTS]]
    return float(min(values.min(), _refine(tau, rng, FINISH_SWEEPS, FINISH_TOL).min()))
