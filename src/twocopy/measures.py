"""Ground-truth entanglement measures for two-qubit states.

Conventions are pinned to the index ordering documented in
:mod:`twocopy.linalg`: for a ket w = (a, b, c, d) on labels (A, B) the
concurrence of the pure state is 2|ad - bc| = 2|w^T Q w|, with Q the
symmetric form ``_PRECONCURRENCE_FORM``, which is -(sigma_y x sigma_y) / 2.

The two truths share only that form.  The closed form takes the singular
values of Y^T Q Y, for rho = Y Y^dagger; the decomposition-infimum oracle
searches over explicit pure-state decompositions, the congruences of the
same Y^T Q Y, and so approaches the convex-roof concurrence from above.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import (
    COPY_MAJOR,
    SINGLE_COPY,
    DensityOperator,
    Ket,
    _require_register,
    ensemble_weights,
    permute_subsystems,
)

# quadratic form q(w) = w0*w3 - w1*w2 whose modulus is half the
# preconcurrence of an unnormalized two-qubit vector: -(sigma_y x sigma_y) / 2,
# antidiagonal in the computational basis
_PRECONCURRENCE_FORM = np.array(
    [
        [0, 0, 0, 0.5],
        [0, 0, -0.5, 0],
        [0, -0.5, 0, 0],
        [0.5, 0, 0, 0],
    ],
    dtype=complex,
)


def wootters_concurrence(rho: DensityOperator) -> float:
    """Closed-form convex-roof concurrence of a 2-qubit density operator.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho . rho_tilde and rho_tilde is the
    spin-flipped state.  They are the singular values of Y^T (sigma_y x
    sigma_y) Y, twice those of Y^T Q Y, for rho = Y Y^dagger (eigenvectors
    scaled by the square roots of their eigenvalues, clamped at zero):
    eigenvalues of the non-Hermitian product carry solver noise that the
    square root would amplify.  Scaling by -1/2 is exact in binary, so the
    value is the one sigma_y x sigma_y itself gives.
    """
    _require_register(rho, SINGLE_COPY)
    lam, vecs = np.linalg.eigh(rho.entries)
    y = vecs * np.sqrt(np.maximum(lam, 0.0))
    s = np.linalg.svd(y.T @ _PRECONCURRENCE_FORM @ y, compute_uv=False)
    return max(0.0, float(2.0 * (s[0] - s[1] - s[2] - s[3])))


def entanglement_entropy(psi: Ket) -> float:
    """Entropy of entanglement (ebits) of a two-copy pure state across the Alice/Bob cut."""
    _require_register(psi, COPY_MAJOR)
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
    ensemble_weights(members, COPY_MAJOR)
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
# tracked: a unitary W maps it to W tau W^T.  A pure state has no other
# decomposition than itself, so its value is 2 |tau0_00|, with no search.
#
# The search is Riemannian BFGS on U(4) (Huang, Gallivan & Absil, SIAM J.
# Optim. 25, 1660, 2015) on the objective of Rothlisberger, Lehmann & Loss
# (PRA 80, 042301, 2009), run on STARTS random isometries at once; the least
# value reached is the result.  Moving tau to exp(X) tau exp(X)^T, X
# anti-Hermitian, changes sum_i |tau_ii| by Re tr(X^H G) to first order,
# with the anti-Hermitian gradient G = S conj(tau) - tau conj(S) for
# S = diag(tau_ii / |tau_ii|).  Each start keeps an inverse Hessian on the
# 32 real coordinates of X, from the identity, and steps along -H G.  A
# direction h = -i V diag(w) V^H gives the steps
# W(a) = V diag(exp(-i a w)) V^H, along which
# tau(a)_ii = sum_kl V_ik V_il (V^H tau conj V)_kl exp(-i a (w_k + w_l)),
# so one batched matmul over the pairs k <= l scores a whole grid of step
# sizes; the best is taken if it lowers the objective.  W(a) is unitary
# whatever the accuracy of V, so every candidate stays an exact
# decomposition.

MEMBERS = 4  # an optimal decomposition needs at most 4 (Wootters, PRL 80, 2245); no rank exceeds 4
STARTS = 4  # random starts; 6 of 8,640 alone end above 1e-6 on oracle-sweep seeds 1-30 (scripts/oracle_gaps.py)
RANK_CUTOFF = 1e-12  # eigenvalues below this are rounding noise of a rank-deficient state
FINISH_TOL = 1e-9  # well inside the 1e-6 the oracle is held to below the closed form
FINISH_STALL = 3  # a start stops after this many iterations in a row gaining under FINISH_TOL / 2
FINISH_ITERATIONS = 300  # each start's budget; FINISH_STALL ends all but a few per thousand before it

_TINY = np.finfo(float).tiny
# the finish's step sizes, as the largest rotation angle a max|w| of the step:
# pi down to 1e-9 in factors of sqrt(2), so some grid angle lies within a
# factor sqrt(2) of any step in that range
_ANGLES = np.pi * 2.0 ** (-0.5 * np.arange(64))
# the 10 unordered member pairs k <= l; core is symmetric, so kl stands for lk too
_PAIRS = np.triu_indices(MEMBERS)
_PAIR_WEIGHTS = np.where(_PAIRS[0] == _PAIRS[1], 1.0, 2.0)


def _values(tau: np.ndarray) -> np.ndarray:
    """The values 2 sum_i |tau_ii| of an (R, 4, 4) stack."""
    return 2.0 * np.abs(np.diagonal(tau, axis1=1, axis2=2)).sum(axis=1)


def _gradient(tau: np.ndarray) -> np.ndarray:
    """Anti-Hermitian gradients S conj(tau) - tau conj(S) for S = diag(tau_ii / |tau_ii|)."""
    z = np.diagonal(tau, axis1=1, axis2=2)
    s = z / np.maximum(np.abs(z), _TINY)
    x = s[:, :, None] * tau.conj()
    return x - x.conj().transpose(0, 2, 1)


def _line_search(tau: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best step W = exp(a h), a from the grid ``_ANGLES``, for each stack entry.

    ``h`` is anti-Hermitian: h = -i V diag(w) V^H, so W = V diag(exp(-i a w)) V^H.
    Returns the unitaries W, an (R, 4, 4) stack, whether or not they gain, and
    the angles a, each a grid value over max|w|.
    """
    w, v = np.linalg.eigh(1j * h)
    a = _ANGLES / np.maximum(np.abs(w).max(axis=1, keepdims=True), _TINY)
    vh = v.conj().transpose(0, 2, 1)
    core = vh @ tau @ vh.transpose(0, 2, 1)  # V^H tau conj(V), symmetric
    k, l = _PAIRS
    coef = v[:, :, k] * v[:, :, l] * (_PAIR_WEIGHTS * core[:, k, l])[:, None, :]
    phase = np.exp(-1j * a[:, :, None] * w[:, None, :])  # exp(-i a w_k), (R, steps, 4)
    scores = np.abs(coef @ (phase[:, :, k] * phase[:, :, l]).transpose(0, 2, 1)).sum(axis=1)
    rows, best = np.arange(len(tau)), scores.argmin(axis=1)
    return (v * phase[rows, best][:, None, :]) @ vh, a[rows, best]


def _bfgs(hess: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS updates of (R, 32, 32) inverse Hessians by steps s and gradient changes y, (R, 32).

    A start updates only if s.y > 0.  One that did not move has y = 0 and
    keeps its H.
    """
    sy = np.einsum("ri,ri->r", s, y)
    hy = np.einsum("rij,rj->ri", hess, y)
    r = np.where(sy > 0.0, 1.0, 0.0) / np.where(sy > 0.0, sy, 1.0)  # 0 leaves H as it is
    c = r + r * r * np.einsum("ri,ri->r", y, hy)
    sh = s[:, :, None] * ((c / 2.0)[:, None] * s - r[:, None] * hy)[:, None, :]
    # H + c s s^T - r (s (Hy)^T + Hy s^T)
    return hess + (sh + sh.transpose(0, 2, 1))


def _finish(tau: np.ndarray) -> float:
    """Riemannian BFGS on U(4) for an (S, 4, 4) stack.

    Each start stops after FINISH_STALL iterations in a row that each lower
    its value 2 sum_i |tau_ii| by less than FINISH_TOL / 2, or after
    FINISH_ITERATIONS, and then stays in its row as it is: it takes no step,
    so its gradient change is 0 and its inverse Hessian is kept.  Returns
    the least value reached.
    """
    value = _values(tau)
    grad = _gradient(tau)
    hess = np.broadcast_to(np.eye(32), (len(tau), 32, 32))
    stalls = np.zeros(len(tau), dtype=int)
    for _ in range(FINISH_ITERATIONS):
        live = stalls < FINISH_STALL
        if not live.any():
            break
        step = -(hess @ grad.view(float).reshape(len(tau), 32, 1))
        w, a = _line_search(tau, step.reshape(len(tau), 4, 8).view(complex))
        moved = w @ tau @ w.transpose(0, 2, 1)
        moved = (moved + moved.transpose(0, 2, 1)) / 2.0
        moved_value = _values(moved)
        better = live & (moved_value < value)
        stalls = np.where(better & (value - moved_value >= FINISH_TOL / 2.0), 0, stalls + 1)
        tau = np.where(better[:, None, None], moved, tau)
        value = np.where(better, moved_value, value)
        new_grad = _gradient(tau)
        y = (new_grad - grad).view(float).reshape(len(tau), 32)
        hess = _bfgs(hess, a[:, None] * step[:, :, 0], y)
        grad = new_grad
    return float(value.min())


def decomposition_infimum_oracle(rho: DensityOperator, seed: int = 0) -> float:
    """Approximate convex-roof concurrence by explicit decomposition search.

    Minimizes the ensemble-averaged concurrence over decompositions of
    ``rho`` into 4 pure states (MEMBERS).  A pure state is its own only
    decomposition and returns at once.  Otherwise 4 (STARTS) seeded random
    isometries (QR-orthonormalized complex Gaussians) are each descended by
    Riemannian BFGS on U(4), until 3 (FINISH_STALL) iterations in a row gain
    less than 5e-10 (FINISH_TOL / 2) or for at most 300 (FINISH_ITERATIONS).
    Deterministic for a fixed seed.

    Every candidate is an exact decomposition, so the result is always an
    upper bound on the infimum up to floating-point error.
    """
    _require_register(rho, SINGLE_COPY)
    lam, vecs = np.linalg.eigh(rho.entries)
    keep = lam > RANK_CUTOFF
    scaled = vecs[:, keep] * np.sqrt(lam[keep])
    tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
    if len(tau0) == 1:
        return float(2.0 * abs(tau0[0, 0]))
    rng = np.random.default_rng(np.random.Philox(seed))
    shape = (STARTS, MEMBERS, scaled.shape[1])
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tau = q @ tau0 @ q.transpose(0, 2, 1)
    return _finish((tau + tau.transpose(0, 2, 1)) / 2.0)
