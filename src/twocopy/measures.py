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
# tracked: a unitary W maps it to W tau W^T.  A pure state has no other
# decomposition than itself, so its value is 2 |tau0_00|, with no search.
#
# The search is Riemannian conjugate gradients on U(4) (Rothlisberger,
# Lehmann & Loss, PRA 80, 042301, 2009), run on STARTS random isometries at
# once; the least value reached is the result.  Moving tau to
# exp(X) tau exp(X)^T, X anti-Hermitian, changes sum_i |tau_ii| by
# Re tr(X^H G) to first order, with the anti-Hermitian gradient
# G = S conj(tau) - tau conj(S) for S = diag(tau_ii / |tau_ii|).
# Directions follow Polak-Ribiere, restarted to steepest descent every
# RESTART_EVERY iterations and after a step that gains nothing.  A direction
# H = -i V diag(w) V^H gives the steps W(a) = V diag(exp(-i a w)) V^H, along
# which tau(a)_ii = sum_kl V_ik V_il (V^H tau conj V)_kl exp(-i a (w_k + w_l)),
# so one batched matmul scores a whole grid of step sizes; the best is taken
# if it lowers the objective.  W(a) is unitary whatever the accuracy of V, so
# every candidate stays an exact decomposition.  At a member with
# tau_ii near 0 the objective has a kink, where the unit phase in S points
# along a direction no step can follow; the search would stall there, above
# the separable boundary.  The direction therefore weighs a member below
# KINK times the largest |tau_ii| by its size (the gradient of a Huber
# smoothing); every step is still scored on the objective itself.

MEMBERS = 4  # an optimal decomposition needs at most 4 (Wootters, PRL 80, 2245); no rank exceeds 4
STARTS = 4  # random starts; at 3, oracle-sweep seed 7 state 11 stops 1.9e-6 above the closed form
RANK_CUTOFF = 1e-12  # eigenvalues below this are rounding noise of a rank-deficient state
FINISH_TOL = 1e-9  # well inside the 1e-6 the oracle is held to below the closed form
FINISH_STALL = 3  # a start stops after this many iterations in a row gaining under FINISH_TOL / 2
FINISH_ITERATIONS = 300  # each start's budget; FINISH_STALL ends all but a few per thousand before it
RESTART_EVERY = 25  # Polak-Ribiere iterations between restarts to steepest descent
KINK = 0.5  # members below this share of the largest |tau_ii| are damped in the direction

_TINY = np.finfo(float).tiny
# the finish's step sizes, as the largest rotation angle a max|w| of the step:
# pi down to 1e-9 in factors of sqrt(2), fine enough to follow a kink
_ANGLES = np.pi * 2.0 ** (-0.5 * np.arange(64))


def _values(tau: np.ndarray) -> np.ndarray:
    """The values 2 sum_i |tau_ii| of an (R, 4, 4) stack."""
    return 2.0 * np.abs(np.diagonal(tau, axis1=1, axis2=2)).sum(axis=1)


def _gradient(tau: np.ndarray) -> np.ndarray:
    """Anti-Hermitian gradients S conj(tau) - tau conj(S), members near a kink damped."""
    z = np.diagonal(tau, axis1=1, axis2=2)
    r = np.abs(z)
    s = z / np.maximum(r, np.maximum(KINK * r.max(axis=1, keepdims=True), _TINY))
    x = s[:, :, None] * tau.conj()
    return x - x.conj().transpose(0, 2, 1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re tr(x^H y) of each pair of matrices in two stacks."""
    return (x.real * y.real + x.imag * y.imag).sum(axis=(1, 2))


def _line_search(tau: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The best step W(a) = exp(a h) on the grid ``_ANGLES`` for each stack entry.

    ``h`` is anti-Hermitian: h = -i V diag(w) V^H, so W(a) = V diag(exp(-i a w)) V^H.
    Returns the unitaries W, an (R, 4, 4) stack, whether or not they gain.
    """
    w, v = np.linalg.eigh(1j * h)
    a = _ANGLES / np.maximum(np.abs(w).max(axis=1, keepdims=True), _TINY)
    vh = v.conj().transpose(0, 2, 1)
    core = vh @ tau @ vh.transpose(0, 2, 1)  # V^H tau conj(V)
    n, pairs = len(tau), MEMBERS * MEMBERS
    coef = (v[:, :, :, None] * v[:, :, None, :] * core[:, None]).reshape(n, MEMBERS, pairs)
    phase = np.exp(-1j * a[:, :, None] * w[:, None, :])  # exp(-i a w_k), (R, steps, 4)
    pair_phase = (phase[:, :, :, None] * phase[:, :, None, :]).reshape(n, len(_ANGLES), pairs)
    scores = np.abs(coef @ pair_phase.transpose(0, 2, 1)).sum(axis=1)
    best = phase[np.arange(n), scores.argmin(axis=1)]
    return (v * best[:, None, :]) @ vh


def _finish(tau: np.ndarray) -> float:
    """Riemannian conjugate gradients on U(4) for an (S, 4, 4) stack.

    Each start stops after FINISH_STALL iterations in a row that each lower
    its value 2 sum_i |tau_ii| by less than FINISH_TOL / 2, or after
    FINISH_ITERATIONS.  Returns the least value reached.
    """
    value = _values(tau)
    grad = _gradient(tau)
    step = -grad
    stalls = np.zeros(len(tau), dtype=int)
    for k in range(1, FINISH_ITERATIONS + 1):
        w = _line_search(tau, step)
        moved = w @ tau @ w.transpose(0, 2, 1)
        moved = (moved + moved.transpose(0, 2, 1)) / 2.0
        moved_value = _values(moved)
        better = (moved_value < value) & (stalls < FINISH_STALL)
        stalls = np.where(better & (value - moved_value >= FINISH_TOL / 2.0), 0, stalls + 1)
        tau = np.where(better[:, None, None], moved, tau)
        value = np.where(better, moved_value, value)
        if (stalls >= FINISH_STALL).all():
            break
        new_grad = _gradient(tau)
        beta = np.maximum(_dot(new_grad, new_grad - grad) / np.maximum(_dot(grad, grad), _TINY), 0.0)
        beta = np.where(better & (k % RESTART_EVERY != 0), beta, 0.0)
        step = beta[:, None, None] * step - new_grad
        grad = new_grad
    return float(value.min())


def decomposition_infimum_oracle(rho: DensityOperator, seed: int = 0) -> float:
    """Approximate convex-roof concurrence by explicit decomposition search.

    Minimizes the ensemble-averaged concurrence over decompositions of
    ``rho`` into 4 pure states (MEMBERS).  A pure state is its own only
    decomposition and returns at once.  Otherwise 4 (STARTS) seeded random
    isometries (QR-orthonormalized complex Gaussians) are each descended by
    Riemannian conjugate gradients on U(4), until 3 (FINISH_STALL)
    iterations in a row gain less than 5e-10 (FINISH_TOL / 2) or for at most
    300 (FINISH_ITERATIONS), restarting to steepest descent every 25
    (RESTART_EVERY).  Deterministic for a fixed seed.

    Every candidate is an exact decomposition, so the result is always an
    upper bound on the infimum up to floating-point error.
    """
    _require_two_qubits(rho)
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
