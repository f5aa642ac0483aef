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
# The probe is coordinate descent over row pairs, run on a stack of all
# restarts at once.  For one pair the restricted objective depends on
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
#
# The finish is Riemannian conjugate gradients on U(4) (Rothlisberger,
# Lehmann & Loss, PRA 80, 042301, 2009), run on the FINALISTS best probe
# values.  Moving tau to exp(X) tau exp(X)^T, X anti-Hermitian, changes
# sum_i |tau_ii| by Re tr(X^H G) to first order, with the anti-Hermitian
# gradient G = S conj(tau) - tau conj(S) for S = diag(tau_ii / |tau_ii|).
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
RESTARTS = 200  # random starts; at this count criterion 8's 50 states stay within 1e-3 of the truth
RANK_CUTOFF = 1e-12  # eigenvalues below this are rounding noise of a rank-deficient state
MIN_GAIN = 1e-15  # a pair move predicted to gain less than this only moves rounding noise
PROBE_SWEEPS = 3  # enough to tell which starts are worth finishing
PROBE_TOL = 1e-7  # enough to rank the starts, whose gaps are far larger
FINALISTS = 3  # candidates finished at full precision
FINISH_TOL = 1e-9  # well inside the 1e-6 the oracle is held to below the closed form
FINISH_STALL = 3  # a finalist stops after this many iterations in a row gaining under FINISH_TOL / 2
FINISH_ITERATIONS = 300  # the finalists' budget; FINISH_STALL ends all but a few per thousand before it
RESTART_EVERY = 25  # Polak-Ribiere iterations between restarts to steepest descent
KINK = 0.5  # members below this share of the largest |tau_ii| are damped in the direction
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
# the finish's step sizes, as the largest rotation angle a max|w| of the step:
# pi down to 1e-9 in factors of sqrt(2), fine enough to follow a kink
_ANGLES = np.pi * 2.0 ** (-0.5 * np.arange(64))


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


def _probe(tau: np.ndarray, rng) -> np.ndarray:
    """PROBE_SWEEPS sweeps of pair moves on an (R, 4, 4) stack, in place.

    A sweep runs the three rounds of ``_ROUNDS``, each as one batched
    congruence G tau G^T.  A restart stops once a sweep lowers its value
    2 sum_i |tau_ii| by less than PROBE_TOL.  Returns the (R,) values.
    """
    live = np.arange(len(tau))
    for _ in range(PROBE_SWEEPS):
        t = tau[live]
        improvement = np.zeros(len(t))
        for ij in _ROUNDS:
            i, j = ij
            gain, g0, g1 = _pair_moves(t[:, i, i], t[:, i, j], t[:, j, j], rng.random((len(t), 2)))
            improvement += gain.sum(axis=1)
            _mix_rows(t, ij, g0, g1)
            _mix_rows(t.transpose(0, 2, 1), ij, g0, g1)
        tau[live] = t
        live = live[2.0 * improvement >= PROBE_TOL]
        if not live.size:
            break
    return _values(tau)


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
    """Riemannian conjugate gradients on U(4) for an (F, 4, 4) stack.

    A finalist stops after FINISH_STALL iterations in a row that each lower
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
    decomposition and returns at once.  Otherwise 200 (RESTARTS) randomly
    seeded isometries (QR-orthonormalized complex Gaussians) each get 3
    (PROBE_SWEEPS) sweeps of closed-form pair moves, and the 3 best
    (FINALISTS) are finished by Riemannian conjugate gradients on U(4),
    each until 3 iterations in a row gain less than 5e-10 (FINISH_TOL / 2)
    or for at most 300 iterations.  Deterministic for a fixed seed.

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
    shape = (RESTARTS, MEMBERS, scaled.shape[1])
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tau = q @ tau0 @ q.transpose(0, 2, 1)
    tau = (tau + tau.transpose(0, 2, 1)) / 2.0
    values = _probe(tau, rng)
    return _finish(tau[np.argsort(values)[:FINALISTS]])
