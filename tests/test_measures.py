import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from twocopy import (
    COPY_MAJOR,
    SINGLE_COPY,
    DensityOperator,
    Ket,
    decomposition_infimum_oracle,
    ensemble_upper_bound_entanglement,
    entanglement_entropy,
    partial_trace,
    permute_subsystems,
    wootters_concurrence,
)
from twocopy import measures
from twocopy.measures import (
    _ANGLES,
    _PRECONCURRENCE_FORM,
    KINK,
    MEMBERS,
    RANK_CUTOFF,
    STARTS,
    _bfgs,
    _finish,
    _gradient,
    _line_search,
    _values,
)
from twocopy.states import logical_bell_state, phase_averaged_decomposition, pure_de_finetti_state

from conftest import basis_ket, density, pure_concurrence, random_density, random_ket, random_product_ket

AB = SINGLE_COPY
REPO_ROOT = Path(__file__).resolve().parent.parent

# a ket of concurrence 0.0273 on which the eigenvalues of rho . rho_tilde
# gave a closed form 1.8e-8 away from 2|ad - bc|
LOW_CONCURRENCE_KET = [
    0.3073219140398079 + 0.20622369905219348j,
    0.02629436783448504 - 0.5069816719225789j,
    0.07250917327336644 - 0.45231072179846005j,
    -0.5966129804102906 + 0.19878028070769385j,
]


def bell() -> Ket:
    return Ket(AB, np.array([0, 1, 1, 0]) / np.sqrt(2))


def werner_half() -> DensityOperator:
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    m = 0.5 * np.outer(singlet, singlet.conj()) + 0.5 * np.eye(4) / 4
    return DensityOperator(AB, m)


class TestPureConcurrence:
    """The closed form on pure states, against hand values of 2|ad - bc|."""

    def test_maximally_entangled(self):
        assert abs(wootters_concurrence(density(bell())) - 1.0) < 1e-12

    def test_product_state(self):
        assert wootters_concurrence(density(basis_ket(AB, "00"))) == 0.0

    def test_partially_entangled(self):
        psi = Ket(AB, np.array([0, math.sqrt(0.8), math.sqrt(0.2), 0]))
        # reduced-state determinant route: 2 sqrt(0.8 * 0.2) = 0.8
        assert abs(wootters_concurrence(density(psi)) - 0.8) < 1e-12

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="2-qubit"):
            wootters_concurrence(density(basis_ket(COPY_MAJOR, "0000")))


class TestWoottersConcurrence:
    def test_maximally_mixed(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        assert wootters_concurrence(rho) == 0.0
        # cross-check with the decomposition search
        assert decomposition_infimum_oracle(rho, seed=0) < 1e-4

    def test_pure_case_matches_pure_concurrence(self):
        assert abs(wootters_concurrence(density(bell())) - 1.0) < 1e-10

    def test_werner_mixture(self):
        c = wootters_concurrence(werner_half())
        assert abs(c - 0.25) < 1e-10
        oracle = decomposition_infimum_oracle(werner_half(), seed=1)
        assert abs(oracle - 0.25) < 1e-3

    def test_agreement_on_random_pure_states(self, rng):
        kets = [random_ket(rng) for _ in range(50)]
        # weakly entangled kets, concurrence below 0.05, where the square
        # root amplifies eigensolver noise on the near-zero Wootters values
        for eps in (3e-2, 1e-2, 1e-3, 1e-4, 1e-6) * 4:
            product = random_product_ket(rng).amplitudes
            v = product + eps * random_ket(rng).amplitudes
            kets.append(Ket(AB, v / np.linalg.norm(v)))
        kets.append(Ket(AB, np.array(LOW_CONCURRENCE_KET) / np.linalg.norm(LOW_CONCURRENCE_KET)))
        for psi in kets:
            assert abs(wootters_concurrence(density(psi)) - pure_concurrence(psi)) < 1e-12

    def test_convexity(self, rng):
        for _ in range(20):
            a, b = random_density(rng), random_density(rng)
            lam = rng.random()
            mix = DensityOperator(AB, lam * a.entries + (1 - lam) * b.entries)
            bound = lam * wootters_concurrence(a) + (1 - lam) * wootters_concurrence(b)
            assert wootters_concurrence(mix) <= bound + 1e-8

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            u = np.kron(ua, ub)
            rotated = DensityOperator(AB, u @ rho.entries @ u.conj().T)
            assert abs(wootters_concurrence(rotated) - wootters_concurrence(rho)) < 1e-9


class TestEnsembleAverageConcurrence:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            pure_de_finetti_state(((0.7, bell()), (0.7, bell())))
        with pytest.raises(ValueError, match="nonnegative"):
            pure_de_finetti_state(((1.5, bell()), (-0.5, bell())))


class TestEnsembleUpperBound:
    def test_phase_averaged_decomposition_gives_half_ebit(self):
        bound = ensemble_upper_bound_entanglement(phase_averaged_decomposition())
        assert abs(bound - 0.5) < 1e-10

    def test_all_product_decomposition(self):
        members = (
            (0.5, basis_ket(COPY_MAJOR, "0101")),
            (0.5, basis_ket(COPY_MAJOR, "1010")),
        )
        assert ensemble_upper_bound_entanglement(members) == 0.0

    def test_single_maximally_entangled_member(self):
        members = ((1.0, logical_bell_state()),)
        assert abs(ensemble_upper_bound_entanglement(members) - 1.0) < 1e-12

    def test_logical_bell_is_one_ebit(self):
        assert abs(entanglement_entropy(logical_bell_state()) - 1.0) < 1e-10

    def test_entropy_matches_the_spectrum_of_alices_reduced_state(self, rng):
        kets = [basis_ket(COPY_MAJOR, "0110"), logical_bell_state()]
        for rank in (1, 2, 3, 4):
            for _ in range(5):
                # a side-major 4x4 amplitude matrix of Schmidt rank `rank`
                g = rng.standard_normal((2, 4, rank)) + 1j * rng.standard_normal((2, 4, rank))
                v = permute_subsystems((g[0] @ g[1].T).reshape(16))
                kets.append(Ket(COPY_MAJOR, v / np.linalg.norm(v)))
        for psi in kets:
            eigs = np.linalg.eigvalsh(partial_trace(permute_subsystems(density(psi).entries), 1))
            eigs = eigs[eigs > 1e-15]  # rounding noise of zero eigenvalues, some negative
            assert abs(entanglement_entropy(psi) - float(-np.sum(eigs * np.log2(eigs)))) < 1e-12

    def test_inconsistent_bipartitions_rejected(self):
        # a single-copy member has no Alice/Bob cut between pairs
        members = ((0.5, bell()), (0.5, basis_ket(COPY_MAJOR, "0101")))
        with pytest.raises(ValueError, match="two-copy"):
            ensemble_upper_bound_entanglement(members)


class TestDecompositionInfimumOracle:
    def test_pure_input_has_unique_decomposition(self):
        psi = Ket(AB, np.array([0, math.sqrt(0.8), math.sqrt(0.2), 0]))
        got = decomposition_infimum_oracle(density(psi), seed=3)
        assert abs(got - 0.8) < 1e-6

    def test_pure_state_is_its_own_decomposition(self, rng, monkeypatch):
        # a rank-1 state has no other decomposition: no start is drawn, and
        # the value is the pure concurrence to rounding, whatever the seed;
        # eigh's rounding left up to 1.7e-15 (7.5 ulps) on 3,000 random kets
        def no_search(*args):
            raise AssertionError("a pure state needs no search")

        monkeypatch.setattr(measures, "_finish", no_search)
        for seed in range(20):
            psi = random_ket(rng)
            got = decomposition_infimum_oracle(density(psi), seed=seed * 7919)
            assert abs(got - pure_concurrence(psi)) <= 2e-15

    # rank-4 oracle-sweep states of concurrence 4e-4 to 0.04, given as
    # (benchmark seed, index), on which earlier searches stopped 1.9e-6 to
    # 1.2e-4 above the closed form.  The last, seed 27 state 21 (rank 2,
    # C = 0.56), is not near the boundary: it is the widest gap on seeds
    # 1-30, 3.7e-7, and two algebraically equal forms of the BFGS update
    # leave it 3.7e-8 and 3.7e-7 above
    @pytest.mark.parametrize("sweep_seed, index", [(6, 87), (6, 83), (7, 3), (9, 55), (7, 11), (27, 21)])
    def test_states_near_the_separable_boundary_reach_the_closed_form(self, sweep_seed, index, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
        worker = importlib.import_module("worker")
        workloads = importlib.import_module("workloads")
        import twocopy

        ((rho, seed),) = worker.oracle_items(twocopy, [workloads.oracle_sweep(sweep_seed)[index]])
        assert -1e-6 <= decomposition_infimum_oracle(rho, seed) - wootters_concurrence(rho) < 1e-6

    def test_maximally_mixed_reaches_product_decomposition(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        assert decomposition_infimum_oracle(rho, seed=0) <= 1e-4

    def test_deterministic_for_fixed_seed(self, rng):
        rho = random_density(rng)
        a = decomposition_infimum_oracle(rho, seed=42)
        b = decomposition_infimum_oracle(rho, seed=42)
        assert a == b

    def test_dominates_closed_form_on_random_states(self, rng):
        for _ in range(8):
            rho = random_density(rng)
            w = wootters_concurrence(rho)
            o = decomposition_infimum_oracle(rho, seed=7)
            assert o >= w - 1e-6
            assert o - w < 1e-3

    def test_larger_ensembles_also_converge(self, rng):
        # the 4 members outnumber the rank of these states, so the search
        # runs on a (R, 4, rank) isometry with more rows than columns
        for rank in (1, 2, 3):
            rho = random_density(rng, rank=rank)
            w = wootters_concurrence(rho)
            o = decomposition_infimum_oracle(rho, seed=5)
            assert -1e-6 <= o - w < 1e-3


def finalist_stack(rng, rank: int) -> np.ndarray:
    """STARTS random symmetric (4, 4) stacks U tau0 U^T of a random state of the given rank."""
    rho = random_density(rng, rank=rank)
    lam, vecs = np.linalg.eigh(rho.entries)
    scaled = vecs[:, lam > RANK_CUTOFF] * np.sqrt(lam[lam > RANK_CUTOFF])
    tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
    g = rng.standard_normal((STARTS, MEMBERS, rank)) + 1j * rng.standard_normal((STARTS, MEMBERS, rank))
    q, _ = np.linalg.qr(g)
    tau = q @ tau0 @ q.transpose(0, 2, 1)
    return (tau + tau.transpose(0, 2, 1)) / 2.0


class TestQuasiNewtonFinish:
    @staticmethod
    def recorded_finish(monkeypatch, tau, force_stay=None):
        """Run the finish, recording the stack, direction, unitaries and angles of every line search.

        ``force_stay`` = (iteration, row) replaces that row's step by the identity, a step that gains nothing.
        """
        steps, updates = [], []
        search, bfgs = measures._line_search, measures._bfgs

        def recorded(t, h):
            w, a = search(t, h)
            if force_stay is not None and len(steps) == force_stay[0]:
                w[force_stay[1]] = np.eye(MEMBERS)
            steps.append((t.copy(), h.copy(), w.copy(), a.copy()))
            return w, a

        def recorded_bfgs(hess, s, y, gained):
            out = bfgs(hess, s, y, gained)
            updates.append((s, y, gained, out))
            return out

        monkeypatch.setattr(measures, "_line_search", recorded)
        monkeypatch.setattr(measures, "_bfgs", recorded_bfgs)
        return _finish(tau), steps, updates

    @staticmethod
    def followed(steps):
        """For each step with a successor, the row each successor row came from: it stayed or moved to W tau W^T.

        Stopped starts leave the batch, so the successor may have fewer rows.
        """
        for (t, _, w, _), (after, *_) in zip(steps, steps[1:]):
            moved = w @ t @ w.transpose(0, 2, 1)
            moved = (moved + moved.transpose(0, 2, 1)) / 2.0
            rows = [next(k for k in range(len(t)) if np.array_equal(row, t[k]) or np.array_equal(row, moved[k]))
                    for row in after]
            assert rows == sorted(set(rows))
            yield t, after, rows

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_every_step_is_a_unitary_congruence(self, rng, monkeypatch, rank):
        result, steps, _ = self.recorded_finish(monkeypatch, finalist_stack(rng, rank))
        assert len(steps) > 1
        for t, h, w, a in steps:
            assert np.max(np.abs(w @ w.conj().transpose(0, 2, 1) - np.eye(MEMBERS))) < 1e-13
            assert np.max(np.abs(w - unitary_exp(a[:, None, None] * h))) < 1e-13
            assert np.array_equal(t, t.transpose(0, 2, 1))
        assert len(list(self.followed(steps))) == len(steps) - 1

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_objective_never_rises(self, rng, monkeypatch, rank):
        result, steps, _ = self.recorded_finish(monkeypatch, finalist_stack(rng, rank))
        # each start's value at the last line search it reaches, found by following its row
        first = _values(steps[0][0])
        last, origin = first.copy(), np.arange(len(first))
        for t, after, rows in self.followed(steps):
            assert np.all(_values(after) <= _values(t)[rows])
            origin = origin[rows]
            last[origin] = _values(after)
        assert np.all(last < first)
        assert result <= last.min()

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_finish_repeats_bit_for_bit(self, rng, rank):
        tau = finalist_stack(rng, rank)
        assert _finish(tau.copy()).hex() == _finish(tau.copy()).hex()

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_updated_inverse_hessians_meet_the_secant_equation(self, rng, monkeypatch, rank):
        _, _, updates = self.recorded_finish(monkeypatch, finalist_stack(rng, rank))
        checked = 0
        for s, y, gained, hess in updates:
            assert np.array_equal(hess, hess.transpose(0, 2, 1))
            for k in np.flatnonzero(gained & ((s * y).sum(axis=1) > 0.0)):
                assert np.max(np.abs(hess[k] @ y[k] - s[k])) < 1e-12
                checked += 1
        assert checked > len(updates)

    def test_a_start_that_gains_nothing_restarts_from_the_identity(self, rng, monkeypatch):
        # the first steps build up the inverse Hessian; after a step that
        # gains nothing the start's direction is steepest descent again
        result, steps, _ = self.recorded_finish(monkeypatch, finalist_stack(rng, 4), force_stay=(5, 0))
        (t, h, *_), (after, h_after, *_) = steps[5], steps[6]
        assert np.array_equal(after[0], t[0])
        assert not np.allclose(h[0], -_gradient(t)[0])
        assert np.array_equal(h_after[0], -_gradient(after)[0])
        # whatever the start's inverse Hessian held
        held = np.broadcast_to(2.0 * np.eye(32), (3, 32, 32))
        updated = _bfgs(held, np.ones((3, 32)), np.ones((3, 32)), np.array([True, False, True]))
        assert np.array_equal(updated[1], np.eye(32))
        assert not np.array_equal(updated[0], held[0])


def random_anti_hermitian(rng) -> np.ndarray:
    """A stack of STARTS random anti-Hermitian (4, 4) matrices."""
    g = rng.standard_normal((STARTS, MEMBERS, MEMBERS)) + 1j * rng.standard_normal((STARTS, MEMBERS, MEMBERS))
    return (g - g.conj().transpose(0, 2, 1)) / 2.0


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(h) of each anti-Hermitian matrix in a stack: h = -i V diag(w) V^H."""
    w, v = np.linalg.eigh(1j * h)
    return (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def congruence(w: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return w @ tau @ w.transpose(0, 2, 1)


def phases(tau: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix divided by max(|tau_ii|, floor)."""
    z = np.diagonal(tau, axis1=1, axis2=2)
    return z / np.maximum(np.abs(z), floor)


def gradient_from(s: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """S conj(tau) - tau conj(S) for S = diag(s)."""
    return s[:, :, None] * tau.conj() - tau * s.conj()[:, None, :]


class TestObjective:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_values_are_the_average_concurrence_of_the_decomposition(self, rng, rank):
        # the rows of U Y are unnormalized members |w_i> that sum to rho,
        # and member i adds p_i C_i = 2 |a d - b c| of its amplitudes
        rho = random_density(rng, rank=rank)
        lam, vecs = np.linalg.eigh(rho.entries)
        scaled = vecs[:, lam > RANK_CUTOFF] * np.sqrt(lam[lam > RANK_CUTOFF])
        q, _ = np.linalg.qr(rng.standard_normal((MEMBERS, rank)) + 1j * rng.standard_normal((MEMBERS, rank)))
        members = q @ scaled.T
        assert np.max(np.abs(members.T @ members.conj() - rho.entries)) < 1e-14
        average = sum(2.0 * abs(m[0] * m[3] - m[1] * m[2]) for m in members)
        tau = congruence(q[None], scaled.T @ _PRECONCURRENCE_FORM @ scaled)
        assert abs(_values(tau)[0] - average) < 1e-14


class TestGradient:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_gradient_is_anti_hermitian(self, rng, rank):
        # the line search diagonalizes i h, which must be Hermitian
        g = _gradient(finalist_stack(rng, rank))
        assert np.max(np.abs(g + g.conj().transpose(0, 2, 1))) < 1e-15

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_gradient_is_the_derivative_of_the_smoothed_objective(self, rng, rank):
        # 2 sum_i h(|tau_ii|) with the Huber h(r) = r above c = KINK max|tau_ii|
        # and r^2 / 2c + c / 2 below it; moving tau to exp(tX) tau exp(tX)^T
        # changes it by 2 t Re tr(X^H G) to first order
        tau = finalist_stack(rng, rank)
        r = np.abs(np.diagonal(tau, axis1=1, axis2=2))
        c = KINK * r.max(axis=1, keepdims=True)

        def smoothed(t):
            r = np.abs(np.diagonal(t, axis1=1, axis2=2))
            return 2.0 * np.where(r >= c, r, r * r / (2.0 * c) + c / 2.0).sum(axis=1)

        x = random_anti_hermitian(rng)
        dt = 1e-6
        ahead, behind = (smoothed(congruence(unitary_exp(t * x), tau)) for t in (dt, -dt))
        slope = (ahead - behind) / (2 * dt)
        g = _gradient(tau)
        assert np.max(np.abs(slope - 2.0 * (x.real * g.real + x.imag * g.imag).sum(axis=(1, 2)))) < 1e-7

    def test_damping_keeps_the_gradient_continuous_where_a_member_vanishes(self, rng):
        # rotating the phase of a member near 0 turns its unit phase around,
        # but moves the damped gradient only by about its size
        tau = finalist_stack(rng, 4)
        flipped = []
        for phase in (1.0, -1.0):
            t = tau.copy()
            t[:, 0, 0] = 1e-10 * phase
            flipped.append(t)
        damped = [_gradient(t) for t in flipped]
        assert np.max(np.abs(damped[0] - damped[1])) < 1e-8
        undamped = [gradient_from(phases(t, 0.0), t) for t in flipped]
        assert np.max(np.abs(undamped[0] - undamped[1])) > 1e-2


class TestLineSearch:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_step_is_the_best_of_the_grid(self, rng, rank):
        # the batched scores match each grid step exp(a h) applied in full
        tau = finalist_stack(rng, rank)
        h = -_gradient(tau)
        w, _ = _line_search(tau, h)
        reach = np.abs(np.linalg.eigvalsh(1j * h)).max(axis=1)
        candidates = [unitary_exp(a / reach[:, None, None] * h) for a in _ANGLES]
        values = np.array([_values(congruence(u, tau)) for u in candidates])
        assert np.all(_values(congruence(w, tau)) <= values.min(axis=0) + 1e-13)
        distance = np.array([np.abs(w - u).max(axis=(1, 2)) for u in candidates]).min(axis=0)
        assert np.all(distance < 1e-12)
        assert np.all(values.min(axis=0) < _values(tau))

    def test_zero_direction_leaves_the_start_in_place(self, rng):
        tau = finalist_stack(rng, 4)
        h = random_anti_hermitian(rng)
        h[1] = 0.0
        w, _ = _line_search(tau, h)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w[1] - np.eye(MEMBERS))) < 1e-15


class TestOracleOnStructuredStates:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_seed_reaches_the_closed_form(self, rng, seed):
        # other seeds draw other starts, but each lands on the same infimum
        rho = random_density(rng)
        assert -1e-6 <= decomposition_infimum_oracle(rho, seed=seed) - wootters_concurrence(rho) < 1e-6

    @pytest.mark.parametrize("members", [2, 3, 4])
    def test_separable_mixtures_reach_zero(self, members):
        # mixtures of product states have C = 0; under conjugate gradients
        # 19 of the 20 rank-3 calls ended above 1e-6, the worst at 8.0e-5
        for draw in range(5):
            rng = np.random.default_rng(100 + draw)
            weights = rng.dirichlet(np.ones(members))
            kets = [random_product_ket(rng).amplitudes for _ in range(members)]
            rho = DensityOperator(AB, sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets)))
            closed_form = wootters_concurrence(rho)
            assert closed_form < 1e-15
            for seed in range(4):
                assert -1e-6 <= decomposition_infimum_oracle(rho, seed=seed) - closed_form < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_werner_state_at_the_separable_boundary_reaches_zero(self, seed):
        # p |psi-><psi-| + (1 - p) I / 4 is separable up to p = 1/3; under
        # conjugate gradients every seed ended 1.7e-6 to 3.5e-6 above it
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rho = DensityOperator(AB, np.outer(singlet, singlet) / 3 + np.eye(4) / 6)
        closed_form = wootters_concurrence(rho)
        assert closed_form < 1e-15
        assert -1e-6 <= decomposition_infimum_oracle(rho, seed=seed) - closed_form < 1e-6

    def test_eigenvalues_below_the_rank_cutoff_are_dropped(self, rng, monkeypatch):
        # rounding noise on the null space of a rank-2 state leaves a rank-2 search
        rho = random_density(rng, rank=2)
        lam, vecs = np.linalg.eigh(rho.entries)
        noisy = DensityOperator(AB, rho.entries + 1e-13 * vecs[:, :2] @ vecs[:, :2].conj().T)
        starts = []
        finish = measures._finish

        def recorded(tau):
            starts.append(tau.copy())
            return finish(tau)

        monkeypatch.setattr(measures, "_finish", recorded)
        got = decomposition_infimum_oracle(noisy, seed=4)
        assert [np.linalg.matrix_rank(t) for t in starts[0]] == [2] * STARTS
        assert abs(got - decomposition_infimum_oracle(rho, seed=4)) < 1e-9

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_local_unitaries_leave_the_value(self, rng, rank):
        rho = random_density(rng, rank=rank)
        ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = np.kron(ua, ub)
        rotated = DensityOperator(AB, u @ rho.entries @ u.conj().T)
        assert abs(decomposition_infimum_oracle(rotated, seed=1) - decomposition_infimum_oracle(rho, seed=1)) < 2e-6
