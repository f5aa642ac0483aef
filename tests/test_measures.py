import math

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
from twocopy.measures import _PRECONCURRENCE_FORM, _ROUNDS, MEMBERS, MIN_GAIN, RANK_CUTOFF, _mix_rows, _pair_moves
from twocopy.states import logical_bell_state, phase_averaged_decomposition, pure_de_finetti_state

from conftest import basis_ket, density, pure_concurrence, random_density, random_ket, random_product_ket

AB = SINGLE_COPY

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

    @pytest.mark.parametrize("rank", [1, 2])
    def test_two_member_ensembles_leave_a_single_pair(self, rng, rank):
        # a state of rank <= 2 has an optimal two-member decomposition; its
        # members form one pair, and a single closed-form move of the pair
        # reaches the closed form from any random start
        rho = random_density(rng, rank=rank)
        lam, vecs = np.linalg.eigh(rho.entries)
        scaled = vecs[:, lam > RANK_CUTOFF] * np.sqrt(lam[lam > RANK_CUTOFF])
        assert scaled.shape[1] == rank
        tau0 = scaled.T @ _PRECONCURRENCE_FORM @ scaled
        for _ in range(20):
            g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
            q, _ = np.linalg.qr(g)
            block = q @ tau0 @ q.T
            _, mixing = pair_move(block[None], rng.random(1))
            after = mixing[0] @ block @ mixing[0].T
            o = 2.0 * (abs(after[0, 0]) + abs(after[1, 1]))
            assert abs(o - wootters_concurrence(rho)) < 1e-12


def symmetric_blocks(rng) -> np.ndarray:
    """Random complex symmetric 2x2 blocks, then edge cases of the closed-form move."""
    x = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    v = np.array([0.6 - 0.2j, 0.3 + 0.7j])
    c, s = math.cos(0.4), math.sin(0.4)
    edge = [
        np.zeros((2, 2)),  # nothing to move
        np.diag([0.3, -0.8j]),  # B B^H diagonal: no phase in q
        np.array([[0, 1], [1, 0]]),  # s1 = s2 at the minimum already
        np.outer(v, v),  # rank 1: s2 = 0
        0.7 * np.exp(0.3j) * np.array([[c, 1j * s], [1j * s, c]]),  # unitary times a scalar: s1 = s2
    ]
    return np.concatenate([x + x.transpose(0, 2, 1), np.array(edge, dtype=complex)])


def pair_move(blocks: np.ndarray, u: np.ndarray):
    """Gains and mixings G (N, 2, 2) of the closed-form move on each block."""
    gain, g0, g1 = _pair_moves(blocks[:, :1, 0], blocks[:, :1, 1], blocks[:, 1:, 1], u[:, None])
    return gain[:, 0], np.stack([g0[:, :, 0, 0], g1[:, :, 0, 0]], axis=2)


class TestClosedFormPairMove:
    def test_gain_matches_takagi_values_from_svd(self, rng):
        blocks = symmetric_blocks(rng)
        gain, _ = pair_move(blocks, rng.random(len(blocks)))
        s = np.linalg.svd(blocks, compute_uv=False)
        available = np.abs(blocks[:, 0, 0]) + np.abs(blocks[:, 1, 1]) - (s[:, 0] - s[:, 1])
        moved = gain > 0
        assert np.all(np.abs(gain[moved] - available[moved]) < 1e-12)
        assert np.all(available[~moved] < MIN_GAIN + 1e-12)
        assert moved[:200].all() and list(moved[200:]) == [False, True, False, False, True]

    def test_mixing_is_unitary(self, rng):
        blocks = symmetric_blocks(rng)
        _, g = pair_move(blocks, rng.random(len(blocks)))
        assert np.max(np.abs(g @ g.conj().transpose(0, 2, 1) - np.eye(2))) < 1e-13

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
    def test_move_reaches_the_pair_minimum(self, rng, u):
        blocks = symmetric_blocks(rng)
        gain, g = pair_move(blocks, np.full(len(blocks), u))
        after = g @ blocks @ g.transpose(0, 2, 1)
        s = np.linalg.svd(blocks, compute_uv=False)
        moved = gain > 0
        reached = np.abs(after[:, 0, 0]) + np.abs(after[:, 1, 1])
        assert np.all(np.abs(reached[moved] - (s[moved, 0] - s[moved, 1])) < 1e-12)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
    @pytest.mark.parametrize("scale", [1.0, 0.7 * np.exp(0.3j), np.exp(2.9j)])
    def test_unitary_block_reaches_the_pair_minimum(self, u, scale):
        # B B^H = s^2 I: every vector is an eigenvector, and (1, 0) is no
        # Takagi vector of this block; the phased blocks leave rounding
        # noise in B B^H, and the last one has Re a < 0
        c, s = math.cos(0.4), math.sin(0.4)
        block = scale * np.array([[[c, 1j * s], [1j * s, c]]])
        gain, g = pair_move(block, np.array([u]))
        after = g @ block @ g.transpose(0, 2, 1)
        s1, s2 = np.linalg.svd(block[0], compute_uv=False)
        reached = abs(after[0, 0, 0]) + abs(after[0, 1, 1])
        assert abs(reached - (s1 - s2)) < 1e-12
        assert abs(gain[0] - (abs(block[0, 0, 0]) + abs(block[0, 1, 1]) - reached)) < 1e-12

    def test_a_block_that_does_not_move_is_left_unchanged(self, rng):
        blocks = symmetric_blocks(rng)
        gain, g0, g1 = _pair_moves(blocks[:, :1, 0], blocks[:, :1, 1], blocks[:, 1:, 1], rng.random((len(blocks), 1)))
        stack = blocks.copy()
        ij = np.array([[0], [1]])
        _mix_rows(stack, ij, g0, g1)
        _mix_rows(stack.transpose(0, 2, 1), ij, g0, g1)
        still = gain[:, 0] == 0
        assert still.sum() == 3
        assert np.array_equal(stack[still], blocks[still])
        assert not np.allclose(stack[~still], blocks[~still])


class TestPairRounds:
    @pytest.mark.parametrize("m", [MEMBERS])
    def test_each_pair_once_per_sweep_in_disjoint_rounds(self, m):
        pairs = [(int(i), int(j)) for ij in _ROUNDS for i, j in ij.T]
        assert sorted(pairs) == [(i, j) for i in range(m) for j in range(i + 1, m)]
        for ij in _ROUNDS:
            assert np.all(ij[0] < ij[1])
            assert len(set(ij.ravel().tolist())) == ij.size

    def test_four_members_take_three_rounds_of_two(self):
        # the order fixes the random stream, so it is pinned within rounds too
        rounds = [list(map(tuple, ij.T.tolist())) for ij in _ROUNDS]
        assert rounds == [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
