import dataclasses
import json
import math
import re

import numpy as np
import pytest

from twocopy import (
    SINGLE_COPY,
    DensityOperator,
    ensemble_upper_bound_entanglement,
    evaluate_scenario,
    joint_outcome_distribution,
    sample_outcomes,
    wootters_concurrence,
)
from twocopy.linalg import PROBABILITY_ATOL, _derived
from twocopy.protocol import OutcomeDistribution, ShotRecord
from twocopy.states import (
    COPY_MAJOR,
    JOINT_PROJECTORS,
    custom_state,
    de_finetti_state,
    eve_state,
    identical_pure_copies,
    phase_averaged_decomposition,
    phase_averaged_state,
    pure_de_finetti_state,
    single_copy_marginal,
)

from conftest import (
    ALICE_ANTISYMMETRIC,
    antisym,
    bell,
    random_de_finetti_ensemble,
    random_ket,
    random_product_ket,
    random_pure_ensemble,
    random_unit_vector,
    verdict_of,
)

AB = SINGLE_COPY


def fully_mixed_two_copies():
    return de_finetti_state(((1.0, DensityOperator(AB, np.eye(4) / 4)),))


class TestJointProjectors:
    def test_constant_arrays(self):
        p = JOINT_PROJECTORS
        assert list(p) == ["aa", "as", "sa", "ss"]
        for x, m in p.items():
            assert m.shape == (16, 16)
            assert np.array_equal(m, m.conj().T)
            assert np.array_equal(m @ m, m)
            for y, n in p.items():
                if y != x:
                    assert np.array_equal(m @ n, np.zeros((16, 16)))
        assert np.array_equal(sum(p.values()), np.eye(16))
        assert [np.trace(m).real for m in p.values()] == [1.0, 3.0, 3.0, 9.0]
        # singlet on (A1, A2) times singlet on (B1, B2), in copy-major
        # (A1, B1, A2, B2) index order: (|0011> - |0110> - |1001> + |1100>)/2
        singlets = np.zeros(16)
        singlets[[0b0011, 0b1100]] = 0.5
        singlets[[0b0110, 0b1001]] = -0.5
        assert np.array_equal(p["aa"], np.outer(singlets, singlets))

    def test_overlap_formula_on_random_kets(self, rng):
        # Alice holds |x> x |y> on (A1, A2), so her antisymmetric outcome
        # has probability (1 - |<x|y>|^2)/2; Bob holds |0> x |0>
        zero = np.array([1.0, 0.0])
        for _ in range(50):
            x = random_unit_vector(rng, 2)
            y = random_unit_vector(rng, 2)
            ket = np.kron(np.kron(x, zero), np.kron(y, zero))
            state = custom_state(DensityOperator(COPY_MAJOR, np.outer(ket, ket.conj())))
            want = (1.0 - abs(np.vdot(x, y)) ** 2) / 2.0
            assert abs(antisym(state, "alice") - want) < 1e-10
            assert abs(antisym(state, "bob")) < 1e-12


class TestAntisymProbability:
    def test_product_pure_copies(self, rng):
        state = identical_pure_copies(random_product_ket(rng))
        assert abs(antisym(state, "alice")) < 1e-12
        assert abs(antisym(state, "bob")) < 1e-12

    def test_fully_mixed(self):
        state = fully_mixed_two_copies()
        assert abs(antisym(state, "alice") - 0.25) < 1e-12

    def test_phase_averaged_both_sides(self):
        state = phase_averaged_state("exact")
        assert abs(antisym(state, "alice") - 0.25) < 1e-12
        assert abs(antisym(state, "bob") - 0.25) < 1e-12


def verdict_at(p_a: float):
    """The verdict on a distribution whose Alice-antisymmetric probability is ``p_a``; the state only sets the truth."""
    return evaluate_scenario(eve_state("symmetric"), OutcomeDistribution(p_a, 0.0, 0.0, 1.0 - p_a))


class TestNaiveEstimate:
    def test_quarter_probability_claims_maximal(self):
        v = verdict_at(0.25)
        assert v.naive_concurrence == 1.0 and v.estimator_valid

    def test_zero(self):
        v = verdict_at(0.0)
        assert (v.naive_concurrence, v.estimator_valid) == (0.0, True)

    def test_probability_one_is_flagged(self):
        v = verdict_at(1.0)
        assert v.naive_concurrence == 2.0 and not v.estimator_valid

    def test_never_clamped(self):
        assert abs(verdict_at(0.81).naive_concurrence - 1.8) < 1e-12

    def test_alice_probability_above_one_within_the_tolerance_reads_one(self):
        # p_aa + p_as exceeds 1 by less than PROBABILITY_ATOL: the distribution
        # accepts it, and the verdict reads Alice's probability as exactly 1
        v = evaluate_scenario(eve_state("antisymmetric"), OutcomeDistribution(1.0, PROBABILITY_ATOL / 2, 0.0, 0.0))
        assert v.p_a_alice == 1.0
        assert v.naive_concurrence == 2.0
        assert v.estimator_valid is False


class TestJointOutcomeDistribution:
    def test_identical_bell_copies(self):
        dist = joint_outcome_distribution(identical_pure_copies(bell()))
        want = (0.25, 0.0, 0.0, 0.75)
        assert np.allclose(dist.as_tuple(), want, atol=1e-12)

    def test_fully_mixed_is_product_of_pair_marginals(self):
        dist = joint_outcome_distribution(fully_mixed_two_copies())
        want = (1 / 16, 3 / 16, 3 / 16, 9 / 16)
        assert np.allclose(dist.as_tuple(), want, atol=1e-12)

    def test_eve_antisymmetric_is_deterministic(self):
        dist = joint_outcome_distribution(eve_state("antisymmetric"))
        assert np.allclose(dist.as_tuple(), (1, 0, 0, 0), atol=1e-12)

    def test_marginals_match_one_sided_probabilities(self, rng):
        for _ in range(10):
            state = de_finetti_state(random_de_finetti_ensemble(rng))
            verdict = evaluate_scenario(state, joint_outcome_distribution(state))
            alice = np.trace(ALICE_ANTISYMMETRIC @ state.entries).real
            assert abs(verdict.p_a_alice - alice) < 1e-12
            assert abs(verdict.p_a_alice - antisym(state, "alice")) < 1e-12
            assert abs(verdict.p_a_bob - antisym(state, "bob")) < 1e-12

    def test_imaginary_residue_beyond_the_tolerance_refused(self):
        # the boundary refuses such a state, so only an unchecked derived one reaches this refusal
        entries = np.eye(16, dtype=complex) / 16
        entries[0, 0] += 1e-7j
        with pytest.raises(ValueError, match=r"^expectation has non-negligible imaginary part 1\.000e-07$"):
            joint_outcome_distribution(_derived(COPY_MAJOR, entries))

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="outside"):
            OutcomeDistribution(1.5, -0.5, 0.0, 0.0)

    def test_entries_within_the_tolerance_outside_the_range_are_clamped(self):
        d = OutcomeDistribution(1.0 + PROBABILITY_ATOL / 2, -PROBABILITY_ATOL / 2, 0.0, 0.0)
        assert d.as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert math.copysign(1.0, d.p_as) == 1.0  # a clamped entry is a plain 0.0, not -0.0

    @pytest.mark.parametrize("index, p", [(0, 1.0 + 2 * PROBABILITY_ATOL), (1, -2 * PROBABILITY_ATOL)])
    def test_entries_beyond_the_tolerance_are_refused_with_their_value(self, index, p):
        probs = [0.5, 0.5, 0.0, 0.0]
        probs[index] = p
        name = ("aa", "as")[index]
        with pytest.raises(ValueError, match=f"^{re.escape(f'p_{name} = {p!r} outside [0, 1]')}$"):
            OutcomeDistribution(*probs)

    def test_entries_within_the_range_are_stored_as_given(self):
        given = (np.float64(0.25), -0.0, 0.75, 0)
        d = OutcomeDistribution(*given)
        assert all(stored is value for stored, value in zip(d.as_tuple(), given))
        assert repr(d.p_as) == "-0.0"
        assert json.dumps(vars(d)) == '{"p_aa": 0.25, "p_as": -0.0, "p_sa": 0.75, "p_ss": 0}'


class TestDisagreementProbability:
    def test_identical_copies_always_agree(self, rng):
        for _ in range(25):
            state = identical_pure_copies(random_ket(rng))
            assert verdict_of(state).disagreement_prob < 1e-12

    def test_fully_mixed_disagrees_three_eighths(self):
        assert abs(verdict_of(fully_mixed_two_copies()).disagreement_prob - 0.375) < 1e-12

    def test_phase_averaged_fools_the_two_sided_check(self):
        state = phase_averaged_state("exact")
        v = verdict_of(state)
        truth = wootters_concurrence(single_copy_marginal(state, 1))
        assert v.disagreement_prob < 1e-12
        assert abs(v.naive_concurrence - 1.0) < 1e-12
        assert truth == 0.0


class TestSampleOutcomes:
    def test_deterministic_distribution_gives_constant_counts(self):
        record = sample_outcomes(joint_outcome_distribution(eve_state("antisymmetric")), shots=500, seed=3)
        assert record.counts == (500, 0, 0, 0)

    def test_same_seed_reproduces_counts(self):
        state = fully_mixed_two_copies()
        a = sample_outcomes(joint_outcome_distribution(state), shots=2000, seed=11)
        b = sample_outcomes(joint_outcome_distribution(state), shots=2000, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        state = fully_mixed_two_copies()
        a = sample_outcomes(joint_outcome_distribution(state), shots=2000, seed=11)
        b = sample_outcomes(joint_outcome_distribution(state), shots=2000, seed=12)
        assert a.counts != b.counts

    def test_frequencies_within_five_sigma(self):
        state = fully_mixed_two_copies()
        shots = 100_000
        record = sample_outcomes(joint_outcome_distribution(state), shots=shots, seed=5)
        dist = joint_outcome_distribution(state)
        for freq, p in zip(np.array(record.counts) / shots, dist.as_tuple()):
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(freq - p) <= 5 * sigma

    def test_kolmogorov_distance_scales_with_shots(self):
        state = fully_mixed_two_copies()
        truth = np.cumsum(joint_outcome_distribution(state).as_tuple())
        for shots in (10**3, 10**4, 10**5):
            record = sample_outcomes(joint_outcome_distribution(state), shots=shots, seed=17)
            empirical = np.cumsum(record.counts) / shots
            distance = np.max(np.abs(empirical - truth))
            assert distance <= 3.0 / np.sqrt(shots)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(joint_outcome_distribution(fully_mixed_two_copies()), shots=0, seed=0)

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError, match="sum"):
            ShotRecord(shots=10, seed=0, counts=(3, 3, 3, 3))

    @pytest.mark.parametrize("counts", [(10, 0, 0), (10, 0, 0, 0, 0)], ids=["three", "five"])
    def test_counts_must_be_one_per_outcome(self, counts):
        with pytest.raises(ValueError, match=rf"^expected one count per outcome \(aa, as, sa, ss\), got {len(counts)}$"):
            ShotRecord(shots=10, seed=0, counts=counts)

    def test_a_replaced_record_with_three_counts_is_refused(self):
        record = sample_outcomes(joint_outcome_distribution(fully_mixed_two_copies()), shots=10, seed=0)
        with pytest.raises(ValueError, match="one count per outcome"):
            dataclasses.replace(record, counts=record.counts[:3])


class TestEvaluateScenario:
    def test_bell_copies_are_the_honest_case(self):
        state = identical_pure_copies(bell())
        verdict = evaluate_scenario(state, joint_outcome_distribution(state))
        assert abs(verdict.naive_concurrence - 1.0) < 1e-12
        assert abs(verdict.truth_single_copy_concurrence - 1.0) < 1e-10
        assert verdict.disagreement_prob < 1e-12
        assert verdict.estimator_valid
        assert verdict.truth_decomposition_bound is None

    def test_fully_mixed_false_positive_caught_by_correlations(self):
        state = fully_mixed_two_copies()
        verdict = evaluate_scenario(state, joint_outcome_distribution(state))
        assert abs(verdict.naive_concurrence - 1.0) < 1e-12
        assert verdict.truth_single_copy_concurrence == 0.0
        assert abs(verdict.disagreement_prob - 0.375) < 1e-12

    def test_phase_averaged_with_decomposition_bound(self):
        state = phase_averaged_state("exact")
        verdict = evaluate_scenario(
            state,
            joint_outcome_distribution(state),
            decomposition_bound=ensemble_upper_bound_entanglement(phase_averaged_decomposition()),
        )
        assert abs(verdict.naive_concurrence - 1.0) < 1e-12
        assert verdict.truth_single_copy_concurrence == 0.0
        assert abs(verdict.truth_decomposition_bound - 0.5) < 1e-10
        assert verdict.disagreement_prob < 1e-12

    def test_naive_equals_two_root_p(self, rng):
        for _ in range(10):
            state = pure_de_finetti_state(random_pure_ensemble(rng))
            verdict = evaluate_scenario(state, joint_outcome_distribution(state))
            assert abs(verdict.naive_concurrence - 2 * np.sqrt(verdict.p_a_alice)) < 1e-12

    def test_never_underestimates_pure_de_finetti_mixtures(self, rng):
        for _ in range(25):
            state = pure_de_finetti_state(random_pure_ensemble(rng, k=3))
            verdict = evaluate_scenario(state, joint_outcome_distribution(state))
            assert verdict.naive_concurrence >= verdict.truth_single_copy_concurrence - 1e-8
