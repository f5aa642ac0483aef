import json

import numpy as np
import pytest

from twocopy import (
    COPY_MAJOR,
    SINGLE_COPY,
    DensityOperator,
    joint_outcome_distribution,
    validate_density,
    wootters_concurrence,
)
from twocopy import linalg, states
from twocopy.scenarios import parse_config
from twocopy.states import (
    JOINT_PROJECTORS,
    MAX_PHASE_POINTS,
    custom_state,
    de_finetti_state,
    eve_state,
    identical_pure_copies,
    logical_bell_state,
    phase_averaged_decomposition,
    phase_averaged_state,
    pure_de_finetti_state,
    single_copy_marginal,
)

from conftest import (
    antisym,
    basis_ket,
    bell,
    density,
    exchange_copies,
    pure_concurrence,
    random_de_finetti_ensemble,
    random_ket,
    random_pure_ensemble,
    verdict_of,
)

AB = SINGLE_COPY


ALL_CONSTRUCTED = [
    lambda: identical_pure_copies(bell()),
    lambda: de_finetti_state(((1.0, DensityOperator(AB, np.eye(4) / 4)),)),
    lambda: phase_averaged_state(5),
    lambda: phase_averaged_state("exact"),
    lambda: phase_averaged_state(7),
    lambda: eve_state("antisymmetric"),
    lambda: eve_state("symmetric"),
]


class TestIdenticalPureCopies:
    def test_bell_gives_quarter_probability(self):
        state = identical_pure_copies(bell())
        assert abs(antisym(state, "alice") - 0.25) < 1e-12
        assert abs(antisym(state, "bob") - 0.25) < 1e-12

    def test_product_input_gives_zero(self):
        state = identical_pure_copies(basis_ket(AB, "01"))
        assert abs(antisym(state, "alice")) < 1e-14
        assert abs(antisym(state, "bob")) < 1e-14

    def test_output_is_pure(self, rng):
        m = identical_pure_copies(random_ket(rng)).entries
        assert abs(np.trace(m @ m).real - 1.0) < 1e-10

    def test_probability_is_squared_concurrence_over_four(self, rng):
        for _ in range(25):
            psi = random_ket(rng)
            state = identical_pure_copies(psi)
            c = pure_concurrence(psi)
            assert abs(antisym(state, "alice") - c * c / 4.0) < 1e-10

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="2-qubit"):
            identical_pure_copies(basis_ket(COPY_MAJOR, "0000"))


class TestDeFinettiState:
    def test_completely_mixed_member(self):
        ens = ((1.0, DensityOperator(AB, np.eye(4) / 4)),)
        state = de_finetti_state(ens)
        assert np.max(np.abs(state.entries - np.eye(16) / 16)) < 1e-14
        assert abs(antisym(state, "alice") - 0.25) < 1e-12
        assert abs(antisym(state, "bob") - 0.25) < 1e-12

    def test_single_pure_member_degenerates_to_identical_copies(self, rng):
        psi = random_ket(rng)
        via_ensemble = de_finetti_state(((1.0, density(psi)),))
        direct = identical_pure_copies(psi)
        assert np.max(np.abs(via_ensemble.entries - direct.entries)) < 1e-13

    def test_classically_correlated_members_give_zero(self):
        ens = ((0.5, density(basis_ket(AB, "00"))), (0.5, density(basis_ket(AB, "11"))))
        state = de_finetti_state(ens)
        # independent 16x16 route: kron the projectors by hand
        p00 = np.zeros((4, 4))
        p00[0, 0] = 1.0
        p11 = np.zeros((4, 4))
        p11[3, 3] = 1.0
        expected = 0.5 * np.kron(p00, p00) + 0.5 * np.kron(p11, p11)
        assert np.max(np.abs(state.entries - expected)) < 1e-14
        assert abs(antisym(state, "alice")) < 1e-14

    def test_marginals_equal_ensemble_average(self, rng):
        for _ in range(10):
            ens = random_de_finetti_ensemble(rng)
            state = de_finetti_state(ens)
            avg = sum(w * rho.entries for w, rho in ens)
            for copy in (1, 2):
                marg = single_copy_marginal(state, copy)
                assert np.max(np.abs(marg.entries - avg)) < 1e-12

    def test_weight_validation(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        with pytest.raises(ValueError, match="sum to 1"):
            de_finetti_state(((0.7, rho), (0.7, rho)))


class TestPureDeFinettiState:
    def test_four_point_phase_ensemble_matches_exact_average(self):
        state = phase_averaged_state(4)
        exact = phase_averaged_state("exact")
        assert np.max(np.abs(state.entries - exact.entries)) < 1e-14

    def test_single_member_is_rank_one(self, rng):
        state = pure_de_finetti_state(((1.0, random_ket(rng)),))
        eigs = np.linalg.eigvalsh(state.entries)[::-1]
        assert abs(eigs[0] - 1.0) < 1e-10 and np.all(np.abs(eigs[1:]) < 1e-10)

    def test_probability_is_mean_squared_concurrence_over_four(self, rng):
        for _ in range(10):
            ens = random_pure_ensemble(rng, k=4)
            state = pure_de_finetti_state(ens)
            want = sum(w * pure_concurrence(psi) ** 2 for w, psi in ens) / 4.0
            assert abs(antisym(state, "alice") - want) < 1e-10

    def test_marginal_is_ensemble_mixture(self, rng):
        ens = random_pure_ensemble(rng, k=3)
        state = pure_de_finetti_state(ens)
        avg = sum(w * density(psi).entries for w, psi in ens)
        marg = single_copy_marginal(state, 1)
        assert np.max(np.abs(marg.entries - avg)) < 1e-12


class TestPhaseAveragedState:
    def test_exact_probabilities(self):
        state = phase_averaged_state("exact")
        assert abs(antisym(state, "alice") - 0.25) < 1e-12
        assert abs(antisym(state, "bob") - 0.25) < 1e-12

    @pytest.mark.parametrize("points", [3, 4, 5, 8, 16, 64])
    def test_discretization_is_exact_from_three_points(self, points):
        # the circle integrand has Fourier components of order <= 2 only
        approx = phase_averaged_state(points)
        exact = phase_averaged_state("exact")
        assert np.max(np.abs(approx.entries - exact.entries)) < 1e-13

    def test_four_points_hits_machine_precision(self):
        approx = phase_averaged_state(4)
        exact = phase_averaged_state("exact")
        assert np.max(np.abs(approx.entries - exact.entries)) < 1e-14

    def test_default_discretization(self):
        state = phase_averaged_state("discretized")
        exact = phase_averaged_state("exact")
        assert np.max(np.abs(state.entries - exact.entries)) < 1e-13

    def test_single_copy_marginal_is_separable_mixture(self):
        marg = single_copy_marginal(phase_averaged_state("exact"), 1)
        expected = np.diag([0.0, 0.5, 0.5, 0.0])
        assert np.max(np.abs(marg.entries - expected)) < 1e-14
        assert wootters_concurrence(marg) == 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3"):
            phase_averaged_state(2)

    @pytest.mark.parametrize("points", [[64], {"n": 64}], ids=["list", "mapping"])
    def test_unhashable_points_are_refused_with_a_value_error(self, points):
        # the parser turns a ValueError into a refusal; a set or dict lookup would raise TypeError
        with pytest.raises(Exception) as refusal:
            phase_averaged_state(points)
        assert type(refusal.value) is ValueError, repr(refusal.value)


class TestLogicalBellState:
    def test_normalized(self):
        assert abs(np.linalg.norm(logical_bell_state().amplitudes) - 1.0) < 1e-15

    def test_one_ebit_across_sides(self):
        from twocopy import entanglement_entropy

        assert abs(entanglement_entropy(logical_bell_state()) - 1.0) < 1e-10

    def test_decomposition_reconstructs_exact_state(self):
        total = np.zeros((16, 16), dtype=complex)
        for w, psi in phase_averaged_decomposition():
            total += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        exact = phase_averaged_state("exact")
        assert np.max(np.abs(total - exact.entries)) < 1e-12

    def test_logical_bell_weight_is_half(self):
        psi = logical_bell_state().amplitudes
        rho = phase_averaged_state("exact").entries
        assert abs((psi.conj() @ rho @ psi).real - 0.5) < 1e-14


class TestEveState:
    def test_antisymmetric_kind_pins_both_probabilities_to_one(self):
        state = eve_state("antisymmetric")
        assert abs(antisym(state, "alice") - 1.0) < 1e-12
        assert abs(antisym(state, "bob") - 1.0) < 1e-12

    def test_symmetric_kind_pins_both_probabilities_to_zero(self):
        state = eve_state("symmetric")
        assert abs(antisym(state, "alice")) < 1e-14
        assert abs(antisym(state, "bob")) < 1e-14

    def test_antisymmetric_naive_estimate_out_of_range(self):
        verdict = verdict_of(eve_state("antisymmetric"))
        assert abs(verdict.naive_concurrence - 2.0) < 1e-12
        assert not verdict.estimator_valid

    def test_states_are_corners_of_the_projector_table(self):
        # P_xx / d_x^2 with d_a = 1 and d_s = 3, entry for entry
        assert np.array_equal(eve_state("antisymmetric").entries, JOINT_PROJECTORS["aa"])
        assert np.array_equal(eve_state("symmetric").entries, JOINT_PROJECTORS["ss"] / 9)

    @pytest.mark.parametrize("kind, want", [
        ("antisymmetric", (1.0, 0.0, 0.0, 0.0)),
        ("symmetric", (0.0, 0.0, 0.0, 1.0)),
    ])
    def test_joint_distribution_is_exact(self, kind, want):
        assert joint_outcome_distribution(eve_state(kind)).as_tuple() == want

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            eve_state("diagonal")

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            eve_state(["symmetric"])


class TestConstantStates:
    """The states that take no input are built once, at import, and shared."""

    @pytest.mark.parametrize("build", [
        lambda: eve_state("antisymmetric"),
        lambda: eve_state("symmetric"),
        lambda: phase_averaged_state("exact"),
    ], ids=["eve-antisymmetric", "eve-symmetric", "phase-averaged-exact"])
    def test_one_frozen_object(self, build):
        state = build()
        assert build() is state
        assert not state.entries.flags.writeable

    def test_exact_is_the_default(self):
        assert phase_averaged_state() is phase_averaged_state("exact")

    def test_decomposition_is_shared_and_frozen(self):
        members = phase_averaged_decomposition()
        assert phase_averaged_decomposition() is members
        assert isinstance(members, tuple) and all(isinstance(m, tuple) for m in members)
        assert not any(psi.amplitudes.flags.writeable for _, psi in members)

    @pytest.mark.parametrize("doc", [
        {"scenario": "eve-sym"},
        {"scenario": "phase-averaged"},
        {"scenario": "phase-averaged", "parameters": {"points": "exact"}},
    ], ids=["eve-sym", "phase-averaged", "phase-averaged-exact"])
    def test_warm_parse_validates_no_density(self, monkeypatch, doc):
        text = json.dumps(doc)
        parse_config(text)
        calls = []
        validate = linalg.validate_density
        monkeypatch.setattr(linalg, "validate_density", lambda m: calls.append(1) or validate(m))
        parse_config(text)
        assert calls == []


class TestTraceOnlyMixtures:
    """Mixtures of pure copies are checked by their trace alone, up to TRACE_ONLY_MEMBERS members."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = linalg.validate_density
        monkeypatch.setattr(linalg, "validate_density", lambda m: calls.append(1) or validate(m))
        return calls

    def test_the_bound_keeps_the_hermiticity_defect_within_atol(self):
        # each entry is off by at most (N + 10) u, so the defect by twice that
        assert 2 * (linalg.TRACE_ONLY_MEMBERS + 10) * 2.0**-53 <= linalg.ATOL
        assert 2 * (linalg.TRACE_ONLY_MEMBERS + 11) * 2.0**-53 > linalg.ATOL

    @pytest.mark.parametrize("build", [
        lambda: identical_pure_copies(bell()),
        lambda: pure_de_finetti_state(((0.5, bell()), (0.5, basis_ket(AB, "01")))),
        lambda: phase_averaged_state(64),
        lambda: phase_averaged_state(MAX_PHASE_POINTS),
    ], ids=["pure-copies", "pure-de-finetti", "grid-64", "grid-max"])
    def test_pure_mixtures_are_not_validated_in_full(self, validations, build):
        state = build()
        assert validations == []
        # the entries own their data, so no writable array shares it
        assert not state.entries.flags.writeable and state.entries.base is None
        assert validate_density(state.entries).passed

    def test_mixed_members_are_validated_in_full(self, validations):
        member = DensityOperator(AB, np.eye(4) / 4)
        validations.clear()
        de_finetti_state(((1.0, member),))
        assert validations == [1]

    def test_more_members_than_the_bound_are_validated_in_full(self, monkeypatch, validations):
        members = ((0.25, bell()), (0.25, basis_ket(AB, "01")), (0.5, basis_ket(AB, "11")))
        before = pure_de_finetti_state(members)
        monkeypatch.setattr(states, "TRACE_ONLY_MEMBERS", 2)
        after = pure_de_finetti_state(members)
        assert validations == [1]
        assert after.entries.tobytes() == before.entries.tobytes()


class TestConstructorInvariants:
    @pytest.mark.parametrize("build", ALL_CONSTRUCTED)
    def test_outputs_are_valid_densities(self, build):
        assert validate_density(build().entries).passed

    @pytest.mark.parametrize("build", ALL_CONSTRUCTED)
    def test_outputs_are_copy_exchange_invariant(self, build):
        state = build()
        swapped = exchange_copies(state.entries)
        assert np.max(np.abs(swapped - state.entries)) < 1e-12

    def test_random_de_finetti_copy_exchange(self, rng):
        for _ in range(5):
            state = de_finetti_state(random_de_finetti_ensemble(rng))
            swapped = exchange_copies(state.entries)
            assert np.max(np.abs(swapped - state.entries)) < 1e-12


class TestCustomState:
    def test_wraps_a_copy_major_density_as_it_is(self, rng):
        rho = density(random_ket(rng, COPY_MAJOR))
        state = custom_state(rho)
        assert state is rho
        assert state.labels == COPY_MAJOR

    def test_wrong_qubit_count_rejected(self, rng):
        with pytest.raises(ValueError, match="four"):
            custom_state(density(random_ket(rng, ("A", "B"))))
