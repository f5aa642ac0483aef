import math

import numpy as np
import pytest

from twocopy import (
    DensityOperator,
    Ket,
    PureEnsemble,
    QubitLayout,
    basis_ket,
    decomposition_infimum_oracle,
    ensemble_upper_bound_entanglement,
    entanglement_entropy,
    pure_concurrence,
    wootters_concurrence,
)
from twocopy.states import logical_bell_state, phase_averaged_decomposition

from conftest import random_density, random_ket

AB = QubitLayout(("A", "B"))


def bell() -> Ket:
    return Ket(AB, np.array([0, 1, 1, 0]) / np.sqrt(2))


def werner_half() -> DensityOperator:
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    m = 0.5 * np.outer(singlet, singlet.conj()) + 0.5 * np.eye(4) / 4
    return DensityOperator(AB, m)


class TestPureConcurrence:
    def test_maximally_entangled(self):
        assert abs(pure_concurrence(bell()) - 1.0) < 1e-12

    def test_product_state(self):
        assert pure_concurrence(basis_ket(AB, "00")) == 0.0

    def test_partially_entangled(self):
        psi = Ket(AB, np.array([0, math.sqrt(0.8), math.sqrt(0.2), 0]))
        # reduced-state determinant route: 2 sqrt(0.8 * 0.2) = 0.8
        assert abs(pure_concurrence(psi) - 0.8) < 1e-12

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="2-qubit"):
            pure_concurrence(basis_ket(("A",), "0"))


class TestWoottersConcurrence:
    def test_maximally_mixed(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        assert wootters_concurrence(rho) == 0.0
        # cross-check with the decomposition search
        assert decomposition_infimum_oracle(rho, restarts=100, seed=0) < 1e-4

    def test_pure_case_matches_pure_concurrence(self):
        assert abs(wootters_concurrence(bell().density()) - 1.0) < 1e-10

    def test_werner_mixture(self):
        c = wootters_concurrence(werner_half())
        assert abs(c - 0.25) < 1e-10
        oracle = decomposition_infimum_oracle(werner_half(), restarts=200, seed=1)
        assert abs(oracle - 0.25) < 1e-3

    def test_agreement_on_random_pure_states(self, rng):
        for _ in range(50):
            psi = random_ket(rng)
            assert abs(wootters_concurrence(psi.density()) - pure_concurrence(psi)) < 1e-8

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
            PureEnsemble(((0.7, bell()), (0.7, bell())))
        with pytest.raises(ValueError, match="nonnegative"):
            PureEnsemble(((1.5, bell()), (-0.5, bell())))


class TestEnsembleUpperBound:
    def test_phase_averaged_decomposition_gives_half_ebit(self):
        bound = ensemble_upper_bound_entanglement(phase_averaged_decomposition(), ("A1", "A2"))
        assert abs(bound - 0.5) < 1e-10

    def test_all_product_decomposition(self):
        members = (
            (0.5, basis_ket(("A1", "B1", "A2", "B2"), "0101")),
            (0.5, basis_ket(("A1", "B1", "A2", "B2"), "1010")),
        )
        assert ensemble_upper_bound_entanglement(members, ("A1", "A2")) == 0.0

    def test_single_maximally_entangled_member(self):
        assert abs(ensemble_upper_bound_entanglement(((1.0, bell()),), ("A",)) - 1.0) < 1e-12

    def test_logical_bell_is_one_ebit(self):
        assert abs(entanglement_entropy(logical_bell_state(), ("A1", "A2")) - 1.0) < 1e-10

    def test_inconsistent_bipartitions_rejected(self):
        members = ((0.5, bell()), (0.5, basis_ket(("A1", "B1", "A2", "B2"), "0101")))
        with pytest.raises(ValueError, match="inconsistent"):
            ensemble_upper_bound_entanglement(members, ("A",))

    def test_split_must_be_proper_subset(self):
        with pytest.raises(ValueError, match="subset"):
            ensemble_upper_bound_entanglement(((1.0, bell()),), ("A", "B"))


class TestDecompositionInfimumOracle:
    def test_pure_input_has_unique_decomposition(self):
        psi = Ket(AB, np.array([0, math.sqrt(0.8), math.sqrt(0.2), 0]))
        got = decomposition_infimum_oracle(psi.density(), restarts=50, seed=3)
        assert abs(got - 0.8) < 1e-6

    def test_maximally_mixed_reaches_product_decomposition(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        assert decomposition_infimum_oracle(rho, restarts=200, ensemble_size=4, seed=0) <= 1e-4

    def test_ensemble_size_below_rank_rejected(self):
        rho = DensityOperator(AB, np.eye(4) / 4)
        with pytest.raises(ValueError, match="rank"):
            decomposition_infimum_oracle(rho, restarts=10, ensemble_size=3)

    def test_deterministic_for_fixed_seed(self, rng):
        rho = random_density(rng)
        a = decomposition_infimum_oracle(rho, restarts=50, seed=42)
        b = decomposition_infimum_oracle(rho, restarts=50, seed=42)
        assert a == b

    def test_dominates_closed_form_on_random_states(self, rng):
        for _ in range(8):
            rho = random_density(rng)
            w = wootters_concurrence(rho)
            o = decomposition_infimum_oracle(rho, restarts=200, seed=7)
            assert o >= w - 1e-6
            assert o - w < 1e-3

    def test_larger_ensembles_also_converge(self, rng):
        rho = random_density(rng)
        w = wootters_concurrence(rho)
        o = decomposition_infimum_oracle(rho, restarts=200, ensemble_size=6, seed=5)
        assert -1e-6 <= o - w < 1e-3
