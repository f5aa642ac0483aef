import numpy as np
import pytest

from twocopy import (
    DensityOperator,
    Ket,
    Operator,
    QubitLayout,
    basis_ket,
    expectation_value,
    identity_operator,
    partial_trace,
    permute_subsystems,
    tensor_product,
    validate_density,
)
from twocopy.projectors import ANTISYMMETRIC, pair_projector
from twocopy.states import phase_averaged_state

from conftest import random_density, random_ket


def mixed(labels=("A",)):
    dim = 2 ** len(labels)
    return DensityOperator(QubitLayout(tuple(labels)), np.eye(dim) / dim)


class TestLayout:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            QubitLayout(("A", "A"))

    def test_index_convention(self):
        # first label is most significant: |A=0,B=1> sits at index 1
        ket = basis_ket(("A", "B"), "01")
        assert ket.amplitudes[1] == 1.0
        assert np.count_nonzero(ket.amplitudes) == 1

    def test_ket_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            Ket(QubitLayout(("A",)), np.array([1.0, 1.0]))


class TestTensorProduct:
    def test_identity_composition(self):
        out = tensor_product(mixed(("A1",)), mixed(("A2",)))
        assert np.allclose(out.entries, np.eye(4) / 4)
        assert out.layout.labels == ("A1", "A2")

    def test_basis_case(self):
        out = tensor_product(basis_ket(("A1",), "0"), basis_ket(("B1",), "1"))
        expected = np.zeros(4)
        expected[0b01] = 1.0
        assert np.array_equal(out.amplitudes, expected)

    def test_bell_squared_is_rank_one_trace_one(self, rng):
        bell = Ket(QubitLayout(("A", "B")), np.array([0, 1, 1, 0]) / np.sqrt(2))
        left = tensor_product(
            Ket(QubitLayout(("A1", "B1")), bell.amplitudes),
            Ket(QubitLayout(("A2", "B2")), bell.amplitudes),
        )
        rho = left.density()
        # independent route: outer product of the kron'd amplitude vector
        vec = np.kron(bell.amplitudes, bell.amplitudes)
        assert rho.entries.shape == (16, 16)
        assert np.allclose(rho.entries, np.outer(vec, vec.conj()), atol=1e-14)
        eigs = np.linalg.eigvalsh(rho.entries)[::-1]
        assert abs(eigs[0] - 1.0) < 1e-12 and np.all(np.abs(eigs[1:]) < 1e-12)

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            tensor_product(mixed(("A",)), mixed(("A",)))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="same kind"):
            tensor_product(basis_ket(("A",), "0"), mixed(("B",)))

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_density(rng, ("A", "B"))
            b = random_density(rng, ("C",))
            prod = tensor_product(a, b)
            ta = np.trace(a.entries) * np.trace(b.entries)
            assert abs(np.trace(prod.entries) - ta) < 1e-10


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        bell = Ket(QubitLayout(("A", "B")), np.array([0, 1, 1, 0]) / np.sqrt(2))
        reduced = partial_trace(bell.density(), {"A"})
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_reduces_to_factor(self, rng):
        rho = random_density(rng, ("A1", "B1"))
        sigma = random_density(rng, ("A2", "B2"))
        out = partial_trace(tensor_product(rho, sigma), {"A1", "B1"})
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12
        assert out.layout.labels == ("A1", "B1")

    def test_phase_averaged_alice_pair_is_maximally_mixed(self):
        # cross-checks the antisymmetric projection probability of 1/4
        rho = phase_averaged_state("exact").state
        alice = partial_trace(rho, {"A1", "A2"})
        assert alice.layout.labels == ("A1", "A2")
        assert np.max(np.abs(alice.entries - np.eye(4) / 4)) < 1e-14
        proj = pair_projector(ANTISYMMETRIC, ("A1", "A2")).matrix
        assert abs(expectation_value(proj, alice) - 0.25) < 1e-14

    def test_trace_preserving_and_psd(self, rng):
        for _ in range(20):
            rho = random_density(rng, ("A", "B", "C"))
            out = partial_trace(rho, {"B"})
            assert abs(np.trace(out.entries) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.entries)[0] >= -1e-9

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(mixed(("A", "B")), {"Z"})

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(mixed(("A", "B")), set())


def brute_force_ket_permutation(amps, old_labels, new_labels):
    """Index-bookkeeping oracle: move each basis state bit by bit."""
    n = len(old_labels)
    out = np.zeros_like(amps)
    for idx in range(len(amps)):
        bits = format(idx, f"0{n}b")
        by_label = dict(zip(old_labels, bits))
        new_idx = int("".join(by_label[lbl] for lbl in new_labels), 2)
        out[new_idx] = amps[idx]
    return out


class TestPermuteSubsystems:
    def test_identity_permutation(self, rng):
        psi = random_ket(rng, ("A", "B", "C"))
        out = permute_subsystems(psi, ("A", "B", "C"))
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_round_trip_exact(self, rng):
        rho = random_density(rng, ("A", "B", "C"))
        there = permute_subsystems(rho, ("C", "A", "B"))
        back = permute_subsystems(there, ("A", "B", "C"))
        assert np.array_equal(back.entries, rho.entries)

    def test_copy_major_to_side_major(self):
        psi = basis_ket(("A1", "B1", "A2", "B2"), "0101")
        out = permute_subsystems(psi, ("A1", "A2", "B1", "B2"))
        expected = basis_ket(("A1", "A2", "B1", "B2"), "0011")
        assert np.array_equal(out.amplitudes, expected.amplitudes)

    def test_against_brute_force_enumeration(self, rng):
        for _ in range(10):
            psi = random_ket(rng, ("A", "B", "C", "D"))
            new_order = list(rng.permutation(("A", "B", "C", "D")))
            out = permute_subsystems(psi, new_order)
            expected = brute_force_ket_permutation(psi.amplitudes, ("A", "B", "C", "D"), new_order)
            assert np.max(np.abs(out.amplitudes - expected)) == 0.0

    def test_spectrum_preserved_exactly(self, rng):
        rho = random_density(rng, ("A", "B", "C"))
        out = permute_subsystems(rho, ("B", "C", "A"))
        assert np.allclose(
            np.linalg.eigvalsh(out.entries), np.linalg.eigvalsh(rho.entries), atol=1e-13
        )

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_subsystems(mixed(("A", "B")), ("A", "C"))


class TestExpectationValue:
    def test_normalization(self, rng):
        rho = random_density(rng, ("A", "B"))
        assert abs(expectation_value(identity_operator(("A", "B")), rho) - 1.0) < 1e-12

    def test_antisym_on_maximally_mixed(self):
        proj = pair_projector(ANTISYMMETRIC, ("A", "B")).matrix
        assert abs(expectation_value(proj, mixed(("A", "B"))) - 0.25) < 1e-14

    def test_orthogonal_component(self):
        bell = Ket(QubitLayout(("A", "B")), np.array([0, 1, 1, 0]) / np.sqrt(2))
        proj = Operator(QubitLayout(("A", "B")), np.diag([1.0, 0, 0, 0]).astype(complex))
        assert abs(expectation_value(proj, bell.density())) < 1e-14

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation_value(identity_operator(("A", "B")), mixed(("B", "A")))

    def test_non_hermitian_rejected(self):
        obs = Operator(QubitLayout(("A",)), np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            expectation_value(obs, mixed(("A",)))

    def test_projector_expectations_are_probabilities(self, rng):
        proj = pair_projector(ANTISYMMETRIC, ("A", "B")).matrix
        for _ in range(50):
            rho = random_density(rng, ("A", "B"))
            p = expectation_value(proj, rho)
            assert -1e-10 <= p <= 1.0 + 1e-10


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        report = validate_density(np.eye(16) / 16)
        assert report.passed

    def test_wrong_trace_reported(self):
        report = validate_density(np.eye(4) / 4 * 0.9)
        assert not report.passed
        assert abs(report.trace_defect - 0.1) < 1e-12

    def test_discretized_phase_average_passes(self):
        report = validate_density(phase_averaged_state(4).state)
        assert report.passed

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError, match="density"):
            DensityOperator(QubitLayout(("A",)), np.array([[0.9, 0], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="density"):
            DensityOperator(QubitLayout(("A",)), np.array([[1.5, 0], [0, -0.5]], dtype=complex))

    def test_entries_and_amplitudes_are_frozen(self, rng):
        rho = random_density(rng)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0
