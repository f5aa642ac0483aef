import numpy as np
import pytest

from twocopy import (
    COPY_MAJOR,
    SINGLE_COPY,
    DensityOperator,
    Ket,
    expectation_value,
    partial_trace,
    permute_subsystems,
    tensor_product,
    validate_density,
)
from twocopy import linalg
from twocopy.linalg import ATOL, EIGENVALUE_FLOOR
from twocopy.states import phase_averaged_state, single_copy_marginal

from conftest import density, random_density, random_ket

# projector onto the antisymmetric subspace of a pair: the singlet's
SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)
ANTISYM_PAIR = np.outer(SINGLET, SINGLET)
BELL = np.array([0, 1, 1, 0]) / np.sqrt(2)
SIDE_MAJOR = ("A1", "A2", "B1", "B2")


def mixed(labels=SINGLE_COPY):
    dim = 2 ** len(labels)
    return DensityOperator(labels, np.eye(dim) / dim)


def basis_density(index: int) -> DensityOperator:
    """|index><index| on the single-copy register."""
    return density(Ket(SINGLE_COPY, np.eye(4)[index]))


class TestLayout:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="labels must be"):
            Ket(("A", "A"), np.eye(4)[0])

    def test_index_convention(self):
        # first label is most significant: |A=0>|B=1> sits at index 1, and
        # on the copy-major register (A1, B1) = 01 with (A2, B2) = 00 at 0b0100
        ket = Ket(SINGLE_COPY, np.kron([1, 0], [0, 1]))
        assert ket.amplitudes[1] == 1.0
        assert np.count_nonzero(ket.amplitudes) == 1
        two_copy = tensor_product(density(ket), basis_density(0)).entries
        assert two_copy[0b0100, 0b0100] == 1.0
        assert np.count_nonzero(two_copy) == 1

    def test_ket_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            Ket(SINGLE_COPY, np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "labels", [("A",), ("A", "B", "C"), ("B", "A"), ("A2", "B2", "A1", "B1"), SIDE_MAJOR]
    )
    def test_only_the_two_registers(self, labels):
        dim = 2 ** len(labels)
        with pytest.raises(ValueError, match="labels must be"):
            Ket(labels, np.eye(dim)[0])
        with pytest.raises(ValueError, match="labels must be"):
            DensityOperator(labels, np.eye(dim) / dim)

    def test_labels_fix_the_shape(self):
        assert Ket(list(COPY_MAJOR), np.eye(16)[0]).labels == COPY_MAJOR
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(COPY_MAJOR, np.eye(4) / 4)

    # each refusal's exact text; where an input breaks two rules, the first
    # of labels, shape, finiteness, then the norm or density check is named
    REGISTERS = f"labels must be {SINGLE_COPY} or {COPY_MAJOR}, got ('A',)"

    @pytest.mark.parametrize(
        "cls,labels,array,message",
        [
            (Ket, ("A",), np.eye(2)[0], REGISTERS),
            (DensityOperator, ("A",), np.eye(2) / 2, REGISTERS),
            (Ket, SINGLE_COPY, np.eye(16)[0], "expected array of shape (4,), got (16,)"),
            (Ket, COPY_MAJOR, np.eye(4)[0], "expected array of shape (16,), got (4,)"),
            (Ket, SINGLE_COPY, np.eye(4), "expected array of shape (4,), got (4, 4)"),
            (DensityOperator, COPY_MAJOR, np.eye(4) / 4, "expected array of shape (16, 16), got (4, 4)"),
            (DensityOperator, SINGLE_COPY, np.eye(16) / 16, "expected array of shape (4, 4), got (16, 16)"),
            (DensityOperator, SINGLE_COPY, np.eye(4)[0], "expected array of shape (4, 4), got (4,)"),
            # a bad register before a bad shape
            (Ket, ("A",), np.eye(16)[0], REGISTERS),
            (DensityOperator, ("A",), np.full((16, 16), np.nan), REGISTERS),
            # a bad shape before a non-finite entry
            (Ket, SINGLE_COPY, np.full(16, np.nan), "expected array of shape (4,), got (16,)"),
            (DensityOperator, COPY_MAJOR, np.full((4, 4), np.inf), "expected array of shape (16, 16), got (4, 4)"),
            # a non-finite entry before the norm or the density check
            (Ket, SINGLE_COPY, [np.inf, 0, 0, 0], "entries must be finite (no NaN/Inf)"),
            (DensityOperator, SINGLE_COPY, np.full((4, 4), np.nan), "entries must be finite (no NaN/Inf)"),
            (Ket, SINGLE_COPY, [1, 1, 0, 0], "ket must be normalized, |norm - 1| = 4.142e-01"),
            (
                DensityOperator, SINGLE_COPY, np.eye(4) / 2,
                "not a valid density operator (hermiticity defect 0.000e+00, min eigenvalue 5.000e-01, "
                "trace defect 1.000e+00)",
            ),
        ],
    )
    def test_construction_refusals_in_order(self, cls, labels, array, message):
        with pytest.raises(ValueError) as refusal:
            cls(labels, array)
        assert str(refusal.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)])
    @pytest.mark.parametrize("labels", [SINGLE_COPY, COPY_MAJOR])
    def test_non_finite_entries_refused(self, labels, bad):
        dim = 2 ** len(labels)
        amps = np.eye(dim, dtype=complex)[0]
        amps[-1] = bad
        rho = np.eye(dim, dtype=complex) / dim
        rho[0, -1] = rho[-1, 0] = bad
        with pytest.raises(ValueError, match=r"^entries must be finite \(no NaN/Inf\)$"):
            Ket(labels, amps)
        with pytest.raises(ValueError, match=r"^entries must be finite \(no NaN/Inf\)$"):
            DensityOperator(labels, rho)

    @pytest.mark.parametrize(
        "cls, name, array", [(Ket, "amplitudes", BELL), (DensityOperator, "entries", np.eye(4) / 4)], ids=["ket", "density"]
    )
    def test_states_compare_and_hash_by_identity(self, cls, name, array):
        # an array field has no one truth value, so a state equals only itself
        a, b = cls(SINGLE_COPY, array), cls(SINGLE_COPY, array)
        assert a.labels == b.labels and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a)
        assert a in [a] and a not in [b]
        table = {a: "a"}
        assert table[a] == "a" and b not in table


class TestTensorProduct:
    def test_identity_composition(self):
        out = tensor_product(mixed(), mixed())
        assert np.allclose(out.entries, np.eye(16) / 16)
        assert out.labels == COPY_MAJOR

    def test_basis_case(self):
        out = tensor_product(basis_density(0b00), basis_density(0b11))
        expected = np.zeros((16, 16))
        expected[0b0011, 0b0011] = 1.0
        assert np.array_equal(out.entries, expected)

    def test_bell_squared_is_rank_one_trace_one(self, rng):
        bell = Ket(SINGLE_COPY, BELL)
        rho = tensor_product(density(bell), density(bell))
        # independent route: outer product of the kron'd amplitude vector
        vec = np.kron(bell.amplitudes, bell.amplitudes)
        assert rho.entries.shape == (16, 16)
        assert np.allclose(rho.entries, np.outer(vec, vec.conj()), atol=1e-14)
        eigs = np.linalg.eigvalsh(rho.entries)[::-1]
        assert abs(eigs[0] - 1.0) < 1e-12 and np.all(np.abs(eigs[1:]) < 1e-12)

    def test_two_copy_factor_rejected(self):
        with pytest.raises(ValueError, match="single-copy"):
            tensor_product(mixed(COPY_MAJOR), mixed())

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="density operators"):
            tensor_product(basis_density(0), Ket(SINGLE_COPY, np.eye(4)[0]))

    def test_product_outside_the_trace_bound_is_refused(self):
        # each factor's trace defect 9e-11 is inside ATOL, their product's 1.8e-10 is not
        factor = DensityOperator(SINGLE_COPY, np.diag([0.5 + 9e-11, 0.5, 0.0, 0.0]))
        assert not validate_density(np.kron(factor.entries, factor.entries)).passed
        with pytest.raises(ValueError, match="not a valid density operator"):
            tensor_product(factor, factor)

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_density(rng)
            b = random_density(rng)
            prod = tensor_product(a, b)
            ta = np.trace(a.entries) * np.trace(b.entries)
            assert abs(np.trace(prod.entries) - ta) < 1e-10


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        # a Bell pair on Alice's (A1, A2) and another on Bob's (B1, B2): each
        # copy (Ak, Bk) holds one qubit of each pair, so it is maximally mixed
        pairs = np.kron(BELL, BELL)
        rho = np.outer(pairs, pairs)
        for keep in (1, 2):
            reduced = partial_trace(permute_subsystems(rho), keep)
            assert np.allclose(reduced, np.eye(4) / 4, atol=1e-12)

    def test_product_reduces_to_factor(self, rng):
        rho = random_density(rng)
        sigma = random_density(rng)
        prod = tensor_product(rho, sigma).entries
        assert np.max(np.abs(partial_trace(prod, 1) - rho.entries)) < 1e-12
        assert np.max(np.abs(partial_trace(prod, 2) - sigma.entries)) < 1e-12

    def test_phase_averaged_alice_pair_is_maximally_mixed(self):
        # cross-checks the antisymmetric projection probability of 1/4
        rho = phase_averaged_state("exact")
        alice = partial_trace(permute_subsystems(rho.entries), 1)
        assert np.max(np.abs(alice - np.eye(4) / 4)) < 1e-14
        assert abs(np.trace(ANTISYM_PAIR @ alice).real - 0.25) < 1e-14

    def test_trace_preserving_and_psd(self, rng):
        for _ in range(20):
            rho = random_density(rng, COPY_MAJOR).entries
            for m in (rho, permute_subsystems(rho)):
                for keep in (1, 2):
                    out = partial_trace(m, keep)
                    assert abs(np.trace(out) - 1.0) < ATOL
                    assert np.linalg.eigvalsh(out)[0] >= EIGENVALUE_FLOOR

    def test_unknown_label_rejected(self):
        # pairs are named 1 and 2; labels, other numbers and both pairs are refused
        for keep in (0, 3, "A1", {"A1", "B1"}, (1, 2)):
            with pytest.raises(ValueError, match="pair 1 or 2"):
                partial_trace(np.eye(16) / 16, keep)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="pair 1 or 2"):
            partial_trace(np.eye(16) / 16, set())

    @pytest.mark.parametrize("shape", [(256,), (4, 4), (16, 4, 4)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="16x16"):
            partial_trace(np.zeros(shape), 1)


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
    def test_round_trip_exact(self, rng):
        rho = random_density(rng, COPY_MAJOR).entries
        there = permute_subsystems(rho)
        assert not np.array_equal(there, rho)
        assert np.array_equal(permute_subsystems(there), rho)

    def test_copy_major_to_side_major(self):
        # A1=0, B1=1, A2=0, B2=1 is A1A2 = 00, B1B2 = 11 side major
        out = permute_subsystems(np.eye(16)[0b0101])
        assert np.array_equal(out, np.eye(16)[0b0011])

    def test_against_brute_force_enumeration(self, rng):
        for _ in range(10):
            psi = random_ket(rng, COPY_MAJOR)
            out = permute_subsystems(psi.amplitudes)
            expected = brute_force_ket_permutation(psi.amplitudes, COPY_MAJOR, SIDE_MAJOR)
            assert np.max(np.abs(out - expected)) == 0.0
            # the matrix form permutes rows and columns alike
            rho = density(psi).entries
            assert np.array_equal(permute_subsystems(rho), np.outer(out, out.conj()))

    def test_spectrum_preserved_exactly(self, rng):
        rho = random_density(rng, COPY_MAJOR).entries
        out = permute_subsystems(rho)
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-13)

    @pytest.mark.parametrize("shape", [(4,), (4, 4), (16, 4), (2, 16, 16)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="16"):
            permute_subsystems(np.zeros(shape))


class TestExpectationValue:
    def test_normalization(self, rng):
        rho = random_density(rng)
        assert abs(expectation_value(np.eye(4), rho) - 1.0) < 1e-12

    def test_antisym_on_maximally_mixed(self):
        assert abs(expectation_value(ANTISYM_PAIR, mixed()) - 0.25) < 1e-14

    def test_orthogonal_component(self):
        bell = Ket(SINGLE_COPY, BELL)
        proj = np.diag([1.0, 0, 0, 0])
        assert abs(expectation_value(proj, density(bell))) < 1e-14

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation_value(np.eye(4), mixed(COPY_MAJOR))

    def test_imaginary_residue_beyond_its_bound_refused(self):
        # a state at the Hermiticity bound ATOL and an observable far larger than a projector
        flip = np.zeros((4, 4))
        flip[0, 1] = flip[1, 0] = 1.0
        rho = DensityOperator(SINGLE_COPY, np.eye(4) / 4 + 0.5j * ATOL * flip)
        with pytest.raises(ValueError, match=r"^expectation has non-negligible imaginary part 1\.000e-08$"):
            expectation_value(100 * flip, rho)

    def test_non_hermitian_rejected(self):
        obs = np.zeros((4, 4), dtype=complex)
        obs[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            expectation_value(obs, mixed())

    def test_projector_expectations_are_probabilities(self, rng):
        for _ in range(50):
            rho = random_density(rng)
            p = expectation_value(ANTISYM_PAIR, rho)
            assert -ATOL <= p <= 1.0 + ATOL


class TestValidateDensity:
    def test_maximally_mixed_passes(self):
        report = validate_density(np.eye(16) / 16)
        assert report.passed

    def test_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4, 3\)$"):
            validate_density(np.zeros((4, 3)))

    def test_wrong_trace_reported(self):
        report = validate_density(np.eye(4) / 4 * 0.9)
        assert not report.passed
        assert abs(report.trace_defect - 0.1) < 1e-12

    def test_discretized_phase_average_passes(self):
        report = validate_density(phase_averaged_state(4).entries)
        assert report.passed

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError, match="density"):
            DensityOperator(SINGLE_COPY, np.diag([0.9, 0, 0, 0]))
        with pytest.raises(ValueError, match="density"):
            DensityOperator(SINGLE_COPY, np.diag([1.5, -0.5, 0, 0]))

    def test_entries_and_amplitudes_are_frozen(self, rng):
        rho = random_density(rng)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_derived_densities_are_frozen_and_not_validated_again(self, monkeypatch):
        pair = phase_averaged_state(4)
        calls = []
        monkeypatch.setattr(linalg, "validate_density", lambda m: calls.append(m))
        marginal = single_copy_marginal(pair, 2)
        assert calls == []
        assert validate_density(marginal.entries).passed
        with pytest.raises(ValueError):
            marginal.entries[0, 0] = 1.0

    def test_tensor_product_is_validated_once_and_frozen(self, rng, monkeypatch):
        rho = random_density(rng)
        sigma = density(random_ket(rng))
        calls = []
        validate = linalg.validate_density
        monkeypatch.setattr(linalg, "validate_density", lambda m: calls.append(m) or validate(m))
        product = tensor_product(rho, sigma)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            product.entries[0, 0] = 1.0


class TestEnsembleWeights:
    def test_weights_come_back_as_floats(self):
        weights = linalg.ensemble_weights(((np.float32(0.25), mixed()), (3 / 4, mixed())), SINGLE_COPY)
        assert weights == [0.25, 0.75] and all(type(w) is float for w in weights)

    def test_weights_are_refused_before_the_members(self):
        # the second member is on the wrong register too; the weights speak first
        members = ((0.5, mixed()), (0.6, mixed(COPY_MAJOR)))
        with pytest.raises(ValueError, match=r"^weights must be nonnegative and sum to 1, got sum 1\.1$"):
            linalg.ensemble_weights(members, SINGLE_COPY)

    @pytest.mark.parametrize("labels, wrong, refusal", [
        (SINGLE_COPY, COPY_MAJOR,
         "expected a 2-qubit state on ('A', 'B'), got ('A1', 'B1', 'A2', 'B2')"),
        (COPY_MAJOR, SINGLE_COPY,
         "expected a two-copy state of four qubits on ('A1', 'B1', 'A2', 'B2'), got ('A', 'B')"),
    ])
    def test_each_member_must_be_on_the_register(self, labels, wrong, refusal):
        with pytest.raises(ValueError) as exc:
            linalg.ensemble_weights(((0.5, mixed(labels)), (0.5, mixed(wrong))), labels)
        assert str(exc.value) == refusal
