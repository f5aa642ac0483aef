import numpy as np
import pytest

from twocopy import (
    basis_ket,
    expectation_value,
    tensor_product,
)
from twocopy.projectors import (
    ANTISYMMETRIC,
    SYMMETRIC,
    embed_pair_projector,
    pair_projector,
)
from twocopy.states import identical_pure_copies

from conftest import random_ket

FOUR = ("A1", "B1", "A2", "B2")


class TestPairProjector:
    def test_singlet_is_antisymmetric_eigenvector(self):
        p = pair_projector(ANTISYMMETRIC, ("A", "B"))
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.allclose(p.matrix.entries @ singlet, singlet, atol=1e-15)

    def test_aligned_state_annihilated(self):
        p = pair_projector(ANTISYMMETRIC, ("A", "B"))
        assert np.allclose(p.matrix.entries @ basis_ket(("A", "B"), "00").amplitudes, 0)

    def test_subspace_dimensions(self):
        anti = pair_projector(ANTISYMMETRIC, ("A", "B"))
        sym = pair_projector(SYMMETRIC, ("A", "B"))
        assert abs(np.trace(anti.matrix.entries) - 1.0) < 1e-15
        assert abs(np.trace(sym.matrix.entries) - 3.0) < 1e-15
        assert np.linalg.matrix_rank(anti.matrix.entries) == 1 and np.linalg.matrix_rank(sym.matrix.entries) == 3

    def test_idempotent_hermitian_complementary(self):
        anti = pair_projector(ANTISYMMETRIC, ("A", "B")).matrix.entries
        sym = pair_projector(SYMMETRIC, ("A", "B")).matrix.entries
        assert np.max(np.abs(anti @ anti - anti)) < 1e-12
        assert np.max(np.abs(anti - anti.conj().T)) == 0.0
        assert np.array_equal(anti + sym, np.eye(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            pair_projector("diagonal", ("A", "B"))


class TestEmbedPairProjector:
    def test_trace_multiplied_by_identity_dimension(self):
        p = pair_projector(ANTISYMMETRIC, ("A1", "A2"))
        full = embed_pair_projector(p, FOUR)
        assert full.layout.labels == FOUR
        assert abs(np.trace(full.entries) - 4.0) < 1e-12

    def test_product_pure_copies_have_zero_antisym_probability(self, rng):
        p = embed_pair_projector(pair_projector(ANTISYMMETRIC, ("A1", "A2")), FOUR)
        x = random_ket(rng, ("A",))
        y = random_ket(rng, ("B",))
        state = identical_pure_copies(tensor_product(x, y))
        assert abs(expectation_value(p, state.state)) < 1e-12

    def test_disjoint_embeddings_commute(self):
        pa = embed_pair_projector(pair_projector(ANTISYMMETRIC, ("A1", "A2")), FOUR).entries
        pb = embed_pair_projector(pair_projector(ANTISYMMETRIC, ("B1", "B2")), FOUR).entries
        assert np.max(np.abs(pa @ pb - pb @ pa)) < 1e-14
        prod = pa @ pb
        assert np.max(np.abs(prod - prod.conj().T)) < 1e-14

    def test_embedded_projectors_sum_to_identity(self):
        pa = embed_pair_projector(pair_projector(ANTISYMMETRIC, ("A1", "A2")), FOUR).entries
        ps = embed_pair_projector(pair_projector(SYMMETRIC, ("A1", "A2")), FOUR).entries
        assert np.array_equal(pa + ps, np.eye(16))

    def test_idempotent_on_full_space(self):
        pa = embed_pair_projector(pair_projector(ANTISYMMETRIC, ("B1", "B2")), FOUR).entries
        assert np.max(np.abs(pa @ pa - pa)) < 1e-12

    def test_missing_label_rejected(self):
        p = pair_projector(ANTISYMMETRIC, ("A1", "X9"))
        with pytest.raises(ValueError, match="missing"):
            embed_pair_projector(p, FOUR)

    def test_overlap_formula_on_random_kets(self, rng):
        # <P_antisym> on |x> x |y> equals (1 - |<x|y>|^2)/2
        p = pair_projector(ANTISYMMETRIC, ("L", "R")).matrix.entries
        for _ in range(50):
            x = random_ket(rng, ("Q",)).amplitudes
            y = random_ket(rng, ("Q",)).amplitudes
            joint = np.kron(x, y)
            got = (joint.conj() @ p @ joint).real
            want = (1.0 - abs(np.vdot(x, y)) ** 2) / 2.0
            assert abs(got - want) < 1e-10
