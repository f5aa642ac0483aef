import numpy as np

from twocopy import expectation_value
from twocopy.states import JOINT_PROJECTORS, PAIR_PROJECTORS, identical_pure_copies

from conftest import random_product_ket

# one side's projector on the copy-major (A1, B1, A2, B2) space: that side's
# outcome fixed, the other side's summed out
ALICE_ANTISYM = JOINT_PROJECTORS["aa"] + JOINT_PROJECTORS["as"]
ALICE_SYM = JOINT_PROJECTORS["sa"] + JOINT_PROJECTORS["ss"]
BOB_ANTISYM = JOINT_PROJECTORS["aa"] + JOINT_PROJECTORS["sa"]


class TestPairProjector:
    def test_singlet_is_antisymmetric_eigenvector(self):
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.allclose(PAIR_PROJECTORS["a"] @ singlet, singlet, atol=1e-15)

    def test_aligned_state_annihilated(self):
        # |00>, the first basis state of a pair
        assert np.allclose(PAIR_PROJECTORS["a"] @ np.eye(4)[0], 0)

    def test_subspace_dimensions(self):
        anti = PAIR_PROJECTORS["a"]
        sym = PAIR_PROJECTORS["s"]
        assert abs(np.trace(anti) - 1.0) < 1e-15
        assert abs(np.trace(sym) - 3.0) < 1e-15
        assert np.linalg.matrix_rank(anti) == 1 and np.linalg.matrix_rank(sym) == 3

    def test_idempotent_hermitian_complementary(self):
        anti = PAIR_PROJECTORS["a"]
        sym = PAIR_PROJECTORS["s"]
        assert np.max(np.abs(anti @ anti - anti)) < 1e-12
        assert np.max(np.abs(anti - anti.conj().T)) == 0.0
        assert np.array_equal(anti + sym, np.eye(4))


class TestEmbedPairProjector:
    def test_trace_multiplied_by_identity_dimension(self):
        assert ALICE_ANTISYM.shape == (16, 16)
        assert abs(np.trace(ALICE_ANTISYM) - 4.0) < 1e-12

    def test_product_pure_copies_have_zero_antisym_probability(self, rng):
        state = identical_pure_copies(random_product_ket(rng))
        assert abs(expectation_value(ALICE_ANTISYM, state)) < 1e-12

    def test_disjoint_embeddings_commute(self):
        pa, pb = ALICE_ANTISYM, BOB_ANTISYM
        assert np.max(np.abs(pa @ pb - pb @ pa)) < 1e-14
        prod = pa @ pb
        assert np.max(np.abs(prod - prod.conj().T)) < 1e-14

    def test_embedded_projectors_sum_to_identity(self):
        assert np.array_equal(ALICE_ANTISYM + ALICE_SYM, np.eye(16))

    def test_idempotent_on_full_space(self):
        pb = BOB_ANTISYM
        assert np.max(np.abs(pb @ pb - pb)) < 1e-12
