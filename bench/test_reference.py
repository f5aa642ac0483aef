"""Hand-derived values for the benchmark's reference checker.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference

BELL = [0.0, 1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 0.0]


def joint(doc):
    d = reference.joint_distribution(reference.two_copy_state(doc))
    return tuple(d[k] for k in ("p_aa", "p_as", "p_sa", "p_ss"))


def test_completely_mixed_copies():
    mixed = (np.eye(4) / 4).tolist()
    doc = {"scenario": "de-finetti", "parameters": {"members": [{"weight": 1.0, "rho": mixed}]}}
    assert joint(doc) == pytest.approx((1 / 16, 3 / 16, 3 / 16, 9 / 16), abs=1e-15)
    assert reference.expected(doc)["truth_single_copy_concurrence"] == 0.0


def test_bell_copies():
    doc = {"scenario": "pure-copies", "parameters": {"ket": BELL}}
    assert joint(doc) == pytest.approx((1 / 4, 0, 0, 3 / 4), abs=1e-15)
    assert reference.expected(doc)["truth_single_copy_concurrence"] == pytest.approx(1.0, abs=1e-15)


def test_adversarial_states_pin_both_outcomes():
    assert joint({"scenario": "eve-antisym"}) == pytest.approx((1, 0, 0, 0), abs=1e-15)
    assert joint({"scenario": "eve-sym"}) == pytest.approx((0, 0, 0, 1), abs=1e-15)


@pytest.mark.parametrize("points", [3, 7, 64])
def test_phase_grids_equal_the_closed_form(points):
    assert np.allclose(reference.phase_grid_state(points), reference.phase_exact_state(), atol=1e-15)
    exact = reference.joint_distribution(reference.phase_exact_state())
    assert exact["p_a_alice"] == pytest.approx(0.25, abs=1e-15)
    assert exact["p_as"] + exact["p_sa"] == pytest.approx(0.0, abs=1e-15)


def test_pure_concurrence():
    assert reference.pure_concurrence(np.array(BELL)) == pytest.approx(1.0, abs=1e-15)
    assert reference.pure_concurrence(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0])
def test_wootters_on_werner_states(p):
    # p |singlet><singlet| + (1 - p) I/4 has concurrence max(0, (3p - 1)/2)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    assert reference.wootters(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-15)


def test_side_major_swaps_the_middle_qubits():
    # |A1 B1 A2 B2> = |0 1 0 0> is |A1 A2 B1 B2> = |0 0 1 0>
    rho = np.zeros((16, 16))
    rho[0b0100, 0b0100] = 1.0
    assert reference.side_major(rho)[0b0010, 0b0010] == 1.0
