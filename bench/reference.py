"""Independent reference for the protocol quantities the benchmark checks.

Nothing here imports twocopy.  The two-copy state is rebuilt from the
scenario document in plain numpy on the copy-major order (A1, B1, A2, B2),
the joint distribution comes from singlet projectors applied on the
side-major order (A1, A2, B1, B2), and the mixed-state concurrence is
Wootters' formula evaluated at 50 significant digits with mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
# symmetric-subspace projector of a qubit pair, (I + SWAP)/2
SYM = (np.eye(4) + np.eye(4)[[0, 2, 1, 3]]).astype(complex) / 2.0
DIGITS = 50


def _complex(node) -> complex:
    return complex(node[0], node[1]) if isinstance(node, list) else complex(node)


def vector(node) -> np.ndarray:
    return np.array([_complex(v) for v in node], dtype=complex)


def matrix(node) -> np.ndarray:
    return np.array([[_complex(v) for v in row] for row in node], dtype=complex)


def pure_concurrence(ket: np.ndarray) -> float:
    """2|ad - bc| for the amplitudes (a, b, c, d) of |00>, |01>, |10>, |11>."""
    a, b, c, d = ket
    return 2.0 * abs(a * d - b * c)


def wootters(rho: np.ndarray) -> float:
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) at 50 digits.

    The l_i are the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy),
    taken in decreasing order.
    """
    with mpmath.workdps(DIGITS):
        m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho])
        flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        conj = mpmath.matrix([[mpmath.conj(m[i, j]) for j in range(4)] for i in range(4)])
        eigs = mpmath.eig(m * flip * conj * flip, left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eigs), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def copy_pair(single: np.ndarray) -> np.ndarray:
    """rho (x) rho on (A1, B1, A2, B2) from rho on (A, B)."""
    return np.kron(single, single)


def phase_grid_state(points: int) -> np.ndarray:
    """Uniform average over the grid of phases of two copies of (|01> + e^{i phi}|10>)/sqrt(2)."""
    phis = 2.0 * math.pi * np.arange(points) / points
    kets = np.zeros((points, 4), dtype=complex)
    kets[:, 1] = 1.0 / math.sqrt(2.0)
    kets[:, 2] = np.exp(1j * phis) / math.sqrt(2.0)
    pairs = np.einsum("ki,kj->kij", kets, kets).reshape(points, 16)
    return pairs.T @ pairs.conj() / points


def phase_exact_state() -> np.ndarray:
    """(|0101><0101| + |1010><1010|)/4 + |L><L|/2 with |L> = (|0110> + |1001>)/sqrt(2)."""
    rho = np.zeros((16, 16), dtype=complex)
    rho[0b0101, 0b0101] = rho[0b1010, 0b1010] = 0.25
    for i in (0b0110, 0b1001):
        for j in (0b0110, 0b1001):
            rho[i, j] = 0.25
    return rho


def side_major(rho: np.ndarray) -> np.ndarray:
    """Reorder a copy-major (A1, B1, A2, B2) 16x16 matrix to (A1, A2, B1, B2)."""
    t = rho.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape(16, 16)


def eve_state(kind: str) -> np.ndarray:
    """Copy-major state with the same pair state on Alice's (A1, A2) and Bob's (B1, B2) pairs."""
    pair = np.outer(SINGLET, SINGLET.conj()) if kind == "eve-antisym" else SYM / 3.0
    sm = np.kron(pair, pair)
    # side major and copy major differ by swapping the middle two qubits,
    # so the same reordering maps one to the other
    return side_major(sm)


def two_copy_state(doc: dict) -> np.ndarray:
    """The copy-major two-copy density matrix a scenario document describes."""
    name = doc["scenario"]
    params = doc.get("parameters", {})
    if name == "pure-copies":
        ket = vector(params["ket"])
        return copy_pair(np.outer(ket, ket.conj()))
    if name == "pure-de-finetti":
        total = np.zeros((16, 16), dtype=complex)
        for m in params["members"]:
            ket = vector(m["ket"])
            total += m["weight"] * copy_pair(np.outer(ket, ket.conj()))
        return total
    if name == "de-finetti":
        return sum(m["weight"] * copy_pair(matrix(m["rho"])) for m in params["members"])
    if name == "phase-averaged":
        points = params.get("points", "exact")
        if points == "exact":
            return phase_exact_state()
        return phase_grid_state(64 if points == "discretized" else points)
    if name in ("eve-antisym", "eve-sym"):
        return eve_state(name)
    if name == "custom":
        return matrix(params["rho"])
    raise ValueError(f"no reference for scenario {name!r}")


def joint_distribution(rho: np.ndarray) -> dict:
    """p_aa, p_as, p_sa, p_ss and both antisymmetric marginals of a copy-major state."""
    sm = side_major(rho)
    singlet = np.outer(SINGLET, SINGLET.conj())
    alice = np.kron(singlet, np.eye(4))
    bob = np.kron(np.eye(4), singlet)
    p_alice = float(np.trace(alice @ sm).real)
    p_bob = float(np.trace(bob @ sm).real)
    p_aa = float(np.trace(alice @ bob @ sm).real)
    return {
        "p_a_alice": p_alice,
        "p_a_bob": p_bob,
        "p_aa": p_aa,
        "p_as": p_alice - p_aa,
        "p_sa": p_bob - p_aa,
        "p_ss": 1.0 - p_alice - p_bob + p_aa,
    }


def single_copy_marginal(rho: np.ndarray) -> np.ndarray:
    """Trace out the second copy (A2, B2) of a copy-major state."""
    return np.einsum("ikjk->ij", rho.reshape(4, 4, 4, 4))


def expected(doc: dict) -> dict:
    """Reference values for every verdict field the benchmark checks."""
    rho = two_copy_state(doc)
    out = joint_distribution(rho)
    if doc["scenario"] == "pure-copies":
        out["truth_single_copy_concurrence"] = pure_concurrence(vector(doc["parameters"]["ket"]))
    else:
        out["truth_single_copy_concurrence"] = wootters(single_copy_marginal(rho))
    return out
