"""Measurement protocols on two-copy states and end-to-end evaluation.

Alice projects her pair (A1, A2) onto the symmetric or antisymmetric
subspace, Bob does the same on (B1, B2).  The estimator converts Alice's
antisymmetric probability into a concurrence claim 2 sqrt(p_a); the
two-sided extension also records whether the two outcomes ever differ.
Alice's and Bob's projectors act on disjoint pairs and commute, so each
joint outcome is one projector, the Kronecker product of the two sides'.

Sampling uses an explicitly seeded Philox counter-based generator, so a
scenario report is reproducible bit for bit from its configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import IMAG_ATOL, PROBABILITY_ATOL, DensityOperator, Ket, permute_subsystems
from .measures import (
    ensemble_upper_bound_entanglement,
    wootters_concurrence,
)
from .states import PAIR_SWAP, single_copy_marginal

# identical pure qubit copies force p_a = C^2/4 <= 1/4, so anything above
# this threshold already falsifies the protocol's assumptions
VALIDITY_THRESHOLD = 0.25
VALIDITY_TOL = 1e-9  # rounding slack for p_a at exactly 1/4, as on Bell copies; bench/run.py mirrors it
# the largest count Generator.multinomial accepts; 2**63 overflows a C long
MAX_SHOTS = 2**63 - 1

OUTCOMES = ("aa", "as", "sa", "ss")


# one side's antisymmetric ("a") and symmetric ("s") projectors on its pair
PAIR_PROJECTORS = {
    "a": (np.eye(4, dtype=complex) - PAIR_SWAP) / 2.0,
    "s": (np.eye(4, dtype=complex) + PAIR_SWAP) / 2.0,
}
for _m in PAIR_PROJECTORS.values():
    _m.setflags(write=False)
# the projector of each outcome "xy" (x Alice's, y Bob's; a antisymmetric,
# s symmetric) on the copy-major register, stacked in OUTCOMES order; the
# Kronecker product of the two sides' projectors is side major
_JOINT_STACK = np.stack(
    [permute_subsystems(np.kron(PAIR_PROJECTORS[xy[0]], PAIR_PROJECTORS[xy[1]])) for xy in OUTCOMES]
)
_JOINT_STACK.setflags(write=False)
JOINT_PROJECTORS = dict(zip(OUTCOMES, _JOINT_STACK))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint probabilities of the (Alice, Bob) in {antisym, sym}^2 outcomes."""

    p_aa: float
    p_as: float
    p_sa: float
    p_ss: float

    def __post_init__(self) -> None:
        probs = self.as_tuple()
        for name, p in zip(OUTCOMES, probs):
            if not -PROBABILITY_ATOL <= p <= 1.0 + PROBABILITY_ATOL:
                raise ValueError(f"p_{name} = {p!r} outside [0, 1]")
        if abs(sum(probs) - 1.0) > PROBABILITY_ATOL:
            raise ValueError(f"outcome probabilities sum to {sum(probs)!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_aa, self.p_as, self.p_sa, self.p_ss)


@dataclass(frozen=True)
class EstimateVerdict:
    """Everything the protocol reports about one state, next to the truth."""

    p_a_alice: float
    p_a_bob: float
    naive_concurrence: float
    estimator_valid: bool
    disagreement_prob: float
    truth_single_copy_concurrence: float
    truth_decomposition_bound: Optional[float] = None


@dataclass(frozen=True)
class ShotRecord:
    """Counts of sampled joint outcomes for a finite-statistics run."""

    shots: int
    seed: int
    counts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if sum(self.counts) != self.shots:
            raise ValueError("outcome counts must sum to the number of shots")


def _clamp_probability(x: float) -> float:
    if x < -PROBABILITY_ATOL or x > 1.0 + PROBABILITY_ATOL:
        raise ValueError(f"computed probability {x!r} outside [0, 1] beyond tolerance")
    return min(max(x, 0.0), 1.0)


def naive_concurrence_estimate(p_a: float) -> tuple[float, bool]:
    """Concurrence claim 2 sqrt(p_a) plus a validity flag.

    The value is returned unclamped: an estimate above 1 is evidence that
    the identical-pure-copies assumption is wrong, and the flag (p_a within
    the [0, 1/4] range that assumption allows) reports exactly that.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p_a!r}")
    return 2.0 * math.sqrt(p_a), p_a <= VALIDITY_THRESHOLD + VALIDITY_TOL


def joint_outcome_distribution(state: DensityOperator) -> OutcomeDistribution:
    """Joint (Alice, Bob) outcome probabilities of the two commuting projections.

    The imaginary residues of the four traces are checked against
    ``IMAG_ATOL`` and then discarded; the probabilities are clamped to
    [0, 1] from within ``PROBABILITY_ATOL`` of it.
    """
    tr = np.trace(_JOINT_STACK @ state.entries, axis1=1, axis2=2)
    residue = float(np.abs(tr.imag).max())
    if residue >= IMAG_ATOL:
        raise ValueError(f"expectation has non-negligible imaginary part {residue:.3e}")
    return OutcomeDistribution(*(_clamp_probability(float(p)) for p in tr.real))


def disagreement_probability(d: OutcomeDistribution) -> float:
    """Probability that Alice's and Bob's outcomes differ."""
    return _clamp_probability(d.p_as + d.p_sa)


def sample_outcomes(dist: OutcomeDistribution, shots: int, seed: int) -> ShotRecord:
    """Draw i.i.d. joint outcomes from an exact distribution.

    Uses a Philox counter-based generator seeded with ``seed``; identical
    (distribution, shots, seed) triples give identical counts.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be from 1 to {MAX_SHOTS}, got {shots}")
    p = np.array(dist.as_tuple(), dtype=float)
    p /= p.sum()
    rng = np.random.default_rng(np.random.Philox(seed))
    counts = rng.multinomial(shots, p)
    return ShotRecord(shots=shots, seed=seed, counts=tuple(int(c) for c in counts))


def evaluate_scenario(
    state: DensityOperator,
    dist: OutcomeDistribution,
    decomposition: Optional[Sequence[tuple[float, Ket]]] = None,
) -> EstimateVerdict:
    """Set the protocol's outcome on one state beside the ground truth.

    ``dist`` is the state's joint outcome distribution, as returned by
    :func:`joint_outcome_distribution`.  The single-copy truth is the
    closed-form concurrence of the first copy's marginal.  When an explicit
    decomposition of the two-copy state is supplied, its average
    entanglement entropy across the Alice/Bob cut is reported as an upper
    bound on the total two-copy entanglement.
    """
    p_alice = _clamp_probability(dist.p_aa + dist.p_as)
    p_bob = _clamp_probability(dist.p_aa + dist.p_sa)
    naive, valid = naive_concurrence_estimate(p_alice)
    truth = wootters_concurrence(single_copy_marginal(state, copy=1))
    bound = None
    if decomposition is not None:
        bound = ensemble_upper_bound_entanglement(decomposition)
    return EstimateVerdict(
        p_a_alice=p_alice,
        p_a_bob=p_bob,
        naive_concurrence=naive,
        estimator_valid=valid,
        disagreement_prob=disagreement_probability(dist),
        truth_single_copy_concurrence=truth,
        truth_decomposition_bound=bound,
    )
