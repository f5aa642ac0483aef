"""Measurement protocols on two-copy states and end-to-end evaluation.

Alice projects her pair (A1, A2) onto the symmetric or antisymmetric
subspace, Bob does the same on (B1, B2).  The estimator converts Alice's
antisymmetric probability into a concurrence claim 2 sqrt(p_a); the
two-sided extension also records whether the two outcomes ever differ.
Alice's and Bob's projectors act on disjoint pairs and commute, so each
joint outcome is one projector, from the one table in ``twocopy.states``.

Sampling uses an explicitly seeded Philox counter-based generator, so a
scenario report is reproducible bit for bit from its configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import IMAG_ATOL, PROBABILITY_ATOL, DensityOperator
from .measures import wootters_concurrence
from .states import _JOINT_STACK, OUTCOMES, single_copy_marginal

# identical pure qubit copies force p_a = C^2/4 <= 1/4, so anything above
# this threshold already falsifies the protocol's assumptions
VALIDITY_THRESHOLD = 0.25
VALIDITY_TOL = 1e-9  # rounding slack for p_a at exactly 1/4, as on Bell copies; bench/run.py mirrors it
# the largest count Generator.multinomial accepts; 2**63 overflows a C long
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint probabilities of the (Alice, Bob) in {antisym, sym}^2 outcomes."""

    p_aa: float
    p_as: float
    p_sa: float
    p_ss: float

    def __post_init__(self) -> None:
        """Refuse values beyond ``PROBABILITY_ATOL`` of [0, 1] or of a unit sum; clamp those outside [0, 1] into it.

        A value within [0, 1], ``-0.0`` included, is stored as given.
        """
        probs = self.as_tuple()
        for name, p in zip(OUTCOMES, probs):
            if not -PROBABILITY_ATOL <= p <= 1.0 + PROBABILITY_ATOL:
                raise ValueError(f"p_{name} = {p!r} outside [0, 1]")
            if not 0.0 <= p <= 1.0:
                object.__setattr__(self, f"p_{name}", min(max(p, 0.0), 1.0))
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
        if len(self.counts) != len(OUTCOMES):
            raise ValueError(f"expected one count per outcome ({', '.join(OUTCOMES)}), got {len(self.counts)}")
        if sum(self.counts) != self.shots:
            raise ValueError("outcome counts must sum to the number of shots")


def joint_outcome_distribution(state: DensityOperator) -> OutcomeDistribution:
    """Joint (Alice, Bob) outcome probabilities of the two commuting projections.

    The imaginary residues of the four traces are checked against
    ``IMAG_ATOL`` and then discarded; :class:`OutcomeDistribution` clamps
    the probabilities to [0, 1] from within ``PROBABILITY_ATOL`` of it.
    """
    tr = (_JOINT_STACK @ state.entries).trace(axis1=1, axis2=2)
    residue = float(np.abs(tr.imag).max())
    if residue >= IMAG_ATOL:
        raise ValueError(f"expectation has non-negligible imaginary part {residue:.3e}")
    return OutcomeDistribution(*tr.real.tolist())


def sample_outcomes(dist: OutcomeDistribution, shots: int, seed: int) -> ShotRecord:
    """Draw i.i.d. joint outcomes from an exact distribution.

    Uses a Philox counter-based generator seeded with ``seed``; identical
    (distribution, shots, seed) triples give identical counts.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be from 1 to {MAX_SHOTS}, got {shots}")
    p = np.array(dist.as_tuple(), dtype=float)
    p /= p.sum()
    counts = np.random.Generator(np.random.Philox(seed)).multinomial(shots, p)
    return ShotRecord(shots=shots, seed=seed, counts=tuple(counts.tolist()))


def evaluate_scenario(
    state: DensityOperator,
    dist: OutcomeDistribution,
    decomposition_bound: Optional[float] = None,
) -> EstimateVerdict:
    """Set the protocol's outcome on one state beside the ground truth.

    The claim is 2 sqrt(p_a) from Alice's antisymmetric probability, and the
    disagreement probability is that of Alice's and Bob's outcomes differing.
    ``dist`` is the state's joint outcome distribution, as returned by
    :func:`joint_outcome_distribution`.  The single-copy truth is the
    closed-form concurrence of the first copy's marginal.
    ``decomposition_bound``, when given, is the average entanglement entropy
    across the Alice/Bob cut of an explicit decomposition of the two-copy
    state (:func:`~twocopy.measures.ensemble_upper_bound_entanglement`), and
    is reported as an upper bound on the total two-copy entanglement.
    """
    p_alice = min(dist.p_aa + dist.p_as, 1.0)
    p_bob = min(dist.p_aa + dist.p_sa, 1.0)
    truth = wootters_concurrence(single_copy_marginal(state, copy=1))
    return EstimateVerdict(
        p_a_alice=p_alice,
        p_a_bob=p_bob,
        # The claim is unclamped: a value above 1 is evidence that the
        # identical-pure-copies assumption is wrong, and the flag (p_a within
        # the [0, 1/4] range that assumption allows) reports exactly that.
        naive_concurrence=2.0 * math.sqrt(p_alice),
        estimator_valid=p_alice <= VALIDITY_THRESHOLD + VALIDITY_TOL,
        disagreement_prob=min(dist.p_as + dist.p_sa, 1.0),
        truth_single_copy_concurrence=truth,
        truth_decomposition_bound=decomposition_bound,
    )
