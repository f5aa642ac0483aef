"""Two-copy entanglement estimation via antisymmetric-subspace projection.

A numerical library and scenario CLI for the protocol that estimates the
concurrence of a bipartite state from the probability of projecting two
presumed-identical copies onto the local antisymmetric subspaces, together
with exact constructions of the state families on which the estimate is
correct, falsely positive, inflated, or adversarially pinned.
"""

from .linalg import (
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
from .measures import (
    decomposition_infimum_oracle,
    ensemble_upper_bound_entanglement,
    entanglement_entropy,
    wootters_concurrence,
)
from .protocol import (
    EstimateVerdict,
    OutcomeDistribution,
    ShotRecord,
    evaluate_scenario,
    joint_outcome_distribution,
    sample_outcomes,
)
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    ScenarioReport,
    emit_report,
    parse_config,
    report_from_json,
    report_to_json,
    run,
)
from .states import (
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

__version__ = "0.1.0"
