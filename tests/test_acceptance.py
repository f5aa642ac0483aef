"""Acceptance suite: one test per headline claim, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output), so the module doubles as a checklist of the numerical
claims the package must reproduce.
"""

from pathlib import Path

import numpy as np

from twocopy import (
    SINGLE_COPY,
    DensityOperator,
    decomposition_infimum_oracle,
    ensemble_upper_bound_entanglement,
    evaluate_scenario,
    joint_outcome_distribution,
    parse_config,
    run,
    sample_outcomes,
    wootters_concurrence,
)
from twocopy.states import (
    de_finetti_state,
    eve_state,
    identical_pure_copies,
    phase_averaged_decomposition,
    phase_averaged_state,
    pure_de_finetti_state,
    single_copy_marginal,
)

from conftest import (
    antisym,
    pure_concurrence,
    random_density,
    random_ket,
    random_product_ket,
    random_pure_ensemble,
    verdict_of,
)

AB = SINGLE_COPY
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {description}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_product_state_null():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        state = identical_pure_copies(random_product_ket(rng))
        worst = max(
            worst,
            abs(antisym(state, "alice")),
            abs(antisym(state, "bob")),
        )
    report(1, "product copies give zero antisymmetric probability", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_02_estimator_exact_on_identical_pure_copies():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        psi = random_ket(rng)
        estimate = verdict_of(identical_pure_copies(psi)).naive_concurrence
        worst = max(worst, abs(estimate - pure_concurrence(psi)))
    report(2, "2 sqrt(p_a) equals the concurrence for identical pure copies", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_03_completely_mixed_false_positive():
    ens = ((1.0, DensityOperator(AB, np.eye(4) / 4)),)
    state = de_finetti_state(ens)
    p_alice = antisym(state, "alice")
    p_bob = antisym(state, "bob")
    naive = verdict_of(state).naive_concurrence
    truth = wootters_concurrence(single_copy_marginal(state, 1))
    ok = (
        abs(p_alice - 0.25) <= 1e-12
        and abs(p_bob - 0.25) <= 1e-12
        and abs(naive - 1.0) <= 1e-12
        and abs(truth) <= 1e-10
    )
    report(3, "completely mixed copies claim maximal entanglement, truth is zero", ok,
           f"p_a {p_alice!r}, naive {naive!r}, truth {truth!r}")


def test_criterion_04_phase_averaged_counterexample():
    state = phase_averaged_state("exact")
    verdict = evaluate_scenario(
        state,
        joint_outcome_distribution(state),
        decomposition_bound=ensemble_upper_bound_entanglement(phase_averaged_decomposition()),
    )
    ok = (
        abs(verdict.p_a_alice - 0.25) <= 1e-12
        and abs(verdict.p_a_bob - 0.25) <= 1e-12
        and abs(verdict.naive_concurrence - 1.0) <= 1e-12
        and abs(verdict.truth_single_copy_concurrence) <= 1e-10
        and abs(verdict.truth_decomposition_bound - 0.5) <= 1e-10
        and verdict.disagreement_prob <= 1e-12
    )
    report(4, "phase-averaged state: estimate 1, truth 0, bound 1/2 ebit, no disagreement", ok,
           f"bound {verdict.truth_decomposition_bound!r}")


def test_criterion_05_discretization_exactness():
    exact = phase_averaged_state("exact").entries
    worst = 0.0
    for n in (3, 4, 8, 64):
        approx = phase_averaged_state(n).entries
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    report(5, "phase discretization matches the closed form for N in {3,4,8,64}", worst <= 1e-13,
           f"worst entrywise {worst:.2e}")


def test_criterion_06_two_sided_check_discriminates_mixedness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, verdict_of(identical_pure_copies(random_ket(rng))).disagreement_prob)
    mixed = de_finetti_state(((1.0, DensityOperator(AB, np.eye(4) / 4)),))
    d_mixed = verdict_of(mixed).disagreement_prob
    ok = worst <= 1e-12 and abs(d_mixed - 0.375) <= 1e-12
    report(6, "identical copies never disagree; fully mixed copies disagree 3/8", ok,
           f"worst pure {worst:.2e}, mixed {d_mixed!r}")


def test_criterion_07_eve_attack():
    anti = eve_state("antisymmetric")
    sym = eve_state("symmetric")
    dist_anti = joint_outcome_distribution(anti)
    dist_sym = joint_outcome_distribution(sym)
    v_anti = evaluate_scenario(anti, dist_anti)
    v_sym = evaluate_scenario(sym, dist_sym)
    ok = (
        np.allclose(dist_anti.as_tuple(), (1, 0, 0, 0), atol=1e-12)
        and np.allclose(dist_sym.as_tuple(), (0, 0, 0, 1), atol=1e-12)
        and abs(v_anti.naive_concurrence - 2.0) <= 1e-12
        and not v_anti.estimator_valid
        and abs(v_sym.naive_concurrence) <= 1e-12
        and v_sym.estimator_valid
        and v_anti.disagreement_prob <= 1e-12
        and v_sym.disagreement_prob <= 1e-12
    )
    report(7, "adversarial states pin both outcomes and break the estimate's range", ok,
           f"naive {v_anti.naive_concurrence!r} flagged invalid" if not v_anti.estimator_valid else "flag missing")


def test_criterion_08_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(108)
    worst_above = 0.0
    worst_below = 0.0
    for k in range(50):
        rho = random_density(rng)
        gap = decomposition_infimum_oracle(rho, seed=k) - wootters_concurrence(rho)
        worst_above = max(worst_above, gap)
        worst_below = min(worst_below, gap)
    ok = worst_above < 1e-3 and worst_below >= -1e-6
    report(8, "decomposition search sits within 1e-3 above the closed form, never below", ok,
           f"above {worst_above:.2e}, below {worst_below:.2e}")


def test_criterion_09_overestimation_on_pure_de_finetti():
    rng = np.random.default_rng(109)
    worst_margin = np.inf
    for _ in range(100):
        ensemble = random_pure_ensemble(rng, k=int(rng.integers(2, 5)))
        state = pure_de_finetti_state(ensemble)
        naive = verdict_of(state).naive_concurrence
        truth = wootters_concurrence(single_copy_marginal(state, 1))
        worst_margin = min(worst_margin, naive - truth)
    report(9, "the estimate never undershoots the truth on pure mixtures", worst_margin >= -1e-8,
           f"smallest naive - truth = {worst_margin:.3e}")


def test_criterion_10_finite_statistics():
    mixed = de_finetti_state(((1.0, DensityOperator(AB, np.eye(4) / 4)),))
    shots = 100_000
    record = sample_outcomes(joint_outcome_distribution(mixed), shots=shots, seed=1234)
    replay = sample_outcomes(joint_outcome_distribution(mixed), shots=shots, seed=1234)
    truth = joint_outcome_distribution(mixed).as_tuple()
    within = all(
        abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / shots)
        for freq, p in zip(np.array(record.counts) / shots, truth)
    )
    ok = within and record == replay
    report(10, "sampled frequencies match within 5 sigma and replay bit-exactly", ok,
           f"counts {record.counts}")


def test_criterion_14_werner_twins_share_their_data_not_their_truth():
    # Werner F = 3/4 and its rank-2 Bell-diagonal twin: the same Tr rho_A^2,
    # Tr rho_B^2 and Tr rho^2, so i.i.d. copies of either give one joint
    # distribution; the property in test_properties.py covers every such pair
    werner, twin = (run(parse_config((SCENARIOS / f"werner-three-quarters{s}.json").read_text())) for s in ("", "-twin"))
    gap = max(abs(x - y) for x, y in zip(werner.joint.as_tuple(), twin.joint.as_tuple()))
    truths = (werner.verdict.truth_single_copy_concurrence, twin.verdict.truth_single_copy_concurrence)
    ok = (
        gap <= 1e-15
        and werner.shot_record.counts == twin.shot_record.counts
        and abs(truths[0] - truths[1]) > 0.09
    )
    report(14, "two i.i.d. sources give one joint distribution and one record, with two truths", ok,
           f"gap {gap:.1e}, counts {twin.shot_record.counts}, truths {truths[0]!r} and {truths[1]!r}")
