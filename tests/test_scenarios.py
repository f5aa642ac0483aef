import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twocopy import scenarios, validate_density
from twocopy.cli import main
from twocopy.protocol import MAX_SHOTS
from twocopy.scenarios import (
    ConfigError,
    build_state,
    emit_report,
    parse_config,
    report_from_json,
    report_to_json,
    run,
)
from twocopy.states import MAX_PHASE_POINTS

REPO_ROOT = Path(__file__).resolve().parent.parent
BUNDLED = sorted((REPO_ROOT / "scenarios").glob("*.json"))

MINIMAL_PHASE = json.dumps(
    {"scenario": "phase-averaged", "seed": 1, "parameters": {"points": "exact"}}
)


def de_finetti_mixed_config(**extra):
    doc = {
        "scenario": "de-finetti",
        "parameters": {
            "members": [
                {"weight": 1.0, "rho": [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]}
            ]
        },
    }
    doc.update(extra)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_phase_config(self):
        config = parse_config(MINIMAL_PHASE)
        assert config.scenario == "phase-averaged"
        assert config.seed == 1
        assert config.shots is None

    def test_unnormalized_weights_rejected(self):
        doc = {
            "scenario": "pure-de-finetti",
            "parameters": {
                "members": [
                    {"weight": 0.7, "ket": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                    {"weight": 0.7, "ket": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                ]
            },
        }
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config(json.dumps(doc))

    def test_custom_sixteen_by_sixteen_round_trips_through_validator(self):
        entries = [[[1.0 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
        doc = {"scenario": "custom", "parameters": {"rho": entries}}
        config = parse_config(json.dumps(doc))
        state = build_state(config.scenario, config.parameters)
        assert validate_density(state.state).passed

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(json.dumps({"scenario": "swap-test"}))

    def test_malformed_amplitudes_rejected(self):
        doc = {"scenario": "pure-copies", "parameters": {"ket": [[0, 0], "x", [1, 0], [0, 0]]}}
        with pytest.raises(ConfigError, match="pair"):
            parse_config(json.dumps(doc))

    def test_all_violations_listed(self):
        doc = {
            "scenario": "pure-copies",
            "seed": -3,
            "shots": 0,
            "parameters": {"ket": [[0, 0], [1, 0], [0, 0], [0, 0]], "bogus": 1},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        text = str(exc.value)
        assert "seed" in text and "shots" in text and "bogus" in text

    def test_invalid_custom_matrix_reports_defect(self):
        entries = [[[0.9 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
        doc = {"scenario": "custom", "parameters": {"rho": entries}}
        with pytest.raises(ConfigError, match="trace defect"):
            parse_config(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("scenario: phase-averaged")


class TestRun:
    def test_de_finetti_false_positive_report(self):
        report = run(parse_config(de_finetti_mixed_config()))
        assert abs(report.verdict.naive_concurrence - 1.0) < 1e-12
        assert report.verdict.truth_single_copy_concurrence == 0.0

    def test_eve_antisym_flags_estimator_invalid(self):
        report = run(parse_config(json.dumps({"scenario": "eve-antisym"})))
        assert not report.verdict.estimator_valid
        assert abs(report.verdict.naive_concurrence - 2.0) < 1e-12

    def test_pure_copies_bell_estimator_correct(self):
        s = 1 / np.sqrt(2)
        doc = {"scenario": "pure-copies", "parameters": {"ket": [[0, 0], [s, 0], [s, 0], [0, 0]]}}
        report = run(parse_config(json.dumps(doc)))
        assert abs(report.verdict.naive_concurrence - 1.0) < 1e-12
        assert abs(report.verdict.truth_single_copy_concurrence - 1.0) < 1e-10

    def test_expectations_checked(self):
        config = parse_config(
            de_finetti_mixed_config(expect={"p_a_alice": {"value": 0.25, "tol": 1e-12}})
        )
        report = run(config)
        assert report.all_passed
        config = parse_config(
            de_finetti_mixed_config(expect={"p_a_alice": {"value": 0.30, "tol": 1e-12}})
        )
        assert not run(config).all_passed

    def test_shots_recorded(self):
        config = parse_config(de_finetti_mixed_config(shots=1000, seed=9))
        report = run(config)
        assert report.shot_record is not None
        assert report.shot_record.shots == 1000
        assert report.shot_record.seed == 9
        assert sum(report.shot_record.counts) == 1000

    def test_custom_state_end_to_end(self):
        entries = [[[1.0 / 16 if i == j else 0.0, 0.0] for j in range(16)] for i in range(16)]
        doc = {
            "scenario": "custom",
            "parameters": {"rho": entries},
            "expect": {"p_a_alice": {"value": 0.25, "tol": 1e-12}},
        }
        report = run(parse_config(json.dumps(doc)))
        assert report.all_passed
        assert abs(report.verdict.disagreement_prob - 0.375) < 1e-12


class TestEmission:
    def test_json_round_trip_equality(self):
        config = parse_config(de_finetti_mixed_config(shots=500))
        report = run(config)
        text = report_to_json(report)
        assert report_from_json(text) == report

    def test_structured_output_is_deterministic(self):
        text_a = report_to_json(run(parse_config(de_finetti_mixed_config(shots=500))))
        text_b = report_to_json(run(parse_config(de_finetti_mixed_config(shots=500))))
        assert text_a == text_b

    def test_table_contains_headline_values(self):
        config = parse_config(Path(REPO_ROOT / "scenarios" / "phase-averaged.json").read_text())
        table = emit_report(run(config), "table")
        assert "p_a_alice" in table and "0.25" in table
        assert "naive_concurrence" in table and "1" in table
        assert "truth_single_copy_concurrence" in table
        assert "truth_decomposition_bound" in table and "0.5" in table

    def test_table_includes_shot_counts_and_seed(self):
        report = run(parse_config(de_finetti_mixed_config(shots=250, seed=4)))
        table = emit_report(report, "table")
        assert "counts" in table and "250" in table and "sampling seed" in table

    def test_unknown_format_rejected(self):
        report = run(parse_config(MINIMAL_PHASE))
        with pytest.raises(ValueError, match="format"):
            emit_report(report, "yaml")


class TestCli:
    def test_pass_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(de_finetti_mixed_config(expect={"p_a_alice": {"value": 0.25}}))
        assert main([str(path)]) == 0
        assert "all expectations met" in capsys.readouterr().out

    def test_violated_expectation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(de_finetti_mixed_config(expect={"p_a_alice": {"value": 0.1, "tol": 1e-6}}))
        assert main([str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"scenario": "nope"}))
        assert main([str(path)]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["/does/not/exist.json"]) == 2

    def test_no_configs_exits_two(self):
        assert main([]) == 2

    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "phase-averaged" in out and "eve-antisym" in out

    def test_json_format_parses_back(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL_PHASE)
        assert main([str(path), "--format", "json"]) == 0
        report = report_from_json(capsys.readouterr().out)
        assert abs(report.verdict.p_a_alice - 0.25) < 1e-12

    def test_output_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(MINIMAL_PHASE)
        out = tmp_path / "report.json"
        assert main([str(cfg), "--format", "json", "--output", str(out)]) == 0
        assert abs(report_from_json(out.read_text()).verdict.p_a_bob - 0.25) < 1e-12

    def test_shots_and_seed_overrides(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(de_finetti_mixed_config())
        assert main([str(path), "--shots", "300", "--seed", "21", "--format", "json"]) == 0
        report = report_from_json(capsys.readouterr().out)
        assert report.shot_record.shots == 300
        assert report.shot_record.seed == 21

    def test_phase_points_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(MINIMAL_PHASE)
        assert main([str(path), "--phase-points", "8", "--format", "json"]) == 0
        report = report_from_json(capsys.readouterr().out)
        assert report.config["parameters"]["points"] == 8
        assert abs(report.verdict.p_a_alice - 0.25) < 1e-12

    def test_phase_points_on_other_scenario_is_usage_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(de_finetti_mixed_config())
        assert main([str(path), "--phase-points", "8"]) == 2


class TestBundledSuite:
    def test_suite_is_nonempty(self):
        assert len(BUNDLED) >= 6

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_each_scenario_passes(self, path):
        report = run(parse_config(path.read_text()))
        failed = [c.metric for c in report.checks if not c.passed]
        assert report.checks and not failed

    def test_whole_suite_through_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twocopy.cli", *map(str, BUNDLED)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("all expectations met") == len(BUNDLED)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in report")

    return json.loads(text, parse_constant=reject)


NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")


def _with_literal(doc: dict, literal: str) -> str:
    """The document as JSON with the placeholder string replaced by a bare literal."""
    return json.dumps(doc).replace('"@"', literal)


NON_FINITE_DOCS = {
    "expect-value": {"scenario": "eve-sym", "expect": {"p_a_alice": {"value": "@"}}},
    "expect-tol": {"scenario": "eve-sym", "expect": {"p_a_alice": {"value": 0.0, "tol": "@"}}},
    "default-tolerance-used": {
        "scenario": "eve-sym", "default_tolerance": "@", "expect": {"p_a_alice": {"value": 0.0}}
    },
    "default-tolerance": {"scenario": "eve-sym", "default_tolerance": "@"},
    "ket-amplitude": {"scenario": "pure-copies", "parameters": {"ket": [["@", 0], [0, 0], [0, 0], [0, 0]]}},
    "member-weight": {"scenario": "pure-de-finetti", "parameters": {"members": [
        {"weight": "@", "ket": [1, 0, 0, 0]}, {"weight": 1.0, "ket": [0, 1, 0, 0]}]}},
    "member-extra-key": {"scenario": "pure-de-finetti", "parameters": {"members": [
        {"weight": 1.0, "ket": [1, 0, 0, 0], "note": "@"}]}},
}
NON_FINITE_CASES = {
    f"{name}-{literal}": _with_literal(doc, literal)
    for name, doc in NON_FINITE_DOCS.items()
    for literal in NON_FINITE
}
EMITTED_CASES = {
    **{path.stem: path.read_text() for path in BUNDLED},
    "de-finetti-shots": de_finetti_mixed_config(shots=500, expect={"p_a_alice": {"value": 0.25, "tol": 1e-12}}),
    **NON_FINITE_CASES,
}


class TestInputBounds:
    @pytest.mark.parametrize("text", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
    def test_non_finite_numbers_rejected(self, text, tmp_path, capsys):
        with pytest.raises(ConfigError):
            parse_config(text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main([str(path), "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_huge_integer_amplitude_rejected(self):
        doc = {"scenario": "pure-copies", "parameters": {"ket": [10**400, 0, 0, 0]}}
        with pytest.raises(ConfigError, match="ket"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("text", EMITTED_CASES.values(), ids=EMITTED_CASES.keys())
    def test_every_emitted_report_is_strict_json(self, text):
        try:
            report = run(parse_config(text))
        except ConfigError:
            return
        _strict_json(emit_report(report, "json"))

    def test_shots_bound(self):
        largest = parse_config(de_finetti_mixed_config(shots=MAX_SHOTS))
        assert sum(run(largest).shot_record.counts) == MAX_SHOTS
        with pytest.raises(ConfigError, match="shots"):
            parse_config(de_finetti_mixed_config(shots=MAX_SHOTS + 1))

    @pytest.mark.parametrize("shots", [str(MAX_SHOTS + 1), "100000000000000000000"])
    def test_shots_override_above_bound_exits_two(self, shots, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(de_finetti_mixed_config())
        assert main([str(path), "--shots", shots]) == 2
        assert "--shots" in capsys.readouterr().err

    def test_points_bound(self):
        doc = {"scenario": "phase-averaged", "parameters": {"points": MAX_PHASE_POINTS}}
        report = run(parse_config(json.dumps(doc)))
        assert abs(report.verdict.p_a_alice - 0.25) < 1e-12
        doc["parameters"]["points"] = MAX_PHASE_POINTS + 1
        with pytest.raises(ConfigError, match="points"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("via", ["config", "override"])
    def test_points_above_bound_exit_two_within_one_second(self, via, tmp_path):
        points = 100_000_000
        params = {"points": points} if via == "config" else {}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "phase-averaged", "parameters": params}))
        argv = [str(path)] + (["--phase-points", str(points)] if via == "override" else [])
        # time main() alone, without interpreter start-up
        child = (
            "import sys, time\n"
            "from twocopy.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 2, proc.stderr
        assert float(proc.stdout) < 1.0


class TestComputedOnce:
    def test_state_and_distribution_once_per_scenario(self, monkeypatch):
        calls = {"build_state": 0, "joint_outcome_distribution": 0}
        for name in calls:
            original = getattr(scenarios, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(scenarios, name, counted)
        for path in BUNDLED:
            run(parse_config(path.read_text()))
        assert calls == {"build_state": len(BUNDLED), "joint_outcome_distribution": len(BUNDLED)}
