import dataclasses
import importlib
import importlib.util
import json
import os
import re
import reprlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twocopy import COPY_MAJOR, DensityOperator, joint_outcome_distribution, scenarios, validate_density
from twocopy.cli import main
from twocopy.protocol import JOINT_PROJECTORS, MAX_SHOTS
from twocopy.scenarios import (
    METRIC_NAMES,
    ConfigError,
    build_state,
    emit_report,
    parse_config,
    report_from_json,
    report_to_json,
    run,
)
from twocopy.states import MAX_PHASE_POINTS

from conftest import ALICE_ANTISYMMETRIC, custom_document, projector_range, sign_pattern, stdlib_report_json

REPO_ROOT = Path(__file__).resolve().parent.parent
BUNDLED = sorted((REPO_ROOT / "scenarios").glob("*.json"))

# JSON literals that json.loads accepts but that are no finite float
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")

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
        assert validate_density(state.entries).passed

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(json.dumps({"scenario": "swap-test"}))

    def test_malformed_amplitudes_rejected(self):
        doc = {"scenario": "pure-copies", "parameters": {"ket": [[0, 0], "x", [1, 0], [0, 0]]}}
        with pytest.raises(ConfigError, match="pair"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("literal", [*NON_FINITE, "-" + "9" * 400], ids=[*NON_FINITE, "huge-integer"])
    @pytest.mark.parametrize("where", ["ket", "rho"])
    def test_non_finite_amplitude_refused_where_it_stands(self, literal, where):
        if where == "ket":
            doc = {"scenario": "pure-copies", "parameters": {"ket": [[1, 0], [0, "@"], 0, 0]}}
            at = r"ket\[1\]"
        else:
            rho = np.eye(16).tolist()
            rho[2][5] = [0, "@"]
            doc = {"scenario": "custom", "parameters": {"rho": rho}}
            at = r"rho\[2\]\[5\]"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc).replace('"@"', literal))
        assert len(exc.value.problems) == 1
        assert re.fullmatch(at + r": expected a finite number or \[re, im\] pair, got .{1,60}", exc.value.problems[0])

    def test_amplitude_shape_refusals(self):
        doc = {"scenario": "custom", "parameters": {"rho": np.eye(16).tolist()}}
        doc["parameters"]["rho"][3] = [1.0] * 15
        with pytest.raises(ConfigError, match=r"rho\[3\]: expected a list of 16 amplitudes"):
            parse_config(json.dumps(doc))
        doc["parameters"]["rho"] = np.eye(4).tolist()
        with pytest.raises(ConfigError, match="rho: expected a 16x16 matrix"):
            parse_config(json.dumps(doc))
        doc = {"scenario": "pure-copies", "parameters": {"ket": [1, 0, 0]}}
        with pytest.raises(ConfigError, match="ket: expected a list of 4 amplitudes"):
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


def _bad_leaf(where: str, leaf: str) -> str:
    return f"{where}: expected a finite number or [re, im] pair, got {leaf}"


# malformed amplitude arrays and the exact refusals the leaf-by-leaf walk writes for them;
# the all-pairs and all-bare cases have the shape the one-step read accepts, so only
# the leaf type check stands between a bool or a numeric string and an array
REFUSED_AMPLITUDES = {
    "bool": (True, (), [_bad_leaf("x", "True")]),
    "bool-part": ([1.0, False], (), [_bad_leaf("x", "[1.0, False]")]),
    "string": ("1", (), [_bad_leaf("x", "'1'")]),
    "none": (None, (), [_bad_leaf("x", "None")]),
    "mapping": ({"a": 1}, (), [_bad_leaf("x", "{'a': 1}")]),
    "huge-integer": (10**400, (), [_bad_leaf("x", reprlib.repr(10**400))]),
    "overflowing-part": ([1e400, 0], (), [_bad_leaf("x", "[inf, 0]")]),
    "ket-of-bools": ([True, False, False, False], (4,), [_bad_leaf(f"x[{i}]", b) for i, b in
                                                        enumerate(["True", "False", "False", "False"])]),
    "bool-in-a-pair": ([[1, 0], [0, 0], [0, 0], [0, True]], (4,), [_bad_leaf("x[3]", "[0, True]")]),
    "ket-of-numeric-strings": ([["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]], (4,),
                               [_bad_leaf(f"x[{i}]", f"['{i == 0:d}', '0']") for i in range(4)]),
    "string-leaf": (["1", 0, 0, 0], (4,), [_bad_leaf("x[0]", "'1'")]),
    "none-leaf": ([None, 0, 0, 0], (4,), [_bad_leaf("x[0]", "None")]),
    "huge-integer-leaf": ([10**400, 0, 0, 0], (4,),
                          [_bad_leaf("x[0]", reprlib.repr(10**400))]),
    "overflowing-leaf": ([[1e400, 0], 0, 0, 0], (4,), [_bad_leaf("x[0]", "[inf, 0]")]),
    "three-element-leaf": ([[1, 0, 0], 0, 0, 0], (4,), [_bad_leaf("x[0]", "[1, 0, 0]")]),
    "nested-pair-leaf": ([[[1, 0]], 0, 0, 0], (4,), [_bad_leaf("x[0]", "[[1, 0]]")]),
    "short-ket": ([1, 0, 0], (4,), ["x: expected a list of 4 amplitudes"]),
    "bool-ket": (True, (4,), ["x: expected a list of 4 amplitudes"]),
    "mixed-forms-with-a-string": ([[0.6, 0], 0.8, 0, "0"], (4,), [_bad_leaf("x[3]", "'0'")]),
    "matrix-of-bool-pairs": ([[1.0, False]] * 16, (4, 4), ["x: expected a 4x4 matrix"]),
    "row-of-bools": ([[True] * 4] + [[0] * 4] * 3, (4, 4), [_bad_leaf(f"x[0][{j}]", "True") for j in range(4)]),
}
ACCEPTED_AMPLITUDES = {
    "pairs": ([[0.6, 0.0], [0.0, -0.8], [0, 0], [0, 0]], (4,)),
    "bare": ([0.6, 0.8, 0.0, 0.0], (4,)),
    "integers": ([1, 0, 0, 2**53 + 1], (4,)),
    "negative-zero-pairs": ([[-0.0, -0.0], [1.0, -0.0], [0.0, 0.0], [-0.0, 0.0]], (4,)),
    "negative-zero-bare": ([-0.0, 1, -0.0, 0], (4,)),
    "mixed-forms": ([[0.5, 0.5], 0.5, [0.5, 0], -0.0], (4,)),
    "matrix-of-pairs": ([[[0.25 * (i == j), -0.0] for j in range(4)] for i in range(4)], (4, 4)),
    "matrix-bare": ([[0.25 * (i == j) for j in range(4)] for i in range(4)], (4, 4)),
}


def _leaf(node) -> complex:
    """One amplitude as ``complex(re, im)`` of its parts made floats, the walk's own construction."""
    re, im = node if isinstance(node, list) else (node, 0)
    return complex(float(re), float(im))


class TestParseAmplitudes:
    @pytest.mark.parametrize("node, shape, refusals", REFUSED_AMPLITUDES.values(), ids=REFUSED_AMPLITUDES.keys())
    def test_refusals_are_the_walks(self, node, shape, refusals):
        problems = []
        scenarios._parse_amplitudes(node, shape, "x", problems)
        assert problems == refusals

    @pytest.mark.parametrize("node, shape", ACCEPTED_AMPLITUDES.values(), ids=ACCEPTED_AMPLITUDES.keys())
    def test_accepted_arrays_keep_every_bit(self, node, shape):
        problems = []
        entries = scenarios._parse_amplitudes(node, shape, "x", problems)
        leaves = [_leaf(v) for v in node] if len(shape) == 1 else [[_leaf(v) for v in row] for row in node]
        assert problems == []
        assert entries.shape == shape and entries.dtype == complex
        assert entries.tobytes() == np.array(leaves).tobytes()


def test_readme_metric_list_is_metric_names():
    readme = (REPO_ROOT / "README.md").read_text()
    paragraph = readme.split("Metrics:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", paragraph)) == METRIC_NAMES


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


def _custom_doc(entry) -> dict:
    """A custom document whose 16x16 matrix has ``entry(i, j, x)`` for each entry x of the mixed state I/16."""
    return {"scenario": "custom", "parameters": {"rho": [
        [entry(i, j, 1 / 16 if i == j else 0.0) for j in range(16)] for i in range(16)]}}


WRITER_DOCS = {
    "custom-pairs": _custom_doc(lambda i, j, x: [x, 0.0]),
    "custom-bare": _custom_doc(lambda i, j, x: x),
    "custom-integers": _custom_doc(lambda i, j, x: int(i == j == 0)),
    "custom-negative-zeros": _custom_doc(lambda i, j, x: [x or -0.0, -0.0]),
    "custom-mixed-forms": _custom_doc(lambda i, j, x: [x, 0] if i == j else x),
    "de-finetti": json.loads(de_finetti_mixed_config(shots=500, expect={"p_a_alice": {"value": 0.25}})),
    "pure-de-finetti": {"scenario": "pure-de-finetti", "parameters": {"members": [
        {"weight": 0.5, "ket": [[0.5**0.5, 0], 0, 0, [0, -(0.5**0.5)]]}, {"weight": 0.5, "ket": [0, 1, 0, 0]}]}},
    "phase-averaged-grid": {"scenario": "phase-averaged", "parameters": {"points": 7},
                            "expect": {"truth_decomposition_bound": {"value": 0.5, "tol": 1e-12}}},
    "seed-of-4000-digits": {"scenario": "eve-sym", "seed": 10**3999, "shots": 10},
    "no-checks-no-shots": {"scenario": "eve-antisym"},
}


@pytest.mark.parametrize("doc", WRITER_DOCS.values(), ids=WRITER_DOCS.keys())
def test_json_writer_matches_the_standard_library(doc):
    report = run(parse_config(json.dumps(doc)))
    assert report_to_json(report) == stdlib_report_json(report)


def test_json_writer_matches_the_standard_library_on_every_scalar():
    report = run(parse_config(MINIMAL_PHASE))
    report = dataclasses.replace(report, config={
        "floats": [0.1, -0.0, 1e-300, 5e-324, 1e16, 2.5e300, float("nan"), float("inf"), -float("inf")],
        "numpy": [np.float64(0.1), np.float64(-2.0)],
        "others": [None, True, False, 0, -7, 2**64, "", "t\u00e9xt \"quoted\"\n\u2603", [], {}, ()],
        "\u00e9": {"b": [[1, [2]], {}], "a": ()},
    })
    assert report_to_json(report) == stdlib_report_json(report)


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

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(MINIMAL_PHASE)
        assert main([str(cfg), "--output", str(tmp_path / "missing" / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("twocopy: error writing")

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe" + MINIMAL_PHASE.encode())
        assert main([str(path)]) == 2
        assert capsys.readouterr().err.startswith("twocopy: error reading")

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

    @pytest.mark.parametrize("points", ["discretized", "exact", "5"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_phase_points_override_matches_config(self, points, fmt, tmp_path, capsys):
        bundled = REPO_ROOT / "scenarios" / "phase-averaged.json"
        doc = json.loads(bundled.read_text())
        doc["parameters"]["points"] = int(points) if points.isdigit() else points
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([str(path), "--format", fmt]) == 0
        from_config = capsys.readouterr().out
        assert main([str(bundled), "--phase-points", points, "--format", fmt]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize("points", ["2", "foo", "1.5", ""])
    def test_phase_points_refused_exits_two(self, points, capsys):
        bundled = REPO_ROOT / "scenarios" / "phase-averaged.json"
        assert main([str(bundled), "--phase-points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "points" in captured.err

    def test_phase_points_beyond_the_integer_digit_limit_refused_briefly(self, capsys):
        # int() refuses integer strings of more than 4,300 digits
        bundled = REPO_ROOT / "scenarios" / "phase-averaged.json"
        assert main([str(bundled), "--phase-points", "1" * 5000]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"3 to {MAX_PHASE_POINTS} points" in captured.err
        assert len(captured.err) < 300

    def test_alice_certain_state_exits_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            m = ALICE_ANTISYMMETRIC @ g @ g.conj().T @ ALICE_ANTISYMMETRIC
            m /= np.trace(m).real
            d = joint_outcome_distribution(DensityOperator(COPY_MAJOR, m))
            if d.p_aa + d.p_as > 1.0:  # the two clamped outcomes add up to more than 1
                break
        else:
            pytest.fail("no state whose Alice marginal rounds above 1")
        path = tmp_path / "cfg.json"
        doc = {"scenario": "custom", "parameters": {"rho": [[[z.real, z.imag] for z in row] for row in m]}}
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^p_a_alice +1$", out, re.M) and re.search(r"^estimator_valid +no$", out, re.M)

    def test_closed_stdout_exits_two_with_one_line(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody will read: every write to the pipe fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "twocopy.cli", "--format", "json", *map(str, BUNDLED)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("twocopy: error writing stdout")
        assert proc.stderr.count("\n") == 1, proc.stderr


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
# within ATOL = 1e-10 of 1 as a norm, yet two copies miss trace 1 by more than ATOL
NEARLY_ONE = 1.0 + 9e-11
NEARLY_NORMALIZED_DOCS = {
    "pure-copies-ket": {"scenario": "pure-copies", "parameters": {"ket": [NEARLY_ONE, 0, 0, 0]}},
    "pure-de-finetti-ket": {"scenario": "pure-de-finetti", "parameters": {"members": [
        {"weight": 1.0, "ket": [NEARLY_ONE, 0, 0, 0]}]}},
    "de-finetti-rho": {"scenario": "de-finetti", "parameters": {"members": [
        {"weight": 1.0, "rho": np.diag([NEARLY_ONE, 0, 0, 0]).tolist()}]}},
}
NON_FINITE_CASES = {
    f"{name}-{literal}": _with_literal(doc, literal)
    for name, doc in NON_FINITE_DOCS.items()
    for literal in NON_FINITE
}
# each refusal echoes a value of 4,001 digits
HUGE_ECHO_DOCS = {
    "points": {"scenario": "phase-averaged", "parameters": {"points": 10**4000}},
    "seed": {"scenario": "eve-sym", "seed": -(10**4000)},
    "shots": {"scenario": "eve-sym", "shots": 10**4000},
    "default-tolerance": {"scenario": "eve-sym", "default_tolerance": -(10**4000)},
    "ket-amplitude": {"scenario": "pure-copies", "parameters": {"ket": [10**4000, 0, 0, 0]}},
    "parameter-key": {"scenario": "eve-sym", "parameters": {"k" * 5000: 1}},
    "expect-entry-key": {"scenario": "eve-sym", "expect": {"p_a_alice": {"value": 0.0, "k" * 5000: 1}}},
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

    def test_integer_literal_beyond_the_digit_limit_rejected(self, tmp_path, capsys):
        # json.loads refuses it with a plain ValueError, not a JSONDecodeError
        text = '{"scenario": "phase-averaged", "parameters": {"points": ' + "1" * 5000 + "}}"
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main([str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_deeply_nested_document_rejected(self, tmp_path, capsys):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("doc", HUGE_ECHO_DOCS.values(), ids=HUGE_ECHO_DOCS.keys())
    def test_refusal_echoes_a_bounded_value(self, doc, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err) < 300, captured.err[:300]

    @pytest.mark.parametrize("section", ["parameters", "expect"])
    def test_unknown_key_refusal_echoes_a_bounded_key(self, section, tmp_path, capsys):
        # the unknown-metric refusal lists every metric name, so with the
        # temporary path it is over 300 characters even for a short key;
        # an ordinary key keeps its text and a long one adds under 30 characters
        texts = {
            "parameters": "  - parameters.mm: not a parameter of scenario 'eve-sym'\n",
            "expect": f"  - expect.mm: unknown metric (choose from {', '.join(METRIC_NAMES)})\n",
        }
        errs = []
        for key in ("mm", "m" * 5000):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": "eve-sym", section: {key: {"value": 0}}}))
            assert main([str(path)]) == 2
            errs.append(capsys.readouterr().err)
        short, long = errs
        assert texts[section] in short
        assert len(long) < len(short) + 30, long[:400]

    # each entry would otherwise be read in part or never be checkable:
    # "tolerance" is a typo for "tol", which the default 1e-9 would replace and
    # fail the check with exit 1, the code for a violated expectation; a tol on
    # a boolean would be dropped; eve-sym has no decomposition, so its bound is
    # never reported and the check could never pass; a number on the boolean
    # estimator_valid would pass within its tol whatever the verdict, and a
    # boolean on a number would never pass
    @pytest.mark.parametrize("text, problem", [
        (de_finetti_mixed_config(expect={"p_a_alice": {"value": 0.2500001, "tolerance": 1e-3}}),
         "expect.p_a_alice: unknown keys ['tolerance']"),
        (de_finetti_mixed_config(expect={"estimator_valid": {"value": True, "tol": 0.5}}),
         "expect.estimator_valid: tol does not apply to a boolean value"),
        (json.dumps({"scenario": "eve-sym", "expect": {"truth_decomposition_bound": {"value": 0.0, "tol": 1}}}),
         "expect.truth_decomposition_bound: not reported by scenario 'eve-sym', which has no decomposition"),
        (json.dumps({"scenario": "eve-sym", "expect": {"estimator_valid": {"value": 0.5, "tol": 1}}}),
         "expect.estimator_valid: value must be a boolean"),
        (json.dumps({"scenario": "eve-sym", "expect": {"p_a_alice": {"value": True}}}),
         "expect.p_a_alice: value must be a finite number"),
    ], ids=["misspelt-tol", "tol-on-boolean", "bound-without-decomposition", "number-on-boolean", "boolean-on-number"])
    def test_unknown_key_in_an_expect_entry_refused(self, text, problem, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.problems == [problem]
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and problem in captured.err

    @pytest.mark.parametrize("doc", NEARLY_NORMALIZED_DOCS.values(), ids=NEARLY_NORMALIZED_DOCS.keys())
    def test_two_copy_trace_bound_refuses_nearly_normalized_inputs(self, doc, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 2
        assert "parameters: not a valid density operator" in capsys.readouterr().err

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


def _edge_states() -> dict:
    """Three states the boundary accepts, each at one of its edges, built on the joint projectors' ranges."""
    aa = projector_range("aa")[:, 0]
    zero = np.eye(16)[0]  # |0000>, symmetric on both sides
    mixed = np.eye(16) / 16
    floor = -9.9e-10
    return {
        # weight moved from the aa state to |0000> until p_aa = -5e-10
        "negative-p_aa": mixed + (1 / 16 + 5e-10) * (np.outer(zero, zero) - np.outer(aa, aa)),
        # Hermiticity defect 9e-11 along P_ss's signs: an imaginary residue of 3.15e-10
        "imaginary-residue": mixed + 1j * (0.9e-10 / 2) * sign_pattern("ss"),
        # the 15 vectors outside aa at -9.9e-10 and the trace at 1 + 9.9e-11: p_aa = 1 + 1.5e-8
        "p_aa-above-one": floor * np.eye(16) + (1 + 9.9e-11 - 16 * floor) * np.outer(aa, aa),
    }


EDGE_STATES = _edge_states()


class TestBoundaryEdges:
    """States the boundary accepts run to a report, however close to its edges they lie."""

    def test_each_state_is_beyond_the_boundary_tolerance_where_it_stands(self):
        traces = {name: np.einsum("kij,ji->k", np.stack(list(JOINT_PROJECTORS.values())), m)
                  for name, m in EDGE_STATES.items()}
        assert abs(traces["negative-p_aa"][0].real + 5e-10) < 1e-15
        assert abs(np.abs(traces["imaginary-residue"].imag).max() - 3.15e-10) < 1e-15
        assert abs(traces["p_aa-above-one"][0].real - 1 - 1.5e-8) < 1e-10

    @pytest.mark.parametrize("name", EDGE_STATES)
    def test_accepted_edge_state_exits_zero_and_round_trips(self, name, tmp_path, capsys):
        m = EDGE_STATES[name]
        assert validate_density(m).passed
        path = tmp_path / "cfg.json"
        path.write_text(custom_document(m))
        assert main([str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out.removesuffix("\n")
        assert report_to_json(report_from_json(out)) == out


class TestComputedOnce:
    def test_state_and_distribution_once_per_scenario(self, monkeypatch, capsys):
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
        # --seed replaces the parsed config but leaves its state as it is
        calls.update(build_state=0, joint_outcome_distribution=0)
        assert main(["--seed", "7", *map(str, BUNDLED)]) == 0
        assert calls == {"build_state": len(BUNDLED), "joint_outcome_distribution": len(BUNDLED)}


def test_benchmark_traced_functions_exist():
    # the benchmark's tracer wraps these by name; a missing one breaks its traced runs
    spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, functions in tracer.LAYERS.items():
        module = importlib.import_module(f"twocopy.{layer}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"twocopy.{layer}.{function}"


def test_benchmark_oracle_inputs_build(monkeypatch):
    # the benchmark's worker builds its oracle inputs with DensityOperator(("A", "B"), m)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    import twocopy

    (item,) = worker.oracle_items(twocopy, workloads.oracle_sweep(1)[:1])
    value = worker.oracle_operation(twocopy)(item)
    assert -1e-6 <= value - twocopy.wootters_concurrence(item[0]) < 1e-3
