"""Self-checking benchmark of twocopy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Workloads are
bundled-cli, scenario-stream, user-matrices and oracle-sweep (see README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.

The work happens in fresh worker processes (worker.py), one client doing
one operation at a time.  This process makes the inputs from the seed,
computes reference values with reference.py, which shares no code with
twocopy, and checks the workers' outputs against them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate
import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0
SETUP_PROBES_EACH_SIDE = 3

PROBABILITY_TOL = 1e-12  # what the bundled scenarios assert on probabilities
TRUTH_TOL = 1e-10  # what the bundled scenarios assert on the closed-form concurrence
VALIDITY_TOL = 1e-9  # p_a <= 1/4 + this counts as a valid estimate
SHOT_SIGMAS = 5.0
# the oracle only evaluates genuine decompositions, so it sits above the
# convex roof: at most this far below it (rounding) ...
ORACLE_BELOW = 1e-6
# ... and at most this far above it (search not converged)
ORACLE_ABOVE = 1e-3

# spans whose calls are reported, per operation and per run
COUNTED = (
    "scenarios.build_state",
    "states.construct",
    "linalg.validate_density",
    "linalg.expectation_value",
    "protocol.joint_outcome_distribution",
    "measures.wootters_concurrence",
    "measures.decomposition_infimum_oracle",
)
# spans whose self time per operation is reported; callers of other traced
# functions get "_self_ms" to make plain that nested calls are excluded
TIMED = (
    "cli.main",
    "scenarios.parse_config",
    "scenarios.build_state",
    "scenarios.run",
    "scenarios.emit_report",
    "states.construct",
    "protocol.joint_outcome_distribution",
    "protocol.sample_outcomes",
    "protocol.evaluate_scenario",
    "measures.wootters_concurrence",
    "measures.ensemble_upper_bound_entanglement",
    "measures.decomposition_infimum_oracle",
    "linalg.validate_density",
    "linalg.expectation_value",
    "linalg.partial_trace",
    "linalg.tensor_product",
    "linalg.permute_subsystems",
)
PARENT_SPANS = ("scenarios.run", "protocol.evaluate_scenario")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def require_program() -> None:
    if not (ROOT / "src" / "twocopy" / "__init__.py").is_file():
        sys.exit(f"run.py: no twocopy package under {ROOT / 'src'}; run from a checkout of the repository")
    if not list((ROOT / "scenarios").glob("*.json")):
        sys.exit(f"run.py: no bundled scenarios under {ROOT / 'scenarios'}")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, payload: dict, deadline: float):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=worker_env(),
            # its own process group, so that killing it also ends a CLI child
            start_new_session=True,
        )
        self.timer = threading.Timer(max(deadline - perf_counter(), 0.0), self.kill)
        self.timer.start()
        self.proc.stdin.write(json.dumps(payload))
        self.proc.stdin.close()
        ready = self.proc.stdout.readline()
        # interpreter start, import and first operation, as seen from outside
        self.setup_s = perf_counter() - start
        self.ready = json.loads(ready) if ready else None

    def finish(self) -> dict | None:
        try:
            lines = self.proc.stdout.read().splitlines()
        finally:
            self.close()
        return json.loads(lines[-1]) if lines and self.proc.returncode == 0 else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)

    def close(self) -> None:
        self.timer.cancel()
        self.kill()
        self.proc.stdout.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_report(twocopy, doc: dict, text: str, ref: dict, seed: int) -> tuple[list[str], bool]:
    """Problems with one JSON report, and whether the closed-form truth missed its reference."""
    problems = []
    if twocopy.report_to_json(twocopy.report_from_json(text)) != text:
        problems.append("report does not round-trip through report_from_json")
    rep = json.loads(text)
    verdict, joint = rep["verdict"], rep["joint_distribution"]
    got = {**verdict, **joint}
    for key in ("p_a_alice", "p_a_bob", "p_aa", "p_as", "p_sa", "p_ss"):
        if not abs(got[key] - ref[key]) <= PROBABILITY_TOL:
            problems.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
    if not abs(verdict["disagreement_prob"] - ref["p_as"] - ref["p_sa"]) <= PROBABILITY_TOL:
        problems.append(f"disagreement_prob {verdict['disagreement_prob']!r} != p_as + p_sa")
    p_a = verdict["p_a_alice"]
    if not abs(verdict["naive_concurrence"] - 2.0 * math.sqrt(p_a)) <= PROBABILITY_TOL:
        problems.append(f"naive_concurrence {verdict['naive_concurrence']!r} != 2 sqrt(p_a_alice)")
    if verdict["estimator_valid"] is not (p_a <= 0.25 + VALIDITY_TOL):
        problems.append(f"estimator_valid {verdict['estimator_valid']!r} for p_a_alice {p_a!r}")
    bound = verdict["truth_decomposition_bound"]
    if doc["scenario"] == "phase-averaged":
        if not abs(p_a - 0.25) <= PROBABILITY_TOL:
            problems.append(f"phase-averaged p_a_alice {p_a!r} != 1/4")
        if bound is None or not abs(bound - 0.5) <= TRUTH_TOL:
            problems.append(f"phase-averaged decomposition bound {bound!r} != 0.5")
    elif bound is not None:
        problems.append(f"unexpected decomposition bound {bound!r}")
    config = rep["config"]
    if config["scenario"] != doc["scenario"] or config["parameters"] != doc.get("parameters", {}):
        problems.append("config echo differs from the document")
    shots, record = doc.get("shots"), rep["shot_record"]
    if shots is None:
        if record is not None:
            problems.append("shot record without shots")
    elif record is None or record["shots"] != shots or record["seed"] != seed:
        problems.append(f"shot record {record!r} does not echo shots {shots} and seed {seed}")
    else:
        counts = record["counts"]
        if sum(counts.values()) != shots:
            problems.append(f"counts {counts} do not sum to {shots}")
        for outcome, count in counts.items():
            p = ref["p_" + outcome]
            sigma = math.sqrt(max(p * (1.0 - p), 0.0) / shots)
            # five counts of slack keep the test fair for outcomes rarer than 1/shots
            if abs(count / shots - p) > SHOT_SIGMAS * sigma + 5.0 / shots:
                problems.append(f"count {outcome}={count} of {shots} is beyond 5 sigma of p={p!r}")
    truth = verdict["truth_single_copy_concurrence"]
    fault = not abs(truth - ref["truth_single_copy_concurrence"]) <= TRUTH_TOL
    return problems, fault


def check_scenarios(twocopy, docs: list[str], outputs: list, malformed: list[bool]) -> tuple[list[str], int]:
    problems, faults = [], 0
    for i, (text, out, bad) in enumerate(zip(docs, outputs, malformed)):
        doc = json.loads(text)
        if bad:
            if out[0] != "ConfigError":
                problems.append(f"doc {i}: malformed document gave {out[0]}, not ConfigError")
            continue
        if out[0] != "ok":
            problems.append(f"doc {i}: {out[0]}: {out[1][:200]}")
            continue
        found, fault = check_report(twocopy, doc, out[1], reference.expected(doc), doc.get("seed", 0))
        problems += [f"doc {i} ({doc['scenario']}): {p}" for p in found]
        faults += fault
    return problems, faults


def check_cli(twocopy, inputs: dict, out: list) -> tuple[list[str], int]:
    code, stdout = out
    if code != 0:
        return [f"CLI exited with {code}"], 0
    reports = stdout.rstrip("\n").split("\n\n")
    if len(reports) != len(inputs["files"]):
        return [f"CLI printed {len(reports)} reports for {len(inputs['files'])} files"], 0
    problems, faults = [], 0
    for path, text in zip(inputs["files"], reports):
        doc = json.loads((ROOT / path).read_text())
        found, fault = check_report(twocopy, doc, text, reference.expected(doc), inputs["sampling_seed"])
        problems += [f"{path}: {p}" for p in found]
        faults += fault
    return problems, faults


def check_oracle(states: list[dict], values: list) -> list[str]:
    problems = []
    for i, (s, value) in enumerate(zip(states, values)):
        truth = reference.wootters(reference.matrix(s["rho"]))
        if not truth - ORACLE_BELOW <= value <= truth + ORACLE_ABOVE:
            problems.append(f"state {i} (rank {s['rank']}): oracle {value!r}, closed form {truth!r}")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, setup: list[float], interpreter: list[float], result: dict) -> dict:
    """Timings at the reference speed of calibrate.py; memory as measured."""
    loop = result["loop"]
    reference_s = calibrate.INTERPRETER_REFERENCE_S if workload == "bundled-cli" else calibrate.ARITHMETIC_REFERENCE_S
    slowdown = loop["calibration_s"] / reference_s
    setup_slowdown = statistics.median(interpreter) / calibrate.INTERPRETER_REFERENCE_S
    wall_setup_s = statistics.median(setup)
    wall_ops_per_s = loop["ops"] / loop["busy_s"]
    wall_op_s = statistics.median(loop["op_mean_s"])
    print(f"run.py: slowdown {slowdown:.3f} in the loop and {setup_slowdown:.3f} at set-up; wall time: "
          f"{wall_ops_per_s:.4g} ops/s, median operation {wall_op_s * 1e3:.4g} ms, set-up {wall_setup_s:.4g} s",
          file=sys.stderr)
    return {
        "setup_s": (wall_setup_s / setup_slowdown, "s"),
        "ops_per_s": (wall_ops_per_s * slowdown, "1/s"),
        "op_ms_p50": (wall_op_s / slowdown * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(imports: list[float], result: dict, round_ops: int) -> dict:
    base, traced = result["base"], result["traced"]
    base_rate = base["ops"] / base["busy_s"]
    traced_rate = traced["ops"] / traced["busy_s"]
    metrics = {
        "import.twocopy_s": (statistics.median(imports), "s"),
        "trace.untraced_ops_per_s": (base_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (base_rate - traced_rate) / base_rate, "%"),
    }
    for span in COUNTED:
        calls = result["round_calls"].get(span, 0)
        metrics[f"{span}_calls"] = (calls, "count")
        metrics[f"{span}_calls_per_op"] = (calls / round_ops, "count")
    for span in TIMED:
        name = f"{span}_self_ms" if span in PARENT_SPANS else f"{span}_ms"
        metrics[name] = (result["self_s"].get(span, 0.0) * 1e3 / traced["ops"], "ms")
    return metrics


def main() -> None:
    args = parse_args()
    require_program()
    deadline = perf_counter() + DEADLINE_S
    payload = {"workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace)}
    if args.workload == "bundled-cli":
        inputs = workloads.bundled_cli(args.seed, ROOT)
        payload["argv"] = ["--format", "json", "--seed", str(inputs["sampling_seed"]), *inputs["files"]]
    elif args.workload == "oracle-sweep":
        payload["states"] = workloads.oracle_sweep(args.seed)
    elif args.workload == "user-matrices":
        payload["docs"], malformed = workloads.user_matrices(args.seed)
    else:
        payload["docs"] = workloads.scenario_stream(args.seed)
        malformed = [False] * len(payload["docs"])

    setup, imports, interpreter = [], [], []

    def sample(worker: Worker) -> None:
        if worker.ready is None:
            sys.exit("run.py: a worker failed before its first operation completed")
        setup.append(worker.setup_s)
        imports.append(worker.ready["import_s"])

    def probes(count: int) -> None:
        for _ in range(count):
            interpreter.append(calibrate.interpreter(worker_env()))
            probe = Worker({**payload, "probe": True}, deadline)
            probe.close()
            sample(probe)

    # set-up is sampled before and after the timed worker, so that a slow
    # spell of the machine at the start of a run does not set the median;
    # each sample follows a calibration interpreter (see calibrate.py)
    probes(SETUP_PROBES_EACH_SIDE)
    interpreter.append(calibrate.interpreter(worker_env()))
    worker = Worker({**payload, "probe": False}, deadline)
    result = worker.finish()
    sample(worker)
    if result is None:
        sys.exit("run.py: the worker failed")
    probes(SETUP_PROBES_EACH_SIDE)

    sys.path.insert(0, str(ROOT / "src"))
    import twocopy

    check = result["check"]
    if args.workload == "bundled-cli":
        problems, faults = check_cli(twocopy, inputs, check[0])
    elif args.workload == "oracle-sweep":
        problems, faults = check_oracle(payload["states"], check), 0
    else:
        problems, faults = check_scenarios(twocopy, payload["docs"], check, malformed)

    loops = [result[k] for k in ("loop", "base", "traced") if k in result]
    rounds = sum(loop["rounds"] for loop in loops)
    mismatched = sum(loop["mismatched"] for loop in loops) + (not result["first_repeats"])
    if mismatched:
        problems.append(f"{mismatched} repeated operations gave another output than the first time")
    for p in problems[:20]:
        print(f"run.py: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(imports, result, len(check))
    else:
        metrics = end_to_end(args.workload, setup, interpreter, result)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(check),
        "failed": rounds * faults,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
