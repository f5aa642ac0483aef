"""One benchmark process: import twocopy, run a workload's operations, report.

Started by run.py in a fresh interpreter with the workload's inputs as one
JSON object on stdin.  It prints one JSON line once twocopy is imported and
the first operation has completed.  A probe stops there.  Otherwise it runs
whole rounds back to back for the requested seconds: run.py checks the
first round's outputs, and every later output must repeat the first one
for the same input.  With tracing it splits the time between an untraced
and a traced loop.  The last line it prints holds the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

CLI_ENTRY = "import sys\nfrom twocopy.cli import main\nsys.exit(main())"
CALIBRATE_EVERY_S = 0.02


def scenario_operation(twocopy):
    def op(text):
        try:
            return ["ok", twocopy.emit_report(twocopy.run(twocopy.parse_config(text)), "json")]
        except twocopy.ConfigError as exc:
            return ["ConfigError", str(exc)]
        except Exception as exc:  # any other exception is a wrong output, reported to run.py
            return ["error", f"{type(exc).__name__}: {exc}"]

    return op


def oracle_operation(twocopy):
    def op(item):
        rho, seed = item
        return twocopy.decomposition_infimum_oracle(rho, seed=seed)

    return op


def oracle_items(twocopy, states):
    import numpy as np

    items = []
    for s in states:
        m = np.array([[complex(*z) for z in row] for row in s["rho"]])
        items.append((twocopy.DensityOperator(("A", "B"), m), s["seed"]))
    return items


def fresh_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *argv], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return [proc.returncode, proc.stdout]


def in_process_cli(argv):
    from twocopy import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def timed(op, items, seconds, kernel, expected=None, after_first_round=None):
    """Whole rounds back to back until ``seconds`` have passed.

    Without ``expected``, the first round's outputs become the expected ones,
    returned as "check", and at least two rounds run so that every output is
    seen to repeat.  After an operation, once CALIBRATE_EVERY_S have passed
    since the last calibration, the calibration ``kernel`` runs; its time is
    not counted as the operations'.  "op_mean_s" holds each operation's mean wall time,
    in round order, and "busy_s" the wall time of all operations.
    """
    busy = [0.0] * len(items)
    calibrations = []
    mismatched = rounds = 0
    min_rounds = 2 if expected is None else 1
    start = last = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        outputs = []
        for i, item in enumerate(items):
            t = perf_counter()
            outputs.append(op(item))
            done = perf_counter()
            busy[i] += done - t
            if done - last >= CALIBRATE_EVERY_S:
                calibrations.append(kernel())
                last = perf_counter()
        if expected is None:
            expected = outputs
        else:
            mismatched += sum(out != want for out, want in zip(outputs, expected))
        rounds += 1
        if rounds == 1 and after_first_round is not None:
            after_first_round()
    if not calibrations:
        calibrations.append(kernel())
    return {
        "loop_s": perf_counter() - start,
        "ops": rounds * len(items),
        "rounds": rounds,
        "mismatched": mismatched,
        "busy_s": sum(busy),
        "op_mean_s": [b / rounds for b in busy],
        "calibration_s": statistics.fmean(calibrations),
        "check": expected,
    }


def main() -> None:
    cfg = json.loads(sys.stdin.read())
    workload = cfg["workload"]
    start = perf_counter()
    import twocopy

    import_s = perf_counter() - start

    if workload == "bundled-cli":
        op, items = fresh_cli, [cfg["argv"]]
    elif workload == "oracle-sweep":
        op, items = oracle_operation(twocopy), oracle_items(twocopy, cfg["states"])
    else:
        op, items = scenario_operation(twocopy), cfg["docs"]

    first = op(items[0])
    # the CLI child's peak, read before any calibration interpreter has run
    cli_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"import_s": import_s}), flush=True)
    if cfg["probe"]:
        return

    if not cfg["trace"]:
        kernel = calibrate.interpreter if workload == "bundled-cli" else calibrate.arithmetic()
        loop = timed(op, items, cfg["seconds"], kernel)
        if workload == "bundled-cli":
            peak_kb = cli_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"loop": loop, "peak_rss_kb": peak_kb}
    else:
        from tracer import Tracer

        if workload == "bundled-cli":
            # a child process cannot be traced from here, so the traced run
            # calls the same CLI entry point in this process
            import twocopy.cli  # noqa: F401  (imported before the loops, not in the first operation)

            op = in_process_cli
        half = cfg["seconds"] / 2.0
        kernel = calibrate.arithmetic()
        loop = timed(op, items, half, kernel)
        tracer = Tracer()
        tracer.install()
        counted = {}
        traced = timed(op, items, half, kernel, loop["check"], lambda: counted.update(tracer.calls))
        result = {"base": loop, "traced": traced, "round_calls": counted, "self_s": dict(tracer.self_s)}
    result["check"] = loop.pop("check")
    result["first_repeats"] = first == result["check"][0]
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
