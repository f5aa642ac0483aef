"""How close the benchmark's documents come to each tolerance of the package.

    python scripts/margins.py [--seeds 1-10]

Takes every document of bench/workloads.py's scenario_stream(seed) and
user_matrices(seed), for each seed of the inclusive range (1-10 by
default), and the bundled scenarios/*.json of this checkout, and keeps the
ones that parse_config accepts.  For each accepted state it computes, from
public names only, the quantities each tolerance bounds:

* ``hermiticity_defect`` and ``trace_defect`` of validate_density, against
  ``ATOL``;
* ``min_eigenvalue`` of validate_density, against ``EIGENVALUE_FLOOR``;
* ``imag_residue``, the largest imaginary part of the four joint traces
  tr(P rho) over JOINT_PROJECTORS in OUTCOMES order, against ``IMAG_ATOL``;
* ``clamp``, how far the largest real part of a joint trace lies outside
  [0, 1], against ``PROBABILITY_ATOL``;
* ``p_a_off_quarter``, |p_a - 1/4| for Alice's p_a = p_aa + p_as, against
  ``VALIDITY_TOL``.  A state meant to sit at 1/4, as Bell copies and the
  Werner twins do, reads within rounding of it, and any other lies far
  from it; so the approach is taken over the documents within
  ``NEAR_QUARTER`` of 1/4, and their number is given.

Prints one JSON line: the seeds, the documents accepted, and for each
quantity its tolerance's name and value, the closest approach over the
documents (the largest value, the least for ``min_eigenvalue``) and the
margin, the distance from the approach to the tolerance, positive when
every document lies inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from bench_pairs import seed_range  # noqa: E402
from twocopy import validate_density  # noqa: E402
from twocopy.linalg import ATOL, EIGENVALUE_FLOOR, IMAG_ATOL, PROBABILITY_ATOL  # noqa: E402
from twocopy.protocol import VALIDITY_TOL  # noqa: E402
from twocopy.scenarios import ConfigError, parse_config  # noqa: E402
from twocopy.states import JOINT_PROJECTORS, OUTCOMES  # noqa: E402

PROJECTORS = np.stack([JOINT_PROJECTORS[outcome] for outcome in OUTCOMES])
NEAR_QUARTER = 1e-6


def documents(seeds: list[int]) -> list[str]:
    """Every document's text: the workloads' for each seed, then the bundled ones."""
    texts = []
    for seed in seeds:
        texts += workloads.scenario_stream(seed) + workloads.user_matrices(seed)[0]
    return texts + [path.read_text() for path in sorted((ROOT / "scenarios").glob("*.json"))]


def quantities(rho: np.ndarray) -> dict[str, float]:
    """The quantities each tolerance bounds, on one accepted state's entries."""
    report = validate_density(rho)
    tr = (PROJECTORS @ rho).trace(axis1=1, axis2=2)
    p = tr.real
    return {
        "hermiticity_defect": report.hermiticity_defect,
        "trace_defect": report.trace_defect,
        "min_eigenvalue": report.min_eigenvalue,
        "imag_residue": float(np.abs(tr.imag).max()),
        "clamp": float(max(0.0, -p.min(), p.max() - 1.0)),
        "p_a_off_quarter": abs(float(p[0] + p[1]) - 0.25),
    }


# each quantity's tolerance, and whether it bounds the quantity from above
TOLERANCES = {
    "hermiticity_defect": ("ATOL", ATOL, True),
    "trace_defect": ("ATOL", ATOL, True),
    "min_eigenvalue": ("EIGENVALUE_FLOOR", EIGENVALUE_FLOOR, False),
    "imag_residue": ("IMAG_ATOL", IMAG_ATOL, True),
    "clamp": ("PROBABILITY_ATOL", PROBABILITY_ATOL, True),
    "p_a_off_quarter": ("VALIDITY_TOL", VALIDITY_TOL, True),
}


def margins(seeds: list[int]) -> dict:
    """The printed line: per quantity, its tolerance, the closest approach and the margin."""
    rows = []
    for text in documents(seeds):
        try:
            config = parse_config(text)
        except ConfigError:
            continue
        rows.append(quantities(config.state.entries))
    out = {"seeds": [seeds[0], seeds[-1]], "documents": len(rows)}
    for name, (tolerance, bound, upper) in TOLERANCES.items():
        values = [row[name] for row in rows]
        if name == "p_a_off_quarter":
            values = [v for v in values if v <= NEAR_QUARTER]
            out["documents_near_quarter"] = len(values)
        approach = max(values, default=0.0) if upper else min(values)
        out[name] = {"tolerance": tolerance, "bound": bound, "approach": approach,
                     "margin": bound - approach if upper else approach - bound}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="one workload seed K, or an inclusive range A-B (default 1-10)")
    print(json.dumps(margins(parser.parse_args().seeds)))


if __name__ == "__main__":
    main()
