"""The line of scripts/margins.py on one seed: every tolerance is named and every margin is positive."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "margins.py"
QUANTITIES = {
    "hermiticity_defect": "ATOL",
    "trace_defect": "ATOL",
    "min_eigenvalue": "EIGENVALUE_FLOOR",
    "imag_residue": "IMAG_ATOL",
    "clamp": "PROBABILITY_ATOL",
    "p_a_off_quarter": "VALIDITY_TOL",
}


def test_seed_1_stays_inside_every_tolerance():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "1"], capture_output=True, text=True, check=True)
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"seeds", "documents", "documents_near_quarter", *QUANTITIES}
    # scenario_stream's 23 documents, user_matrices' 38 valid ones and the 9 bundled ones
    assert out["seeds"] == [1, 1] and out["documents"] == 70
    # the Bell copies and the Werner twins sit at p_a = 1/4
    assert out["documents_near_quarter"] > 0
    for name, tolerance in QUANTITIES.items():
        entry = out[name]
        assert set(entry) == {"tolerance", "bound", "approach", "margin"}
        assert entry["tolerance"] == tolerance
        assert entry["margin"] > 0, name
