"""scripts/oracle_gaps.py reports the decomposition oracle's own result, not the best of its starts searched alone."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import twocopy
from twocopy import decomposition_infimum_oracle, wootters_concurrence
from twocopy.measures import STARTS

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scripts():
    """``scripts/oracle_gaps.py``, ``bench/worker.py`` and ``bench/workloads.py``; the script imports ``bench_pairs``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO_ROOT / "scripts"))
        spec = importlib.util.spec_from_file_location("oracle_gaps", REPO_ROOT / "scripts" / "oracle_gaps.py")
        oracle_gaps = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle_gaps)
        mp.syspath_prepend(str(REPO_ROOT / "bench"))
        yield oracle_gaps, importlib.import_module("worker"), importlib.import_module("workloads")


# oracle-sweep states as (benchmark seed, index): seed 27 state 21 is rank 2;
# seed 14 state 27 is rank 4, where the oracle ends furthest above the closed
# form on seeds 1-30 and the best start searched alone ends lower
@pytest.mark.parametrize("sweep_seed, index, rank", [(27, 21, 2), (14, 27, 4)])
def test_the_gap_is_the_oracles_own(scripts, sweep_seed, index, rank):
    oracle_gaps, worker, workloads = scripts
    state = workloads.oracle_sweep(sweep_seed)[index]
    assert state["rank"] == rank
    ((rho, seed),) = worker.oracle_items(twocopy, [state])
    gap, starts = oracle_gaps.gaps(rho, seed)
    assert gap == decomposition_infimum_oracle(rho, seed) - wootters_concurrence(rho)
    assert len(starts) == STARTS
