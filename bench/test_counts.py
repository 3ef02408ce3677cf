"""The traced pass's counts repeat exactly at a fixed seed.

Runs `bench/run.py --trace 1` twice per workload, with different time
budgets for the untraced comparison, and requires every count and every
ratio of counts to be identical.  Run from the root of a checkout:

    python3 -m pytest bench/test_counts.py

It takes about three minutes on a 2-core machine.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 7


def traced(workload, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", ["planar_closed", "space_identity",
                                      "space_variation", "cli_cold"])
def test_counts_repeat(workload):
    first = traced(workload, 0)
    second = traced(workload, 1)
    assert "fail_frac" in first and "cayley_menger.tables_built" in first
    assert first == second
