"""tests/fingerprint.py runs as its docstring says and prints every line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_prints_the_versions_and_one_hash_per_group():
    # the hashes depend on the BLAS kernel, so only their form is checked here
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run(
        [sys.executable, "tests/fingerprint.py"], cwd=ROOT, env=env, capture_output=True,
        text=True,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr
    numpy_line, kernel_line, *groups = result.stdout.splitlines()
    assert numpy_line == f"numpy {np.__version__}"
    assert re.fullmatch(r"openblas_kernel \S+", kernel_line)
    assert [line.split()[0] for line in groups] == [
        "radar_monte_carlo", "sweep", "random_run_filter"
    ]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{16}", line) for line in groups)
