"""Smoke tests: each script in scripts/ runs with small arguments and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonflux

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(photonflux.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("conservation_audit.py", ["--n", "256", "--levels", "2"], "grid N=256 dk=1.0 dx=2.454e-02"),
        ("localization_scan.py", ["--doublings", "0"], "1D localized density, window +/- 50/k_max"),
        (
            "mzi_fringe.py",
            ["--points", "3", "--samples", "100"],
            "     phi       bright         dark        cos^2  bright counts",
        ),
        (
            "check_float_repr.py",
            ["--count", "1000", "--seed", "3"],
            "float repr check: 1000 random bit patterns (seed 3) and 105700 edge values",
        ),
        (
            "artifact_digest.py",
            ["--workload", "circuit_sweep", "--seed", "3", "--ops", "2"],
            "artifact digests: circuit_sweep seed 3, ops 0..1",
        ),
    ],
)
def test_script_runs_and_prints_header(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
