"""Each script in scripts/ runs with small arguments and prints its table; circuit artifacts match recorded digests."""

import importlib.util
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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


def _numpy_build():
    """What can move a float's last bit between hosts: numpy's version, the machine and the SIMD kernels dispatched."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        dispatched = None
    else:
        dispatched = tuple(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return np.__version__, platform.machine(), dispatched


# The combined ("all") line of scripts/artifact_digest.py at seed 1, ops 0..1, for each run below, as
# printed before the circuit parse, wiring map and run loop were rewritten for speed: the rewrite must
# leave every exit code, error line and artifact byte as it was.
DIGEST_RUNS = [
    ("circuit_mesh",),
    ("circuit_sweep",),
    ("circuit_mesh", "--units", "si"),
    ("circuit_mesh", "--paper-convention"),
]
RECORDED_DIGESTS = {
    ("2.4.6", "x86_64", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): [
        "f738cbcdd262f2c170eb1c45c52f6a8f1993f3dad6e1ca09173ab4a4750ad6da",
        "c5af082f3f4f6a29e09ffbfc11ef4c644b586a6e5657b13b17e65385749de40c",
        "79337df7b4066125cb56e07c90a88b1708de761d7b87e50ccaf659dc18657bf8",
        "b1db63fdc9addf1b85f4c485ae57bbffb7c65a32593483565c0c9a4023beab38",
    ],
}


def _circuit_digests(monkeypatch, capsys) -> list:
    """The "all" digest of each of DIGEST_RUNS, from artifact_digest.py run in this process."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src and bench first
    spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "scripts" / "artifact_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    digests = []
    for workload, *flags in DIGEST_RUNS:
        monkeypatch.setattr(sys, "argv", ["artifact_digest.py", "--workload", workload, "--seed", "1", "--ops", "2",
                                          *flags])
        assert script.main() == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert last[0] == "all"
        digests.append(last[1])
    return digests


def test_circuit_artifacts_match_the_recorded_digests(monkeypatch, capsys):
    digests = _circuit_digests(monkeypatch, capsys)
    recorded = RECORDED_DIGESTS.get(_numpy_build())
    if recorded is not None:
        assert digests == recorded
        return
    # another numpy or CPU may round differently, so only repeatability can be checked here
    warnings.warn(f"no digests recorded for numpy build {_numpy_build()}: checked that two runs agree instead")
    assert _circuit_digests(monkeypatch, capsys) == digests
