"""Each script in scripts/ runs with small arguments and prints its table; CLI artifacts match recorded digests."""

import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import photonflux
import photonflux.circuit as circuit_mod

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
            "float repr check: 1000 random bit patterns (seed 3) and 150500 edge values",
        ),
        (
            "artifact_digest.py",
            ["--workload", "circuit_sweep", "--seed", "3", "--ops", "2"],
            "artifact digests: circuit_sweep seed 3, ops 0..1",
        ),
        ("time_csv_block.py", ["--repeats", "1"], "csv_block ns per value, median of 1 repeats"),
        ("density_peak_memory.py", ["--n", "4096"], "density peak memory: N=4096, --time 0.25, one CPU"),
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
# printed before the circuit parse, wiring map and run loop were rewritten for speed (the circuit runs) and
# before the state reader and the subcommand imports were reorganized (the density and localized runs): a
# rewrite must leave every exit code, error line and artifact byte as it was.  The density and localized
# tables are large enough to be written by the forked CSV writer.
DIGEST_RUNS = [
    ("circuit_mesh",),
    ("circuit_sweep",),
    ("circuit_mesh", "--units", "si"),
    ("circuit_mesh", "--paper-convention"),
    ("density_cli",),
    ("density_cli", "--units", "si"),
    ("localized_cli",),
    ("localized_cli", "--units", "si"),
]
RECORDED_DIGESTS = {
    ("2.4.6", "x86_64", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): [
        "f738cbcdd262f2c170eb1c45c52f6a8f1993f3dad6e1ca09173ab4a4750ad6da",
        "c5af082f3f4f6a29e09ffbfc11ef4c644b586a6e5657b13b17e65385749de40c",
        "79337df7b4066125cb56e07c90a88b1708de761d7b87e50ccaf659dc18657bf8",
        "b1db63fdc9addf1b85f4c485ae57bbffb7c65a32593483565c0c9a4023beab38",
        "c9fd644b20371192b484f84490c19a4d79b2bef42947424dedf106f642b9aa0f",
        "2c840ef0d98693832d3abd5b9e8b1d86d38667cf0a3129884480b3c71dedf66a",
        "ad570f33f2da486f123a69e0011a3666ad669ef80c8a5dbda073cd412c7bde9d",
        "465b69e0de639bdf0dd5c61a0272fd62f917730fe22805ca27c2e551d0f33f6a",
    ],
}


def _digest_script(monkeypatch):
    """scripts/artifact_digest.py, loaded as a module of this process."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src and bench first
    spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "scripts" / "artifact_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _workload_digests(monkeypatch, capsys) -> list:
    """The "all" digest of each of DIGEST_RUNS, from artifact_digest.py run in this process."""
    script = _digest_script(monkeypatch)
    digests = []
    for workload, *flags in DIGEST_RUNS:
        monkeypatch.setattr(sys, "argv", ["artifact_digest.py", "--workload", workload, "--seed", "1", "--ops", "2",
                                          *flags])
        assert script.main() == 0
        last = capsys.readouterr().out.splitlines()[-1].split()
        assert last[0] == "all"
        digests.append(last[1])
    return digests


def test_workload_artifacts_match_the_recorded_digests(monkeypatch, capsys):
    digests = _workload_digests(monkeypatch, capsys)
    recorded = RECORDED_DIGESTS.get(_numpy_build())
    if recorded is not None:
        assert digests == recorded
        return
    # another numpy or CPU may round differently, so only repeatability can be checked here
    warnings.warn(f"no digests recorded for numpy build {_numpy_build()}: checked that two runs agree instead")
    assert _workload_digests(monkeypatch, capsys) == digests


def _neumaier_sum(values, start=0):
    """Builtin ``sum`` over floats as Python >= 3.12 computes it: Neumaier's compensated sum."""
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_circuit_artifacts_do_not_depend_on_the_python_sum(monkeypatch, capsys):
    # Python 3.10 and 3.11 sum floats left to right; a mesh op's detector total and absorbed figure
    # differ in their last bits under a compensated sum
    script = _digest_script(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["artifact_digest.py", "--workload", "circuit_mesh", "--seed", "1", "--ops", "1"])

    def digest():
        assert script.main() == 0
        return capsys.readouterr().out

    plain = digest()
    monkeypatch.setattr(circuit_mod, "sum", _neumaier_sum, raising=False)
    assert digest() == plain


def _gaussian_amplitude(n: int, dk: float, area: float, k0: float, sigma: float) -> dict:
    """An ``amplitude`` state spec built with numpy alone, so the input does not depend on photonflux."""
    k = dk * np.arange(1, n + 1)
    c = np.exp(-((k - k0) ** 2) / (4.0 * sigma**2)) * np.exp(-1j * k * np.pi / dk)
    c /= np.sqrt((np.abs(c) ** 2).sum() * dk / (2.0 * np.pi))
    return {"kind": "amplitude", "N": n, "dk": dk, "area": area, "helicity": -1,
            "re": c.real.tolist(), "im": c.imag.tolist()}


GAUSSIAN = {"kind": "gaussian", "k0": 600.0, "sigma": 20.0}
MZ_LOSSY = {
    "grid": {"N": 256, "dk": 1.0, "area": 1.0},
    "elements": [
        {"id": "bs1", "kind": "beam_splitter", "params": {"t": 2**-0.5, "r": 2**-0.5}, "in": ["src", "vac"],
         "out": ["a", "b"]},
        {"id": "ps", "kind": "phase_shifter", "params": {"phi": 0.7}, "in": ["a"], "out": ["a2"]},
        {"id": "med", "kind": "medium_segment", "params": {"chi": [1.25, 0.01], "length": 2.0}, "in": ["b"],
         "out": ["b2"]},
        {"id": "bs2", "kind": "beam_splitter", "params": {"t": 2**-0.5, "r": 2**-0.5}, "in": ["a2", "b2"],
         "out": ["d_dark", "d_bright"]},
    ],
    "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}}],
    "detectors": ["d_dark", "d_bright"],
    "vacuum": ["vac"],
}
# the JSON inputs the golden runs name as {key}
GOLDEN_INPUTS = {
    "gaussian": GAUSSIAN,
    "zero": {"kind": "zero", "helicity": -1},
    "amplitude": _gaussian_amplitude(1024, 2.0, 1.5, 600.0, 20.0),
    "mz": MZ_LOSSY,
    "bad_gaussian": {"kind": "gaussian", "k0": 600.0},
    "bad_zero": {"kind": "zero", "helicity": "+1"},
    "bad_amplitude": {**_gaussian_amplitude(64, 1.0, 1.0, 30.0, 2.0), "im": [0.0] * 63},
    # a photon number that overflows: every density, field and momentum is infinite or NaN
    "huge_amplitude": {"kind": "amplitude", "N": 64, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [1e200] * 64,
                       "im": [0.0] * 64},
    # t = 2 n_in / (n_in + n_out) underflows to 0 and sqrt(n_out / n_in) overflows: a NaN on the vacuum arm
    "nan_interface": {
        "grid": {"N": 64, "dk": 1.0, "area": 1.0},
        "elements": [
            {"id": "ps", "kind": "phase_shifter", "params": {"phi": 0.5}, "in": ["src"], "out": ["d"]},
            {"id": "if", "kind": "interface", "params": {"n_in": 1e-300, "n_out": 1e300}, "in": ["vac"],
             "out": ["t", "r"]},
        ],
        "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 30.0, "sigma": 2.0}}],
        "detectors": ["d", "t", "r"],
        "vacuum": ["vac"],
    },
    # a photon number of 3.18e-321 whose density products all underflow to zero
    "underflow": {"kind": "amplitude", "N": 2, "dk": 1e-300, "area": 1.0, "helicity": 1, "re": [1e-10, 1e-10],
                  "im": [0.0, 0.0]},
}
# (case, exit code, argv after --out): runs of the subcommands and inputs the workloads do not draw
GOLDEN_RUNS = [
    ("fresnel-lossless", 0, ["fresnel", "--n1", "1", "--n2", "1.5"]),
    ("fresnel-lossless-paper", 0, ["fresnel", "--n1", "1", "--n2", "1.5", "--paper-convention"]),
    ("fresnel-lossy", 0, ["fresnel", "--n1", "1", "--n2", "1.5,0.2"]),
    ("fresnel-lossy-paper", 0, ["fresnel", "--n1", "1", "--n2", "1.5,0.2", "--paper-convention"]),
    ("momentum-real-chi", 0, ["momentum", "--state", "{gaussian}", "--chi", "1.25"]),
    ("momentum-complex-chi", 0, ["--units", "si", "momentum", "--state", "{gaussian}", "--chi", "1.25,0.05"]),
    ("density-zero", 0, ["--grid", "1024,1.0,1.0", "density", "--state", "{zero}"]),
    ("density-amplitude", 0, ["density", "--state", "{amplitude}", "--time", "0.5"]),
    ("circuit-samples-seed-1", 0, ["--seed", "1", "circuit", "--netlist", "{mz}", "--samples", "1000"]),
    ("circuit-samples-seed-2", 0, ["--seed", "2", "circuit", "--netlist", "{mz}", "--samples", "1000"]),
    ("malformed-gaussian", 2, ["density", "--state", "{bad_gaussian}"]),
    ("malformed-zero", 2, ["density", "--state", "{bad_zero}"]),
    ("malformed-amplitude", 2, ["density", "--state", "{bad_amplitude}"]),
    ("density-non-finite", 3, ["density", "--state", "{huge_amplitude}"]),
    ("circuit-nan-interface", 3, ["circuit", "--netlist", "{nan_interface}"]),
    ("density-time-negative-zero", 0, ["density", "--state", "{gaussian}", "--time", "-0.0"]),
    ("density-amplitude-si", 0, ["--units", "si", "density", "--state", "{amplitude}", "--time", "0.5"]),
    ("density-underflow", 2, ["density", "--state", "{underflow}"]),
    ("momentum-non-finite", 3, ["momentum", "--state", "{huge_amplitude}", "--chi", "1.25"]),
    ("fresnel-non-finite", 3, ["fresnel", "--n1", "1e-320", "--n2", "1"]),
]
# each case's sha256 by artifact_digest.op_digest's rule (exit code, stderr, then every artifact's path and
# bytes), as printed before the state reader and the subcommand imports were reorganized; the two non-finite
# cases, recorded when every subcommand came to write through one checked path, pin an exit 3 with no artifact;
# the two density runs after them were recorded before the synthesis factors were cached, and the underflow
# case, which exited 3 with all three artifacts until then, pins an exit 2 with none; the circuit case and the
# last two, recorded when one rule came to name every non-finite result, pin that rule's line for circuit,
# momentum and fresnel
RECORDED_GOLDEN = {
    ("2.4.6", "x86_64", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): {
        "fresnel-lossless": "3be654724b111e0422df38b5bbe5b73109ffe0a9a063f599bad3c6936a21e03e",
        "fresnel-lossless-paper": "eb0fb56077b73d13d18d97677ce0b1f6f1320339ef99038d0fa55c5502d924ca",
        "fresnel-lossy": "1a8c5324f15b5f59e6d1ab1dd1a463d5d4b705c4fe2e54f72667a07fb07cf0ff",
        "fresnel-lossy-paper": "6a148b65e53e3b80c4777836631e7a3253695bf4957205c9843a1a51b8481a7e",
        "momentum-real-chi": "092f9156138dc852aa3f1e40fd378a26288400a7768493dd6a39779ab7c57e77",
        "momentum-complex-chi": "5c18387595967e87412fb9b7f0f7887266347fd904594721f0e81ad6b5726d1d",
        "density-zero": "ed43f02809ad2a8e6085faa1c786a4eb0d39361fcf17b70295d4b958a9397775",
        "density-amplitude": "54c1253d837c0721f5f014603dfaa8fb97b941421d16f3fd3802362bde7e6984",
        "circuit-samples-seed-1": "620ccb23afa1f6b3276aa260eb37ae99b0a26c036c204fe55024501cbbada78c",
        "circuit-samples-seed-2": "51b4806d2b3b051d537267eda6753eb5851470c481b025f47a82d5416960f0de",
        "malformed-gaussian": "12e1338698f90cd244c3500d5002d81cc7efff8abb9ac4c9b8ec51b5ce312441",
        "malformed-zero": "cc0a99faf3037cf8346a6f8dcf8cfb8aee031b49f90dc84796b541513b318993",
        "malformed-amplitude": "ad7e0211ed15b20c04c0ccef24916e1eb7bf545f38895d9866a1e6a336b5f9c1",
        "density-non-finite": "0ee61dd96aba9fbef82ec61d32cdb784f720fec8aa5253e6a9615f2f1fc23208",
        "circuit-nan-interface": "fe718d9510943914a48c728d2110fcc96211209dd2599c02a4c4152dc54add20",
        "density-time-negative-zero": "9cfde072edf068114b68e1e58f479b1a4334fae9934afe6b16105e22ba8b0f20",
        "density-amplitude-si": "8159621c5f4221aa14a90d914c7bb3e14feda811f43177226f879d9470f2d069",
        "density-underflow": "2d45a2deaca92cbcb63b6a6d06557951a1f5c54ae339f2a5664d1183f3220e08",
        "momentum-non-finite": "8e9cd0de79730bc45c3174c3fc2f545cde482a0e06157535400deddaf9f8abec",
        "fresnel-non-finite": "8406bdd060c85dbec57aab01c4e348ddbcdf9fc7aa5bf3d3c058aa3de42b8f38",
    },
}


class _Run:
    """One CLI call, in the shape ``op_digest`` runs: ``argvs(out)`` lists its argvs."""

    def __init__(self, argv):
        self.argv = argv

    def argvs(self, out: Path) -> list:
        return [["--out", str(out), *self.argv]]


def _golden_digests(script, inputs: dict, work: Path) -> dict:
    """case -> (exit code, digest) for each of GOLDEN_RUNS, each run into a fresh directory under ``work``."""
    digests = {}
    for case, _, argv in GOLDEN_RUNS:
        out = work / case
        out.mkdir(parents=True)
        (code,), digest = script.op_digest(_Run([a.format(**inputs) for a in argv]), out, None, False)
        digests[case] = code, digest
    return digests


def test_subcommand_artifacts_match_the_recorded_digests(monkeypatch, tmp_path):
    script = _digest_script(monkeypatch)
    inputs = {}
    for key, obj in GOLDEN_INPUTS.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(obj))
        inputs[key] = str(path)
    runs = _golden_digests(script, inputs, tmp_path / "first")
    assert {case: code for case, (code, _) in runs.items()} == {case: code for case, code, _ in GOLDEN_RUNS}
    digests = {case: digest for case, (_, digest) in runs.items()}
    recorded = RECORDED_GOLDEN.get(_numpy_build())
    if recorded is not None:
        assert digests == recorded
        return
    # another numpy or CPU may round differently, so only repeatability can be checked here
    warnings.warn(f"no digests recorded for numpy build {_numpy_build()}: checked that two runs agree instead")
    assert _golden_digests(script, inputs, tmp_path / "second") == runs
