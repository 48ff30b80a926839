import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import photonflux
import photonflux.cli as cli_mod
from photonflux.cli import main

GAUSSIAN_SPEC = {"kind": "gaussian", "k0": 600.0, "sigma": 20.0, "helicity": 1}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main(["--out", str(out), *args]), out


def test_density_gaussian_summary(tmp_path):
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "density", "--state", spec, "--time", "0.0")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["photon_number"] - 1.0) <= 1e-8
    assert abs(summary["density_integral"] - 1.0) <= 1e-8
    assert summary["continuity_residual"] <= 1e-6
    assert (out / "density.csv").exists()
    assert (out / "fields.csv").exists()
    header = (out / "fields.csv").read_text().splitlines()[0]
    assert header == "x,re(A+),im(A+),re(E+),im(E+)"


def test_density_zero_state(tmp_path):
    spec = write_json(tmp_path / "state.json", {"kind": "zero"})
    code, out = run(tmp_path, "density", "--state", spec)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["photon_number"] == 0.0
    rows = (out / "density.csv").read_text().splitlines()[2:]
    assert all(row.split(",")[1] == "0.0" for row in rows)


def test_density_malformed_spec_exits_2(tmp_path):
    bad = tmp_path / "state.json"
    bad.write_text("{not json")
    code, _ = run(tmp_path, "density", "--state", str(bad))
    assert code == 2


def test_density_missing_file_exits_2(tmp_path):
    code, _ = run(tmp_path, "density", "--state", str(tmp_path / "absent.json"))
    assert code == 2


def test_density_is_byte_deterministic(tmp_path):
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code1, out = run(tmp_path, "density", "--state", spec)
    first = (out / "summary.json").read_bytes(), (out / "density.csv").read_bytes()
    code2, out = run(tmp_path, "density", "--state", spec)
    second = (out / "summary.json").read_bytes(), (out / "density.csv").read_bytes()
    assert code1 == code2 == 0
    assert first == second


def test_localized_1d_summary(tmp_path):
    code, out = run(
        tmp_path, "localized", "--dim", "1", "--k-max", "1.0", "--points", "200001"
    )
    assert code == 0
    summary = json.loads((out / "localized_summary.json").read_text())
    assert summary["tail_mass_physical"] < 0.02
    assert summary["tail_mass_positive_frequency"] > 0.10
    first_row = (out / "localized.csv").read_text().splitlines()[2].split(",")
    assert len(first_row) == 4


def test_localized_3d_summary(tmp_path):
    code, out = run(
        tmp_path,
        "localized",
        "--dim", "3",
        "--k-max", "1.0",
        "--delta-t", "50.0",
        "--points", "4001",
    )
    assert code == 0
    summary = json.loads((out / "localized_summary.json").read_text())
    assert summary["shell_mass_fraction"] >= 0.90


def test_localized_bad_dim_exits_2(tmp_path):
    code, _ = run(tmp_path, "localized", "--dim", "2", "--k-max", "1.0")
    assert code == 2


def mz_netlist(phi):
    return {
        "grid": {"N": 256, "dk": 1.0, "area": 1.0},
        "elements": [
            {
                "id": "bs1",
                "kind": "beam_splitter",
                "params": {"t": 2**-0.5, "r": 2**-0.5},
                "in": ["src", "vac"],
                "out": ["a", "b"],
            },
            {"id": "ps", "kind": "phase_shifter", "params": {"phi": phi}, "in": ["a"], "out": ["a2"]},
            {
                "id": "bs2",
                "kind": "beam_splitter",
                "params": {"t": 2**-0.5, "r": 2**-0.5},
                "in": ["a2", "b"],
                "out": ["d_dark", "d_bright"]
            },
        ],
        "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}}],
        "detectors": ["d_dark", "d_bright"],
        "vacuum": ["vac"],
    }


def test_circuit_mach_zehnder_dark_fringe(tmp_path):
    netlist = write_json(tmp_path / "mz.json", mz_netlist(np.pi))
    code, out = run(tmp_path, "circuit", "--netlist", netlist, "--samples", "1000")
    assert code == 0
    result = json.loads((out / "circuit_result.json").read_text())
    assert abs(result["detectors"]["d_bright"]["probability"]) <= 1e-12
    assert abs(result["conservation_sum"] - 1.0) <= 1e-9
    assert result["samples"]["d_dark"] == 1000


def test_circuit_invalid_netlist_exits_2(tmp_path, capsys):
    obj = mz_netlist(0.3)
    obj["elements"][0]["in"] = ["src"]  # unwired splitter arm
    netlist = write_json(tmp_path / "bad.json", obj)
    code, _ = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 2
    assert "violation" in capsys.readouterr().err


def test_circuit_negative_samples_exits_2(tmp_path, capsys):
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.3))
    code, out = run(tmp_path, "circuit", "--netlist", netlist, "--samples", "-5")
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not (out / "circuit_result.json").exists()


def test_circuit_paper_convention_reports_defect(tmp_path):
    obj = {
        "grid": {"N": 256, "dk": 1.0, "area": 1.0},
        "elements": [
            {
                "id": "if",
                "kind": "interface",
                "params": {"n_in": 1.0, "n_out": 2.25},
                "in": ["src"],
                "out": ["t", "r"],
            }
        ],
        "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}}],
        "detectors": ["t", "r"],
    }
    netlist = write_json(tmp_path / "iface.json", obj)
    code, out = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 0
    result = json.loads((out / "circuit_result.json").read_text())
    assert abs(result["conservation_defect"]) <= 1e-9

    code, out = run(tmp_path, "circuit", "--netlist", netlist, "--paper-convention")
    assert code == 0
    result = json.loads((out / "circuit_result.json").read_text())
    assert result["convention"] == "paper"
    assert result["conservation_defect"] > 0.9  # 4n(n-1)/(n+1) at n=2.25


def test_circuit_lossy_line_ledger(tmp_path):
    obj = {
        "grid": {"N": 256, "dk": 1.0, "area": 1.0},
        "elements": [
            {
                "id": "line",
                "kind": "medium_segment",
                "params": {"chi": [0.2, 0.01], "length": 0.5},
                "in": ["src"],
                "out": ["out"],
            }
        ],
        "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}}],
        "detectors": ["out"],
    }
    netlist = write_json(tmp_path / "lossy.json", obj)
    code, out = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 0
    result = json.loads((out / "circuit_result.json").read_text())
    assert result["absorbed"] > 0.0
    assert abs(result["conservation_sum"] - 1.0) <= 1e-9
    row = result["ledger"][0]
    assert row["number_in"] == pytest.approx(row["number_out"] + row["absorbed"], abs=1e-10)


def test_circuit_conservation_breach_exits_3(tmp_path, monkeypatch):
    from photonflux.circuit import Ledger, PulseState

    def broken_run(netlist, units=None, paper_convention=False):
        return PulseState(ports={}, absorbed=0.5), Ledger(rows=())

    monkeypatch.setattr(cli_mod.circ, "run_circuit", broken_run)
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.0))
    code, _ = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 3


def test_fresnel_default_and_paper(tmp_path):
    code, out = run(tmp_path, "fresnel", "--n1", "1", "--n2", "1.5")
    assert code == 0
    result = json.loads((out / "fresnel.json").read_text())
    assert abs(result["conservation_defect"]) <= 1e-12
    assert result["convention"] == "default"

    code, out = run(tmp_path, "fresnel", "--n1", "1", "--n2", "3", "--paper-convention")
    assert code == 0
    result = json.loads((out / "fresnel.json").read_text())
    assert result["conservation_defect"] == pytest.approx(6.0, abs=1e-12)


def test_momentum_single_bin(tmp_path):
    grid_flag = "256,1.0,1.0"
    spec = {"kind": "amplitude", "N": 256, "dk": 1.0, "area": 1.0, "helicity": 1,
            "re": [0.0] * 256, "im": [0.0] * 256}
    spec["re"][99] = float(np.sqrt(2.0 * np.pi))
    state = write_json(tmp_path / "bin.json", spec)
    code, out = main(
        ["--out", str(tmp_path / "out"), "--grid", grid_flag, "momentum", "--state", state, "--chi", "1.25"]
    ), tmp_path / "out"
    assert code == 0
    result = json.loads((out / "momentum.json").read_text())
    assert result["p_abraham"] == pytest.approx(100.0, abs=1e-10)
    assert result["p_minkowski"] == pytest.approx(225.0, abs=1e-10)

    code = main(
        ["--out", str(tmp_path / "out"), "--grid", grid_flag, "momentum", "--state", state, "--chi", "0.3,0.1"]
    )
    assert code == 0
    result = json.loads((out / "momentum.json").read_text())
    assert result["p_minkowski"] is None
    assert result["minkowski_defined"] is False


def test_si_units_mode_density(tmp_path):
    # optical-scale SI grid: dk chosen so omega ~ 1e15 rad/s
    spec = write_json(tmp_path / "state.json", {"kind": "gaussian", "k0": 6.0e6, "sigma": 2.0e5})
    out = tmp_path / "out"
    code = main(
        [
            "--units", "si",
            "--grid", "4096,1.0e4,1.0",
            "--out", str(out),
            "density",
            "--state", spec,
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["photon_number"] - 1.0) <= 1e-8
    assert abs(summary["density_integral"] - 1.0) <= 1e-8
    assert summary["continuity_residual"] <= 1e-6
    assert summary["units"] == "si"


def test_cli_import_does_not_load_scipy_integrate():
    # scipy.integrate serves only the 3D quadrature oracle, so the CLI's
    # start-up must not pay for importing it
    probe = "import sys, photonflux.cli; print('scipy.integrate' in sys.modules)"
    src = Path(photonflux.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "args, flag",
    [
        (("density", "--time", "nan"), "--time"),
        (("localized", "--dim", "1", "--k-max", "nan"), "--k-max"),
        (("localized", "--dim", "3", "--k-max", "1.0", "--delta-t", "inf"), "--delta-t"),
        (("--grid", "256,nan,1.0", "localized", "--dim", "1", "--k-max", "1.0"), "--grid"),
        (("fresnel", "--n1", "1.0,inf", "--n2", "1.5"), "--n1"),
        (("momentum", "--chi", "nan", "--state", "unused.json"), "--chi"),
    ],
    ids=["time", "k-max", "delta-t", "grid", "n1", "chi"],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, args, flag):
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    if args[0] == "density":
        args = (*args, "--state", spec)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *args)
    assert exc.value.code == 2
    assert f"argument {flag}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("--grid", "256,abc,1.0", "fresnel", "--n1", "1", "--n2", "1.5"),
         "argument --grid: invalid _parse_grid value: '256,abc,1.0'"),
        (("--grid", "100,1.0,1.0", "fresnel", "--n1", "1", "--n2", "1.5"),
         "argument --grid: sample count must be a power of two, got 100"),
        (("fresnel", "--n1", "abc", "--n2", "1.5"), "argument --n1: invalid _parse_complex value: 'abc'"),
        (("fresnel", "--n1", "1,2,3", "--n2", "1.5"), "argument --n1: cannot parse complex value '1,2,3'"),
    ],
    ids=["grid-not-a-number", "grid-not-power-of-two", "n1-not-a-number", "n1-three-parts"],
)
def test_malformed_number_flag_exits_2(tmp_path, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_non_finite_result_exits_3_without_writing_json(tmp_path, capsys):
    # finite indices whose sum overflows: t = 2 n1 / (n1 + n2) is inf/inf
    code, out = run(tmp_path, "fresnel", "--n1", "1e308", "--n2", "1e308")
    assert code == 3
    assert "fresnel.json" in capsys.readouterr().err
    assert not (out / "fresnel.json").exists()


@pytest.mark.parametrize(
    "state, message",
    [
        ([GAUSSIAN_SPEC], "state must be a JSON object, got list"),
        (GAUSSIAN_SPEC | {"k0": "abc"}, "state: field 'k0' has invalid value 'abc'"),
        ({"kind": "gaussian", "k0": 600.0}, "state: missing field 'sigma'"),
        (GAUSSIAN_SPEC | {"helicity": [1]}, "state: field 'helicity' has invalid value [1]"),
        ({"kind": "amplitude", "N": 256, "dk": 1.0, "area": 1.0, "helicity": 1, "re": ["x"], "im": [0.0]},
         "state: field 're' has invalid value ['x']"),
    ],
    ids=["top-level-list", "k0-not-a-number", "sigma-missing", "helicity-list", "re-strings"],
)
def test_malformed_state_json_exits_2_naming_the_field(tmp_path, capsys, state, message):
    spec = write_json(tmp_path / "state.json", state)
    code, _ = run(tmp_path, "density", "--state", spec)
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def _malformed_netlists():
    top_list = [mz_netlist(0.3)]
    bad_phi = mz_netlist(0.3)
    bad_phi["elements"][1]["params"]["phi"] = "abc"
    nan_t = mz_netlist(0.3)
    nan_t["elements"][0]["params"]["t"] = float("nan")
    no_id = mz_netlist(0.3)
    del no_id["elements"][2]["id"]
    bad_ports = mz_netlist(0.3)
    bad_ports["elements"][1]["in"] = 5
    nested_port = mz_netlist(0.3)
    nested_port["detectors"] = [["d_dark"], "d_bright"]
    bad_source = mz_netlist(0.3)
    del bad_source["sources"][0]["state"]["k0"]
    bad_grid = mz_netlist(0.3)
    bad_grid["grid"]["N"] = "many"
    return [
        (top_list, "netlist must be a JSON object, got list"),
        (bad_phi, "phase_shifter params: field 'phi' has invalid value 'abc'"),
        (nan_t, "beam_splitter params: field 't' has invalid value nan"),
        (no_id, "element: missing field 'id'"),
        (bad_ports, "element: field 'in' has invalid value 5"),
        (nested_port, "netlist: field 'detectors' has invalid value [['d_dark'], 'd_bright']"),
        (bad_source, "state: missing field 'k0'"),
        (bad_grid, "grid: field 'N' has invalid value 'many'"),
    ]


@pytest.mark.parametrize(
    "obj, message",
    _malformed_netlists(),
    ids=["top-level-list", "phi-not-a-number", "t-nan", "id-missing", "in-not-a-list", "detector-not-a-name",
         "source-k0-missing", "grid-N-not-a-number"],
)
def test_malformed_netlist_json_exits_2_naming_the_field(tmp_path, capsys, obj, message):
    netlist = write_json(tmp_path / "bad.json", obj)
    code, _ = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_density_pulse_across_the_wrap_exits_2(tmp_path, capsys):
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC | {"x0": 0.0})
    code, out = run(tmp_path, "density", "--state", spec)
    assert code == 2
    assert "wrap-around" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--dim", "1", "--k-max", "0"), "--k-max"),
        (("--dim", "3", "--k-max", "-1", "--delta-t", "50"), "--k-max"),
        (("--dim", "1", "--k-max", "1.0", "--points", "0"), "--points"),
        (("--dim", "1", "--k-max", "1.0", "--points", "-5"), "--points"),
        (("--dim", "3", "--k-max", "1.0", "--delta-t", "50", "--points", "1"), "--points"),
    ],
    ids=["k-max-zero-dim-1", "k-max-negative-dim-3", "points-zero", "points-negative", "points-one-dim-3"],
)
def test_localized_bad_input_exits_2_naming_the_flag(tmp_path, capsys, args, flag):
    code, out = run(tmp_path, "localized", *args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be")
    assert not out.exists()


def test_density_integral_mismatch_exits_3_after_writing_summary(tmp_path, capsys, monkeypatch):
    real_density_field = cli_mod.dens.density_field

    def inflated(*args):
        field = real_density_field(*args)
        return replace(field, rho=1.5 * field.rho)

    monkeypatch.setattr(cli_mod.dens, "density_field", inflated)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "density", "--state", spec)
    assert code == 3
    assert "disagrees with photon number" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["density_integral"] == pytest.approx(1.5 * summary["photon_number"], rel=1e-8)


def _force_flux_defect(monkeypatch):
    # the non-conserving Fresnel pair under the default convention
    real = cli_mod.optics.fresnel_interface
    monkeypatch.setattr(
        cli_mod.optics, "fresnel_interface", lambda n1, n2, paper_convention=False: real(n1, n2, True)
    )


@pytest.mark.parametrize(
    "args, code, patch",
    [
        (("density", "--state", "{bad}"), 2, None),
        (("density", "--state", "{wrap}"), 2, None),
        (("localized", "--dim", "2", "--k-max", "1.0"), 2, None),
        (("localized", "--dim", "3", "--k-max", "1.0"), 2, None),
        (("localized", "--dim", "1", "--k-max", "1.0", "--span", "10"), 2, None),
        (("circuit", "--netlist", "{unwired}"), 2, None),
        (("circuit", "--netlist", "{mz}", "--samples", "-1"), 2, None),
        (("circuit", "--netlist", "{absent}"), 2, None),
        (("fresnel", "--n1", "1e308", "--n2", "1e308"), 3, None),
        (("fresnel", "--n1", "1", "--n2", "3"), 3, _force_flux_defect),
        (("momentum", "--state", "{bad}", "--chi", "1.25"), 2, None),
    ],
    ids=["density-malformed", "density-wrap", "localized-dim", "localized-delta-t", "localized-window",
         "circuit-violations", "circuit-samples", "circuit-missing-file", "fresnel-non-finite",
         "fresnel-defect", "momentum-malformed"],
)
def test_every_error_path_prints_one_error_line(tmp_path, capsys, monkeypatch, args, code, patch):
    if patch:
        patch(monkeypatch)
    unwired = mz_netlist(0.3)
    unwired["elements"][0]["in"] = ["src"]
    paths = {
        "bad": write_json(tmp_path / "bad.json", [GAUSSIAN_SPEC]),
        "wrap": write_json(tmp_path / "wrap.json", GAUSSIAN_SPEC | {"x0": 0.0}),
        "unwired": write_json(tmp_path / "unwired.json", unwired),
        "mz": write_json(tmp_path / "mz.json", mz_netlist(0.3)),
        "absent": str(tmp_path / "absent.json"),
    }
    got, _ = run(tmp_path, *(a.format(**paths) for a in args))
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("error: ") == 1


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dim=st.integers(-1, 4),
    k_max=finite,
    span=finite,
    delta_t=finite,
    points=st.integers(-3, 2000),
)
def test_localized_flags_never_crash(dim, k_max, span, delta_t, points):
    argv = ["localized", f"--dim={dim}", f"--k-max={k_max!r}", f"--span={span!r}",
            f"--delta-t={delta_t!r}", f"--points={points}"]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code = main(["--out", str(Path(tmp) / "out"), *argv])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)
