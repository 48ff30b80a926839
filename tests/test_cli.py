import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
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


@pytest.mark.parametrize("grid", [photonflux.KGrid1D(8192, 0.5, 2.0), photonflux.KGrid1D(1024, 2.0, 1.0)],
                         ids=["larger-N", "smaller-N"])
def test_density_csvs_use_the_amplitude_state_grid(tmp_path, grid):
    # an amplitude state carries its own N, dk and area; --grid stays at its default
    amplitude = photonflux.make_gaussian_state(600.0, 20.0, grid).to_json()
    state = write_json(tmp_path / "state.json", {"kind": "amplitude", **amplitude})
    code, out = run(tmp_path, "density", "--state", state)
    assert code == 0
    x = [repr(float(v)) for v in grid.x]
    for name in ("density.csv", "fields.csv"):
        rows = [line.split(",") for line in (out / name).read_text().splitlines() if line[0] in "0123456789-"]
        assert [row[0] for row in rows] == x


def test_density_header_and_continuity_step_use_the_amplitude_state_grid(tmp_path):
    # --grid stays at its default 4096,1.0,1.0; the state's own grid ends at k = 2048
    grid = photonflux.KGrid1D(1024, 2.0, 1.0)
    amplitude = {"kind": "amplitude", **photonflux.make_gaussian_state(600.0, 20.0, grid).to_json()}
    code, out = run(tmp_path, "density", "--state", write_json(tmp_path / "state.json", amplitude))
    assert code == 0
    assert (out / "density.csv").read_text().splitlines()[0] == "# t=0.0 k_max=2048.0 units=natural"
    state = cli_mod.circ.state_from_spec(amplitude, grid)
    expected = cli_mod.dens.continuity_residual(state, 0.0, grid.dx / 256.0, cli_mod.units_for("natural"))
    assert json.loads((out / "summary.json").read_text())["continuity_residual"] == expected


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
        (("--seed", "-1", "circuit", "--netlist", "mz.json", "--samples", "10"),
         "argument --seed: must be a non-negative integer, got '-1'"),
        (("--grid", "4611686018427387904,1,1", "density", "--state", "g.json"),
         "argument --grid: sample count must be at most 2**24 = 16777216, got 4611686018427387904"),
    ],
    ids=["grid-not-a-number", "grid-not-power-of-two", "n1-not-a-number", "n1-three-parts", "seed-negative",
         "grid-N-too-large"],
)
def test_malformed_number_flag_exits_2(tmp_path, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_result_exits_3_without_writing_json(tmp_path, capsys):
    # finite indices whose sum overflows: t = 2 n1 / (n1 + n2) is inf/inf
    code, out = run(tmp_path, "fresnel", "--n1", "1e308", "--n2", "1e308")
    assert code == 3
    assert "fresnel.json" in capsys.readouterr().err
    assert not (out / "fresnel.json").exists()


def test_main_builds_the_parser_once(tmp_path):
    cli_mod.build_parser.cache_clear()
    for _ in range(2):
        code, _ = run(tmp_path, "fresnel", "--n1", "1", "--n2", "1.5")
        assert code == 0
    info = cli_mod.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_float_overflow_exits_3_naming_a_non_finite_result(tmp_path, capsys):
    # k_max**2 overflows a Python float in the 3D closed form
    code, _ = run(tmp_path, "localized", "--dim", "3", "--k-max", "1e155", "--delta-t", "50")
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite result: float overflow\n"


@pytest.mark.parametrize(
    "state, message",
    [
        ([GAUSSIAN_SPEC], "state must be a JSON object, got list"),
        (GAUSSIAN_SPEC | {"k0": "abc"}, "state: field 'k0' has invalid value 'abc'"),
        ({"kind": "gaussian", "k0": 600.0}, "state: missing field 'sigma'"),
        (GAUSSIAN_SPEC | {"helicity": [1]}, "state: field 'helicity' has invalid value [1]"),
        ({"kind": "amplitude", "N": 256, "dk": 1.0, "area": 1.0, "helicity": 1, "re": ["x"], "im": [0.0]},
         "state: field 're' has invalid value ['x']"),
        ({"kind": "amplitude", "N": 2, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [1.0, 0.0], "im": [0.0]},
         "state: fields 're' and 'im' differ in shape, (2,) vs (1,)"),
        (GAUSSIAN_SPEC | {"helicity": 1.9}, "state: field 'helicity' has invalid value 1.9"),
        ({"kind": "amplitude", "N": 256.7, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [], "im": []},
         "state: field 'N' has invalid value 256.7"),
        ({"kind": "amplitude", "N": 2**62, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [], "im": []},
         "sample count must be at most 2**24 = 16777216, got 4611686018427387904"),
    ],
    ids=["top-level-list", "k0-not-a-number", "sigma-missing", "helicity-list", "re-strings", "re-im-lengths",
         "helicity-not-integral", "amplitude-N-not-integral", "amplitude-N-too-large"],
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
    fractional_n = mz_netlist(0.3)
    fractional_n["grid"]["N"] = 256.7
    huge_n = mz_netlist(0.3)
    huge_n["grid"]["N"] = 2**25
    fractional_helicity = mz_netlist(0.3)
    fractional_helicity["sources"][0]["state"]["helicity"] = 1.9
    negative_index = mz_netlist(0.3)
    negative_index["elements"][1] |= {"kind": "interface", "params": {"n_in": -1.0, "n_out": 1.5}}
    return [
        (top_list, "netlist must be a JSON object, got list"),
        (bad_phi, "phase_shifter params: field 'phi' has invalid value 'abc'"),
        (nan_t, "beam_splitter params: field 't' has invalid value nan"),
        (no_id, "element: missing field 'id'"),
        (bad_ports, "element: field 'in' has invalid value 5"),
        (nested_port, "netlist: field 'detectors' has invalid value [['d_dark'], 'd_bright']"),
        (bad_source, "state: missing field 'k0'"),
        (bad_grid, "grid: field 'N' has invalid value 'many'"),
        (fractional_n, "grid: field 'N' has invalid value 256.7"),
        (huge_n, "sample count must be at most 2**24 = 16777216, got 33554432"),
        (fractional_helicity, "state: field 'helicity' has invalid value 1.9"),
        (negative_index, "interface needs Re n_in > 0 and Re n_out >= 0, got n_in = (-1+0j), n_out = (1.5+0j)"),
    ]


@pytest.mark.parametrize(
    "obj, message",
    _malformed_netlists(),
    ids=["top-level-list", "phi-not-a-number", "t-nan", "id-missing", "in-not-a-list", "detector-not-a-name",
         "source-k0-missing", "grid-N-not-a-number", "grid-N-not-integral", "grid-N-too-large",
         "source-helicity-not-integral",
         "interface-negative-index"],
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
        (("fresnel", "--n1", "0,1", "--n2", "1.5"), 2, None),
        (("fresnel", "--n1", "-1", "--n2", "1.5"), 2, None),
        (("momentum", "--state", "{bad}", "--chi", "1.25"), 2, None),
    ],
    ids=["density-malformed", "density-wrap", "localized-dim", "localized-delta-t", "localized-window",
         "circuit-violations", "circuit-samples", "circuit-missing-file", "fresnel-non-finite",
         "fresnel-defect", "fresnel-imaginary-incident", "fresnel-negative-incident", "momentum-malformed"],
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
    got, out = run(tmp_path, *(a.format(**paths) for a in args))
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("error: ") == 1
    if code == 2:
        assert not out.exists()


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@st.composite
def mutated(draw, obj):
    """A copy of ``obj`` with one to three values replaced by arbitrary JSON or removed."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(json_values)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], obj)
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return obj


# on the fuzz grid 64,1.0,1.0 each of these runs clean (test_fuzz_seeds_run_clean)
STATE_SPECS = [
    {"kind": "gaussian", "k0": 30.0, "sigma": 2.0, "helicity": -1, "x0": 3.0},
    {"kind": "zero"},
    {"kind": "amplitude", **photonflux.make_gaussian_state(30.0, 2.0, photonflux.KGrid1D(64, 1.0, 1.0)).to_json()},
]
UNITS = [[], ["--units", "si"]]
ALL_KINDS_NETLIST = {
    "grid": {"N": 64, "dk": 1.0, "area": 1.0},
    "elements": [
        {"id": "bs", "kind": "beam_splitter", "params": {"t": [0.6, 0.0], "r": [0.0, 0.8]},
         "in": ["src", "vac"], "out": ["a", "b"]},
        {"id": "ifc", "kind": "interface", "params": {"n_in": 1.0, "n_out": 1.5}, "in": ["a"], "out": ["a1", "refl"]},
        {"id": "med", "kind": "medium_segment", "params": {"chi": [1.25, 0.01], "length": 2.0},
         "in": ["a1"], "out": ["a2"]},
        {"id": "m", "kind": "mirror", "params": {"r": -1.0}, "in": ["b"], "out": ["b1"]},
        {"id": "ps", "kind": "phase_shifter", "params": {"phi": 0.5}, "in": ["b1"], "out": ["b2"]},
    ],
    "sources": [{"port": "src", "state": STATE_SPECS[0]}],
    "detectors": ["a2", "refl", "b2"],
    "vacuum": ["vac"],
}


def run_fuzzed_json(obj, *argv):
    """Exit code of one run on ``obj`` written as the {json} argument; one error line iff nonzero.

    A flag that argparse rejects exits 2 through its usage message, whose error line starts ``photonflux: error: ``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "in.json", obj)
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                code = main(["--out", str(Path(tmp) / "out"), *(a.format(json=path) for a in argv)])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3)
    error_lines = [line for line in err.getvalue().splitlines() if line.startswith(("error: ", "photonflux: error: "))]
    assert len(error_lines) == (code != 0)
    return code


def test_fuzz_seeds_run_clean():
    for units in UNITS:
        assert run_fuzzed_json(ALL_KINDS_NETLIST, *units, "circuit", "--netlist", "{json}", "--samples", "3") == 0
        for state in STATE_SPECS:
            for command in (["density"], ["momentum", "--chi", "1.25"]):
                assert run_fuzzed_json(state, *units, "--grid", "64,1.0,1.0", *command, "--state", "{json}") == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(state=st.sampled_from(STATE_SPECS).flatmap(mutated))
def test_density_state_json_never_crashes(state):
    run_fuzzed_json(state, "--grid", "64,1.0,1.0", "density", "--state", "{json}")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(netlist=mutated(ALL_KINDS_NETLIST))
def test_circuit_netlist_json_never_crashes(netlist):
    run_fuzzed_json(netlist, "circuit", "--netlist", "{json}", "--samples", "3")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(state=st.sampled_from(STATE_SPECS).flatmap(mutated), units=st.sampled_from(UNITS),
       chi=st.sampled_from(["1.25", "0.3,0.1", "-2"]))
def test_momentum_state_json_never_crashes(state, units, chi):
    run_fuzzed_json(state, *units, "--grid", "64,1.0,1.0", "momentum", "--state", "{json}", "--chi", chi)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(state=st.sampled_from(STATE_SPECS).flatmap(mutated), netlist=mutated(ALL_KINDS_NETLIST))
def test_si_units_json_never_crashes(state, netlist):
    run_fuzzed_json(state, "--units", "si", "--grid", "64,1.0,1.0", "density", "--state", "{json}")
    run_fuzzed_json(netlist, "--units", "si", "circuit", "--netlist", "{json}", "--samples", "3")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    units=st.sampled_from(UNITS),
    seed=st.integers(-2**70, 2**70),
    samples=st.integers(-3, 2000),
    grid_n=st.sampled_from([64, 1024, 2**24]) | st.integers(-3, 70) | st.integers(0, 62).map(lambda e: 2**e),
)
def test_global_flags_never_crash(units, seed, samples, grid_n):
    # the netlist carries its own grid, so --grid is parsed and checked but allocates nothing
    run_fuzzed_json(ALL_KINDS_NETLIST, *units, f"--seed={seed}", f"--grid={grid_n},1.0,1.0",
                    "circuit", "--netlist", "{json}", f"--samples={samples}")
