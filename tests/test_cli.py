import copy
import errno
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import photonflux
import photonflux.circuit as circuit_mod
import photonflux.cli as cli_mod
import photonflux.density as density_mod
import photonflux.optics as optics_mod
from photonflux.cli import main

from conftest import ALL_KINDS_NETLIST, fail_fork, fail_forked_csv_rows, fill_disk_while_formatting, spy_worker_writes

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


@pytest.mark.parametrize("grid", ["1024,1e306,1.0", "2,5e-324,1.0"], ids=["dx-zero", "dx-infinite"])
def test_density_zero_state_on_a_degenerate_grid_exits_2_like_a_gaussian(tmp_path, capsys, grid):
    # the zero state takes the continuity step every state takes, so a grid with no usable dx is bad input
    for spec in ({"kind": "zero"}, GAUSSIAN_SPEC):
        code, out = run(tmp_path, "--grid", grid, "density", "--state", write_json(tmp_path / "state.json", spec))
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


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
    state = cli_mod.spec.state_from_spec(amplitude, grid)
    expected = density_mod.continuity_residual(state, 0.0, grid.dx / 256.0, cli_mod.units_for("natural"))
    assert json.loads((out / "summary.json").read_text())["continuity_residual"] == expected


def test_density_continuity_residual_is_zero_when_both_terms_underflow(tmp_path):
    # |c|^2 underflows: the current is two subnormals, not uniform, yet its derivative and drho/dt are all zero
    spec = {"kind": "amplitude", "N": 2, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [1e-162, 1e-162],
            "im": [0.0, 0.0]}
    state = write_json(tmp_path / "state.json", spec)
    code, out = run(tmp_path, "--units", "si", "density", "--state", state)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["continuity_residual"] == 0.0


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


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_circuit_sorts_the_netlist_once(tmp_path, monkeypatch):
    sorts = _counting(monkeypatch, circuit_mod, "_topological_order")
    validations = _counting(monkeypatch, circuit_mod, "validate")
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.3))
    code, out = run(tmp_path, "circuit", "--netlist", netlist, "--samples", "10")
    assert code == 0
    assert (out / "circuit_result.json").exists()
    assert len(validations) == 2  # cmd_circuit and run_circuit each validate
    assert len(sorts) == 1


def test_circuit_computes_violations_once(tmp_path, monkeypatch):
    computed = _counting(monkeypatch, circuit_mod, "_violations")
    validations = _counting(monkeypatch, circuit_mod, "validate")
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.3))
    code, out = run(tmp_path, "circuit", "--netlist", netlist, "--samples", "10")
    assert code == 0
    assert (out / "circuit_result.json").exists()
    assert len(validations) == 2  # cmd_circuit and run_circuit each validate
    assert len(computed) == 1


# t = 2 n_in / (n_in + n_out) underflows to 0 and sqrt(n_out / n_in) overflows: t * sqrt is NaN
NAN_INTERFACE_NETLIST = {
    "grid": {"N": 64, "dk": 1.0, "area": 1.0},
    "elements": [
        {"id": "ps", "kind": "phase_shifter", "params": {"phi": 0.5}, "in": ["src"], "out": ["d"]},
        {"id": "if", "kind": "interface", "params": {"n_in": 1e-300, "n_out": 1e300},
         "in": ["vac"], "out": ["t", "r"]},
    ],
    "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 30.0, "sigma": 2.0}}],
    "detectors": ["d", "t", "r"],
    "vacuum": ["vac"],
}


def test_circuit_nan_on_a_vacuum_arm_exits_3_without_writing_json(tmp_path, capsys):
    netlist = write_json(tmp_path / "nan.json", NAN_INTERFACE_NETLIST)
    code, out = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 3
    assert capsys.readouterr().err == "error: non-finite result: detectors.t.probability\n"
    assert not (out / "circuit_result.json").exists()


def test_circuit_cycle_is_reported(tmp_path, capsys):
    obj = mz_netlist(0.3)
    # bs2's dark output feeds bs1 in place of the vacuum arm
    obj["elements"][0]["in"] = ["src", "d_dark"]
    obj["detectors"] = ["d_bright"]
    obj["vacuum"] = []
    netlist = write_json(tmp_path / "cycle.json", obj)
    code, out = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 2
    assert capsys.readouterr().err == "error: violation: wiring contains a cycle\n"
    assert not out.exists()


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
    from photonflux.circuit import PulseState

    def broken_run(netlist, units=None, paper_convention=False):
        return PulseState(ports={}, absorbed=0.5), ()

    monkeypatch.setattr(circuit_mod, "run_circuit", broken_run)
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


@pytest.mark.parametrize(
    "chi, line",
    [
        ("-2", "1 + chi lies on the principal branch cut"),
        ("-1", "1 + chi lies on the principal branch cut"),
        ("1.25,-0.1", "Im chi < 0: medium would amplify"),
    ],
    ids=["branch-cut", "zero-index", "gain"],
)
def test_momentum_chi_a_medium_rejects_exits_2(tmp_path, capsys, chi, line):
    state = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "momentum", "--state", state, "--chi", chi)
    assert code == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


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


def _cli_modules(*argvs) -> set:
    """The modules of a fresh process that imports photonflux.cli and then runs ``main`` on each argv."""
    runs = "".join(f"assert photonflux.cli.main({list(argv)!r}) == 0; " for argv in argvs)
    probe = f"import sys, photonflux.cli; {runs}print(*sys.modules)"
    src = Path(photonflux.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(proc.stdout.split())


def _loaded_by_cli_import(module: str) -> bool:
    return module in _cli_modules()


def test_cli_import_does_not_load_scipy_integrate():
    # scipy.integrate serves only the 3D quadrature oracle, so the CLI's
    # start-up must not pay for importing it
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_does_not_build_the_float_repr_tables():
    # only the CSV writer uses them; circuit, fresnel and momentum runs write no CSV
    assert not _loaded_by_cli_import("photonflux.floatrepr")


def test_density_and_localized_runs_load_no_circuit_optics_or_fock(tmp_path):
    # each subcommand imports only the modules it runs
    state = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    loaded = _cli_modules(["--out", str(tmp_path / "density"), "density", "--state", state],
                          ["--out", str(tmp_path / "localized"), "localized", "--dim", "1", "--k-max", "1.0"])
    assert "photonflux.density" in loaded
    assert not loaded & {"photonflux.circuit", "photonflux.optics", "photonflux.fock"}


def test_circuit_fresnel_and_momentum_runs_load_no_density_or_float_repr(tmp_path):
    # the CSV writer lives in cli, so a subcommand that writes no table never loads the physics of one
    state = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.3))
    loaded = _cli_modules(["--out", str(tmp_path / "circuit"), "circuit", "--netlist", netlist],
                          ["--out", str(tmp_path / "fresnel"), "fresnel", "--n1", "1", "--n2", "1.5"],
                          ["--out", str(tmp_path / "momentum"), "momentum", "--state", state, "--chi", "1.25"])
    assert "photonflux.circuit" in loaded
    assert not loaded & {"photonflux.density", "photonflux.floatrepr"}


# every name photonflux exported when its __init__ imported each module eagerly, as module.name
EXPORTED = """
    units.NATURAL units.SI units.UnitsConfig units.units_for
    spectral.FieldSet spectral.KGrid1D spectral.SpectralAmplitude spectral.assert_support_clear spectral.evolve_free
    spectral.extract_spectrum spectral.localized_state spectral.make_gaussian_state spectral.photon_number
    spectral.scalar_product spectral.single_mode_state spectral.synthesize_fields
    density.DensityField density.continuity_residual density.current_field density.density_field
    density.localized_density_1d density.localized_density_1d_boxsum density.localized_density_3d
    density.localized_density_3d_profile density.positive_frequency_density density.shell_mass_fraction
    density.tail_mass
    fock.FockState fock.MixMatrix2 fock.ModeIndex fock.apply_annihilation fock.apply_creation fock.apply_mode_phase
    fock.basis_state fock.commutator_residual fock.inner_product fock.n_photon_state fock.number_expectation
    fock.total_number_expectation fock.two_mode_mix fock.vacuum
    optics.BeamSplitter optics.DielectricInterface optics.Medium optics.MediumSegment optics.Mirror
    optics.MomentumReport optics.PhaseShifter optics.fresnel_interface optics.interface_budget
    optics.mirror_momentum_kick optics.momentum_report optics.propagate_in_medium optics.refractive_index
    circuit.Element circuit.Netlist circuit.PulseState circuit.coincidence_probability
    circuit.load_netlist circuit.mach_zehnder_netlist circuit.netlist_from_json circuit.outcome_probabilities
    circuit.run_circuit circuit.sample_outcomes circuit.validate
""".split()


def test_every_exported_name_imports_from_its_module():
    # a fresh process, so each name is listed before its first use and then resolved on it
    probe = (
        "import importlib, sys, photonflux\n"
        f"exported = {EXPORTED!r}\n"
        "assert {e.split('.')[1] for e in exported} <= set(dir(photonflux))\n"
        "for entry in exported:\n"
        "    module, name = entry.split('.')\n"
        "    names = {}\n"
        "    exec(f'from photonflux import {name}', names)\n"
        "    assert names[name] is getattr(importlib.import_module(f'photonflux.{module}'), name), entry\n"
        "print(len(exported))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(photonflux.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["65"]


def test_dir_lists_every_exported_name_once_sorted():
    names = dir(photonflux)
    assert {entry.split(".")[1] for entry in EXPORTED} <= set(names)
    assert names == sorted(set(names))


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
         "argument --grid: expects N,dk,area (an integer and two finite numbers), got '256,abc,1.0'"),
        (("--grid", "100,1.0,1.0", "fresnel", "--n1", "1", "--n2", "1.5"),
         "argument --grid: sample count must be a power of two, got 100"),
        (("fresnel", "--n1", "abc", "--n2", "1.5"),
         "argument --n1: expects 're' or 're,im' (finite numbers), got 'abc'"),
        (("fresnel", "--n1", "1,2,3", "--n2", "1.5"), "argument --n1: cannot parse complex value '1,2,3'"),
        (("--seed", "-1", "circuit", "--netlist", "mz.json", "--samples", "10"),
         "argument --seed: must be a non-negative integer, got '-1'"),
        (("--grid", "4611686018427387904,1,1", "density", "--state", "g.json"),
         "argument --grid: sample count must be at most 2**24 = 16777216, got 4611686018427387904"),
        (("circuit", "--netlist", "mz.json", "--samples", "4611686018427387904"),
         "argument --samples: must be at most 2**24 = 16777216, got 4611686018427387904"),
        (("localized", "--dim", "1", "--k-max", "1", "--points", "16777217"),
         "argument --points: must be at most 2**24 = 16777216, got 16777217"),
        (("--units", "bogus", "fresnel", "--n1", "1", "--n2", "1.5"),
         "argument --units: expects 'natural' or 'si', got 'bogus'"),
        (("density", "--state", "g.json", "--time", "abc"), "argument --time: expects a finite number, got 'abc'"),
        (("--seed", "x", "circuit", "--netlist", "mz.json"),
         "argument --seed: expects a non-negative integer, got 'x'"),
        (("localized", "--dim", "1", "--k-max", "1", "--points", "x"),
         "argument --points: expects an integer at most 2**24 = 16777216, got 'x'"),
    ],
    ids=["grid-not-a-number", "grid-not-power-of-two", "n1-not-a-number", "n1-three-parts", "seed-negative",
         "grid-N-too-large", "samples-too-large", "points-too-large", "units-unknown", "time-not-a-number",
         "seed-not-a-number", "points-not-a-number"],
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
    assert capsys.readouterr().err == "error: non-finite result: t[0]\n"
    assert not (out / "fresnel.json").exists()


# a 64-bin amplitude state whose photon number overflows: its density, fields and momenta are infinite or NaN
HUGE_AMPLITUDE = {"kind": "amplitude", "N": 64, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [1e200] * 64,
                  "im": [0.0] * 64}


@pytest.mark.parametrize(
    "args, error",
    [
        (("density", "--state", "{huge}"), "non-finite result: rho"),
        (("momentum", "--state", "{huge}", "--chi", "1.25"), "non-finite result: photon_number"),
        (("circuit", "--netlist", "{nan_netlist}"), "non-finite result: detectors.t.probability"),
        (("fresnel", "--n1", "1e308", "--n2", "1e308"), "non-finite result: t[0]"),
        (("fresnel", "--n1", "1e-320", "--n2", "1"), "non-finite result: transmittance"),
        (("localized", "--dim", "3", "--k-max", "1", "--delta-t", "1e-320", "--points", "100"),
         "non-finite result: re(rho+)"),
        (("localized", "--dim", "1", "--k-max", "1", "--span", "1e308", "--points", "100"), "non-finite result: u"),
    ],
    ids=["density", "momentum", "circuit", "fresnel", "fresnel-transmittance", "localized-3d", "localized-1d"],
)
def test_non_finite_result_exits_3_and_leaves_no_out(tmp_path, capsys, args, error):
    paths = {"huge": write_json(tmp_path / "huge.json", HUGE_AMPLITUDE),
             "nan_netlist": write_json(tmp_path / "nan.json", NAN_INTERFACE_NETLIST)}
    code, out = run(tmp_path, *(a.format(**paths) for a in args))
    assert code == 3
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


# one succeeding run of each subcommand, and the JSON artifact it writes
SUBCOMMAND_RUNS = pytest.mark.parametrize(
    "args, name",
    [
        (("density", "--state", "{gaussian}"), "summary.json"),
        (("localized", "--dim", "1", "--k-max", "1.0"), "localized_summary.json"),
        (("localized", "--dim", "3", "--k-max", "1.0", "--delta-t", "50"), "localized_summary.json"),
        (("circuit", "--netlist", "{mz}"), "circuit_result.json"),
        (("fresnel", "--n1", "1", "--n2", "1.5"), "fresnel.json"),
        (("momentum", "--state", "{gaussian}", "--chi", "1.25"), "momentum.json"),
    ],
    ids=["density", "localized-1d", "localized-3d", "circuit", "fresnel", "momentum"],
)


def subcommand_inputs(tmp_path) -> dict:
    """The input files SUBCOMMAND_RUNS name as {gaussian} and {mz}."""
    return {"gaussian": write_json(tmp_path / "gaussian.json", GAUSSIAN_SPEC),
            "mz": write_json(tmp_path / "mz.json", mz_netlist(0.3))}


@SUBCOMMAND_RUNS
def test_every_subcommand_returns_a_run_and_creates_nothing(tmp_path, args, name):
    paths = subcommand_inputs(tmp_path)
    parsed = cli_mod.build_parser().parse_args(["--out", str(tmp_path / "out"), *(a.format(**paths) for a in args)])
    run = parsed.func(parsed)
    assert isinstance(run, cli_mod.Run)
    assert run.name == name
    assert not any(failed for failed, _ in run.checks)
    assert not parsed.out.exists()


@SUBCOMMAND_RUNS
def test_failed_json_write_exits_2_and_leaves_none_of_the_runs_files(tmp_path, capsys, args, name):
    paths = subcommand_inputs(tmp_path)
    # a directory where the JSON artifact goes: opening it fails, and the tables opened before it are removed
    blocked = tmp_path / "out" / name
    blocked.mkdir(parents=True)
    code, out = run(tmp_path, *(a.format(**paths) for a in args))
    assert code == 2
    error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked))
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(out.iterdir()) == [blocked]


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
        (GAUSSIAN_SPEC | {"k0": True}, "state: field 'k0' has invalid value True"),
        (GAUSSIAN_SPEC | {"k0": "4000"}, "state: field 'k0' has invalid value '4000'"),
        ({"kind": "amplitude", "N": 2, "dk": 1.0, "area": 1.0, "helicity": 1, "re": ["1.0", 0.0], "im": [0.0, 0.0]},
         "state: field 're' has invalid value ['1.0', 0.0]"),
        ({"kind": "amplitude", "N": 2, "dk": 1.0, "area": 1.0, "helicity": 1, "re": [1.0, 0.0], "im": [True, False]},
         "state: field 'im' has invalid value [True, False]"),
    ],
    ids=["top-level-list", "k0-not-a-number", "sigma-missing", "helicity-list", "re-strings", "re-im-lengths",
         "helicity-not-integral", "amplitude-N-not-integral", "amplitude-N-too-large",
         "k0-true", "k0-numeric-string", "re-numeric-strings", "im-booleans"],
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
    # JSON types are strict: a port name is a string, a number is not a bool or a string, a complex
    # is a number or an [re, im] pair, and an amplitude state's re and im hold numbers
    number_port = mz_netlist(0.3)
    number_port["elements"][2]["out"] = [1, "d_bright"]
    number_port["detectors"] = [1, "d_bright"]
    true_phi = mz_netlist(0.3)
    true_phi["elements"][1]["params"]["phi"] = True
    string_phi = mz_netlist(0.3)
    string_phi["elements"][1]["params"]["phi"] = "0.3"
    string_k0 = mz_netlist(0.3)
    string_k0["sources"][0]["state"]["k0"] = "60"
    string_t = mz_netlist(0.3)
    string_t["elements"][0]["params"]["t"] = "1+2j"
    triple_t = mz_netlist(0.3)
    triple_t["elements"][0]["params"]["t"] = [2**-0.5, 0.0, 3.0]
    string_re = mz_netlist(0.3)
    string_re["sources"][0]["state"] = {"kind": "amplitude", "N": 2, "dk": 1.0, "area": 1.0, "helicity": 1,
                                        "re": ["1.0", 0.0], "im": [0.0, 0.0]}
    absorbed_detector = mz_netlist(0.3)
    absorbed_detector["elements"][2]["out"] = ["absorbed", "d_bright"]
    absorbed_detector["detectors"] = ["absorbed", "d_bright"]
    amplitude_off_grid = mz_netlist(0.3)
    amplitude_off_grid["sources"][0]["state"] = {"kind": "amplitude", "N": 64, "dk": 1.0, "area": 1.0, "helicity": 1,
                                                 "re": [1.0] + [0.0] * 63, "im": [0.0] * 64}
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
        (number_port, "element: field 'out' has invalid value [1, 'd_bright']"),
        (true_phi, "phase_shifter params: field 'phi' has invalid value True"),
        (string_phi, "phase_shifter params: field 'phi' has invalid value '0.3'"),
        (string_k0, "state: field 'k0' has invalid value '60'"),
        (string_t, "beam_splitter params: field 't' has invalid value '1+2j'"),
        (triple_t, "beam_splitter params: field 't' has invalid value [0.7071067811865476, 0.0, 3.0]"),
        (string_re, "state: field 're' has invalid value ['1.0', 0.0]"),
        (absorbed_detector, "violation: detector port 'absorbed' is reserved for the absorbed outcome"),
        (amplitude_off_grid, "source: state grid KGrid1D(n=64, dk=1.0, area=1.0) differs from the netlist grid "
                             "KGrid1D(n=256, dk=1.0, area=1.0)"),
    ]


@pytest.mark.parametrize(
    "obj, message",
    _malformed_netlists(),
    ids=["top-level-list", "phi-not-a-number", "t-nan", "id-missing", "in-not-a-list", "detector-not-a-name",
         "source-k0-missing", "grid-N-not-a-number", "grid-N-not-integral", "grid-N-too-large",
         "source-helicity-not-integral",
         "interface-negative-index", "out-port-a-number", "phi-true", "phi-numeric-string", "source-k0-numeric-string",
         "t-complex-string", "t-three-entries", "source-re-not-numbers", "detector-named-absorbed",
         "grid-differs-from-amplitude-source"],
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


@pytest.mark.parametrize("dk, number", [(1e-300, "3.18e-321"), (1e-170, "3.1830988618379066e-191")],
                         ids=["subnormal-number", "normal-number"])
def test_density_that_underflows_everywhere_exits_2_before_writing(tmp_path, capsys, dk, number):
    # a positive photon number whose rho products all underflow: no integral check could pass
    spec = {"kind": "amplitude", "N": 2, "dk": dk, "area": 1.0, "helicity": 1, "re": [1e-10, 1e-10],
            "im": [0.0, 0.0]}
    code, out = run(tmp_path, "density", "--state", write_json(tmp_path / "state.json", spec))
    assert code == 2
    assert capsys.readouterr().err == f"error: density underflows to zero everywhere for photon number {number}\n"
    assert not out.exists()


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
    real_density_field = density_mod.density_field

    def inflated(*args):
        field = real_density_field(*args)
        return replace(field, rho=1.5 * field.rho)

    monkeypatch.setattr(density_mod, "density_field", inflated)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "density", "--state", spec)
    assert code == 3
    assert "disagrees with photon number" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["density_integral"] == pytest.approx(1.5 * summary["photon_number"], rel=1e-8)


def test_circuit_conservation_violation_exits_3_after_writing_json(tmp_path, capsys, monkeypatch):
    real_run_circuit = circuit_mod.run_circuit

    def leaky(*args, **kwargs):
        pulse, ledger = real_run_circuit(*args, **kwargs)
        return replace(pulse, absorbed=pulse.absorbed + 0.25), ledger

    monkeypatch.setattr(circuit_mod, "run_circuit", leaky)
    netlist = write_json(tmp_path / "mz.json", mz_netlist(0.3))
    code, out = run(tmp_path, "circuit", "--netlist", netlist)
    assert code == 3
    result = json.loads((out / "circuit_result.json").read_text())
    assert result["conservation_sum"] == pytest.approx(1.25)
    err = f"error: conservation violated: detectors + absorbed = {result['conservation_sum']!r}\n"
    assert capsys.readouterr().err == err


def test_lossless_fresnel_defect_exits_3_after_writing_json(tmp_path, capsys, monkeypatch):
    _force_flux_defect(monkeypatch)
    code, out = run(tmp_path, "fresnel", "--n1", "1", "--n2", "3")
    assert code == 3
    result = json.loads((out / "fresnel.json").read_text())
    assert abs(result["conservation_defect"]) > 1e-12
    assert capsys.readouterr().err == f"error: flux conservation defect {result['conservation_defect']!r}\n"


def test_failed_csv_worker_exits_2_without_the_csv(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    fail_forked_csv_rows(monkeypatch)
    code, out = run(tmp_path, "localized", "--dim", "1", "--k-max", "1.0", "--points", "50001")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'localized.csv'}: ")
    assert err.count("error: ") == 1
    assert len(forks) == 1
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_density_exits_2_without_artifacts_when_the_fork_fails(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    fail_fork(monkeypatch, 1)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "--grid", "16384,1.0,1.0", "density", "--state", spec)
    assert code == 2
    assert capsys.readouterr().err == f"error: {OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))}\n"
    assert forks == []
    assert list(out.iterdir()) == []


def test_density_exits_2_without_artifacts_when_fields_csv_fails(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    fill_disk_while_formatting(monkeypatch, columns=5)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "--grid", "16384,1.0,1.0", "density", "--state", spec)
    assert code == 2
    assert capsys.readouterr().err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
    # one worker for the rows of density.csv and fields.csv both
    assert len(forks) == 1
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_columns_of_different_lengths_raise_and_leave_no_file(tmp_path):
    with pytest.raises(ValueError, match=r"CSV columns differ in length: \[3, 2\]"):
        cli_mod.write_csv_tables([(tmp_path / "a.csv", "a,b\n", (np.zeros(3), np.zeros(2)))],
                                 [(tmp_path / "a.json", "{}\n")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cpus", [3, None], ids=["counted", "unknown"])
def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch, cpus):
    # macOS has no sched_getaffinity; os.cpu_count() may return None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli_mod._usable_cpus() == (cpus or 1)


def test_density_run_at_two_cpus_forks_once(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "--grid", "16384,1.0,1.0", "density", "--state", spec)
    assert code == 0
    # one worker formats the second half of density.csv and fields.csv both
    assert len(forks) == 1
    assert sorted(p.name for p in out.iterdir()) == ["density.csv", "fields.csv", "summary.json"]


def test_density_run_traces_at_most_200_bytes_per_bin_over_eleven_syntheses(tmp_path, monkeypatch):
    # the whole run at N = 2**18 on one CPU; a pairing that holds two (3, N) syntheses at once traces about 296
    n = 2**18
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 1)
    real_synthesize = cli_mod.spec.synthesize_fields
    calls = []

    def synthesize(*args):
        calls.append(args[1])
        return real_synthesize(*args)

    for module in (cli_mod.spec, density_mod):
        monkeypatch.setattr(module, "synthesize_fields", synthesize)
    spec = write_json(tmp_path / "state.json", {"kind": "gaussian", "k0": 125000.0, "sigma": 6250.0})
    # the caches' entries are part of the run's memory, so they start empty
    cli_mod.spec._mode_factors.cache_clear()
    cli_mod.spec._phase.cache_clear()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code, _ = run(tmp_path, "--grid", f"{n},1.0,1.0", "density", "--state", spec, "--time", "0.25")
        peak = tracemalloc.get_traced_memory()[1] - before
        phases = cli_mod.spec._phase.cache_info().misses
    finally:
        if not tracing:
            tracemalloc.stop()
        cli_mod.spec._mode_factors.cache_clear()
        cli_mod.spec._phase.cache_clear()
    assert code == 0
    assert len(calls) == 11
    # the residual's times t - dt and t + dt first, then t for everything else
    assert phases == 3
    assert peak / n <= 200.0


def test_density_exits_2_without_artifacts_when_a_worker_write_fails(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 2)
    spy_worker_writes(monkeypatch, tmp_path / "worker-writes", errno.ENOSPC)
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    code, out = run(tmp_path, "--grid", "16384,1.0,1.0", "density", "--state", spec)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'density.csv'}, {out / 'fields.csv'}: a CSV row worker failed")
    assert err.endswith(f", {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n")
    assert err.count("error: ") == 1
    assert len(forks) == 1
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    spec = write_json(tmp_path / "state.json", GAUSSIAN_SPEC)
    runs = {
        "density": ["--grid", "16384,1.0,1.0", "density", "--state", spec],
        "dim1": ["localized", "--dim", "1", "--k-max", "1.0", "--points", "50001"],
        "dim3": ["localized", "--dim", "3", "--k-max", "1.0", "--delta-t", "50", "--points", "50001"],
    }

    def digests(tag):
        result = {}
        for name, argv in runs.items():
            out = tmp_path / tag / name
            assert main(["--out", str(out), *argv]) == 0
            for path in sorted(out.iterdir()):
                result[name, path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return result

    default = digests("default")
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 1)
    assert digests("one-worker") == default
    assert len(default) == 7


def _out_of_memory(module, name, size):
    """A patch that makes ``module.name`` raise MemoryError; it returns the size the error should name."""
    def patch(monkeypatch):
        def allocate(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(module, name, allocate)
        return size

    return patch


def _force_flux_defect(monkeypatch):
    # the non-conserving Fresnel pair under the default convention
    real = optics_mod.fresnel_interface
    monkeypatch.setattr(
        optics_mod, "fresnel_interface", lambda n1, n2, paper_convention=False: real(n1, n2, True)
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
        (("density", "--state", "{gaussian}"), 2, _out_of_memory(density_mod, "synthesize_fields", "--grid")),
        (("localized", "--dim", "1", "--k-max", "1.0"), 2,
         _out_of_memory(density_mod, "localized_density_1d", "--points")),
        (("circuit", "--netlist", "{mz}", "--samples", "100"), 2,
         _out_of_memory(circuit_mod, "sample_outcomes", "--samples")),
        (("momentum", "--state", "{gaussian}", "--chi", "1.25"), 2,
         _out_of_memory(optics_mod, "momentum_report", "--grid")),
        (("localized", "--dim", "3", "--k-max", "1", "--delta-t", "1e-320", "--points", "100"), 3, None),
        (("localized", "--dim", "1", "--k-max", "1", "--span", "1e308", "--points", "100"), 3, None),
    ],
    ids=["density-malformed", "density-wrap", "localized-dim", "localized-delta-t", "localized-window",
         "circuit-violations", "circuit-samples", "circuit-missing-file", "fresnel-non-finite",
         "fresnel-defect", "fresnel-imaginary-incident", "fresnel-negative-incident", "momentum-malformed",
         "density-out-of-memory", "localized-out-of-memory", "circuit-out-of-memory", "momentum-out-of-memory",
         "localized-3d-non-finite", "localized-1d-non-finite"],
)
def test_every_error_path_prints_one_error_line(tmp_path, capsys, monkeypatch, args, code, patch):
    size = patch(monkeypatch) if patch else None
    unwired = mz_netlist(0.3)
    unwired["elements"][0]["in"] = ["src"]
    paths = {
        "bad": write_json(tmp_path / "bad.json", [GAUSSIAN_SPEC]),
        "wrap": write_json(tmp_path / "wrap.json", GAUSSIAN_SPEC | {"x0": 0.0}),
        "unwired": write_json(tmp_path / "unwired.json", unwired),
        "mz": write_json(tmp_path / "mz.json", mz_netlist(0.3)),
        "absent": str(tmp_path / "absent.json"),
        "gaussian": write_json(tmp_path / "gaussian.json", GAUSSIAN_SPEC),
    }
    got, out = run(tmp_path, *(a.format(**paths) for a in args))
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("error: ") == 1
    if size:
        assert err.startswith(f"error: out of memory in {args[0]}; reduce {size}")
    if code == 2 or args[0] == "localized":
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
        out = Path(tmp) / "out"
        try:
            code = main(["--out", str(out), *argv])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in (0, 2, 3)
            # a failed localized run writes no artifact, NaN rows included
            assert code == 0 or not out.exists()


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
    ALL_KINDS_NETLIST["sources"][0]["state"],
    {"kind": "zero"},
    {"kind": "amplitude", **photonflux.make_gaussian_state(30.0, 2.0, photonflux.KGrid1D(64, 1.0, 1.0)).to_json()},
]
UNITS = [[], ["--units", "si"]]


def run_fuzzed_json(obj, *argv):
    """Exit code of one run on ``obj`` written as the {json} argument; see :func:`run_fuzzed_file`."""
    return run_fuzzed_file(json.dumps(obj).encode(), *argv)


def run_fuzzed_file(data: bytes, *argv):
    """Exit code of one run on ``data`` written as the {json} file; one error line iff nonzero.

    A flag that argparse rejects exits 2 through its usage message, whose error line starts ``photonflux: error: ``.
    Bad input and a non-finite result are both found before ``--out`` is created, so neither leaves it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                code = main(["--out", str(Path(tmp) / "out"), *(a.format(json=path) for a in argv)])
            except SystemExit as exc:
                code = exc.code
        out_exists = (Path(tmp) / "out").exists()
    assert code in (0, 2, 3)
    error_lines = [line for line in err.getvalue().splitlines() if line.startswith(("error: ", "photonflux: error: "))]
    assert len(error_lines) == (code != 0)
    if code == 2 or (code == 3 and error_lines[0].startswith("error: non-finite result: ")):
        assert not out_exists
    return code


def test_fuzz_seeds_run_clean():
    for units in UNITS:
        assert run_fuzzed_json(ALL_KINDS_NETLIST, *units, "circuit", "--netlist", "{json}", "--samples", "3") == 0
        for state in STATE_SPECS:
            for command in (["density"], ["momentum", "--chi", "1.25"]):
                assert run_fuzzed_json(state, *units, "--grid", "64,1.0,1.0", *command, "--state", "{json}") == 0


# every finite float, and the signed edges where a product or quotient of flags underflows or overflows
flag_float = finite | st.sampled_from([5e-324, 1e-320, 1e308, sys.float_info.max]).flatmap(
    lambda x: st.sampled_from([x, -x])
)
# three in four positive, for a flag that exits 2 on every negative value before it reaches the numerics
mostly_positive = flag_float | flag_float.map(abs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(state=st.sampled_from(STATE_SPECS), units=st.sampled_from(UNITS), time=flag_float, dk=mostly_positive,
       area=mostly_positive)
def test_density_flags_never_crash(state, units, time, dk, area):
    run_fuzzed_json(state, *units, f"--grid=64,{dk!r},{area!r}", "density", "--state", "{json}", f"--time={time!r}")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n1=st.tuples(mostly_positive, flag_float), n2=st.tuples(mostly_positive, flag_float), paper=st.booleans())
def test_fresnel_flags_never_crash(n1, n2, paper):
    run_fuzzed_file(b"", "fresnel", "--n1={!r},{!r}".format(*n1), "--n2={!r},{!r}".format(*n2),
                    *["--paper-convention"][:paper])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(state=st.sampled_from(STATE_SPECS), units=st.sampled_from(UNITS), chi=st.tuples(flag_float, flag_float))
def test_momentum_chi_never_crashes(state, units, chi):
    run_fuzzed_json(state, *units, "--grid", "64,1.0,1.0", "momentum", "--state", "{json}",
                    "--chi={!r},{!r}".format(*chi))


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


# ---- input files: one reader, strict UTF-8 JSON whatever the locale ----------

INPUT_COMMANDS = pytest.mark.parametrize(
    "command",
    [("--grid", "64,1.0,1.0", "density", "--state"), ("--grid", "64,1.0,1.0", "momentum", "--chi", "1.25", "--state"),
     ("circuit", "--netlist")],
    ids=["density", "momentum", "circuit"],
)
# file bytes -> a phrase of the decoder's message that the one error line carries
UNREADABLE_FILES = {
    "invalid-utf8": (b'{"k0": 1\xff}', "can't decode byte 0xff in position 8"),
    "utf16-bom": (json.dumps(GAUSSIAN_SPEC).encode("utf-16"), "can't decode byte 0x"),
    "deep-array": (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    "deep-field": (b'{"k0": ' + b"[" * 5000 + b"]" * 5000 + b"}", "maximum recursion depth exceeded"),
    "5000-digit-integer": (b'{"k0": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    "utf8-bom": (b"\xef\xbb\xbf" + json.dumps(GAUSSIAN_SPEC).encode(), "Unexpected UTF-8 BOM"),
    "syntax": (b"{not json", "Expecting property name enclosed in double quotes"),
}


@INPUT_COMMANDS
@pytest.mark.parametrize("name", UNREADABLE_FILES)
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, command, name):
    data, message = UNREADABLE_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    code, out = run(tmp_path, *command, str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


FIELD_NAMES = ["kind", "k0", "sigma", "helicity", "x0", "N", "dk", "area", "re", "im", "grid", "elements", "sources",
               "detectors", "vacuum", "id", "in", "out", "params", "port", "state", "t", "r", "phi", "chi", "length",
               "n_in", "n_out"]
# small numbers, so no drawn grid allocates the 2**24-bin arrays that would exhaust memory
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-4096, 4096) | st.floats(-1e3, 1e3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@INPUT_COMMANDS
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.binary(max_size=64) | small_json.map(lambda obj: json.dumps(obj, ensure_ascii=False).encode()))
def test_any_input_file_exits_0_2_or_3(command, data):
    run_fuzzed_file(data, *command, "{json}")


def test_circuit_reads_a_utf8_netlist_the_same_under_an_ascii_locale(tmp_path):
    netlist = mz_netlist(np.pi)
    netlist["elements"][2]["out"][0] = netlist["detectors"][0] = "d_\u00e9"
    path = tmp_path / "mz.json"
    path.write_bytes(json.dumps(netlist, ensure_ascii=False).encode())
    code, out = run(tmp_path, "circuit", "--netlist", str(path))
    assert code == 0
    env = {**os.environ, "PYTHONPATH": str(Path(photonflux.__file__).resolve().parent.parent), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    ascii_out = tmp_path / "ascii"
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c",
         "import locale, sys, photonflux.cli; assert locale.getpreferredencoding(False) != 'utf-8'; "
         "sys.exit(photonflux.cli.main(sys.argv[1:]))", "--out", str(ascii_out), "circuit", "--netlist", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert [(p.name, p.read_bytes()) for p in sorted(ascii_out.iterdir())] == [
        (p.name, p.read_bytes()) for p in sorted(out.iterdir())]


NON_FINITE_LOCALIZED = pytest.mark.parametrize(
    "args, error",
    [
        (("--dim", "3", "--k-max", "1", "--delta-t", "1e-320", "--points", "100"), "re(rho+)"),
        (("--dim", "1", "--k-max", "1", "--span", "1e308", "--points", "100"), "u"),
    ],
    ids=["3d-delta-t", "1d-span"],
)


@NON_FINITE_LOCALIZED
def test_non_finite_localized_run_warns_nothing(tmp_path, capsys, args, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "localized", *args)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: non-finite result: {error}\n"
    assert not out.exists()


@NON_FINITE_LOCALIZED
def test_non_finite_localized_run_prints_one_line_from_a_shell(tmp_path, args, error):
    # pytest captures warnings in-process; a fresh interpreter shows what a user would see
    env = {**os.environ, "PYTHONPATH": str(Path(photonflux.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "photonflux.cli", "--out", str(tmp_path / "out"), "localized", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"error: non-finite result: {error}\n"
    assert not (tmp_path / "out").exists()


# ---- circuit_result.json template writer --------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1e-5, 9999999999999998.0,
               1e15, 1e-4, 0.1, 1.0 / 3.0, 1.7976931348623157e308]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
ledger_number = (finite | st.sampled_from(EDGE_FLOATS)).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)
ledger_id = st.text() | st.sampled_from(["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\U0001F600\u00e9", "ledger"])
ledger_row = st.builds(circuit_mod.LedgerRow, ledger_id, ledger_number, ledger_number, ledger_number)


@st.composite
def circuit_payload(draw):
    """A circuit_result.json payload without its ledger: ports, sums and maybe samples."""
    ports = draw(st.lists(ledger_id, max_size=4, unique=True))
    payload = {
        "detectors": {p: {"probability": draw(finite), "delay": draw(finite)} for p in ports},
        "absorbed": draw(finite),
        "conservation_sum": draw(finite),
        "conservation_defect": draw(finite),
        "convention": draw(st.sampled_from(["default", "paper"])),
        "units": draw(st.sampled_from(["natural", "si"])),
    }
    if draw(st.booleans()):
        payload["samples"] = {label: draw(st.integers(0, 10**6)) for label in [*ports, "absorbed"]}
        payload["seed"] = draw(st.integers(0, 2**63))
    return payload


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    payload=circuit_payload(),
    # many rows repeat a few drawn ones: drawing hundreds costs seconds and tests no more of the template
    rows=st.lists(ledger_row, max_size=3) | st.lists(ledger_row, min_size=2, max_size=6).map(lambda r: r * 40),
    planted=st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(["number_in", "number_out", "absorbed"]),
                                  st.sampled_from(NON_FINITE)),
)
def test_ledger_template_writes_what_json_dumps_writes(payload, rows, planted):
    name = None
    if planted is not None and rows:
        index, field, value = planted
        row = rows[index % len(rows)] = replace(rows[index % len(rows)], **{field: value})
        name = f"ledger[{row.element_id}].{field}"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run = cli_mod.Run({}, "circuit_result.json", payload, tuple(rows))
        if name is not None:
            with pytest.raises(cli_mod.InvariantError) as caught:
                cli_mod._write_run(out, run)
            assert str(caught.value) == f"non-finite result: {name}"
            assert not out.exists()
        else:
            cli_mod._write_run(out, run)
            ledger = [{"element": r.element_id, "number_in": r.number_in, "number_out": r.number_out,
                       "absorbed": r.absorbed} for r in rows]
            expected = json.dumps(payload | {"ledger": ledger}, sort_keys=True, indent=2, allow_nan=False)
            assert (out / run.name).read_bytes() == (expected + "\n").encode()
