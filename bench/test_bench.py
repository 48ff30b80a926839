"""Tests of the benchmark itself: repeatable counts, valid inputs, oracles that bite.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil

import numpy as np
import pytest

import run
from workloads import DENSITY_N, TWO_PI, WORKLOADS, mesh_netlist

cli = run.import_cli()
from photonflux import circuit  # noqa: E402  (importable once run.import_cli() set the path)

COUNT_KEYS = ("spectral.fft_points", "circuit.elements", "cli.artifact_bytes")
# fewer counted ops than a real run keeps the test quick
TEST_COUNT_OPS = {"density_cli": 2, "localized_cli": 1, "circuit_mesh": 2, "circuit_sweep": 10}


def traced_counts(name: str, seed: int, work) -> dict:
    workload = dataclasses.replace(WORKLOADS[name], count_ops=TEST_COUNT_OPS[name])
    result = run.measure_traced(cli, workload, run.Inputs(workload, seed, work), 0.0, work)
    assert result["failures"] == []  # includes traced artifacts differing from untraced
    values = run.layer_values(workload, result)
    declared = {m["name"] for m in run.declared("per_layer")}
    assert declared <= set(values)
    return {k: v for k, v in values.items()
            if k.endswith((".calls", ".bytes")) or k in COUNT_KEYS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_traced_runs_give_identical_counts(name, tmp_path):
    first = traced_counts(name, 7, tmp_path / "a")
    second = traced_counts(name, 7, tmp_path / "b")
    assert first == second
    if name == "density_cli":
        assert first["spectral.synthesize_fields.calls"] == 11
        assert first["spectral.fft_points"] == 11 * 3 * DENSITY_N
    if name.startswith("circuit_"):
        assert first["circuit.validate.calls"] == 2


def test_untraced_run_replays_byte_identical(tmp_path):
    workload = WORKLOADS["circuit_sweep"]
    result = run.measure(cli, workload, run.Inputs(workload, 3, tmp_path), 0.0, tmp_path)
    assert len(result["times_ms"]) == 1
    assert result["failures"] == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_meshes_validate(seed):
    for index in range(3):
        obj, params = mesh_netlist(np.random.default_rng((seed, index)))
        netlist = circuit.netlist_from_json(json.loads(json.dumps(obj)))
        assert circuit.validate(netlist) == []
        assert len(netlist.elements) == 1056
        assert len(params["cells"]) == 32 * 31 // 2


def test_tail_is_highest_percentile_with_ten_beyond():
    times = list(range(1, 101))
    assert run.tail_ms(times) == (90, 90.0, 10)
    assert run.tail_ms(times[:11]) == (6, 50.0, 5)


def _edit_json(path, change):
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def _drop_last_line(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


def _bump_sample(obj):
    first = sorted(obj["samples"])[0]
    obj["samples"][first] += 1


PERTURBATIONS = {
    "density_cli": {
        "photon_number": lambda out: _edit_json(
            out / "summary.json", lambda s: s.update(photon_number=s["photon_number"] + 2e-9)),
        "density_integral": lambda out: _edit_json(
            out / "summary.json", lambda s: s.update(density_integral=s["density_integral"] + 2e-8)),
        "continuity_residual": lambda out: _edit_json(
            out / "summary.json", lambda s: s.update(continuity_residual=2e-6)),
        "centroid": lambda out: _edit_json(
            out / "summary.json", lambda s: s.update(centroid=s["centroid"] + 2 * TWO_PI / DENSITY_N)),
        "density_rows": lambda out: _drop_last_line(out / "density.csv"),
        "field_rows": lambda out: _drop_last_line(out / "fields.csv"),
    },
    "localized_cli": {
        "rho_plus_at_zero": lambda out: _edit_json(
            out / "dim1" / "localized_summary.json",
            lambda s: s.update(rho_plus_at_zero=math.nextafter(s["rho_plus_at_zero"], 1.0))),
        "tail_order": lambda out: _edit_json(
            out / "dim1" / "localized_summary.json",
            lambda s: s.update(tail_mass_physical=s["tail_mass_positive_frequency"])),
        "shell_above_one": lambda out: _edit_json(
            out / "dim3" / "localized_summary.json", lambda s: s.update(shell_mass_fraction=1.0 + 1e-12)),
        "shell_zero": lambda out: _edit_json(
            out / "dim3" / "localized_summary.json", lambda s: s.update(shell_mass_fraction=0.0)),
        "rows": lambda out: _drop_last_line(out / "dim3" / "localized.csv"),
    },
    "circuit_mesh": {
        "detector": lambda out: _edit_json(
            out / "circuit_result.json",
            lambda r: r["detectors"]["t5"].update(probability=r["detectors"]["t5"]["probability"] + 1e-9)),
        "absorbed": lambda out: _edit_json(
            out / "circuit_result.json", lambda r: r.update(absorbed=r["absorbed"] + 1e-9)),
        "conservation": lambda out: _edit_json(
            out / "circuit_result.json", lambda r: r.update(conservation_defect=2e-9)),
        "samples": lambda out: _edit_json(out / "circuit_result.json", _bump_sample),
        "ledger": lambda out: _edit_json(out / "circuit_result.json", lambda r: r["ledger"].pop()),
    },
    "circuit_sweep": {
        "d_bright": lambda out: _edit_json(
            out / "circuit_result.json",
            lambda r: r["detectors"]["d_bright"].update(
                probability=r["detectors"]["d_bright"]["probability"] + 1e-11)),
        "samples": lambda out: _edit_json(out / "circuit_result.json", _bump_sample),
    },
}


@pytest.fixture(scope="module")
def op_outputs(tmp_path_factory):
    """One op per workload, run through the CLI once and shared by the perturbation cases."""
    outputs = {}
    for name, workload in WORKLOADS.items():
        base = tmp_path_factory.mktemp(name)
        op = workload.make_op(5, 1, base)
        _, error = run.run_op(cli.main, op, base / "out")
        assert error is None
        outputs[name] = (op, base / "out")
    return outputs


@pytest.mark.parametrize(
    "name,case", [(n, c) for n, cases in PERTURBATIONS.items() for c in cases])
def test_oracle_flags_perturbed_result(name, case, op_outputs, tmp_path):
    op, out = op_outputs[name]
    check = WORKLOADS[name].check
    assert check(op, out) == []
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    PERTURBATIONS[name][case](copy)
    assert check(op, copy) != []
