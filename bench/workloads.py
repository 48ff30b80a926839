"""Seeded inputs, CLI invocations and output oracles for the four bench workloads.

Every op draws its parameters from ``numpy.random.default_rng((seed, index))``,
so op ``index`` of a given seed is the same whatever else the run does.  The
program only ever sees the argv and the JSON input files written here; the
oracles read its artifacts back and recompute what they can independently
(no photonflux code is used to check photonflux results).
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# density_cli: k0/sigma ranges keep the Gaussian 1e-10-clean at both grid
# edges (|k - k0| > 9.6 sigma) and |t| <= 1 keeps the pulse far from the
# periodic wrap of the L = 2 pi domain.
DENSITY_N = 16384
DENSITY_GRID = f"{DENSITY_N},1.0,1.0"

LOCALIZED_POINTS = 50001
LOCALIZED_DELTA_T = 50.0

MESH_MODES = 32
MESH_GRID = {"N": 1024, "dk": 1.0, "area": 1.0}
MESH_SOURCE = {"kind": "gaussian", "k0": 512.0, "sigma": 24.0}
MESH_SAMPLES = 1000

SWEEP_GRID = {"N": 256, "dk": 1.0, "area": 1.0}
SWEEP_SOURCE = {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}
SWEEP_SAMPLES = 100000


@dataclass
class Op:
    """One closed-loop operation: one or more ``cli.main`` calls.

    ``calls`` holds ``(subdir, argv_tail)`` pairs; the harness runs
    ``["--out", out_dir / subdir, *argv_tail]`` for each.  ``params`` is what
    the oracle needs to know about the drawn inputs.
    """

    calls: list
    params: dict = field(default_factory=dict)

    def argvs(self, out_dir: Path) -> list:
        return [["--out", str(out_dir / sub), *tail] for sub, tail in self.calls]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _write_json(path: Path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# --------------------------------------------------------------------------
# density_cli


def density_op(seed: int, index: int, inputs: Path) -> Op:
    rng = _rng(seed, index)
    k0 = float(rng.uniform(4000.0, 12000.0))
    sigma = float(rng.uniform(100.0, 400.0))
    t = float(rng.uniform(-1.0, 1.0))
    state = _write_json(
        inputs / f"state{index}.json", {"kind": "gaussian", "k0": k0, "sigma": sigma}
    )
    tail = ["--grid", DENSITY_GRID, "density", "--state", state, "--time", repr(t)]
    return Op([("", tail)], {"t": t})


def density_check(op: Op, out: Path) -> list:
    s = _read_json(out / "summary.json")
    dx = TWO_PI / DENSITY_N
    errors = []
    if not _close(s["photon_number"], 1.0, 1e-9):
        errors.append(f"photon_number {s['photon_number']!r} != 1")
    if not _close(s["density_integral"], s["photon_number"], 1e-8):
        errors.append(f"density_integral {s['density_integral']!r} != photon_number")
    if not (0.0 <= s["continuity_residual"] <= 1e-6):
        errors.append(f"continuity_residual {s['continuity_residual']!r} > 1e-6")
    # the envelope starts at the domain midpoint and moves at c = 1
    expected = 0.5 * TWO_PI + op.params["t"]
    if not _close(s["centroid"], expected, dx):
        errors.append(f"centroid {s['centroid']!r} not within dx of {expected!r}")
    # header lines: one comment + column names for density.csv, names only for fields.csv
    if _line_count(out / "density.csv") != DENSITY_N + 2:
        errors.append("density.csv does not hold one row per grid point")
    if _line_count(out / "fields.csv") != DENSITY_N + 1:
        errors.append("fields.csv does not hold one row per grid point")
    return errors


# --------------------------------------------------------------------------
# localized_cli


def localized_op(seed: int, index: int, inputs: Path) -> Op:
    k_max = float(_rng(seed, index).uniform(0.5, 5.0))
    k = repr(k_max)
    points = str(LOCALIZED_POINTS)
    calls = [
        ("dim1", ["localized", "--dim", "1", "--k-max", k, "--points", points]),
        ("dim3", ["localized", "--dim", "3", "--k-max", k,
                  "--delta-t", repr(LOCALIZED_DELTA_T), "--points", points]),
    ]
    return Op(calls, {"k_max": k_max})


def localized_check(op: Op, out: Path) -> list:
    k_max = op.params["k_max"]
    one = _read_json(out / "dim1" / "localized_summary.json")
    three = _read_json(out / "dim3" / "localized_summary.json")
    errors = []
    # default transverse area is 1
    if one["rho_plus_at_zero"] != k_max / (TWO_PI * 1.0):
        errors.append(f"rho_plus_at_zero {one['rho_plus_at_zero']!r} != k_max/(2 pi A)")
    if not one["tail_mass_physical"] < one["tail_mass_positive_frequency"]:
        errors.append("physical tail mass is not below the positive-frequency tail mass")
    if not 0.0 < three["shell_mass_fraction"] <= 1.0:
        errors.append(f"shell_mass_fraction {three['shell_mass_fraction']!r} outside (0, 1]")
    for sub in ("dim1", "dim3"):
        if _line_count(out / sub / "localized.csv") != LOCALIZED_POINTS + 2:
            errors.append(f"{sub}/localized.csv does not hold one row per point")
    return errors


# --------------------------------------------------------------------------
# circuit_mesh


def clements_cells(modes: int) -> list:
    """(layer, upper mode) of every 2x2 cell of a rectangular Clements mesh."""
    return [
        (layer, i)
        for layer in range(modes)
        for i in range(layer % 2, modes - 1, 2)
    ]


def mesh_netlist(rng: np.random.Generator, modes: int = MESH_MODES) -> tuple:
    """Clements mesh driven on mode 0, each output through a lossy segment and an interface.

    A cell is a phase shifter on its upper arm followed by a real
    beam splitter (t, r) = (cos theta, sin theta).  Returns the netlist JSON
    object and the drawn parameters the oracle needs.
    """
    cur = [f"in{i}" for i in range(modes)]
    elements = []
    cells = []
    for layer, i in clements_cells(modes):
        phi = float(rng.uniform(0.0, TWO_PI))
        theta = float(rng.uniform(0.0, 0.5 * math.pi))
        t, r = math.cos(theta), math.sin(theta)
        shifted = f"p{layer}_{i}"
        elements.append({"id": f"ps{layer}_{i}", "kind": "phase_shifter",
                         "params": {"phi": phi}, "in": [cur[i]], "out": [shifted]})
        outs = [f"m{layer}_{i}", f"m{layer}_{i + 1}"]
        elements.append({"id": f"bs{layer}_{i}", "kind": "beam_splitter",
                         "params": {"t": t, "r": r}, "in": [shifted, cur[i + 1]], "out": outs})
        cur[i], cur[i + 1] = outs
        cells.append((i, phi, t, r))
    ends = []
    detectors = []
    for j in range(modes):
        chi_im = float(rng.uniform(1e-3, 4e-3))
        length = float(rng.uniform(0.2, 0.6))
        n_out = float(rng.uniform(1.3, 2.0))
        elements.append({"id": f"med{j}", "kind": "medium_segment",
                         "params": {"chi": [1.25, chi_im], "length": length},
                         "in": [cur[j]], "out": [f"w{j}"]})
        elements.append({"id": f"if{j}", "kind": "interface",
                         "params": {"n_in": 1.0, "n_out": n_out},
                         "in": [f"w{j}"], "out": [f"t{j}", f"r{j}"]})
        detectors += [f"t{j}", f"r{j}"]
        ends.append((complex(1.25, chi_im), length, n_out))
    netlist = {
        "grid": MESH_GRID,
        "elements": elements,
        "sources": [{"port": "in0", "state": MESH_SOURCE}],
        "detectors": detectors,
        "vacuum": [f"in{i}" for i in range(1, modes)],
    }
    return netlist, {"cells": cells, "ends": ends}


def mesh_op(seed: int, index: int, inputs: Path) -> Op:
    rng = _rng(seed, index)
    netlist, params = mesh_netlist(rng)
    path = _write_json(inputs / f"mesh{index}.json", netlist)
    cli_seed = str(int(rng.integers(2**31)))
    tail = ["--seed", cli_seed, "circuit", "--netlist", path, "--samples", str(MESH_SAMPLES)]
    return Op([("", tail)], params)


def mesh_expected(params: dict) -> tuple:
    """Detector probabilities and absorbed number from 2x2 products, by plain numpy.

    The mode amplitudes are column 0 of the product of the embedded cell
    matrices; each output's photon number is then attenuated bin by bin by
    the medium's |exp(i n omega L)|^2 over the normalized source spectrum and
    split by the flux-normalized Fresnel pair of its interface.
    """
    modes = len(params["ends"])
    u = np.eye(modes, dtype=complex)
    for i, phi, t, r in params["cells"]:
        upper = u[i] * np.exp(1j * phi)
        lower = u[i + 1].copy()
        u[i] = t * upper - np.conj(r) * lower
        u[i + 1] = r * upper + np.conj(t) * lower
    amp2 = np.abs(u[:, 0]) ** 2

    k = MESH_GRID["dk"] * np.arange(1, MESH_GRID["N"] + 1)
    weight = np.exp(-((k - MESH_SOURCE["k0"]) ** 2) / (2.0 * MESH_SOURCE["sigma"] ** 2))
    weight /= weight.sum()
    probs = {}
    absorbed = 0.0
    for j, (chi, length, n_out) in enumerate(params["ends"]):
        n = np.sqrt(1.0 + chi)
        kept = amp2[j] * float(np.sum(weight * np.exp(-2.0 * n.imag * k * length)))
        absorbed += amp2[j] - kept
        n_in = 1.0
        probs[f"t{j}"] = kept * abs(2.0 * n_in / (n_in + n_out)) ** 2 * n_out / n_in
        probs[f"r{j}"] = kept * abs((n_in - n_out) / (n_in + n_out)) ** 2
    return probs, float(absorbed)


def _circuit_common(result: dict, samples: int, elements: int) -> list:
    errors = []
    if not _close(result["conservation_defect"], 0.0, 1e-9):
        errors.append(f"conservation defect {result['conservation_defect']!r}")
    total = sum(result.get("samples", {}).values())
    if total != samples:
        errors.append(f"sample counts sum to {total}, not {samples}")
    if len(result["ledger"]) != elements:
        errors.append(f"ledger has {len(result['ledger'])} rows, not {elements}")
    return errors


def mesh_check(op: Op, out: Path) -> list:
    result = _read_json(out / "circuit_result.json")
    modes = len(op.params["ends"])
    errors = _circuit_common(result, MESH_SAMPLES, 2 * len(op.params["cells"]) + 2 * modes)
    probs, absorbed = mesh_expected(op.params)
    got = {port: rec["probability"] for port, rec in result["detectors"].items()}
    if set(got) != set(probs):
        return errors + ["detector ports differ from the generated netlist"]
    worst = max(abs(got[p] - probs[p]) for p in probs)
    if not worst <= 1e-10:
        errors.append(f"detector probability off the 2x2 product by {worst:.3e}")
    if not _close(result["absorbed"], absorbed, 1e-10):
        errors.append(f"absorbed {result['absorbed']!r} != {absorbed!r}")
    return errors


# --------------------------------------------------------------------------
# circuit_sweep


def mach_zehnder(phi: float) -> dict:
    """The README Mach-Zehnder netlist with arm phase ``phi``."""
    half = 1.0 / math.sqrt(2.0)
    return {
        "grid": SWEEP_GRID,
        "elements": [
            {"id": "bs1", "kind": "beam_splitter", "params": {"t": half, "r": half},
             "in": ["src", "vac"], "out": ["a", "b"]},
            {"id": "ps", "kind": "phase_shifter", "params": {"phi": phi},
             "in": ["a"], "out": ["a2"]},
            {"id": "bs2", "kind": "beam_splitter", "params": {"t": half, "r": half},
             "in": ["a2", "b"], "out": ["d_dark", "d_bright"]},
        ],
        "sources": [{"port": "src", "state": SWEEP_SOURCE}],
        "detectors": ["d_dark", "d_bright"],
        "vacuum": ["vac"],
    }


def sweep_op(seed: int, index: int, inputs: Path) -> Op:
    rng = _rng(seed, index)
    phi = float(rng.uniform(0.0, TWO_PI))
    path = _write_json(inputs / f"mz{index}.json", mach_zehnder(phi))
    cli_seed = str(int(rng.integers(2**31)))
    tail = ["--seed", cli_seed, "circuit", "--netlist", path, "--samples", str(SWEEP_SAMPLES)]
    return Op([("", tail)], {"phi": phi})


def sweep_check(op: Op, out: Path) -> list:
    result = _read_json(out / "circuit_result.json")
    errors = _circuit_common(result, SWEEP_SAMPLES, 3)
    bright = result["detectors"]["d_bright"]["probability"]
    expected = math.cos(0.5 * op.params["phi"]) ** 2
    if not _close(bright, expected, 1e-12):
        errors.append(f"d_bright {bright!r} != cos^2(phi/2) = {expected!r}")
    return errors


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object
    check: object
    # inputs generated before timing starts; later ops are generated between ops
    pool: int
    # traced ops over which per-op counts are averaged (always completed)
    count_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("density_cli", density_op, density_check, pool=80, count_ops=4),
        Workload("localized_cli", localized_op, localized_check, pool=40, count_ops=2),
        Workload("circuit_mesh", mesh_op, mesh_check, pool=20, count_ops=4),
        Workload("circuit_sweep", sweep_op, sweep_check, pool=300, count_ops=50),
    )
}
