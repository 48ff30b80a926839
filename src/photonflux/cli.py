"""Batch command-line front end.

Subcommands: density, localized, circuit, fresnel, momentum.  All output is
CSV/JSON written under --out; runs are deterministic for a given config and
seed.  Exit codes: 0 success, 2 input or validation error (including
malformed JSON and numeric flags that are non-finite or do not parse), 3
numerical invariant violated (including a non-finite result).  Each
``cmd_*`` raises a :class:`PhotonfluxError` on bad input and an
:class:`InvariantError` on a broken invariant; :func:`main` alone turns the
outcome into an exit code and one ``error: ...`` line on stderr.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import circuit as circ
from . import density as dens
from . import optics
from . import spectral as spec
from .errors import DomainError, InvariantError, NetlistError, PhotonfluxError
from .units import units_for

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _finite_float(text: str) -> float:
    """argparse type: a NaN or infinity exits 2 with a message naming the flag."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: numpy seeds its generator only from integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _parse_grid(text: str) -> spec.KGrid1D:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expects N,dk,area")
    n, dk, area = int(parts[0]), _finite_float(parts[1]), _finite_float(parts[2])
    try:
        return spec.KGrid1D(n=n, dk=dk, area=area)
    except PhotonfluxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r} (use 're' or 're,im')")
    return complex(*(_finite_float(p) for p in parts))


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InvariantError(f"{path.name}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _csv_header(t: float, k_max: float, units, columns: str) -> str:
    """The ``# t=... k_max=... units=...`` comment line and the column-name line."""
    return f"# t={float(t)!r} k_max={float(k_max)!r} units={units.mode}\n{columns}\n"


def _load_state_spec(path: str, grid: spec.KGrid1D) -> spec.SpectralAmplitude:
    with open(path) as fh:
        obj = json.load(fh)
    return circ.state_from_spec(obj, grid)


def cmd_density(args) -> None:
    state = _load_state_spec(args.state, args.grid)
    t, units = args.time, args.units
    field = dens.density_field(state, state, t, units)
    spec.assert_support_clear(field.rho)
    current = dens.current_field(state, state, t, units)
    fields = spec.synthesize_fields(state, t, units)

    number = spec.photon_number(state)
    if number > 0.0:
        # small enough that the centered-difference truncation error stays
        # below 1e-6 even for broadband pulses
        dt = state.grid.dx / (256.0 * units.c)
        residual = dens.continuity_residual(state, t, dt, units)
    else:
        residual = 0.0

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    x = state.grid.x
    dens.write_density_csv(
        out / "density.csv", _csv_header(t, state.grid.k_max, units, "x,rho,J"), (x, field.rho, current)
    )
    a, e = fields.a_plus, fields.e_plus
    dens.write_density_csv(
        out / "fields.csv", "x,re(A+),im(A+),re(E+),im(E+)\n", (x, a.real, a.imag, e.real, e.imag)
    )

    total = field.total()
    summary = {
        "photon_number": number,
        "density_integral": total,
        "centroid": field.centroid(),
        "min_rho": float(field.rho.min()),
        "continuity_residual": residual,
        "time": t,
        "units": units.mode,
    }
    _write_json(out / "summary.json", summary)
    if number > 0.0 and abs(total - number) > 1e-8 * number:
        raise InvariantError(f"density integral {total!r} disagrees with photon number {number!r}")


def cmd_localized(args) -> None:
    k_max, dt, units = args.k_max, args.delta_t, args.units
    if args.dim not in (1, 3):
        raise DomainError("--dim must be 1 or 3")
    if k_max <= 0:
        raise DomainError("--k-max must be positive")
    if args.points < 2:
        raise DomainError("--points must be at least 2")
    if args.dim == 1:
        half = args.span / k_max
        coords = np.linspace(-half, half, args.points)
        rho_plus = dens.localized_density_1d(coords, k_max, args.grid.area)
        rho_phys = 2.0 * rho_plus.real
        window = 50.0 / k_max
        measures = {
            "tail_mass_physical": dens.tail_mass(rho_phys, coords, window, center=0.0),
            "tail_mass_positive_frequency": dens.tail_mass(rho_plus, coords, window, center=0.0),
            "rho_plus_at_zero": k_max / (2.0 * np.pi * args.grid.area),
        }
    else:
        shell = units.c * dt
        if shell <= 0:
            raise DomainError("--delta-t must be positive for dim=3")
        coords = np.linspace(2.0 * shell / args.points, 2.0 * shell, args.points)
        rho_plus = dens.localized_density_3d_profile(coords, dt, k_max, units.c)
        rho_phys = 2.0 * rho_plus.real
        window = 10.0 / k_max
        measures = {
            "shell_radius": shell,
            "shell_mass_fraction": dens.shell_mass_fraction(coords, rho_phys, shell, window),
        }
    summary = {"dim": args.dim, "k_max": k_max, "window_halfwidth": window, "units": units.mode, **measures}

    # the measures above can reject the window, so --out is created only after them
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    dens.write_density_csv(
        out / "localized.csv", _csv_header(dt, k_max, units, "u,re(rho+),im(rho+),rho"),
        (coords, rho_plus.real, rho_plus.imag, rho_phys),
    )
    _write_json(out / "localized_summary.json", summary)


def cmd_circuit(args) -> None:
    if args.samples < 0:
        raise DomainError("--samples must be non-negative")
    netlist = circ.load_netlist(args.netlist, default_grid=args.grid)
    violations = circ.validate(netlist)
    if violations:
        raise NetlistError("\n".join(f"violation: {v}" for v in violations))
    pulse, ledger = circ.run_circuit(netlist, units=args.units, paper_convention=args.paper_convention)
    conservation = pulse.total_probability() + pulse.absorbed
    result = {
        "detectors": {
            port: {"probability": rec.probability, "delay": rec.delay}
            for port, rec in pulse.ports.items()
        },
        "absorbed": pulse.absorbed,
        "conservation_sum": conservation,
        "conservation_defect": conservation - 1.0,
        "convention": "paper" if args.paper_convention else "default",
        "ledger": [
            {"element": row.element_id, "number_in": row.number_in, "number_out": row.number_out,
             "absorbed": row.absorbed}
            for row in ledger.rows
        ],
        "units": args.units.mode,
    }
    if args.samples:
        result["samples"] = circ.sample_outcomes(pulse, args.seed, args.samples)
        result["seed"] = args.seed
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "circuit_result.json", result)
    if not args.paper_convention and abs(conservation - 1.0) > circ.CONSERVATION_TOL:
        raise InvariantError(f"conservation violated: detectors + absorbed = {conservation!r}")


def cmd_fresnel(args) -> None:
    n1, n2 = args.n1, args.n2
    budget = optics.interface_budget(n1, n2, paper_convention=args.paper_convention)
    result = {
        "n1": [n1.real, n1.imag],
        "n2": [n2.real, n2.imag],
        "r": [budget.r.real, budget.r.imag],
        "t": [budget.t.real, budget.t.imag],
        "reflectance": budget.reflectance,
        "transmittance": budget.transmittance,
        "conservation_sum": budget.total,
        "conservation_defect": budget.defect,
        "convention": budget.convention,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "fresnel.json", result)
    lossless = n1.imag == 0.0 and n2.imag == 0.0
    if not args.paper_convention and lossless and abs(budget.defect) > 1e-12:
        raise InvariantError(f"flux conservation defect {budget.defect!r}")


def cmd_momentum(args) -> None:
    state = _load_state_spec(args.state, args.grid)
    chi = args.chi
    report = optics.momentum_report(state, chi, args.units)
    result = {
        "photon_number": spec.photon_number(state),
        "p_abraham": report.p_abraham,
        "p_minkowski": report.p_minkowski,
        "minkowski_defined": report.minkowski_defined,
        "chi": [chi.real, chi.imag],
        "units": args.units.mode,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "momentum.json", result)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # building the argparse tree costs about ten parses, so a process builds it once
    parser = argparse.ArgumentParser(
        prog="photonflux",
        description="One-photon density/current audits and optical-circuit runs.",
    )
    parser.add_argument("--units", type=units_for, default="natural", metavar="{natural,si}")
    parser.add_argument("--out", type=Path, default="photonflux_out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--grid", type=_parse_grid, default="4096,1.0,1.0", help="N,dk,area")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="density/current arrays and conservation summary")
    p.add_argument("--state", required=True, help="state-spec JSON file")
    p.add_argument("--time", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("localized", help="band-limited localized density closed forms")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k-max", type=_finite_float, required=True)
    p.add_argument("--delta-t", type=_finite_float, default=0.0)
    p.add_argument("--points", type=int, default=4001)
    p.add_argument("--span", type=_finite_float, default=500.0, help="u-range in units of 1/k_max (dim=1)")
    p.set_defaults(func=cmd_localized)

    p = sub.add_parser("circuit", help="validate and run a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--paper-convention", action="store_true")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("fresnel", help="interface coefficients and flux budget")
    p.add_argument("--n1", type=_parse_complex, required=True)
    p.add_argument("--n2", type=_parse_complex, required=True)
    p.add_argument("--paper-convention", action="store_true")
    p.set_defaults(func=cmd_fresnel)

    p = sub.add_parser("momentum", help="Abraham/Minkowski momentum report")
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=_parse_complex, required=True)
    p.set_defaults(func=cmd_momentum)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an outcome becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except OverflowError:
        # a Python float overflow is a non-finite result, like a NaN in the JSON
        print("error: non-finite result: float overflow", file=sys.stderr)
        return EXIT_INVARIANT
    except (PhotonfluxError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, InvariantError) else EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
