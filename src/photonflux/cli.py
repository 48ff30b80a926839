"""Batch command-line front end.

Subcommands: density, localized, circuit, fresnel, momentum.  Each ``cmd_*``
reads its inputs by :func:`spectral.read_json` alone and returns a
:class:`Run`; :func:`main` alone writes it by :func:`_write_run`, which
names the first non-finite result and renders every artifact before --out
exists (so a failed run leaves none of its files), evaluates its checks and
maps the outcome to an exit code and one ``error: ...`` line on stderr: 0
success, 2 bad input (an input file that is not UTF-8 JSON or not a valid
spec, a numeric flag that is non-finite, does not parse or exceeds its
ceiling, a size that exhausts memory, a density that underflows to zero
everywhere), 3 numerical invariant violated (a non-finite result too).
Runs are deterministic for a given config and seed.  ``density``,
``circuit`` and ``optics`` are imported only by the subcommands that run them.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import threading
import warnings
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


def _count(text: str) -> int:
    """argparse type: a count at most the grid's ceiling, so no count allocates unchecked."""
    value = int(text)
    if value > spec.MAX_GRID_N:
        raise argparse.ArgumentTypeError(f"must be at most 2**24 = {spec.MAX_GRID_N}, got {value}")
    return value


def _parse_grid(text: str) -> spec.KGrid1D:
    n, dk, area = text.split(",")
    try:
        return spec.KGrid1D(n=int(n), dk=_finite_float(dk), area=_finite_float(area))
    except PhotonfluxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r} (use 're' or 're,im')")
    return complex(*(_finite_float(p) for p in parts))


def _flag(parse, form: str):
    """argparse type: ``parse``, where text it cannot read (a ValueError) exits 2 naming the ``form`` it takes.

    argparse itself would name the function, as ``invalid _parse_grid value``.
    """
    def flag(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}") from None
    return flag


class Run(NamedTuple):
    """One subcommand's results: ``tables`` maps each CSV file name to ``(comment line, {column: float array})``,
    ``payload`` is the JSON artifact ``name`` and its ``"ledger"`` list holds the ``LedgerRow``s of ``ledger``.
    ``checks`` are ``(failed, message)`` pairs, evaluated after the write so a broken law leaves its numbers."""
    tables: dict
    name: str
    payload: dict
    ledger: tuple | None = None
    checks: tuple = ()


# one circuit ledger row, and the empty top-level list the rows replace, as json.dumps(sort_keys=True, indent=2)
# lays them out; a string holds no raw newline, so only a top-level key starts a line with two spaces
_LEDGER_ROW = '\n    {\n      "absorbed": %s,\n      "element": %s,\n      "number_in": %s,\n      "number_out": %s\n    }'
_LEDGER_SLOT = '\n  "ledger": []'
_LEDGER_NUMBERS = ("absorbed", "number_in", "number_out")  # in the order a row lists them


def _write_run(out: Path, run: Run) -> None:
    """Write one run's artifacts: the first NaN or infinity raises :class:`InvariantError` naming it; the JSON is
    rendered next, and only then is ``out`` created and every file written by one :func:`write_csv_tables` pass."""
    for quantity in _non_finite(run):
        raise InvariantError(f"non-finite result: {quantity}")
    text = _render_json(run.payload, run.ledger)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_tables([(out / table, f"{comment}{','.join(columns)}\n", tuple(columns.values()))
                      for table, (comment, columns) in run.tables.items()], [(out / run.name, text)])


# rows formatted per block: bounds the arrays a block's formatting holds
_CSV_BLOCK_ROWS = 1024


def _write_all(fd: int, data) -> None:
    """Write all of ``data`` to descriptor ``fd``: the one write of an artifact, in the caller and its workers."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _csv_workers(rows: int) -> int:
    """Processes that format a run of tables of ``rows`` rows; 1 means no fork.

    A fork costs a few ms, so each worker gets at least four blocks, and a
    process with other Python threads is never forked.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), rows // (4 * _CSV_BLOCK_ROWS)))


def _format_block(writes, columns, tables, lo: int, hi: int) -> None:
    """Pass rows ``[lo, hi)`` of each table, a list of indices into the distinct ``columns``, to its ``writes``
    entry as CSV bytes: :func:`floatrepr.slots` renders each column's rows once, in one float64 copy."""
    # imported here: building its tables costs milliseconds and about 1 MB of
    # RSS, which the subcommands that write no CSV need not pay
    from . import floatrepr

    words = floatrepr.slots(np.stack([column[lo:hi] for column in columns], axis=1)).reshape(hi - lo, -1, 4)
    for write, table in zip(writes, tables):
        # a gathered copy: csv_rows writes a table's separators into the slots
        write(floatrepr.csv_rows(words.take(table, axis=1)))


def _format_rows(writes, columns, tables, start: int, stop: int) -> None:
    """:func:`_format_block` on rows ``[start, stop)``, one block at a time."""
    for lo in range(start, stop, _CSV_BLOCK_ROWS):
        _format_block(writes, columns, tables, lo, min(lo + _CSV_BLOCK_ROWS, stop))


def _fork_rows(fds, columns, tables, start: int, stop: int, earlier) -> tuple[int, int]:
    """Fork a worker that appends rows ``[start, stop)`` of every table to ``fds``; returns (pid, go fd).

    The worker holds its whole range, then waits for one byte on the go
    pipe and writes its rows to the descriptors it inherited (their offsets
    are this process's); a pipe closed with no byte ends it unwritten.  Its
    exit status is the errno of an OSError that stops it (a failed write's,
    say), or 255 for any other failure.
    """
    read_fd, go_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns after forking a process with native threads
            # (numpy's BLAS pool); the child touches no BLAS, and a warning
            # turned into an error here would orphan a forked child
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(go_fd)
        raise
    if pid == 0:
        code = 255
        try:
            for fd in (go_fd, *(fd for _, fd in earlier)):  # the caller alone holds the go pipes
                os.close(fd)
            texts = [[] for _ in tables]
            _format_rows([text.append for text in texts], columns, tables, start, stop)
            if os.read(read_fd, 1):
                for fd, text in zip(fds, texts):
                    for data in text:
                        _write_all(fd, data)
                code = 0
        except OSError as exc:
            code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
        finally:
            os._exit(code)
    os.close(read_fd)
    return pid, go_fd


def write_csv_tables(tables, texts=()) -> None:
    """Write one run's files: each ``(path, header, columns)`` of ``tables`` as ``header`` verbatim, then one CSV
    row per index of the float ``columns``, all of one length; then each ``(path, text)`` of ``texts`` (the JSON).

    Every value is written as its shortest round-trip ``repr`` by :mod:`photonflux.floatrepr`, a block of rows of
    every table at once; a column that tables share is rendered once.  Every file is opened here and written only
    by :func:`_write_all`.  A large run's rows are split once into ranges, one per usable CPU: forked workers format
    every range but the first, which this process writes meanwhile, then each in turn gets a go byte and appends
    its rows.  A failed worker raises :class:`OSError` naming the tables and its failed write's errno, as
    ``[Errno 28] No space left on device``, or else its exit status.  On any exception, every file opened is removed.
    """
    columns = [column for _, _, table in tables for column in table]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    # each column object once, and each table as indices into them
    distinct = list({id(column): column for column in columns}.values())
    index = {id(column): i for i, column in enumerate(distinct)}
    layout = [[index[id(column)] for column in table] for _, _, table in tables]
    rows = max(lengths, default=0)
    workers = _csv_workers(rows)
    bounds = [rows * i // workers for i in range(workers + 1)]
    paths = [path for path, _, _ in tables] + [path for path, _ in texts]
    fds, children = [], []  # children: (pid, go fd), in range order
    try:
        for path in paths:
            fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
        for fd, (_, header, _) in zip(fds, tables):
            _write_all(fd, header.encode())
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_rows(fds, distinct, layout, start, stop, children))
        _format_rows([functools.partial(_write_all, fd) for fd in fds], distinct, layout, bounds[0], bounds[1])
        while children:
            pid, go_fd = children[0]
            with contextlib.suppress(BrokenPipeError):  # a worker that exited early: its status tells
                os.write(go_fd, b"\1")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(go_fd)
            del children[0]
            if code:
                names = ", ".join(str(path) for path, _, _ in tables)
                reason = OSError(code, os.strerror(code)) if 0 < code < 255 else f"exit status {code}"
                raise OSError(f"{names}: a CSV row worker failed, {reason}")
        for fd, (_, text) in zip(fds[len(tables):], texts):
            _write_all(fd, text.encode())
    except BaseException:
        # a partial run is no artifact, whatever stopped the write
        for path in paths[:len(fds)]:
            os.unlink(path)
        raise
    finally:
        # closing the go pipes releases every worker left without writing
        for _, go_fd in children:
            os.close(go_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _non_finite(run: Run):
    """Yield the name of each NaN or infinity in ``run``: table columns in table order, payload values in build
    order, then ``ledger[<element id>].<field>``; rows are searched only once a C-level column check fails."""
    for _, columns in run.tables.values():
        yield from (column for column, values in columns.items() if not np.isfinite(values).all())
    yield from _non_finite_keys(run.payload, "")
    if not all(all(map(math.isfinite, map(attrgetter(number), run.ledger or ()))) for number in _LEDGER_NUMBERS):
        yield from (f"ledger[{row.element_id}].{number}" for row in run.ledger for number in _LEDGER_NUMBERS
                    if not math.isfinite(getattr(row, number)))


def _non_finite_keys(value, key: str):
    """Yield the key of each NaN or infinity in JSON ``value`` at ``key`` (nested keys ``a.b``, entries ``a[i]``)."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _non_finite_keys(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _non_finite_keys(v, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield key


def _render_json(payload: dict, ledger=None) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)`` and a newline: the ``LedgerRow``s of
    ``ledger``, if given, are spliced into its empty ``"ledger"`` list as the same bytes, one ``_LEDGER_ROW`` each,
    by C-level maps (``float.__repr__``, json's own escaping for the id), so no dict or Python frame runs per row."""
    text = json.dumps(payload if ledger is None else {**payload, "ledger": []}, sort_keys=True, indent=2,
                      allow_nan=False)
    if ledger:
        absorbed, number_in, number_out = (map(float.__repr__, map(attrgetter(n), ledger)) for n in _LEDGER_NUMBERS)
        ids = map(encode_basestring_ascii, map(attrgetter("element_id"), ledger))
        items = ",".join(map(_LEDGER_ROW.__mod__, zip(absorbed, ids, number_in, number_out)))
        text = text.replace(_LEDGER_SLOT, f'\n  "ledger": [{items}\n  ]', 1)
    return text + "\n"


def _comment_line(t: float, k_max: float, units) -> str:
    """The ``# t=... k_max=... units=...`` line that heads a table's column names."""
    return f"# t={float(t)!r} k_max={float(k_max)!r} units={units.mode}\n"


def cmd_density(args) -> Run:
    from . import density as dens

    state = spec.state_from_spec(spec.read_json(args.state), args.grid)
    t, units = args.time, args.units
    # first, with only the state and the caches live; dt small enough that the centered-difference truncation
    # error stays below 1e-6 even for broadband pulses
    residual = dens.continuity_residual(state, t, state.grid.dx / (256.0 * units.c), units)
    field = dens.density_field(state, state, t, units)
    spec.assert_support_clear(field.rho)
    number = spec.photon_number(state)
    if number > 0.0 and not field.rho.any():
        # no integral check can pass then, and no support check can see the pulse
        raise DomainError(f"density underflows to zero everywhere for photon number {number!r}")
    current = dens.current_field(state, state, t, units)
    fields = spec.synthesize_fields(state, t, units)
    x, a, e = state.grid.x, fields.a_plus, fields.e_plus
    tables = {
        "density.csv": (_comment_line(t, state.grid.k_max, units), {"x": x, "rho": field.rho, "J": current}),
        "fields.csv": ("", {"x": x, "re(A+)": a.real, "im(A+)": a.imag, "re(E+)": e.real, "im(E+)": e.imag}),
    }
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
    check = (abs(total - number) > 1e-8 * number, f"density integral {total!r} disagrees with photon number {number!r}")
    return Run(tables, "summary.json", summary, checks=(check,))


def cmd_localized(args) -> Run:
    from . import density as dens

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
    columns = {"u": coords, "re(rho+)": rho_plus.real, "im(rho+)": rho_plus.imag, "rho": rho_phys}
    return Run({"localized.csv": (_comment_line(dt, k_max, units), columns)}, "localized_summary.json", summary)


def cmd_circuit(args) -> Run:
    from . import circuit as circ

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
        "units": args.units.mode,
    }
    if args.samples:
        result["samples"] = circ.sample_outcomes(pulse, args.seed, args.samples)
        result["seed"] = args.seed
    check = (not args.paper_convention and abs(conservation - 1.0) > circ.CONSERVATION_TOL,
             f"conservation violated: detectors + absorbed = {conservation!r}")
    return Run({}, "circuit_result.json", result, ledger.rows, (check,))


def cmd_fresnel(args) -> Run:
    from . import optics

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
    lossless = n1.imag == 0.0 and n2.imag == 0.0
    check = (not args.paper_convention and lossless and abs(budget.defect) > 1e-12,
             f"flux conservation defect {budget.defect!r}")
    return Run({}, "fresnel.json", result, checks=(check,))


def cmd_momentum(args) -> Run:
    from . import optics

    state = spec.state_from_spec(spec.read_json(args.state), args.grid)
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
    return Run({}, "momentum.json", result)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # building the argparse tree costs about ten parses, so a process builds it once
    parser = argparse.ArgumentParser(
        prog="photonflux",
        description="One-photon density/current audits and optical-circuit runs.",
    )
    number = _flag(_finite_float, "a finite number")
    count = _flag(_count, f"an integer at most 2**24 = {spec.MAX_GRID_N}")
    complex_number = _flag(_parse_complex, "'re' or 're,im' (finite numbers)")
    parser.add_argument("--units", type=_flag(units_for, "'natural' or 'si'"), default="natural",
                        metavar="{natural,si}")
    parser.add_argument("--out", type=Path, default="photonflux_out", help="output directory")
    parser.add_argument("--seed", type=_flag(_seed, "a non-negative integer"), default=0)
    parser.add_argument("--grid", type=_flag(_parse_grid, "N,dk,area (an integer and two finite numbers)"),
                        default="4096,1.0,1.0", help="N,dk,area")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="density/current arrays and conservation summary")
    p.add_argument("--state", required=True, help="state-spec JSON file")
    p.add_argument("--time", type=number, default=0.0)
    p.set_defaults(func=cmd_density, size="--grid or the state's grid")

    p = sub.add_parser("localized", help="band-limited localized density closed forms")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k-max", type=number, required=True)
    p.add_argument("--delta-t", type=number, default=0.0)
    p.add_argument("--points", type=count, default=4001)
    p.add_argument("--span", type=number, default=500.0, help="u-range in units of 1/k_max (dim=1)")
    p.set_defaults(func=cmd_localized, size="--points")

    p = sub.add_parser("circuit", help="validate and run a netlist")
    p.add_argument("--netlist", required=True)
    p.add_argument("--samples", type=count, default=0)
    p.add_argument("--paper-convention", action="store_true")
    p.set_defaults(func=cmd_circuit, size="--samples or the netlist grid")

    p = sub.add_parser("fresnel", help="interface coefficients and flux budget")
    p.add_argument("--n1", type=complex_number, required=True)
    p.add_argument("--n2", type=complex_number, required=True)
    p.add_argument("--paper-convention", action="store_true")
    p.set_defaults(func=cmd_fresnel, size=None)

    p = sub.add_parser("momentum", help="Abraham/Minkowski momentum report")
    p.add_argument("--state", required=True)
    p.add_argument("--chi", type=complex_number, required=True)
    p.set_defaults(func=cmd_momentum, size="--grid or the state's grid")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an outcome becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        # every non-finite result is reported by an explicit check, as one error line,
        # so numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            run = args.func(args)
            _write_run(args.out, run)
            for failed, message in run.checks:
                if failed:
                    raise InvariantError(message)
    except MemoryError:
        # a size that passed its ceiling can still exceed this machine's memory
        hint = f"; reduce {args.size}" if args.size else ""
        print(f"error: out of memory in {args.command}{hint}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError:
        # a Python float overflow is a non-finite result, with no quantity to name
        print("error: non-finite result: float overflow", file=sys.stderr)
        return EXIT_INVARIANT
    except (PhotonfluxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, InvariantError) else EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
