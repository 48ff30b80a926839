"""Single-photon pulse propagation through a feed-forward optical netlist.

A netlist wires one normalized source through phase shifters, beam
splitters, dielectric segments, interfaces and mirrors to a set of detector
ports.  Each port carries the (unnormalized) spectral amplitude of the pulse
that reaches it: a segment's medium has a constant complex chi, its index is
computed once per medium, and its phase and loss act per frequency bin.  The
probability at a port is its photon number.  A per-element ledger tracks
number in, number out and what was absorbed.
"""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, NetlistError, PortError
from .optics import (
    BeamSplitter,
    DielectricInterface,
    ElementSpec,
    Medium,
    MediumSegment,
    Mirror,
    PhaseShifter,
)
from .spectral import (
    REQUIRED,
    KGrid1D,
    SpectralAmplitude,
    json_complex,
    json_field,
    json_fields,
    json_int,
    json_list,
    json_names,
    json_number,
    json_object,
    json_str,
    photon_number,
    photon_number_of,
    read_json,
    state_from_spec,
)
from .units import NATURAL, UnitsConfig

CONSERVATION_TOL = 1e-9


class Element(NamedTuple):
    """One element of a netlist: a named tuple, immutable and cheap to build."""
    id: str
    spec: ElementSpec
    inputs: tuple
    outputs: tuple


@dataclass(frozen=True)
class Netlist:
    """Feed-forward wiring of one source to detectors.

    ``vacuum_ports`` name the empty inputs (a beam splitter's unused arm);
    they behave like produced ports carrying zero amplitude.  The ``order``
    of :func:`_topological_order`, the run plan, and the ``violations`` of
    :func:`_violations` are each computed on first use and cached: the
    netlist is frozen.
    """

    elements: tuple
    source_port: str
    source_state: SpectralAmplitude
    detectors: tuple
    vacuum_ports: tuple = ()

    @cached_property
    def order(self):
        """The elements in execution order, as a tuple; None for a cycle or a repeated id."""
        return _topological_order(self)

    @cached_property
    def violations(self) -> tuple:
        """Wiring violations in a fixed order; empty means the netlist is runnable."""
        return tuple(_violations(self))


@dataclass(frozen=True)
class PortRecord:
    """Amplitude-split view of one output port.

    ``path_amplitude`` is sqrt of the carried photon number (relative phases
    between ports live in the spectra themselves, where frequency-resolved
    elements put them); ``spectral`` is the normalized pulse shape, or None
    for an empty port.
    """

    path_amplitude: complex
    spectral: SpectralAmplitude | None
    delay: float

    @property
    def probability(self) -> float:
        return float(abs(self.path_amplitude) ** 2)


@dataclass(frozen=True)
class PulseState:
    ports: dict
    absorbed: float

    def probability(self, port: str) -> float:
        if port not in self.ports:
            raise PortError(f"unknown port {port!r}")
        return self.ports[port].probability

    def total_probability(self) -> float:
        # left to right from 0.0: builtin sum compensates rounding from Python 3.12 on
        total = 0.0
        for rec in self.ports.values():
            total += rec.probability
        return total


@dataclass(frozen=True, slots=True)
class LedgerRow:
    """Number in, number out and absorbed at one element."""
    element_id: str
    number_in: float
    number_out: float
    absorbed: float


@dataclass(frozen=True)
class Ledger:
    rows: tuple


def validate(netlist: Netlist) -> list:
    """Wiring violations as a fresh list; an empty list means the netlist is runnable.

    The violations are ``Netlist.violations``, computed once per netlist, so
    a second ``validate`` of the same netlist only copies them.
    """
    return list(netlist.violations)


def _violations(netlist: Netlist) -> list:
    """Every wiring violation of ``netlist``, in the order they are checked.

    Ports produced but never consumed are listed sorted, so the text does
    not change with the process's string hashes.
    """
    violations = []
    produced = {netlist.source_port, *netlist.vacuum_ports}
    if netlist.source_port in netlist.vacuum_ports:
        violations.append("source port is also declared as vacuum")
    unique_ids = len({el.id for el in netlist.elements}) == len(netlist.elements)
    if not unique_ids:
        violations.append("duplicate element ids")
    consumed = set()

    for el in netlist.elements:
        arity = getattr(el.spec, "arity", None)
        if arity is None:
            violations.append(f"element {el.id}: unsupported kind {type(el.spec).__name__}")
            continue
        want_in, want_out = arity
        if len(el.inputs) != want_in:
            violations.append(
                f"element {el.id}: expected {want_in} input(s), got {len(el.inputs)}"
            )
        if len(el.outputs) != want_out:
            violations.append(
                f"element {el.id}: expected {want_out} output(s), got {len(el.outputs)}"
            )
        for port in el.outputs:
            if port in produced:
                violations.append(f"port {port!r} produced more than once")
            produced.add(port)
        if isinstance(el.spec, DielectricInterface) and complex(el.spec.n_in).imag != 0.0:
            violations.append(
                f"element {el.id}: interface entered from a lossy medium"
            )

    for el in netlist.elements:
        for port in el.inputs:
            if port in consumed:
                violations.append(f"port {port!r} feeds more than one input")
            consumed.add(port)
            if port not in produced:
                violations.append(f"element {el.id}: input port {port!r} is never produced")

    detectors = dict.fromkeys(netlist.detectors)  # each distinct port once, in listed order
    for port in detectors:
        if port == "absorbed":
            # sample_outcomes counts the absorbed outcome under this label
            violations.append(f"detector port {port!r} is reserved for the absorbed outcome")
        if port in consumed:
            violations.append(f"detector port {port!r} also feeds an element")
        if port not in produced:
            violations.append(f"detector port {port!r} is never produced")
    consumed.update(detectors)

    if len(detectors) != len(netlist.detectors):
        violations.append("duplicate detector ports")
    for port in sorted(produced - consumed, key=str):
        violations.append(f"port {port!r} is produced but never consumed")

    # a repeated id has no order either, and is reported above
    if unique_ids and netlist.order is None:
        violations.append("wiring contains a cycle")
    return violations


def _topological_order(netlist: Netlist):
    """Kahn's algorithm over elements: a tuple of them in execution order, or
    None if the wiring has a cycle or repeats an id.

    An element waits for the first producer of each of its inputs (the
    source and vacuum ports have none).  The ready set is a heap of element
    ids (cheaper to compare than elements): the smallest ready id always
    goes next, which fixes the ledger row order, and the sort takes
    O(E log E) for E elements.  Callers read it as ``Netlist.order``, which
    runs this once per netlist however often it is validated and run.
    """
    element = {el.id: el for el in netlist.elements}
    if len(element) != len(netlist.elements):
        return None  # a repeated id: no order runs every element
    # port -> id of its first producer, built backwards so the first is the last to write it
    producer = {port: el.id for el in reversed(netlist.elements) for port in reversed(el.outputs)}
    producer[netlist.source_port] = None
    pending = {}
    users = {}
    for el in netlist.elements:
        # an element fed twice by one producer waits for it twice and is
        # released twice when it goes, so its count still reaches zero then
        eid = el.id
        waits = 0
        for port in el.inputs:
            dep = producer.get(port)
            if dep is not None:
                waits += 1
                users.setdefault(dep, []).append(eid)
        pending[eid] = waits
    ready = [eid for eid, n in pending.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        eid = heapq.heappop(ready)
        order.append(element[eid])
        for other in users.get(eid, ()):
            pending[other] -= 1
            if pending[other] == 0:
                heapq.heappush(ready, other)
    return tuple(order) if len(order) == len(element) else None


def run_circuit(
    netlist: Netlist, units: UnitsConfig = NATURAL, paper_convention: bool = False
) -> tuple:
    """Propagate the source pulse to every detector port.

    Elements are applied in topological order, each by contracting its
    ``transfer`` with its input spectra (per bin for a medium segment, which
    also adds its group delay).  The loop is written out for the one and two
    inputs and outputs the element kinds have: an element pops its inputs,
    calls ``_contract`` and ``photon_number_of`` once per output and appends
    one ledger row.  An element fed only by vacuum whose spec
    ``passes_vacuum`` (its factors are finite scalars by construction) does
    no array work: its outputs stay vacuum and its row is exactly (0.0, 0.0,
    0.0).  Media and interfaces are contracted as usual, so a NaN factor on
    a vacuum arm still reaches the ledger.  Each row satisfies number_in =
    number_out + absorbed exactly.  With ``paper_convention`` interfaces use
    the non-conserving literal Fresnel pair, so end-to-end conservation
    fails by the quantified defect.
    """
    violations = validate(netlist)
    if violations:
        raise NetlistError("; ".join(violations))
    n_src = photon_number(netlist.source_state)
    if abs(n_src - 1.0) > 1e-9:
        raise NetlistError(f"source photon number {n_src:.12g} is not 1")

    grid = netlist.source_state.grid
    dk = grid.dk
    omega = units.c * grid.k

    # live map: port -> (amplitude array, accumulated delay, photon number);
    # each port's number is computed once, when the port is produced
    live = {netlist.source_port: (netlist.source_state.c.copy(), 0.0, n_src)}
    pop = live.pop
    empty = (np.zeros(grid.n, dtype=complex), 0.0, 0.0)
    rows = []
    absorbed = 0.0  # left to right: builtin sum compensates rounding from Python 3.12 on

    for el in netlist.order:
        eid, spec, ins = el.id, el.spec, el.inputs
        first = pop(ins[0], empty)
        second = pop(ins[1], empty) if len(ins) == 2 else empty
        if first is empty and second is empty and getattr(spec, "passes_vacuum", False):
            rows.append(LedgerRow(eid, 0.0, 0.0, 0.0))
            continue
        transfer = spec.transfer(omega, units, paper_convention)
        if len(ins) == 1:
            arrays, delay, n_in = first[:1], first[1], first[2]
        else:
            (a0, d0, w0), (a1, d1, w1) = first, second
            arrays, n_in = (a0, a1), w0 + w1
            # the photon-number-weighted mean of the input delays
            delay = 0.0 if n_in == 0.0 else (w0 * d0 + w1 * d1) / n_in
        medium = isinstance(spec, MediumSegment)
        if medium:
            delay += spec.group_delay(arrays[0], units)
        if len(transfer) == 1:
            out = _contract(transfer[0], arrays)
            n_out = photon_number_of(out, dk)
            live[el.outputs[0]] = (out, delay, n_out)
        else:
            out0, out1 = _contract(transfer[0], arrays), _contract(transfer[1], arrays)
            n0, n1 = photon_number_of(out0, dk), photon_number_of(out1, dk)
            n_out = n0 + n1
            port0, port1 = el.outputs
            live[port0] = (out0, delay, n0)
            live[port1] = (out1, delay, n1)
        rows.append(LedgerRow(eid, n_in, n_out, n_in - n_out))
        if medium:
            absorbed += n_in - n_out

    ports = {}
    helicity = netlist.source_state.helicity
    for port in netlist.detectors:
        arr, delay, n = pop(port, empty)
        root = math.sqrt(n)  # the bits of np.sqrt(n), without a numpy scalar
        spectral = SpectralAmplitude(grid=grid, helicity=helicity, c=arr / root) if n > 0.0 else None
        ports[port] = PortRecord(path_amplitude=complex(root), spectral=spectral, delay=delay)
    # Only media absorb.  Unitary elements carry (in - out) ~ 0 in their
    # ledger rows under the default convention; with paper_convention an
    # interface row exposes its conservation defect there instead of having
    # it silently balanced into "absorbed".
    pulse = PulseState(ports=ports, absorbed=absorbed)
    return pulse, Ledger(rows=tuple(rows))


def _contract(row, arrays):
    """sum_j row[j] * arrays[j] with a fixed operand order.

    numpy's complex multiply is not bitwise commutative: swapping the operands
    changes the bytes of the artifacts.
    """
    if len(arrays) == 1:
        return arrays[0] * row[0]
    (f0, f1), (a0, a1) = row, arrays
    return f0 * a0 + f1 * a1


def coincidence_probability(pulse: PulseState, port_a: str, port_b: str) -> float:
    """Joint two-click probability: identically zero in the one-photon sector.

    A single excitation has no |1,1> component over any pair of output
    ports, so this returns exactly 0.0 after validating the port names.
    """
    if port_a == port_b:
        raise PortError("coincidence needs two distinct detector ports")
    for port in (port_a, port_b):
        if port not in pulse.ports:
            raise PortError(f"unknown detector port {port!r}")
    return 0.0


def outcome_probabilities(pulse: PulseState) -> dict:
    probs = {port: rec.probability for port, rec in pulse.ports.items()}
    probs["absorbed"] = pulse.absorbed
    return probs


def sample_outcomes(pulse: PulseState, seed: int, n_samples: int) -> dict:
    """Seeded detection statistics over {detector ports} + {'absorbed'}.

    Each draw collapses the photon to the zero-photon record; outcomes are
    reported as counts.  Deterministic for a fixed seed.

    One uniform draw u per sample picks the first label whose cumulative
    probability exceeds u.  That is the inverse-CDF rule inside
    ``Generator.choice(p=...)`` (cumsum, divide by the last entry,
    ``random(n)``, ``searchsorted(side="right")``), so the counts equal
    choice-then-bincount for every seed; counting replaces the per-draw
    binary search with one comparison pass per label.
    """
    probs = outcome_probabilities(pulse)
    labels = sorted(probs)
    weights = np.array([max(probs[lab], 0.0) for lab in labels])
    total = weights.sum()
    if not np.isfinite(total):
        raise InvariantError("outcome probabilities are not finite")
    if total <= 0.0:
        raise PortError("no outcome carries positive probability")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n_samples)
    # below[i] = draws landing on labels 0..i; u < 1 = cdf[-1] holds for every draw
    below = [int(np.count_nonzero(u < edge)) for edge in cdf[:-1]] + [n_samples]
    return {lab: hi - lo for lab, lo, hi in zip(labels, [0, *below], below)}


def mach_zehnder_netlist(source_state: SpectralAmplitude, phi: float) -> Netlist:
    """Balanced two-splitter interferometer with a phase phi in one arm.

    Detector ``d_bright`` sees probability cos^2(phi/2), ``d_dark`` the
    complement.
    """
    bs = BeamSplitter(t=1.0 / np.sqrt(2.0), r=1.0 / np.sqrt(2.0))
    elements = (
        Element("bs1", bs, inputs=("src", "vac"), outputs=("arm_a", "arm_b")),
        Element("phase", PhaseShifter(phi), inputs=("arm_a",), outputs=("arm_a_shift",)),
        Element("bs2", bs, inputs=("arm_a_shift", "arm_b"), outputs=("d_dark", "d_bright")),
    )
    return Netlist(
        elements=elements,
        source_port="src",
        source_state=source_state,
        detectors=("d_dark", "d_bright"),
        vacuum_ports=("vac",),
    )


# element kind -> (spec constructor, "<kind> params", its params in argument order)
_KINDS = {
    kind: (make, f"{kind} params", params)
    for kind, make, params in (
        ("phase_shifter", PhaseShifter, (("phi", json_number, REQUIRED),)),
        ("beam_splitter", BeamSplitter, (("t", json_complex, REQUIRED), ("r", json_complex, REQUIRED))),
        ("medium_segment", lambda chi, length: MediumSegment(Medium.constant(chi), length),
         (("chi", json_complex, REQUIRED), ("length", json_number, REQUIRED))),
        ("interface", DielectricInterface, (("n_in", json_complex, REQUIRED), ("n_out", json_complex, REQUIRED))),
        ("mirror", Mirror, (("r", json_complex, 1.0),)),
    )
}
_KIND = (("kind", json_str, REQUIRED),)
_WIRING = (("id", json_str, REQUIRED), ("in", json_names, ()), ("out", json_names, ()))
_GRID = (("N", json_int, REQUIRED), ("dk", json_number, REQUIRED), ("area", json_number, 1.0))


def _element_from_json(entry) -> Element:
    """One element: its kind, its kind's params, then its id and ports."""
    (kind,) = json_fields(entry, "element", _KIND)
    if kind not in _KINDS:
        raise NetlistError(f"unknown element kind {kind!r}")
    make, where, params = _KINDS[kind]
    spec = make(*json_fields(entry.get("params", {}), where, params))
    eid, inputs, outputs = json_fields(entry, "element", _WIRING)
    return Element(eid, spec, inputs, outputs)


def netlist_from_json(obj: dict, default_grid: KGrid1D | None = None) -> Netlist:
    """Parse the netlist JSON schema, with strict JSON types.

    Expected shape: {"grid": {...}?, "elements": [{"id", "kind", "params",
    "in", "out"}], "sources": [{"port", "state"}], "detectors": [...],
    "vacuum": [...]?}.  Exactly one source is required (single-photon
    sector).  Every object is read by :func:`spectral.json_fields`, an
    element's params in one pass over its kind's row of ``_KINDS``: a number
    is an int or a float (never a bool or a string), a complex a number or
    an ``[re, im]`` pair, and ids, kinds and port names are strings.
    """
    g = json_field(obj, "grid", json_object, "netlist", None)
    if g is not None:
        n, dk, area = json_fields(g, "grid", _GRID)
        grid = KGrid1D(n=n, dk=dk, area=area)
    elif default_grid is not None:
        grid = default_grid
    else:
        raise NetlistError("netlist JSON carries no grid and no default was given")

    sources = json_field(obj, "sources", json_list, "netlist", [])
    if len(sources) != 1:
        raise NetlistError(f"exactly one source required, got {len(sources)}")
    src = sources[0]
    state = state_from_spec(json_field(src, "state", json_object, "source"), grid)
    if g is not None and state.grid != grid:
        # an amplitude state carries its own grid, and the circuit runs on the source's grid
        raise NetlistError(f"source: state grid {state.grid} differs from the netlist grid {grid}")

    elements = tuple(map(_element_from_json, json_field(obj, "elements", json_list, "netlist", [])))
    return Netlist(
        elements=elements,
        source_port=json_field(src, "port", json_str, "source"),
        source_state=state,
        detectors=json_field(obj, "detectors", json_names, "netlist", ()),
        vacuum_ports=json_field(obj, "vacuum", json_names, "netlist", ()),
    )


def load_netlist(path, default_grid: KGrid1D | None = None) -> Netlist:
    return netlist_from_json(read_json(path), default_grid)
