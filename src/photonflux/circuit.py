"""Single-photon pulse propagation through a feed-forward optical netlist.

A netlist wires one normalized source through phase shifters, beam
splitters, dielectric segments, interfaces and mirrors to a set of detector
ports.  Each port carries the (unnormalized) spectral amplitude of the pulse
that reaches it: a segment's medium has a constant complex chi, its index is
computed once per medium, and its phase and loss act per frequency bin.  The
probability at a port is its photon number.  A per-element ledger tracks
number in, number out and what was absorbed.
"""

import cmath
import heapq
import json
from dataclasses import dataclass
from functools import cached_property

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
    KGrid1D,
    SpectralAmplitude,
    json_field,
    json_int,
    make_gaussian_state,
    photon_number,
    photon_number_of,
)
from .units import NATURAL, UnitsConfig

CONSERVATION_TOL = 1e-9


@dataclass(frozen=True)
class Element:
    id: str
    spec: ElementSpec
    inputs: tuple
    outputs: tuple


@dataclass(frozen=True)
class Netlist:
    """Feed-forward wiring of one source to detectors.

    ``vacuum_ports`` name the empty inputs (a beam splitter's unused arm);
    they behave like produced ports carrying zero amplitude.  ``order`` is
    the element order of :func:`_topological_order` and ``violations`` the
    wiring violations of :func:`_violations`; each is computed on first use
    and cached: the netlist is frozen, so every later read gets the same
    value.
    """

    elements: tuple
    source_port: str
    source_state: SpectralAmplitude
    detectors: tuple
    vacuum_ports: tuple = ()

    @cached_property
    def order(self):
        """Element ids in execution order, or None if the wiring has a cycle."""
        order = _topological_order(self)
        # a tuple: every reader shares the cached value
        return None if order is None else tuple(order)

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
        return float(sum(rec.probability for rec in self.ports.values()))


@dataclass(frozen=True)
class LedgerRow:
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
    """Every wiring violation of ``netlist``, in the order they are checked."""
    violations = []
    produced = {netlist.source_port, *netlist.vacuum_ports}
    if netlist.source_port in netlist.vacuum_ports:
        violations.append("source port is also declared as vacuum")
    ids = [el.id for el in netlist.elements]
    if len(set(ids)) != len(ids):
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

    for port in netlist.detectors:
        if port in consumed:
            violations.append(f"detector port {port!r} also feeds an element")
        if port not in produced:
            violations.append(f"detector port {port!r} is never produced")
        consumed.add(port)

    if len(set(netlist.detectors)) != len(netlist.detectors):
        violations.append("duplicate detector ports")
    for port in produced - consumed:
        violations.append(f"port {port!r} is produced but never consumed")

    if netlist.order is None:
        violations.append("wiring contains a cycle")
    return violations


def _topological_order(netlist: Netlist):
    """Kahn's algorithm over elements; None if the wiring has a cycle.

    The ready set is a heap keyed by element id: the smallest ready id
    always goes next, which fixes the ledger row order, and the sort takes
    O(E log E) for E elements.  Callers read it as ``Netlist.order``, which
    runs this once per netlist however often it is validated and run.
    """
    producer = {netlist.source_port: None}
    for el in netlist.elements:
        for port in el.outputs:
            producer.setdefault(port, el.id)
    deps = {}
    for el in netlist.elements:
        deps[el.id] = {
            producer[p] for p in el.inputs if producer.get(p) is not None
        }
    users = {}
    pending = {}
    for eid, d in deps.items():
        pending[eid] = len(d)
        for dep in d:
            users.setdefault(dep, []).append(eid)
    ready = [eid for eid, n in pending.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        eid = heapq.heappop(ready)
        order.append(eid)
        for other in users.get(eid, ()):
            pending[other] -= 1
            if pending[other] == 0:
                heapq.heappush(ready, other)
    if len(order) != len(netlist.elements):
        return None
    return order


def run_circuit(
    netlist: Netlist, units: UnitsConfig = NATURAL, paper_convention: bool = False
) -> tuple:
    """Propagate the source pulse to every detector port.

    Elements are applied in topological order, each by contracting its
    ``transfer`` with its input spectra (per bin for a medium segment, which
    also adds its group delay).  An element fed only by vacuum ports whose
    factors are all finite scalars does no array work: zero amplitude times
    a finite factor is zero, so its outputs stay vacuum and its ledger row
    is exactly (0.0, 0.0, 0.0).  A medium segment (per-bin factors) or a
    non-finite factor is contracted as usual, so a NaN on a vacuum arm
    still reaches the ledger.  The returned ledger satisfies number_in =
    number_out + absorbed per element (exactly, by construction of the
    rows).  With ``paper_convention`` interfaces use the non-conserving
    literal Fresnel pair, so end-to-end conservation is expected to fail by
    the quantified defect.
    """
    violations = validate(netlist)
    if violations:
        raise NetlistError("; ".join(violations))
    n_src = photon_number(netlist.source_state)
    if abs(n_src - 1.0) > 1e-9:
        raise NetlistError(f"source photon number {n_src:.12g} is not 1")

    by_id = {el.id: el for el in netlist.elements}
    grid = netlist.source_state.grid
    omega = units.c * grid.k
    zeros = np.zeros(grid.n, dtype=complex)

    # live map: port -> (amplitude array, accumulated delay, photon number);
    # each port's number is computed once, when the port is produced
    src = netlist.source_state.c.copy()
    live = {netlist.source_port: (src, 0.0, photon_number_of(src, grid.dk))}
    empty = (zeros, 0.0, 0.0)
    rows = []
    absorbing_rows = []

    for eid in netlist.order:
        el = by_id[eid]
        ins = [live.pop(p, empty) for p in el.inputs]
        spec = el.spec
        transfer = spec.transfer(omega, units, paper_convention)
        if all(entry is empty for entry in ins) and _finite_scalars(transfer):
            rows.append(LedgerRow(eid, 0.0, 0.0, 0.0))
            continue
        n_in = sum(n for _, _, n in ins)
        arrays = [arr for arr, _, _ in ins]
        delay = _merge_delay(ins)
        medium = isinstance(spec, MediumSegment)
        if medium:
            delay += spec.group_delay(arrays[0], units)
        outs = [_contract(row, arrays) for row in transfer]
        numbers = [photon_number_of(arr, grid.dk) for arr in outs]
        n_out = sum(numbers)
        rows.append(LedgerRow(eid, n_in, n_out, n_in - n_out))
        if medium:
            absorbing_rows.append(n_in - n_out)
        for port, arr, n in zip(el.outputs, outs, numbers):
            live[port] = (arr, delay, n)

    ports = {}
    for port in netlist.detectors:
        arr, delay, n = live.pop(port, empty)
        if n > 0.0:
            spectral = SpectralAmplitude(
                grid=grid, helicity=netlist.source_state.helicity, c=arr / np.sqrt(n)
            )
        else:
            spectral = None
        ports[port] = PortRecord(
            path_amplitude=complex(np.sqrt(n)), spectral=spectral, delay=delay
        )
    # Only media absorb.  Unitary elements carry (in - out) ~ 0 in their
    # ledger rows under the default convention; with paper_convention an
    # interface row exposes its conservation defect there instead of having
    # it silently balanced into "absorbed".
    pulse = PulseState(ports=ports, absorbed=float(sum(absorbing_rows)))
    return pulse, Ledger(rows=tuple(rows))


def _finite_scalars(transfer) -> bool:
    """True if every factor of ``transfer`` is a finite number, not a per-bin array."""
    return all(isinstance(f, complex | float) and cmath.isfinite(f) for row in transfer for f in row)


def _contract(row, arrays):
    """sum_j row[j] * arrays[j] with a fixed operand order.

    numpy's complex multiply is not bitwise commutative: swapping the operands
    changes the bytes of the artifacts.
    """
    if len(arrays) == 1:
        return arrays[0] * row[0]
    (f0, f1), (a0, a1) = row, arrays
    return f0 * a0 + f1 * a1


def _merge_delay(ins) -> float:
    """Photon-number-weighted mean of the input delays; one input passes through."""
    if len(ins) == 1:
        return ins[0][1]
    (_, d0, w0), (_, d1, w1) = ins
    if w0 + w1 == 0.0:
        return 0.0
    return (w0 * d0 + w1 * d1) / (w0 + w1)


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


def _spec_from_json(kind: str, params: dict) -> ElementSpec:
    where = f"{kind} params"

    def get(key, convert=_cplx, *default):
        return json_field(params, key, convert, where, *default)

    if kind == "phase_shifter":
        return PhaseShifter(phi=get("phi", float))
    if kind == "beam_splitter":
        return BeamSplitter(t=get("t"), r=get("r"))
    if kind == "medium_segment":
        return MediumSegment(medium=Medium.constant(get("chi")), length=get("length", float))
    if kind == "interface":
        return DielectricInterface(n_in=get("n_in"), n_out=get("n_out"))
    if kind == "mirror":
        return Mirror(r=get("r", _cplx, 1.0))
    raise NetlistError(f"unknown element kind {kind!r}")


def _cplx(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def _ports(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list of port names")
    ports = tuple(value)
    hash(ports)  # a TypeError for an unhashable name, which validate could not use
    return ports


def state_from_spec(spec: dict, grid: KGrid1D) -> SpectralAmplitude:
    """Build a source state from its JSON description."""
    def get(key, convert=float, *default):
        return json_field(spec, key, convert, "state", *default)

    kind = get("kind", str, "gaussian")
    if kind == "gaussian":
        return make_gaussian_state(
            k0=get("k0"),
            sigma=get("sigma"),
            grid=grid,
            helicity=get("helicity", json_int, +1),
            x0=get("x0", float, None),
        )
    if kind == "zero":
        return SpectralAmplitude(
            grid=grid,
            helicity=get("helicity", json_int, +1),
            c=np.zeros(grid.n, dtype=complex),
        )
    if kind == "amplitude":
        return SpectralAmplitude.from_json(spec)
    raise NetlistError(f"unknown state kind {kind!r}")


def netlist_from_json(obj: dict, default_grid: KGrid1D | None = None) -> Netlist:
    """Parse the netlist JSON schema.

    Expected shape: {"grid": {...}?, "elements": [{"id", "kind", "params",
    "in", "out"}], "sources": [{"port", "state"}], "detectors": [...],
    "vacuum": [...]?}.  Exactly one source is required (single-photon
    sector).
    """
    g = json_field(obj, "grid", dict, "netlist", None)
    if g is not None:
        grid = KGrid1D(
            n=json_field(g, "N", json_int, "grid"),
            dk=json_field(g, "dk", float, "grid"),
            area=json_field(g, "area", float, "grid", 1.0),
        )
    elif default_grid is not None:
        grid = default_grid
    else:
        raise NetlistError("netlist JSON carries no grid and no default was given")

    sources = json_field(obj, "sources", list, "netlist", [])
    if len(sources) != 1:
        raise NetlistError(f"exactly one source required, got {len(sources)}")
    src = sources[0]
    state = state_from_spec(json_field(src, "state", dict, "source"), grid)

    elements = []
    for entry in json_field(obj, "elements", list, "netlist", []):
        spec = _spec_from_json(json_field(entry, "kind", str, "element"), entry.get("params", {}))
        elements.append(
            Element(
                id=json_field(entry, "id", str, "element"),
                spec=spec,
                inputs=json_field(entry, "in", _ports, "element", ()),
                outputs=json_field(entry, "out", _ports, "element", ()),
            )
        )
    return Netlist(
        elements=tuple(elements),
        source_port=json_field(src, "port", str, "source"),
        source_state=state,
        detectors=json_field(obj, "detectors", _ports, "netlist", ()),
        vacuum_ports=json_field(obj, "vacuum", _ports, "netlist", ()),
    )


def load_netlist(path, default_grid: KGrid1D | None = None) -> Netlist:
    with open(path) as fh:
        return netlist_from_json(json.load(fh), default_grid)
