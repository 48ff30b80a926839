import json
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from photonflux import (
    BeamSplitter,
    Element,
    KGrid1D,
    Medium,
    MediumSegment,
    Mirror,
    MixMatrix2,
    ModeIndex,
    Netlist,
    PhaseShifter,
    basis_state,
    coincidence_probability,
    load_netlist,
    mach_zehnder_netlist,
    make_gaussian_state,
    netlist_from_json,
    number_expectation,
    outcome_probabilities,
    run_circuit,
    sample_outcomes,
    single_mode_state,
    two_mode_mix,
    apply_mode_phase,
    validate,
)
import photonflux.circuit as circuit_mod
from photonflux.circuit import LedgerRow, PortRecord, PulseState, _topological_order
from photonflux.errors import InvariantError, NetlistError, PortError
from photonflux.optics import DielectricInterface, fresnel_interface
from photonflux.spectral import state_from_spec
from photonflux.units import NATURAL

from conftest import ALL_KINDS_NETLIST


def source(grid=None):
    grid = grid or KGrid1D(n=256, dk=1.0)
    return make_gaussian_state(60.0, 6.0, grid)


# ---- validation ----------------------------------------------------------------

def test_wire_only_netlist_is_valid():
    nl = Netlist(elements=(), source_port="a", source_state=source(), detectors=("a",))
    assert validate(nl) == []


def test_unwired_splitter_input_flags_arity():
    bs = BeamSplitter(t=0.6, r=0.8)
    el = Element("bs", bs, inputs=("src",), outputs=("o1", "o2"))
    nl = Netlist(elements=(el,), source_port="src", source_state=source(), detectors=("o1", "o2"))
    assert any("expected 2 input" in v for v in validate(nl))


def test_cycle_is_flagged():
    ps1 = Element("p1", PhaseShifter(0.1), inputs=("a",), outputs=("b",))
    ps2 = Element("p2", PhaseShifter(0.2), inputs=("b",), outputs=("a",))
    nl = Netlist(
        elements=(ps1, ps2),
        source_port="src",
        source_state=source(),
        detectors=(),
        vacuum_ports=(),
    )
    violations = validate(nl)
    assert any("cycle" in v for v in violations) or any("never produced" in v for v in violations)


def test_dangling_output_is_flagged():
    ps = Element("p", PhaseShifter(0.1), inputs=("src",), outputs=("o",))
    nl = Netlist(elements=(ps,), source_port="src", source_state=source(), detectors=())
    assert any("never consumed" in v for v in validate(nl))


def test_duplicate_element_ids_flagged():
    p1 = Element("p", PhaseShifter(0.1), inputs=("src",), outputs=("o1",))
    p2 = Element("p", PhaseShifter(0.2), inputs=("o1",), outputs=("o2",))
    nl = Netlist(elements=(p1, p2), source_port="src", source_state=source(), detectors=("o2",))
    assert any("duplicate element ids" in v for v in validate(nl))


def test_double_feed_is_flagged():
    p1 = Element("p1", PhaseShifter(0.1), inputs=("src",), outputs=("o1",))
    p2 = Element("p2", PhaseShifter(0.2), inputs=("src",), outputs=("o2",))
    nl = Netlist(elements=(p1, p2), source_port="src", source_state=source(), detectors=("o1", "o2"))
    assert any("feeds more than one" in v for v in validate(nl))


def test_interface_entered_from_lossy_medium_is_flagged():
    iface = Element("if", DielectricInterface(1.5 + 0.1j, 1.0), ("src",), ("t", "r"))
    nl = Netlist(elements=(iface,), source_port="src", source_state=source(), detectors=("t", "r"))
    assert validate(nl) == ["element if: interface entered from a lossy medium"]


def test_non_spec_element_is_unsupported_kind():
    el = Element("x", object(), ("src",), ("o",))
    nl = Netlist(elements=(el,), source_port="src", source_state=source(), detectors=("o",))
    violations = validate(nl)
    assert "element x: unsupported kind object" in violations
    with pytest.raises(NetlistError, match="unsupported kind"):
        run_circuit(nl)


def _wired(elements, detectors, vacuum=()):
    return Netlist(elements=elements, source_port="src", source_state=source(), detectors=detectors,
                   vacuum_ports=vacuum)


@pytest.mark.parametrize(
    "netlist, expected",
    [
        # a port produced twice, once over a vacuum port
        (lambda: _wired((Element("p1", PhaseShifter(0.1), ("src",), ("a",)),
                         Element("p2", PhaseShifter(0.2), ("a",), ("a",)),
                         Element("p3", PhaseShifter(0.3), ("v",), ("v",))), ("a",), ("v",)),
         ["port 'a' produced more than once", "port 'v' produced more than once",
          "detector port 'a' also feeds an element", "wiring contains a cycle"]),
        # an unsupported element produces nothing, though the sort still waits for it
        (lambda: _wired((Element("x", object(), ("src",), ("a",)),
                         Element("p", PhaseShifter(0.1), ("a",), ("b",))), ("b",)),
         ["element x: unsupported kind object", "element p: input port 'a' is never produced"]),
        (lambda: _wired((Element("bs", BeamSplitter(0.6, 0.8), ("src", "src"), ("o", "o")),), ("o",), ("src",)),
         ["source port is also declared as vacuum", "port 'o' produced more than once",
          "port 'src' feeds more than one input"]),
        (lambda: _wired((Element("bs", BeamSplitter(0.6, 0.8), ("src", "vac"), ("b", "a")),
                         Element("ps", PhaseShifter(0.1), ("a",), ("c",))), (), ("vac", "spare2", "spare1")),
         [f"port {p!r} is produced but never consumed" for p in ("b", "c", "spare1", "spare2")]),
        # a detector listed twice feeds no element
        (lambda: _wired((Element("p", PhaseShifter(0.1), ("src",), ("d",)),), ("d", "d")),
         ["duplicate detector ports"]),
        # a detector listed twice is checked once
        (lambda: _wired((Element("p", PhaseShifter(0.1), ("src",), ("d",)),), ("d", "x", "x")),
         ["detector port 'x' is never produced", "duplicate detector ports"]),
        (lambda: _wired((Element("p", PhaseShifter(0.1), ("src",), ("d",)),), ("d", "absorbed", "absorbed")),
         ["detector port 'absorbed' is reserved for the absorbed outcome",
          "detector port 'absorbed' is never produced", "duplicate detector ports"]),
        # a repeated id has no order, but its wiring has no cycle
        (lambda: _wired((Element("p", PhaseShifter(0.1), ("src",), ("a",)),
                         Element("p", PhaseShifter(0.2), ("a",), ("d",))), ("d",)),
         ["duplicate element ids"]),
    ],
    ids=["produced-twice", "unsupported-producer", "source-as-vacuum", "never-consumed-sorted",
         "duplicate-detector", "duplicate-unproduced-detector", "duplicate-absorbed-detector",
         "duplicate-element-id"],
)
def test_violations_are_listed_in_check_order(netlist, expected):
    assert validate(netlist()) == expected


def test_medium_segment_fed_only_by_vacuum_carries_nothing():
    # the segment contracts its vacuum input as usual, and a zero-weight pulse has no group delay
    med = Element("med", MediumSegment(Medium(1.25 + 0.01j), 2.0), ("vac",), ("m",))
    ps = Element("ps", PhaseShifter(0.1), ("src",), ("o",))
    pulse, ledger = run_circuit(_wired((med, ps), ("o", "m"), ("vac",)))
    row = next(row for row in ledger if row.element_id == "med")
    assert (row.number_in, row.number_out, row.absorbed) == (0.0, 0.0, 0.0)
    port = pulse.ports["m"]
    assert (port.probability, port.delay, port.spectral) == (0.0, 0.0, None)
    assert pulse.absorbed == 0.0


def test_run_rejects_invalid_netlist():
    ps = Element("p", PhaseShifter(0.1), inputs=("nowhere",), outputs=("o",))
    nl = Netlist(elements=(ps,), source_port="src", source_state=source(), detectors=("o",))
    with pytest.raises(NetlistError):
        run_circuit(nl)


def test_run_rejects_unnormalized_source():
    grid = KGrid1D(n=256, dk=1.0)
    from photonflux import SpectralAmplitude

    weak = SpectralAmplitude(grid=grid, helicity=1, c=0.5 * source(grid).c)
    nl = Netlist(elements=(), source_port="a", source_state=weak, detectors=("a",))
    with pytest.raises(NetlistError):
        run_circuit(nl)


# ---- ordering -------------------------------------------------------------------

def reference_topological_order(netlist):
    """Quadratic Kahn sort over a sorted ready list: the ordering reference."""
    producer = {netlist.source_port: None}
    for el in netlist.elements:
        for port in el.outputs:
            producer.setdefault(port, el.id)
    deps = {}
    for el in netlist.elements:
        deps[el.id] = {
            producer[p] for p in el.inputs if producer.get(p) is not None
        }
    order = []
    ready = sorted(eid for eid, d in deps.items() if not d)
    remaining = {eid: set(d) for eid, d in deps.items()}
    while ready:
        eid = ready.pop(0)
        order.append(eid)
        for other, d in remaining.items():
            if eid in d:
                d.discard(eid)
                if not d and other not in order and other not in ready:
                    ready.append(other)
        ready.sort()
    if len(order) != len(netlist.elements):
        return None
    return order


def clements_mesh(modes=32):
    """Rectangular Clements mesh; every output ends in a lossy line and an interface."""
    cur = [f"in{i}" for i in range(modes)]
    elements = []
    for layer in range(modes):
        for i in range(layer % 2, modes - 1, 2):
            shifted = f"p{layer}_{i}"
            outs = (f"m{layer}_{i}", f"m{layer}_{i + 1}")
            elements.append(Element(f"ps{layer}_{i}", PhaseShifter(0.1 * i), (cur[i],), (shifted,)))
            elements.append(
                Element(f"bs{layer}_{i}", BeamSplitter(t=0.6, r=0.8), (shifted, cur[i + 1]), outs)
            )
            cur[i], cur[i + 1] = outs
    detectors = []
    for j in range(modes):
        line = MediumSegment(Medium.constant(1.25 + 0.002j), 0.4)
        elements.append(Element(f"med{j}", line, (cur[j],), (f"w{j}",)))
        elements.append(
            Element(f"if{j}", DielectricInterface(1.0, 1.5), (f"w{j}",), (f"t{j}", f"r{j}"))
        )
        detectors += [f"t{j}", f"r{j}"]
    return Netlist(
        elements=tuple(elements),
        source_port="in0",
        source_state=source(),
        detectors=tuple(detectors),
        vacuum_ports=tuple(f"in{i}" for i in range(1, modes)),
    )


def shuffled(netlist, seed):
    perm = np.random.default_rng(seed).permutation(len(netlist.elements))
    return replace(netlist, elements=tuple(netlist.elements[i] for i in perm))


def test_topological_order_matches_reference():
    mesh = clements_mesh()
    assert len(mesh.elements) == 1056
    assert validate(mesh) == []
    readme_mz = netlist_from_json(mz_json())
    for nl in (mesh, shuffled(mesh, 5), readme_mz):
        order = _topological_order(nl)
        assert order is not None
        assert [el.id for el in order] == reference_topological_order(nl)
    # ties resolve by id ("bs10_0" < "bs1_1"), not by declaration order
    assert [el.id for el in _topological_order(mesh)] != [el.id for el in mesh.elements]


def test_topological_order_rejects_cycles():
    two_cycle = (
        Element("p1", PhaseShifter(0.1), inputs=("a",), outputs=("b",)),
        Element("p2", PhaseShifter(0.2), inputs=("b",), outputs=("a",)),
    )
    self_loop = (Element("p", PhaseShifter(0.1), inputs=("a",), outputs=("a",)),)
    for elements in (two_cycle, self_loop):
        nl = Netlist(elements=elements, source_port="src", source_state=source(), detectors=())
        assert _topological_order(nl) is None
        assert reference_topological_order(nl) is None


def test_shuffled_long_chain_runs_in_chain_order():
    ports = ["src"] + [f"c{i}" for i in range(4000)]
    chain = tuple(
        Element(f"ps{i}", PhaseShifter(1e-3 * i), (ports[i],), (ports[i + 1],))
        for i in range(4000)
    )
    nl = shuffled(
        Netlist(elements=chain, source_port="src", source_state=source(), detectors=(ports[-1],)),
        11,
    )
    assert validate(nl) == []
    pulse, ledger = run_circuit(nl)
    assert [row.element_id for row in ledger] == [el.id for el in chain]
    assert pulse.probability(ports[-1]) == pytest.approx(1.0, abs=1e-9)


# ---- single elements -----------------------------------------------------------

def test_balanced_splitter_probabilities():
    st = source()
    bs = BeamSplitter(t=1 / np.sqrt(2), r=1 / np.sqrt(2))
    el = Element("bs", bs, inputs=("src", "vac"), outputs=("o1", "o2"))
    nl = Netlist(
        elements=(el,),
        source_port="src",
        source_state=st,
        detectors=("o1", "o2"),
        vacuum_ports=("vac",),
    )
    pulse, ledger = run_circuit(nl)
    assert pulse.probability("o1") == pytest.approx(0.5, abs=1e-12)
    assert pulse.probability("o2") == pytest.approx(0.5, abs=1e-12)
    assert pulse.absorbed == pytest.approx(0.0, abs=1e-12)
    assert coincidence_probability(pulse, "o1", "o2") == 0.0
    with pytest.raises(PortError):
        coincidence_probability(pulse, "o1", "o1")
    with pytest.raises(PortError):
        coincidence_probability(pulse, "o1", "ghost")


def test_medium_line_probability_and_delay():
    grid = KGrid1D(n=1024, dk=1.0)
    st = make_gaussian_state(250.0, 6.0, grid)
    n_prime = 2.0
    length = 0.03 * grid.length
    seg = Element(
        "line",
        MediumSegment(Medium.constant(n_prime**2 - 1.0), length),
        inputs=("src",),
        outputs=("out",),
    )
    nl = Netlist(elements=(seg,), source_port="src", source_state=st, detectors=("out",))
    pulse, _ = run_circuit(nl)
    assert pulse.probability("out") == pytest.approx(1.0, abs=1e-12)
    assert pulse.ports["out"].delay == pytest.approx(n_prime * length / NATURAL.c, rel=1e-6)

    # timing oracle: the carried spectrum must place the envelope at -n'L
    from photonflux import density_field

    out_state = pulse.ports["out"].spectral
    start = density_field(st, st, 0.0).centroid()
    shifted = density_field(out_state, out_state, 0.0).centroid()
    assert shifted - start == pytest.approx(-n_prime * length, rel=1e-3)


def test_mach_zehnder_fringe_matches_matrix_oracle():
    st = source()
    bs = BeamSplitter(t=1 / np.sqrt(2), r=1 / np.sqrt(2))
    s = bs.scattering
    for phi in np.linspace(0.0, 2.0 * np.pi, 11):
        nl = mach_zehnder_netlist(st, phi)
        pulse, _ = run_circuit(nl)
        amp = s @ np.diag([np.exp(1j * phi), 1.0]) @ s @ np.array([1.0, 0.0])
        assert pulse.probability("d_dark") == pytest.approx(abs(amp[0]) ** 2, abs=1e-12)
        assert pulse.probability("d_bright") == pytest.approx(abs(amp[1]) ** 2, abs=1e-12)
        assert pulse.probability("d_bright") == pytest.approx(np.cos(phi / 2.0) ** 2, abs=1e-12)


def test_interface_split_conserves_and_paper_defect():
    st = source()
    iface = Element(
        "if",
        DielectricInterface(n_in=1.0, n_out=2.25),
        inputs=("src",),
        outputs=("t", "r"),
    )
    nl = Netlist(elements=(iface,), source_port="src", source_state=st, detectors=("t", "r"))
    pulse, ledger = run_circuit(nl)
    assert pulse.total_probability() + pulse.absorbed == pytest.approx(1.0, abs=1e-12)

    pulse_p, _ = run_circuit(nl, paper_convention=True)
    from photonflux import interface_budget

    defect = interface_budget(1.0, 2.25, paper_convention=True).defect
    assert pulse_p.total_probability() - 1.0 == pytest.approx(defect, abs=1e-9)


def test_lossy_bin_attenuation_in_ledger():
    grid = KGrid1D(n=256, dk=1.0)
    st = single_mode_state(grid, 99)
    chi = 0.2 + 0.01j
    length = 0.4
    seg = Element("seg", MediumSegment(Medium.constant(chi), length), ("src",), ("out",))
    nl = Netlist(elements=(seg,), source_port="src", source_state=st, detectors=("out",))
    pulse, ledger = run_circuit(nl)
    from photonflux import refractive_index

    omega = NATURAL.c * grid.k[99]
    expected = np.exp(-2.0 * omega * refractive_index(chi).imag * length / NATURAL.c)
    assert pulse.probability("out") == pytest.approx(expected, rel=1e-12)
    row = ledger[0]
    assert row.number_in == pytest.approx(1.0, abs=1e-12)
    assert row.number_out == pytest.approx(expected, rel=1e-12)
    assert row.absorbed == pytest.approx(1.0 - expected, rel=1e-9)


# ---- randomized netlists ----------------------------------------------------------

def random_netlist(rng, grid):
    """Random feed-forward DAG built from unary chains, interfaces and merges."""
    # 10 sigma of edge clearance keeps the coverage check happy
    st = make_gaussian_state(
        rng.uniform(0.3, 0.6) * grid.k_max, rng.uniform(3.0, 6.0) * grid.dk, grid
    )
    counter = [0]

    def port():
        counter[0] += 1
        return f"p{counter[0]}"

    elements = []
    vacuum_ports = []
    open_ports = ["src"]
    for step in range(rng.integers(1, 9)):
        kind = rng.choice(["phase", "medium", "mirror", "split", "merge", "interface"])
        if kind == "merge" and len(open_ports) >= 2:
            idx = rng.choice(len(open_ports), size=2, replace=False)
            a, b = open_ports[idx[0]], open_ports[idx[1]]
            open_ports = [p for i, p in enumerate(open_ports) if i not in idx]
            theta = rng.uniform(0.0, np.pi / 2.0)
            bs = BeamSplitter(
                t=np.cos(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                r=np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            )
            o1, o2 = port(), port()
            elements.append(Element(f"e{step}", bs, (a, b), (o1, o2)))
            open_ports += [o1, o2]
        elif kind == "split":
            a = open_ports.pop(rng.integers(len(open_ports)))
            theta = rng.uniform(0.0, np.pi / 2.0)
            bs = BeamSplitter(t=np.cos(theta), r=np.sin(theta))
            vac, o1, o2 = port(), port(), port()
            vacuum_ports.append(vac)
            elements.append(Element(f"e{step}", bs, (a, vac), (o1, o2)))
            open_ports += [o1, o2]
        elif kind == "interface":
            a = open_ports.pop(rng.integers(len(open_ports)))
            n2 = complex(rng.uniform(1.1, 3.0), rng.uniform(0.0, 0.2))
            o1, o2 = port(), port()
            elements.append(
                Element(f"e{step}", DielectricInterface(1.0, n2), (a,), (o1, o2))
            )
            open_ports += [o1, o2]
        elif kind == "phase":
            a = open_ports.pop(rng.integers(len(open_ports)))
            o = port()
            elements.append(Element(f"e{step}", PhaseShifter(rng.uniform(0, 2 * np.pi)), (a,), (o,)))
            open_ports.append(o)
        elif kind == "mirror":
            a = open_ports.pop(rng.integers(len(open_ports)))
            o = port()
            elements.append(Element(f"e{step}", Mirror(), (a,), (o,)))
            open_ports.append(o)
        else:  # medium
            a = open_ports.pop(rng.integers(len(open_ports)))
            o = port()
            chi = complex(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.1))
            elements.append(
                Element(f"e{step}", MediumSegment(Medium.constant(chi), rng.uniform(0.0, 1.0)), (a,), (o,))
            )
            open_ports.append(o)
    return Netlist(
        elements=tuple(elements),
        source_port="src",
        source_state=st,
        detectors=tuple(open_ports),
        vacuum_ports=tuple(vacuum_ports),
    )


def test_random_netlists_conserve_probability():
    grid = KGrid1D(n=256, dk=1.0)
    rng = np.random.default_rng(2024)
    for _ in range(40):
        nl = random_netlist(rng, grid)
        assert validate(nl) == []
        pulse, ledger = run_circuit(nl)
        total = pulse.total_probability() + pulse.absorbed
        assert total == pytest.approx(1.0, abs=1e-9)
        # ledger telescopes to the global absorbed figure
        assert sum(row.absorbed for row in ledger) == pytest.approx(pulse.absorbed, abs=1e-10)


def reference_run(netlist, units=NATURAL, paper_convention=False):
    """The isinstance dispatch over element kinds that run_circuit replaced.

    Returns ({port: (array, delay, number)}, ledger rows as tuples, absorbed):
    the propagation reference run_circuit must match bit for bit.
    """
    grid = netlist.source_state.grid
    by_id = {el.id: el for el in netlist.elements}
    empty = (np.zeros(grid.n, dtype=complex), 0.0, 0.0)

    def number_of(arr):
        return float(np.sum(np.abs(arr) ** 2) * grid.dk / (2.0 * np.pi))

    def merge_delay(d0, w0, d1, w1):
        return 0.0 if w0 + w1 == 0.0 else (w0 * d0 + w1 * d1) / (w0 + w1)

    src = netlist.source_state.c.copy()
    live = {netlist.source_port: (src, 0.0, number_of(src))}
    rows, absorbing = [], []
    for eid in reference_topological_order(netlist):
        el = by_id[eid]
        ins = [live.pop(p, empty) for p in el.inputs]
        n_in = sum(n for _, _, n in ins)
        spec = el.spec
        if isinstance(spec, PhaseShifter):
            arr, delay, _ = ins[0]
            outs = [(arr * np.exp(1j * spec.phi), delay)]
        elif isinstance(spec, Mirror):
            arr, delay, _ = ins[0]
            outs = [(arr * spec.r, delay)]
        elif isinstance(spec, MediumSegment):
            arr, delay, _ = ins[0]
            omega = units.c * grid.k
            # per bin and independent of Medium.n, so the scalar index is checked bit for bit
            n = np.sqrt(1.0 + np.full(grid.n, spec.medium.chi))
            transfer = np.exp((1j * n.real - n.imag) * omega * spec.length / units.c)
            weight = np.abs(arr) ** 2
            total = weight.sum()
            n_eff = 0.0 if total == 0.0 else float(np.sum(weight * n.real) / total)
            outs = [(arr * transfer, delay + n_eff * spec.length / units.c)]
        elif isinstance(spec, DielectricInterface):
            arr, delay, _ = ins[0]
            n1, n2 = complex(spec.n_in), complex(spec.n_out)
            r_amp, t_amp = fresnel_interface(n1, n2, paper_convention)
            t_flux = t_amp * np.sqrt(n2.real / n1.real)
            outs = [(arr * t_flux, delay), (arr * r_amp, delay)]
        else:
            (a0, d0, w0), (a1, d1, w1) = ins
            s = spec.scattering
            delay = merge_delay(d0, w0, d1, w1)
            outs = [(s[0, 0] * a0 + s[0, 1] * a1, delay), (s[1, 0] * a0 + s[1, 1] * a1, delay)]
        numbers = [number_of(arr) for arr, _ in outs]
        n_out = sum(numbers)
        rows.append((eid, n_in, n_out, n_in - n_out))
        if isinstance(spec, MediumSegment):
            absorbing.append(n_in - n_out)
        for port, (arr, delay), n in zip(el.outputs, outs, numbers):
            live[port] = (arr, delay, n)
    ports = {port: live.pop(port, empty) for port in netlist.detectors}
    absorbed = 0.0  # left to right, as builtin sum did before Python 3.12
    for n in absorbing:
        absorbed += n
    return ports, rows, absorbed


@pytest.mark.parametrize("paper_convention", [False, True])
def test_run_circuit_matches_isinstance_reference_bitwise(paper_convention):
    grid = KGrid1D(n=256, dk=1.0)
    rng = np.random.default_rng(3)
    netlists = [random_netlist(rng, grid) for _ in range(60)] + [clements_mesh()]
    kinds = {type(el.spec) for nl in netlists for el in nl.elements}
    assert kinds == {PhaseShifter, BeamSplitter, MediumSegment, DielectricInterface, Mirror}
    for nl in netlists:
        pulse, ledger = run_circuit(nl, paper_convention=paper_convention)
        ports, rows, absorbed = reference_run(nl, paper_convention=paper_convention)
        assert [(r.element_id, r.number_in, r.number_out, r.absorbed) for r in ledger] == rows
        assert pulse.absorbed == absorbed
        for port, (arr, delay, n) in ports.items():
            rec = pulse.ports[port]
            assert rec.delay == delay
            assert rec.path_amplitude == complex(np.sqrt(n))
            if n > 0.0:
                assert np.array_equal(rec.spectral.c, arr / np.sqrt(n))
            else:
                assert rec.spectral is None


def reached_from_source(netlist):
    """Ids of the elements a walk from the source port reaches, input to outputs."""
    consumer = {port: el for el in netlist.elements for port in el.inputs}
    reached, ports = {}, [netlist.source_port]
    while ports:
        el = consumer.get(ports.pop())
        if el is not None and el.id not in reached:
            reached[el.id] = el
            ports.extend(el.outputs)
    return reached


def test_vacuum_only_elements_do_no_array_work(monkeypatch):
    mesh = clements_mesh()
    contracted = []
    real = circuit_mod._contract

    def counted(row, arrays):
        contracted.append(row)
        return real(row, arrays)

    monkeypatch.setattr(circuit_mod, "_contract", counted)
    _, ledger = run_circuit(mesh)
    reached = reached_from_source(mesh)
    # the lower-left triangle of the mesh sees only vacuum: 450 of the 1056 elements
    assert len(mesh.elements) - len(reached) == 450
    # one contraction per output of every reached element, none for the rest
    assert len(contracted) == sum(len(el.outputs) for el in reached.values())
    for row in ledger:
        if row.element_id in reached:
            assert row.number_in > 0.0
        else:
            numbers = (row.number_in, row.number_out, row.absorbed)
            assert [repr(float(x)) for x in numbers] == ["0.0", "0.0", "0.0"]


def test_run_is_deterministic():
    grid = KGrid1D(n=256, dk=1.0)
    rng = np.random.default_rng(7)
    nl = random_netlist(rng, grid)
    p1, _ = run_circuit(nl)
    p2, _ = run_circuit(nl)
    for port in p1.ports:
        assert p1.ports[port].path_amplitude == p2.ports[port].path_amplitude
    assert p1.absorbed == p2.absorbed


def test_ledger_rows_are_frozen():
    """A returned ledger is a tuple of LedgerRows, one per element: it cannot be edited after the run, and it hashes."""
    _, ledger = run_circuit(mach_zehnder_netlist(source(), 0.3))
    assert type(ledger) is tuple and [type(row) for row in ledger] == [LedgerRow] * 3
    with pytest.raises(FrozenInstanceError):
        ledger[0].absorbed = 0.5
    assert hash(ledger) == hash(run_circuit(mach_zehnder_netlist(source(), 0.3))[1])


@pytest.mark.parametrize("paper_convention", [False, True], ids=["default", "paper"])
@pytest.mark.parametrize("netlist", [netlist_from_json(ALL_KINDS_NETLIST), clements_mesh(8)],
                         ids=["all-kinds", "mesh-with-vacuum-rows"])
def test_every_ledger_number_is_a_float(netlist, paper_convention):
    """The ledger template formats numbers with ``float.__repr__``, so no row may hold an int."""
    _, ledger = run_circuit(netlist, paper_convention=paper_convention)
    numbers = [getattr(row, field) for row in ledger for field in ("number_in", "number_out", "absorbed")]
    assert numbers and all(isinstance(x, float) for x in numbers)


# ---- sampling -------------------------------------------------------------------

def test_certain_detection_always_fires():
    nl = Netlist(elements=(), source_port="a", source_state=source(), detectors=("a",))
    pulse, _ = run_circuit(nl)
    for seed in range(5):
        assert sample_outcomes(pulse, seed, 1) == {"a": 1, "absorbed": 0}


def test_detector_named_absorbed_is_rejected():
    # sample_outcomes reports the absorbed outcome under that label, which would overwrite the detector's count
    bs = BeamSplitter(t=2**-0.5, r=2**-0.5)
    nl = _wired((Element("bs", bs, ("src", "vac"), ("absorbed", "d2")),), ("absorbed", "d2"), ("vac",))
    assert validate(nl) == ["detector port 'absorbed' is reserved for the absorbed outcome"]
    with pytest.raises(NetlistError, match="detector port 'absorbed' is reserved for the absorbed outcome"):
        run_circuit(nl)


def test_fully_absorbed_always_absorbed():
    grid = KGrid1D(n=256, dk=1.0)
    st = make_gaussian_state(60.0, 6.0, grid)
    seg = Element("seg", MediumSegment(Medium.constant(0.5 + 2.0j), 50.0), ("src",), ("out",))
    nl = Netlist(elements=(seg,), source_port="src", source_state=st, detectors=("out",))
    pulse, _ = run_circuit(nl)
    assert pulse.absorbed == pytest.approx(1.0, abs=1e-9)
    assert sample_outcomes(pulse, 3, 1) == {"absorbed": 1, "out": 0}


def test_sampling_matches_binomial_bound():
    st = source()
    bs = BeamSplitter(t=np.sqrt(0.3), r=np.sqrt(0.7))
    el = Element("bs", bs, ("src", "vac"), ("o1", "o2"))
    nl = Netlist(
        elements=(el,),
        source_port="src",
        source_state=st,
        detectors=("o1", "o2"),
        vacuum_ports=("vac",),
    )
    pulse, _ = run_circuit(nl)
    n = 1_000_000
    counts = sample_outcomes(pulse, seed=123, n_samples=n)
    assert counts == sample_outcomes(pulse, seed=123, n_samples=n)  # bit-stable
    for port, p in (("o1", 0.3), ("o2", 0.7)):
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(counts[port] / n - p) <= 3.0 * sigma


def choice_reference(pulse, seed, n):
    """Generator.choice over the sorted labels, then bincount: sample_outcomes must match it count for count."""
    probs = outcome_probabilities(pulse)
    labels = sorted(probs)
    weights = np.array([max(probs[lab], 0.0) for lab in labels])
    draws = np.random.default_rng(seed).choice(len(labels), size=n, p=weights / weights.sum())
    return {lab: int(cnt) for lab, cnt in zip(labels, np.bincount(draws, minlength=len(labels)))}


def weighted_pulse(weights):
    """A pulse whose sorted outcome labels carry exactly ``weights`` ('absorbed' sorts first)."""
    ports = {f"d{i:02d}": SimpleNamespace(probability=float(w)) for i, w in enumerate(weights[1:])}
    return PulseState(ports=ports, absorbed=float(weights[0]))


def random_weights(rng):
    """1 to 70 unnormalized weights, zero at the first, a middle or the last label, or none."""
    weights = rng.random(rng.integers(1, 71)) * rng.uniform(0.5, 2.0)
    zeros = [rng.choice([0, len(weights) // 2, len(weights) - 1]) for _ in range(rng.integers(0, 3))]
    weights[zeros] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    return weights


def tied_weights(seed, n, rng):
    """Weights whose cumulative edges equal drawn uniforms exactly, so one draw lands on an edge.

    The draws are multiples of 2**-53 in [0, 1), so their differences and partial sums are
    exact and the total is exactly 1.0; a repeated edge makes a zero-weight label.
    """
    u = np.random.default_rng(seed).random(n)
    edges = np.sort(rng.choice(u, size=rng.integers(1, min(n, 8) + 1)))
    weights = np.diff(edges, prepend=0.0, append=1.0)
    cdf = (weights / weights.sum()).cumsum()
    assert np.array_equal(cdf[:-1] / cdf[-1], edges)
    return weights


def renormalized_tie(u0):
    """Two weights whose cdf edge equals ``u0`` only after the division by cdf[-1], or None."""
    for scale in (0.3, 0.7, 3.0):
        for step in range(-3, 4):
            first = u0 * scale
            weights = np.array([first + step * np.spacing(first), (1.0 - u0) * scale])
            cdf = (weights / weights.sum()).cumsum()
            if cdf[0] / cdf[-1] == u0 != cdf[0]:
                return weights
    return None


def test_sample_outcomes_matches_rng_choice():
    rng = np.random.default_rng(20261018)
    cases = []
    for n in (0, 1, 7, 1000, 100_000):
        cases += [(weighted_pulse(random_weights(rng)), int(rng.integers(2**63)), n) for _ in range(80)]
        if n == 0:
            continue
        for _ in range(10):
            seed = int(rng.integers(2**63))
            cases.append((weighted_pulse(tied_weights(seed, n, rng)), seed, n))
        renormalized = []
        while len(renormalized) < 10:
            seed = int(rng.integers(2**63))
            weights = renormalized_tie(np.random.default_rng(seed).random(n)[rng.integers(n)])
            if weights is not None:
                renormalized.append((weighted_pulse(weights), seed, n))
        cases += renormalized
    for netlist, n in ((clements_mesh(), 1000), (netlist_from_json(mz_json(0.7)), 100_000)):
        pulse, _ = run_circuit(netlist)
        cases += [(pulse, seed, n) for seed in range(200)]
    assert len(cases) >= 500
    for pulse, seed, n in cases:
        counts = sample_outcomes(pulse, seed, n)
        assert counts == choice_reference(pulse, seed, n)
        assert all(type(count) is int for count in counts.values())  # JSON-serializable


@pytest.mark.parametrize("ports, absorbed", [({"a": complex("nan")}, 0.0), ({}, float("inf")),
                                             ({"a": 1.0}, float("nan"))], ids=["port-nan", "absorbed-inf",
                                                                               "absorbed-nan"])
def test_non_finite_outcome_probability_raises_invariant_error(ports, absorbed):
    records = {port: PortRecord(path_amplitude=amp, spectral=None, delay=0.0) for port, amp in ports.items()}
    with pytest.raises(InvariantError, match="outcome probabilities are not finite"):
        sample_outcomes(PulseState(ports=records, absorbed=absorbed), seed=0, n_samples=10)


# ---- fock cross-check --------------------------------------------------------------

def test_single_photon_sector_matches_fock_algebra():
    st = source()
    t_amp, r_amp = 0.6, 0.8j
    el = Element("bs", BeamSplitter(t=t_amp, r=r_amp), ("src", "vac"), ("o1", "o2"))
    nl = Netlist(
        elements=(el,),
        source_port="src",
        source_state=st,
        detectors=("o1", "o2"),
        vacuum_ports=("vac",),
    )
    pulse, _ = run_circuit(nl)

    mode_a, mode_b = ModeIndex(+1, 0), ModeIndex(+1, 1)
    fock_out = two_mode_mix(
        basis_state(2, 2, {mode_a: 1}), mode_a, mode_b, MixMatrix2(t=t_amp, r=r_amp)
    )
    assert pulse.probability("o1") == pytest.approx(number_expectation(fock_out, mode_a), abs=1e-12)
    assert pulse.probability("o2") == pytest.approx(number_expectation(fock_out, mode_b), abs=1e-12)


def test_mach_zehnder_matches_fock_sequence():
    st = source()
    phi = 0.9
    pulse, _ = run_circuit(mach_zehnder_netlist(st, phi))

    mode_a, mode_b = ModeIndex(+1, 0), ModeIndex(+1, 1)
    u = MixMatrix2(t=1 / np.sqrt(2), r=1 / np.sqrt(2))
    state = basis_state(2, 2, {mode_a: 1})
    state = two_mode_mix(state, mode_a, mode_b, u)
    state = apply_mode_phase(state, mode_a, phi)
    state = two_mode_mix(state, mode_a, mode_b, u)
    assert pulse.probability("d_dark") == pytest.approx(
        number_expectation(state, mode_a), abs=1e-12
    )
    assert pulse.probability("d_bright") == pytest.approx(
        number_expectation(state, mode_b), abs=1e-12
    )


# ---- JSON schema ---------------------------------------------------------------------

def mz_json(phi=np.pi):
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
                "out": ["d1", "d2"],
            },
        ],
        "sources": [{"port": "src", "state": {"kind": "gaussian", "k0": 60.0, "sigma": 6.0}}],
        "detectors": ["d1", "d2"],
        "vacuum": ["vac"],
    }


def test_netlist_json_round_trip(tmp_path):
    path = tmp_path / "mz.json"
    path.write_text(json.dumps(mz_json()))
    nl = load_netlist(path)
    assert validate(nl) == []
    pulse, _ = run_circuit(nl)
    assert pulse.probability("d2") == pytest.approx(0.0, abs=1e-12)  # cos^2(pi/2)


def test_netlist_requires_exactly_one_source():
    obj = mz_json()
    obj["sources"] = []
    with pytest.raises(NetlistError):
        netlist_from_json(obj)


def test_declared_grid_must_be_the_amplitude_sources_grid():
    amplitude = source(KGrid1D(n=128, dk=1.0)).to_json() | {"kind": "amplitude"}
    obj = mz_json()
    obj["sources"][0]["state"] = amplitude
    with pytest.raises(NetlistError, match=r"^source: state grid KGrid1D\(n=128, dk=1.0, area=1.0\) differs from "
                                           r"the netlist grid KGrid1D\(n=256, dk=1.0, area=1.0\)$"):
        netlist_from_json(obj)
    # the same grid declared, or none, runs on the source's own grid as before
    obj["grid"]["N"] = 128
    assert netlist_from_json(obj).source_state.grid == KGrid1D(n=128, dk=1.0)
    del obj["grid"]
    assert netlist_from_json(obj, default_grid=KGrid1D(n=256, dk=1.0)).source_state.grid == KGrid1D(n=128, dk=1.0)


def test_unknown_element_kind_rejected():
    obj = mz_json()
    obj["elements"][0]["kind"] = "wormhole"
    with pytest.raises(NetlistError):
        netlist_from_json(obj)


def test_state_spec_kinds():
    grid = KGrid1D(n=256, dk=1.0)
    zero = state_from_spec({"kind": "zero"}, grid)
    assert np.all(zero.c == 0.0)
    amp = state_from_spec(source(grid).to_json() | {"kind": "amplitude"}, grid)
    np.testing.assert_array_equal(amp.c, source(grid).c)
    with pytest.raises(NetlistError):
        state_from_spec({"kind": "thermal"}, grid)


# ---- error branches ---------------------------------------------------------------

def _no_grid():
    obj = mz_json()
    del obj["grid"]
    return netlist_from_json(obj)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: PulseState(ports={}, absorbed=0.0).probability("d"), PortError, "unknown port 'd'"),
        (lambda: sample_outcomes(PulseState(ports={}, absorbed=0.0), 0, 1), PortError,
         "no outcome carries positive probability"),
        (_no_grid, NetlistError, "no grid and no default"),
    ],
    ids=["probability-unknown-port", "samples-no-positive-outcome", "netlist-no-grid"],
)
def test_error_branches(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_repeated_id_has_no_order():
    ps = PhaseShifter(0.1)
    nl = Netlist(elements=(Element("p", ps, ("src",), ("a",)), Element("p", ps, ("a",), ("b",))),
                 source_port="src", source_state=source(), detectors=("b",))
    assert nl.order is None
    assert validate(nl) == ["duplicate element ids"]
