import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflux import (
    BeamSplitter,
    Medium,
    MediumSegment,
    Mirror,
    density_field,
    evolve_free,
    fresnel_interface,
    interface_budget,
    make_gaussian_state,
    mirror_momentum_kick,
    momentum_report,
    photon_number,
    propagate_in_medium,
    refractive_index,
    single_mode_state,
)
from photonflux.errors import DomainError, PassivityError, UnitarityError
from photonflux.units import NATURAL

TWO_PI = 2.0 * np.pi


# ---- refractive index ----------------------------------------------------------

def test_index_trivial_values():
    assert refractive_index(0.0) == 1.0
    assert refractive_index(3.0) == 2.0


def test_index_principal_root_squares_back():
    chi = 0.2 + 0.02j
    n = refractive_index(chi)
    assert abs(n * n - (1.0 + chi)) <= 1e-14
    assert n.imag >= 0.0


def test_index_branch_cut_rejected():
    with pytest.raises(DomainError):
        refractive_index(-2.0)
    with pytest.raises(DomainError):
        refractive_index(-1.0)  # n = 0 degenerate


# ---- media ----------------------------------------------------------------------

def test_medium_gain_rejected():
    with pytest.raises(PassivityError):
        Medium.constant(0.5 - 0.1j)
    # Im chi = -1e-15 is within tolerance, but near the branch point the root
    # amplifies (n'' is about -5e-13): building the medium already fails
    with pytest.raises(PassivityError, match="n'' < 0"):
        Medium.constant(complex(-0.999999, -1e-15))


def test_medium_index_is_the_principal_root():
    med = Medium.constant(0.44 + 0.03j)
    assert med.chi == 0.44 + 0.03j
    assert med.n == refractive_index(0.44 + 0.03j)


# ---- propagation ------------------------------------------------------------------

def test_lossless_segment_preserves_number(grid):
    g = make_gaussian_state(200.0, 8.0, grid)
    out = propagate_in_medium(g, Medium.constant(1.25), 3.0)
    assert photon_number(out) == pytest.approx(1.0, abs=1e-12)


def test_half_amplitude_attenuation(grid):
    # choose omega n'' L / c = ln 2 on a monochromatic bin
    bin_index = 199
    state = single_mode_state(grid, bin_index)
    omega = NATURAL.c * grid.k[bin_index]
    n_pp = 0.01
    length = np.log(2.0) * NATURAL.c / (omega * n_pp)
    n = 1.3 + 1j * n_pp
    med = Medium.constant(n * n - 1.0)
    assert med.n == pytest.approx(n, abs=1e-12)
    out = propagate_in_medium(state, med, length)
    ratio = np.abs(out.c[bin_index]) / np.abs(state.c[bin_index])
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert photon_number(out) == pytest.approx(0.25, abs=1e-12)


def test_attenuation_factor_per_component(grid):
    g = make_gaussian_state(300.0, 10.0, grid)
    chi = 0.44 + 0.03j
    length = 0.8
    out = propagate_in_medium(g, Medium.constant(chi), length)
    omega = NATURAL.c * grid.k
    n_pp = refractive_index(chi).imag
    expected = np.exp(-2.0 * omega * n_pp * length / NATURAL.c)
    mask = np.abs(g.c) > 1e-12 * np.abs(g.c).max()
    got = np.abs(out.c[mask]) ** 2 / np.abs(g.c[mask]) ** 2
    np.testing.assert_allclose(got, expected[mask], rtol=1e-12)


def test_group_delay_through_dispersionless_segment(grid):
    # a segment of optical thickness n'L retards the envelope by exactly n'L;
    # after free evolution of n'L/c the centroid is back where it started
    g = make_gaussian_state(250.0, 6.0, grid)
    n_prime = 1.5
    length = 0.05 * grid.length
    med = Medium.constant(n_prime**2 - 1.0)
    start = density_field(g, g, 0.0).centroid()

    out = propagate_in_medium(g, med, length)
    shifted = density_field(out, out, 0.0).centroid()
    assert shifted - start == pytest.approx(-n_prime * length, rel=1e-3)

    arrival = evolve_free(out, n_prime * length / NATURAL.c)
    assert density_field(arrival, arrival, 0.0).centroid() == pytest.approx(start, rel=1e-6)

    # vacuum run of the same physical length arrives earlier by (n'-1) L / c
    vac = propagate_in_medium(g, Medium.constant(0.0), length)
    vac_arrival = evolve_free(vac, length / NATURAL.c)
    assert density_field(vac_arrival, vac_arrival, 0.0).centroid() == pytest.approx(start, rel=1e-6)


def test_segment_composition(grid):
    g = make_gaussian_state(150.0, 7.0, grid)
    med = Medium.constant(0.3 + 0.02j)
    once = propagate_in_medium(g, med, 1.7)
    twice = propagate_in_medium(propagate_in_medium(g, med, 0.6), med, 1.1)
    np.testing.assert_allclose(twice.c, once.c, atol=1e-12 * np.abs(once.c).max())


def test_negative_length_rejected(grid):
    g = make_gaussian_state(150.0, 7.0, grid)
    with pytest.raises(DomainError):
        propagate_in_medium(g, Medium.constant(0.1), -1.0)


@given(
    chi_re=st.floats(-0.5, 3.0),
    chi_im=st.floats(0.0, 0.5),
    l1=st.floats(0.0, 2.0),
    l2=st.floats(0.0, 2.0),
)
@settings(deadline=None, max_examples=25)
def test_passivity_and_composition_property(chi_re, chi_im, l1, l2):
    grid_local = __import__("photonflux").KGrid1D(n=256, dk=1.0)
    g = make_gaussian_state(60.0, 6.0, grid_local)
    med = Medium.constant(complex(chi_re, chi_im))
    out1 = propagate_in_medium(g, med, l1 + l2)
    out2 = propagate_in_medium(propagate_in_medium(g, med, l1), med, l2)
    assert photon_number(out1) <= 1.0 + 1e-12
    np.testing.assert_allclose(out2.c, out1.c, atol=1e-12)


# ---- fresnel ----------------------------------------------------------------------

def test_fresnel_trivial_interface():
    r, t = fresnel_interface(1.5, 1.5)
    assert r == 0.0
    assert t == 1.0


def test_fresnel_vacuum_to_three():
    r, _ = fresnel_interface(1.0, 3.0)
    assert abs(r) == pytest.approx(0.5, abs=1e-15)
    r_paper, _ = fresnel_interface(1.0, 3.0, paper_convention=True)
    assert abs(r_paper) == pytest.approx(0.5, abs=1e-15)


def test_fresnel_flux_conservation_identity():
    for n2 in (1.5, 2.0 + 0.0j, 3.3, 1.5 + 0.5j, 2.0 + 0.1j):
        budget = interface_budget(1.0, n2)
        assert budget.total == pytest.approx(1.0, abs=1e-12)
    budget = interface_budget(1.5, 2.5)
    assert budget.total == pytest.approx(1.0, abs=1e-12)


def test_paper_pair_conservation_defect():
    # algebra oracle: defect = 4 n (n - 1) / (n + 1) for vacuum -> real n
    for n in (1.5, 2.0, 3.0):
        budget = interface_budget(1.0, n, paper_convention=True)
        assert budget.defect == pytest.approx(4.0 * n * (n - 1.0) / (n + 1.0), abs=1e-12)
    assert interface_budget(1.0, 3.0, paper_convention=True).defect == pytest.approx(6.0, abs=1e-12)


def test_fresnel_degenerate_rejected():
    with pytest.raises(DomainError):
        fresnel_interface(1.0, -1.0)
    with pytest.raises(DomainError):
        fresnel_interface(0.0, 1.0)


# ---- momentum ------------------------------------------------------------------------

def test_mirror_kick():
    p = np.array([2.5, 0.0, 0.0])
    np.testing.assert_array_equal(mirror_momentum_kick(p, "reflect"), 2.0 * p)
    np.testing.assert_array_equal(mirror_momentum_kick(p, "absorb"), p)
    np.testing.assert_array_equal(mirror_momentum_kick(np.zeros(3), "reflect"), np.zeros(3))
    with pytest.raises(DomainError):
        mirror_momentum_kick(p, "refract")


def test_momentum_single_mode(grid):
    bin_index = 399
    state = single_mode_state(grid, bin_index)
    report = momentum_report(state, 0.0)
    assert report.p_abraham == pytest.approx(NATURAL.hbar * grid.k[bin_index], abs=1e-12)
    assert report.p_minkowski == report.p_abraham


def test_momentum_minkowski_scaling(grid):
    g = make_gaussian_state(200.0, 8.0, grid)
    chi = 1.25
    report = momentum_report(g, chi)
    n = refractive_index(chi)
    assert report.p_minkowski == pytest.approx((n * n).real * report.p_abraham, rel=1e-12)
    assert report.p_minkowski == pytest.approx(2.25 * report.p_abraham, rel=1e-12)


def test_momentum_complex_chi_flagged(grid):
    g = make_gaussian_state(200.0, 8.0, grid)
    report = momentum_report(g, 0.3 + 0.05j)
    assert report.p_minkowski is None
    assert not report.minkowski_defined
    assert report.p_abraham > 0.0


# ---- element specs ----------------------------------------------------------------------

def test_beam_splitter_validation():
    BeamSplitter(t=0.6, r=0.8j)
    with pytest.raises(UnitarityError):
        BeamSplitter(t=0.9, r=0.5)


def test_mirror_validation():
    Mirror(r=np.exp(0.3j))
    with pytest.raises(UnitarityError):
        Mirror(r=0.7)


def test_segment_spec_validation():
    with pytest.raises(DomainError):
        MediumSegment(medium=Medium.constant(0.1), length=-2.0)
