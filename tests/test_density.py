import numpy as np
import pytest
from scipy import integrate

from photonflux import (
    continuity_residual,
    current_field,
    density_field,
    evolve_free,
    localized_density_1d,
    localized_density_1d_boxsum,
    localized_density_3d,
    localized_density_3d_profile,
    localized_state,
    make_gaussian_state,
    photon_number,
    positive_frequency_density,
    scalar_product,
    shell_mass_fraction,
    single_mode_state,
    synthesize_fields,
    tail_mass,
)
from photonflux.density import write_density_csv
from photonflux.errors import DimensionError, DomainError, StepSizeError
from photonflux.units import NATURAL

from conftest import random_band_state

TWO_PI = 2.0 * np.pi


# ---- density bilinear -----------------------------------------------------------

def test_plane_wave_density_is_uniform(grid):
    pw = single_mode_state(grid, bin_index=99)
    field = density_field(pw, pw, 0.0)
    expected = 1.0 / (grid.length * grid.area)
    np.testing.assert_allclose(field.rho, expected, rtol=1e-12)


def test_helicity_mismatch_gives_zero_field(grid):
    a = make_gaussian_state(100.0, 5.0, grid, helicity=+1)
    b = make_gaussian_state(100.0, 5.0, grid, helicity=-1)
    assert np.all(density_field(a, b, 0.0).rho == 0.0)
    assert np.all(current_field(a, b, 0.0).j == 0.0)


def test_gaussian_density_integrates_to_number(grid):
    g = make_gaussian_state(150.0, 7.0, grid)
    field = density_field(g, g, 0.0)
    # independent trapezoid quadrature over the x-grid
    oracle = np.trapezoid(field.rho, field.x) * grid.area
    assert field.total() == pytest.approx(1.0, abs=1e-8)
    assert oracle == pytest.approx(1.0, abs=1e-6)


def test_density_reality_residue(grid):
    rng = np.random.default_rng(4)
    c1 = random_band_state(grid, rng)
    c2 = evolve_free(random_band_state(grid, rng), 0.9)
    f1 = synthesize_fields(c1, 0.4)
    f2 = synthesize_fields(c2, 0.4)
    pref = 1j * NATURAL.eps0 / (2.0 * NATURAL.hbar)
    term1 = pref * f2.a_plus * np.conj(f1.e_plus)
    term2 = -pref * f1.e_plus * np.conj(f2.a_plus)
    bilinear = term1 + term2
    peak = np.abs(bilinear).max()
    assert np.abs(bilinear.imag).max() <= 1e-10 * peak
    np.testing.assert_allclose(
        density_field(c1, c2, 0.4).rho, bilinear.real, atol=1e-13 * peak
    )


def test_mismatched_grids_rejected(grid, small_grid):
    a = make_gaussian_state(150.0, 6.0, grid)
    b = make_gaussian_state(60.0, 6.0, small_grid)
    with pytest.raises(DimensionError):
        density_field(a, b, 0.0)


# ---- current --------------------------------------------------------------------

def test_plane_wave_current_value(grid):
    # hand oracle: one-term bilinear J = c * rho = c/(L A)
    pw = single_mode_state(grid, bin_index=69)
    field = current_field(pw, pw, 0.0)
    expected = NATURAL.c / (grid.length * grid.area)
    np.testing.assert_allclose(field.j, expected, rtol=1e-12)


def test_zero_state_zero_current(grid):
    from photonflux import SpectralAmplitude

    zero = SpectralAmplitude(grid=grid, helicity=+1, c=np.zeros(grid.n, complex))
    assert np.all(current_field(zero, zero, 0.0).j == 0.0)


def test_current_equals_c_times_density(grid):
    g = make_gaussian_state(200.0, 8.0, grid)
    rho = density_field(g, g, 0.0).rho
    j = current_field(g, g, 0.0).j
    mask = rho > 1e-6 * rho.max()
    np.testing.assert_allclose(j[mask] / rho[mask], NATURAL.c, rtol=1e-8)


# ---- continuity -------------------------------------------------------------------

def test_plane_wave_continuity_residual_zero(grid):
    pw = single_mode_state(grid, bin_index=59)
    assert continuity_residual(pw, 0.0, grid.dx / 64.0) == 0.0


def test_gaussian_continuity_second_order():
    from photonflux import KGrid1D

    grid = KGrid1D(n=4096, dk=1.0)
    g = make_gaussian_state(600.0, 5.0, grid)
    dt = grid.dx / 64.0
    r1 = continuity_residual(g, 0.0, dt)
    r2 = continuity_residual(g, 0.0, dt / 2.0)
    assert r1 <= 1e-6
    assert 3.5 <= r1 / r2 <= 4.5


def test_superposition_continuity(grid4096=None):
    from photonflux import KGrid1D, SpectralAmplitude

    grid = KGrid1D(n=4096, dk=1.0)
    g1 = make_gaussian_state(500.0, 5.0, grid, x0=0.4 * grid.length)
    g2 = make_gaussian_state(900.0, 4.0, grid, x0=0.6 * grid.length)
    c = (g1.c + g2.c) / np.sqrt(2.0)
    state = SpectralAmplitude(grid=grid, helicity=+1, c=c)
    dt = grid.dx / 64.0
    r1 = continuity_residual(state, 0.0, dt)
    r2 = continuity_residual(state, 0.0, dt / 2.0)
    assert r1 <= 1e-6
    assert 3.5 <= r1 / r2 <= 4.5


def test_step_size_guard(grid):
    g = make_gaussian_state(150.0, 6.0, grid)
    with pytest.raises(StepSizeError):
        continuity_residual(g, 0.0, grid.dx)
    with pytest.raises(StepSizeError):
        continuity_residual(g, 0.0, 0.0)


def test_global_conservation_under_evolution(grid):
    g = make_gaussian_state(250.0, 6.0, grid)
    base = density_field(g, g, 0.0).total()
    for dt in np.linspace(0.0, 0.2 * grid.length, 7):
        evolved = evolve_free(g, dt)
        assert abs(density_field(evolved, evolved, 0.0).total() - base) <= 1e-10


# ---- localized basis -----------------------------------------------------------------

def test_localized_basis_density_overlaps(grid):
    la = localized_state(grid, 400)
    lb = localized_state(grid, 520)
    same = density_field(la, la, 0.0).total()
    cross = density_field(la, lb, 0.0).total()
    assert same == pytest.approx(1.0, abs=1e-8)
    assert abs(cross) <= 1e-8


# ---- 1D localized closed form ----------------------------------------------------------

def quad_rho_plus_1d(u, k_max, area=1.0):
    """Independent quadrature of the defining band-limited integral."""
    re, _ = integrate.quad(lambda k: np.cos(k * u), 0.0, k_max, limit=200)
    im, _ = integrate.quad(lambda k: np.sin(k * u), 0.0, k_max, limit=200)
    return (re + 1j * im) / (TWO_PI * area)


def test_rho_plus_1d_at_zero():
    assert localized_density_1d(0.0, k_max=7.0, area=2.0) == pytest.approx(
        7.0 / (TWO_PI * 2.0), abs=1e-14
    )


def test_rho_plus_1d_matches_quadrature():
    k_max, area = 3.0, 1.5
    for u in (-40.3, -2.0, -1e-9, 0.0, 1e-7, 0.37, 5.0, 61.7):
        got = localized_density_1d(u, k_max, area)
        oracle = quad_rho_plus_1d(u, k_max, area)
        assert got == pytest.approx(oracle, abs=1e-10)


def test_physical_density_is_sinc():
    k_max, area = 2.0, 1.0
    u = np.linspace(-80.0, 80.0, 4001)
    rho_plus = localized_density_1d(u, k_max, area)
    physical = rho_plus + np.conj(rho_plus)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(u == 0.0, k_max / np.pi, np.sin(k_max * u) / (np.pi * u)) / area
    np.testing.assert_allclose(physical.real, sinc, atol=1e-10)
    assert np.abs(physical.imag).max() == 0.0
    # first zero at u = pi/k_max
    assert 2.0 * localized_density_1d(np.pi / k_max, k_max, area).real == pytest.approx(
        0.0, abs=1e-14
    )


def test_rho_plus_tail_matches_principal_value():
    # averaged over one oscillation the imaginary part sits on +1/(2 pi A u),
    # evaluated at the window midpoint (second-order accurate)
    k_max, area = 1.0, 1.0
    for u_start in (60.0, 150.0, -90.0):
        window = np.linspace(u_start, u_start + TWO_PI / k_max, 2001)
        im = localized_density_1d(window, k_max, area).imag
        mean = np.trapezoid(im, window) / (window[-1] - window[0])
        target = 1.0 / (TWO_PI * area * (u_start + np.pi / k_max))
        assert mean == pytest.approx(target, rel=0.02)
    # pointwise the deviation stays inside the 1/(k_max u) envelope
    u = np.linspace(40.0, 400.0, 5000)
    im = localized_density_1d(u, k_max, area).imag
    envelope = 1.0 / (TWO_PI * area * u * (k_max * u)) + 1.0 / (TWO_PI * area * u)
    assert np.all(np.abs(im - 1.0 / (TWO_PI * area * u)) <= envelope + 1e-15)


def test_boxsum_converges_first_order_in_box_length():
    k_max = 1.0
    u = 7.3
    exact = localized_density_1d(u, k_max)
    errors = []
    for box in (200.0 * TWO_PI, 400.0 * TWO_PI, 800.0 * TWO_PI):
        approx = localized_density_1d_boxsum(u, box, k_max)
        errors.append(abs(approx - exact))
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.2)


# ---- tail masses (Hegerfeldt contrast) ---------------------------------------------------

def localized_profiles(k_max=1.0, area=1.0, span=500.0, points=400_001):
    u = np.linspace(-span / k_max, span / k_max, points)
    rho_plus = localized_density_1d(u, k_max, area)
    physical = 2.0 * rho_plus.real
    return u, rho_plus, physical


def test_tail_masses_and_contrast():
    u, rho_plus, physical = localized_profiles()
    window = 50.0
    tail_phys = tail_mass(physical, u, window, center=0.0)
    tail_plus = tail_mass(rho_plus, u, window, center=0.0)
    assert tail_phys < 0.02
    assert tail_plus > 0.10
    assert tail_plus / tail_phys >= 5.0


def test_physical_tail_vanishes_as_bandwidth_grows():
    # fixed physical window: the summed density's escaping fraction shrinks
    # as the cutoff doubles (the nascent delta sharpens)
    window = 20.0
    tails = []
    for k_max in (1.0, 2.0, 4.0):
        u = np.linspace(-400.0, 400.0, 400_001)
        physical = 2.0 * localized_density_1d(u, k_max).real
        tails.append(tail_mass(physical, u, window, center=0.0))
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 0.01


def test_tail_mass_guards():
    u = np.linspace(-1.0, 1.0, 101)
    assert tail_mass(np.zeros_like(u), u, 0.5) == 0.0
    with pytest.raises(DomainError):
        tail_mass(np.ones_like(u), u, 5.0)
    with pytest.raises(DimensionError):
        tail_mass(np.ones(7), u, 0.5)


def test_tail_mass_about_centroid_real_and_complex(grid):
    # no center given: the window sits on the |values|-weighted centroid,
    # for the signed physical density and for the complex positive-frequency part
    g = make_gaussian_state(200.0, 6.0, grid)
    split = positive_frequency_density(g, g, 0.0)
    field = split.physical()
    window = 40.0 / 200.0 * grid.length
    assert tail_mass(field.rho, field.x, window) < 1.0
    assert tail_mass(split.rho_plus, split.x, window) >= 0.0


def test_localized_centroid_moves_at_c():
    k_max = 1.0
    span = 400.0
    x = np.linspace(-span, span, 200_001)
    speeds = []
    for dt in (20.0, 40.0):
        rho = 2.0 * localized_density_1d(x - NATURAL.c * dt, k_max).real
        weight = rho * rho  # squared weight: integrable tails
        centroid = np.sum(x * weight) / np.sum(weight)
        speeds.append(centroid / dt)
    assert speeds[0] == pytest.approx(NATURAL.c, rel=1e-3)
    assert speeds[1] == pytest.approx(NATURAL.c, rel=1e-3)


# ---- 3D localized density ------------------------------------------------------------------

def test_rho_3d_domain_errors():
    with pytest.raises(DomainError):
        localized_density_3d(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        localized_density_3d(1.0, 0.0, -2.0)


def test_rho_3d_quadrature_matches_closed_form_profile():
    rng = np.random.default_rng(9)
    k_max = 1.0
    for _ in range(12):
        r = rng.uniform(0.5, 150.0)
        dt = rng.uniform(0.0, 80.0)
        quad_val = localized_density_3d(r, dt, k_max)
        closed = localized_density_3d_profile(r, dt, k_max)
        assert quad_val == pytest.approx(closed, abs=1e-11)


def test_rho_3d_total_count_at_equal_times():
    # signed radial mass of the physical density integrates to one photon
    k_max = 1.0
    r_end = 150.0 * np.pi / k_max  # endpoint on a zero of sin(k_max r)
    r = np.linspace(1e-6, r_end, 300_001)
    physical = 2.0 * localized_density_3d_profile(r, 0.0, k_max).real
    total = np.trapezoid(4.0 * np.pi * r**2 * physical, r)
    assert total == pytest.approx(1.0, rel=0.01)


def test_rho_3d_shell_concentration():
    k_max = 1.0
    shell = 50.0 / k_max
    window = 10.0 / k_max
    r = np.linspace(1e-6, 2.0 * shell, 16_001)
    physical = 2.0 * localized_density_3d_profile(r, shell / NATURAL.c, k_max).real
    frac = shell_mass_fraction(r, physical, shell, window)
    assert frac >= 0.90


def test_rho_3d_principal_value_tail_slope():
    # |rho+| envelope falls off like 1/|r - c dt| once the K cos(K a)/a term
    # dominates; fit the windowed maxima on a log-log scale.  dt is large so
    # the advanced (r + c dt) tail cannot contaminate the decade being fit.
    k_max = 1.0
    dt = 2000.0
    r = np.linspace(dt + 20.0, dt + 220.0, 40_001)
    vals = np.abs(localized_density_3d_profile(r, dt, k_max)) * r  # remove 1/r
    alpha = r - dt
    n_win = 40
    edges = np.logspace(np.log10(alpha[0]), np.log10(alpha[-1]), n_win + 1)
    centers, peaks = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (alpha >= lo) & (alpha < hi)
        if mask.any():
            centers.append(np.sqrt(lo * hi))
            peaks.append(vals[mask].max())
    slope = np.polyfit(np.log(centers), np.log(peaks), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


# ---- csv export ---------------------------------------------------------------------------

def test_density_csv_header(tmp_path, grid):
    g = make_gaussian_state(150.0, 6.0, grid)
    field = density_field(g, g, 0.0)
    current = current_field(g, g, 0.0)
    path = tmp_path / "density.csv"
    write_density_csv(path, field.x, field.rho, j=current.j, t=0.25, k_max=grid.k_max, units_mode="natural")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# t=0.25 k_max=")
    assert "units=natural" in lines[0]
    assert lines[1] == "x,rho,J"
    assert len(lines) == grid.n + 2
