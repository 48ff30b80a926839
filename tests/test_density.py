import errno
import os
import threading
import warnings

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
import photonflux.cli as cli
import photonflux.density as density
from photonflux.cli import _CSV_BLOCK_ROWS, _comment_line, write_csv_tables
from photonflux.errors import DimensionError, DomainError, StepSizeError
from photonflux.units import NATURAL, SI

from conftest import (
    fail_fork,
    fail_forked_csv_rows,
    fill_disk_while_formatting,
    random_band_state,
    spy_worker_writes,
)

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
    assert np.all(current_field(a, b, 0.0) == 0.0)


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
    j = current_field(pw, pw, 0.0)
    expected = NATURAL.c / (grid.length * grid.area)
    np.testing.assert_allclose(j, expected, rtol=1e-12)


def test_zero_state_zero_current(grid):
    from photonflux import SpectralAmplitude

    zero = SpectralAmplitude(grid=grid, helicity=+1, c=np.zeros(grid.n, complex))
    assert np.all(current_field(zero, zero, 0.0) == 0.0)


def test_current_equals_c_times_density(grid):
    g = make_gaussian_state(200.0, 8.0, grid)
    rho = density_field(g, g, 0.0).rho
    j = current_field(g, g, 0.0)
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


# ---- one synthesis buffer at a time ------------------------------------------------

def _expression_forms(c1, c2, t, units):
    """rho+, rho and J of the pair, as plain expressions over both whole syntheses."""
    if c1.helicity == c2.helicity:
        f1, f2 = synthesize_fields(c1, t, units), synthesize_fields(c2, t, units)
        a2, e1, b1 = f2.a_plus, f1.e_plus, f1.b_plus
    else:
        a2 = e1 = b1 = np.zeros(c1.grid.n, complex)
    rho_plus = (1j * units.eps0 / (2.0 * units.hbar)) * a2 * np.conj(e1)
    j_plus = (1j * units.eps0 * units.c**2 / (2.0 * units.hbar)) * a2 * np.conj(b1)
    return rho_plus, 2.0 * rho_plus.real, 2.0 * j_plus.real


def _expression_residual(state, t, dt, units):
    """The continuity residual's formula over :func:`_expression_forms`."""
    rho_m = _expression_forms(state, state, t - dt, units)[1]
    rho_p = _expression_forms(state, state, t + dt, units)[1]
    drho_dt = (rho_p - rho_m) / (2.0 * dt)
    j = _expression_forms(state, state, t, units)[2]
    if np.ptp(j) <= 1e-12 * np.abs(j).max():
        return 0.0
    k_fft = TWO_PI * np.fft.fftfreq(state.grid.n, d=state.grid.dx)
    dj_dx = np.real(np.fft.ifft(1j * k_fft * np.fft.fft(j)))
    if not (dj_dx.any() or drho_dt.any()):
        return 0.0
    return float(np.abs(drho_dt + dj_dx).max() / np.abs(dj_dx).max())


@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
@pytest.mark.parametrize("pair", ["cross", "self", "opposite-helicity"])
def test_bilinears_equal_their_expression_forms_bit_for_bit(grid, units, pair):
    rng = np.random.default_rng(23)
    c1 = random_band_state(grid, rng)
    c2 = {"cross": random_band_state(grid, rng), "self": c1,
          "opposite-helicity": random_band_state(grid, rng, helicity=-1)}[pair]
    t = 0.4
    actual = (positive_frequency_density(c1, c2, t, units), density_field(c1, c2, t, units).rho,
              current_field(c1, c2, t, units))
    for value, expected in zip(actual, _expression_forms(c1, c2, t, units)):
        assert value.dtype == expected.dtype
        assert value.tobytes() == expected.tobytes()
        # an owned array: no returned value keeps a (3, N) synthesis buffer alive
        assert value.base is None
    assert (pair == "opposite-helicity") == (not actual[1].any())
    dt = grid.dx / (256.0 * units.c)
    assert continuity_residual(c2, t, dt, units) == _expression_residual(c2, t, dt, units)


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
    rho_plus = positive_frequency_density(g, g, 0.0)
    field = density_field(g, g, 0.0)
    window = 40.0 / 200.0 * grid.length
    assert tail_mass(field.rho, field.x, window) < 1.0
    assert tail_mass(rho_plus, grid.x, window) >= 0.0


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


# ---- closed forms: the series only where it is used ------------------------------------------
# The two-branch formulations below evaluate the series and the closed form at
# every point and pick with np.where.  The library evaluates the series only at
# the points that take it; its bytes must equal these references.

def where_rho_plus_1d(u, k_max, area=1.0):
    u_arr = np.asarray(u, dtype=float)
    theta = k_max * u_arr
    small = np.abs(theta) < 1e-6
    theta_safe = np.where(small, 1.0, theta)
    closed = (np.exp(1j * theta_safe) - 1.0) / (1j * theta_safe)
    series = 1.0 + 1j * theta / 2.0 - theta**2 / 6.0
    out = np.where(small, series, closed) * k_max / (TWO_PI * area)
    if np.isscalar(u) or u_arr.ndim == 0:
        return complex(out)
    return out


def where_moment(a, k_max):
    z = a * k_max
    small = np.abs(z) < 1e-3
    a_safe = np.where(small, 1.0, a)
    closed = np.exp(1j * z) * (-1j * k_max / a_safe + 1.0 / a_safe**2) - 1.0 / a_safe**2
    series = k_max**2 * (
        0.5 + 1j * z / 3.0 - z**2 / 8.0 - 1j * z**3 / 30.0 + z**4 / 144.0
    )
    return np.where(small, series, closed)


def where_rho_plus_3d(r, dt, k_max, c=1.0):
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    s = c * dt
    integral = (where_moment(r_arr - s, k_max) - where_moment(-(r_arr + s), k_max)) / 2j
    out = integral / (4.0 * np.pi**2 * r_arr)
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return complex(out[0])
    return out


def _same_bytes(got, want):
    if isinstance(want, complex):
        assert type(got) is complex
        got, want = np.complex128(got), np.complex128(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _series_points_1d(k_max):
    # |k_max u| < 1e-6 takes the series: zero, signed zero, subnormals, and
    # both sides of the threshold
    edge = 1e-6 / k_max
    return np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, edge / 3.0, -edge / 2.0,
                     np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0), edge, -edge,
                     np.nextafter(edge, 1.0)])


@pytest.mark.parametrize("k_max", [1e-3, 0.37, 1.0, 7.0, 93.5])
def test_rho_plus_1d_equals_two_branch_reference(k_max):
    rng = np.random.default_rng(int(k_max * 1000))
    half = 500.0 / k_max
    cases = [
        np.linspace(-half, half, 50001),        # the CLI's grid: u = 0 exactly in the middle
        np.linspace(-half, half, 50000),        # no point takes the series
        rng.uniform(-half, half, 999),
        np.concatenate([_series_points_1d(k_max), rng.uniform(-half, half, 40)]),
        _series_points_1d(k_max),               # mostly series points
        rng.uniform(-half, half, (7, 11)),
        np.zeros((2, 3)),
        np.array([]),
    ]
    for u in cases:
        _same_bytes(localized_density_1d(u, k_max, 1.7), where_rho_plus_1d(u, k_max, 1.7))
    for u in (0, 0.0, -0.0, 1e-12 / k_max, 3.7 / k_max, np.float64(0.0), np.float64(2.5),
              np.array(0.0), np.array(1e-9 / k_max), np.array(41.0)):
        _same_bytes(localized_density_1d(u, k_max), where_rho_plus_1d(u, k_max))


@pytest.mark.parametrize("k_max", [0.05, 1.0, 3.3, 64.0])
@pytest.mark.parametrize("dt", [1e-9, 0.8, 50.0])
def test_rho_plus_3d_profile_equals_two_branch_reference(k_max, dt):
    rng = np.random.default_rng(int(k_max * 100 + dt))
    c = 0.9
    shell = c * dt
    edge = 1e-3 / k_max
    # r - c dt within 1e-3 / k_max of zero takes the series
    near = shell + np.array([0.0, edge / 4.0, -edge / 4.0, np.nextafter(edge, 0.0), edge,
                             -np.nextafter(edge, 0.0), 1e-15, -1e-15])
    near = near[near > 0.0]
    cases = [
        np.linspace(2.0 * shell / 50001, 2.0 * shell, 50001),
        np.concatenate([near, rng.uniform(shell / 10.0, 3.0 * shell, 40)]),
        near,
        shell + edge * (2.0 + rng.uniform(0.0, 100.0, 999)),  # no point takes the series
        rng.uniform(shell + 2.0 * edge, 4.0 * shell + 10.0, (5, 9)),
    ]
    for r in cases:
        _same_bytes(localized_density_3d_profile(r, dt, k_max, c), where_rho_plus_3d(r, dt, k_max, c))
    a = np.concatenate([near - shell, rng.uniform(-3.0, 3.0, 50)])
    _same_bytes(density._incomplete_first_moment(a, k_max), where_moment(a, k_max))
    for r in (shell, float(near[-1]), shell + 7.0, np.float64(shell), np.array(shell + 2.0)):
        _same_bytes(localized_density_3d_profile(r, dt, k_max, c), where_rho_plus_3d(r, dt, k_max, c))


# ---- csv export ---------------------------------------------------------------------------

def test_density_csv_header(tmp_path, grid):
    g = make_gaussian_state(150.0, 6.0, grid)
    field = density_field(g, g, 0.0)
    current = current_field(g, g, 0.0)
    path = tmp_path / "density.csv"
    write_csv_tables([(path, _comment_line(0.25, grid.k_max, NATURAL) + "x,rho,J\n", (field.x, field.rho, current))])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# t=0.25 k_max=")
    assert "units=natural" in lines[0]
    assert lines[1] == "x,rho,J"
    assert len(lines) == grid.n + 2


# each value at every 13th row, so each lands on both sides of every row range
SPECIAL_VALUES = [-0.0, 5e-324, 2.5e-310, float("nan"), float("inf"), -float("inf"), 1e16, 1e-5]
# rows of a table split between at most four workers: block edges, worker
# thresholds (4 blocks each) and range edges; at 2 CPUs, 8194 rows leave this
# process a last block of one row, small enough to stay in a file's buffer
CSV_ROWS = [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
            4095, 4096, 4097, 8191, 8192, 8193, 8194, 12289, 50001]


def _csv_columns(rows):
    rng = np.random.default_rng(rows)
    z = rng.normal(size=rows) * np.exp(1j * rng.uniform(0.0, TWO_PI, rows))
    z[::7] = -0.0
    wide = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 300, rows)
    for i, value in enumerate(SPECIAL_VALUES):
        wide[i::13] = value
    # strided views of a complex array, as the CLI passes them
    return np.arange(rows) * 0.1, z.real, z.imag, wide


def _csv_text(header, columns):
    return header + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))


@pytest.mark.parametrize("rows", CSV_ROWS, ids=str)
def test_density_csv_rows_across_block_boundaries(tmp_path, monkeypatch, forks, rows):
    columns = _csv_columns(rows)
    expected = _csv_text("# head\nx,a,b,c\n", columns).encode()
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        path = tmp_path / f"rows{cpus}.csv"
        write_csv_tables([(path, "# head\nx,a,b,c\n", columns)])
        assert path.read_bytes() == expected
        # one worker per usable CPU, each with at least four blocks
        assert len(forks) == max(1, min(cpus, rows // (4 * _CSV_BLOCK_ROWS))) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(rows, cpus):
    """Row ranges of a run of ``rows`` rows at ``cpus`` usable CPUs: one per CPU, each of at least four blocks."""
    return max(1, min(cpus, rows // (4 * _CSV_BLOCK_ROWS)))


def _shared_run(tmp_path, rows):
    """Two tables sharing the column ``wide`` (SPECIAL_VALUES, -0.0): last in the first, first in the second."""
    x, re, im, wide = _csv_columns(rows)
    return [(tmp_path / "a.csv", "# a\nx,re,wide\n", (x, re, wide)), (tmp_path / "b.csv", "wide,im\n", (wide, im))]


@pytest.mark.parametrize("rows", CSV_ROWS, ids=str)
def test_shared_column_gives_the_bytes_of_each_table_alone(tmp_path, monkeypatch, forks, rows):
    tables = _shared_run(tmp_path, rows)
    expected = [_csv_text(header, columns).encode() for _, header, columns in tables]
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        write_csv_tables(tables)
        assert [path.read_bytes() for path, _, _ in tables] == expected
        # one row split per run, not one per table
        assert len(forks) == _workers(rows, cpus) - 1
        for path, header, columns in tables:
            write_csv_tables([(path, header, columns)])
        assert [path.read_bytes() for path, _, _ in tables] == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", CSV_ROWS, ids=str)
def test_shared_column_slots_are_built_once_per_block(tmp_path, monkeypatch, rows):
    from photonflux import floatrepr

    tables = _shared_run(tmp_path, rows)
    real_slots = floatrepr.slots
    shapes = []

    def slots(values):
        shapes.append(values.shape)
        return real_slots(values)

    monkeypatch.setattr(floatrepr, "slots", slots)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        shapes.clear()
        write_csv_tables(tables)
        # this process's range: every block holds the four distinct columns of the five written
        stop = rows // _workers(rows, cpus)
        assert shapes == [(min(_CSV_BLOCK_ROWS, stop - lo), 4) for lo in range(0, stop, _CSV_BLOCK_ROWS)]


def test_parent_failure_before_the_go_byte_leaves_no_child_file_or_byte(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    log = tmp_path / "worker-writes"
    spy_worker_writes(monkeypatch, log)
    tables = _shared_run(tmp_path, 50001)
    parent = os.getpid()
    real_format_block = cli._format_block

    def format_block(writes, columns, layout, lo, hi):
        real_format_block(writes, columns, layout, lo, hi)
        if os.getpid() == parent and hi == 50001 // 4:
            raise RuntimeError("stopped after this process's rows")

    monkeypatch.setattr(cli, "_format_block", format_block)
    with pytest.raises(RuntimeError):
        write_csv_tables(tables)
    assert len(forks) == 3
    assert not log.exists()
    assert sorted(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_write_on_a_full_disk_removes_every_file_of_the_run(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    log = tmp_path.parent / f"{tmp_path.name}-worker-writes"
    spy_worker_writes(monkeypatch, log, errno.ENOSPC)
    tables = _shared_run(tmp_path, 50001)
    with pytest.raises(OSError) as exc:
        write_csv_tables(tables)
    assert str(exc.value).startswith(f"{tmp_path / 'a.csv'}, {tmp_path / 'b.csv'}: a CSV row worker failed")
    assert len(forks) == 3
    # the first worker's write failed, and no later worker got its go byte
    assert len(log.read_text().splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_leaves_no_file_child_or_descriptor(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    log = tmp_path.parent / f"{tmp_path.name}-worker-writes"
    spy_worker_writes(monkeypatch, log)
    fail_fork(monkeypatch, 2)
    tables = _shared_run(tmp_path, 50001)
    descriptors = sorted(os.listdir("/dev/fd"))
    with pytest.raises(BlockingIOError) as exc:
        write_csv_tables(tables)
    assert str(exc.value) == str(OSError(errno.EAGAIN, os.strerror(errno.EAGAIN)))
    assert sorted(os.listdir("/dev/fd")) == descriptors
    # the first worker read EOF on its go pipe and exited without writing
    assert len(forks) == 1
    assert not log.exists()
    assert sorted(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_csv_worker_removes_the_file(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    fail_forked_csv_rows(monkeypatch)
    path = tmp_path / "rows.csv"
    with pytest.raises(OSError) as exc:
        write_csv_tables([(path, "x\n", (np.arange(50001) * 0.5,))])
    # a failure with no errno is named by the worker's exit status
    assert str(exc.value) == f"{path}: a CSV row worker failed, exit status 255"
    assert len(forks) == 3
    assert not path.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [100, 50001], ids=str)
def test_failed_csv_write_removes_the_file(tmp_path, monkeypatch, forks, rows):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    fill_disk_while_formatting(monkeypatch)
    path = tmp_path / "rows.csv"
    with pytest.raises(OSError) as exc:
        write_csv_tables([(path, "x\n", (np.arange(rows) * 0.5,))])
    assert exc.value.errno == errno.ENOSPC
    assert len(forks) == max(1, min(4, rows // (4 * _CSV_BLOCK_ROWS))) - 1
    assert not path.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_rows_are_formatted_in_process_without_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    columns = _csv_columns(50001)
    path = tmp_path / "rows.csv"
    write_csv_tables([(path, "h\n", columns)])
    assert path.read_bytes() == _csv_text("h\n", columns).encode()


def test_csv_rows_are_formatted_in_process_while_a_thread_runs(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    columns = _csv_columns(50001)
    path = tmp_path / "rows.csv"
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        write_csv_tables([(path, "h\n", columns)])
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert path.read_bytes() == _csv_text("h\n", columns).encode()


def test_fork_warning_raised_as_error_leaves_no_child_behind(tmp_path, monkeypatch):
    real_fork = os.fork

    def fork_warning_as_python_3_12_does():
        pid = real_fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_warning_as_python_3_12_does)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    columns = _csv_columns(8192)
    path = tmp_path / "rows.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv_tables([(path, "h\n", columns)])
    assert path.read_bytes() == _csv_text("h\n", columns).encode()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
