import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from photonflux import (
    KGrid1D,
    SpectralAmplitude,
    assert_support_clear,
    density_field,
    evolve_free,
    extract_spectrum,
    localized_state,
    make_gaussian_state,
    photon_number,
    scalar_product,
    single_mode_state,
    synthesize_fields,
)
from photonflux import spectral
from photonflux.errors import DimensionError, DomainError, GridCoverageError
from photonflux.spectral import json_complex, json_int, json_names, json_number, state_from_spec
from photonflux.units import NATURAL, SI

from conftest import random_band_state

TWO_PI = 2.0 * np.pi


# ---- independent oracles -----------------------------------------------------

def brute_force_a_plus(state, t, units=NATURAL):
    """O(N^2) direct summation of the synthesis formula (no FFT)."""
    grid = state.grid
    k = grid.k
    omega = units.c * k
    x = grid.x
    pref = np.sqrt(units.hbar / units.eps0)
    weights = grid.dk / (TWO_PI * np.sqrt(omega * grid.area))
    phases = np.exp(1j * (np.outer(x, k) - omega * t))
    return 1j * pref * phases @ (weights * state.c)


def trapezoid_number(state):
    return np.trapezoid(np.abs(state.c) ** 2, state.grid.k) / TWO_PI


# ---- grids ---------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        KGrid1D(n=1000, dk=1.0)  # not a power of two
    with pytest.raises(DomainError):
        KGrid1D(n=256, dk=-1.0)
    with pytest.raises(DomainError):
        KGrid1D(n=256, dk=1.0, area=0.0)


def test_grid_conjugacy(grid):
    assert grid.dx * grid.dk * grid.n == pytest.approx(TWO_PI, rel=1e-15)
    assert grid.length == pytest.approx(TWO_PI / grid.dk, rel=1e-15)
    assert np.all(grid.k > 0)


# ---- gaussian construction ------------------------------------------------------

def test_gaussian_unit_number_against_quadrature(grid):
    state = make_gaussian_state(k0=100.0 * grid.dk, sigma=5.0 * grid.dk, grid=grid)
    assert photon_number(state) == pytest.approx(1.0, abs=1e-10)
    assert trapezoid_number(state) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_single_bin_limit(grid):
    state = make_gaussian_state(k0=100.0 * grid.dk, sigma=grid.dk / 50.0, grid=grid)
    mags = np.abs(state.c)
    occupied = np.nonzero(mags > 1e-10 * mags.max())[0]
    assert occupied.size == 1
    # the dominant bin carries the whole photon
    assert mags.max() ** 2 * grid.dk / TWO_PI == pytest.approx(1.0, abs=1e-12)
    assert photon_number(state) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_near_edge_rejected(grid):
    with pytest.raises(GridCoverageError):
        make_gaussian_state(k0=2.0 * grid.dk, sigma=5.0 * grid.dk, grid=grid)
    with pytest.raises(DomainError):
        make_gaussian_state(k0=-5.0, sigma=1.0, grid=grid)


def test_photon_number_zero_and_quadratic(grid):
    zero = SpectralAmplitude(grid=grid, helicity=+1, c=np.zeros(grid.n, complex))
    assert photon_number(zero) == 0.0
    g = make_gaussian_state(100.0, 5.0, grid)
    doubled = SpectralAmplitude(grid=grid, helicity=+1, c=2.0 * g.c)
    assert photon_number(doubled) == pytest.approx(4.0 * photon_number(g), rel=1e-14)


# ---- free evolution --------------------------------------------------------------

def test_evolve_identity_and_number_preservation(grid):
    g = make_gaussian_state(100.0, 5.0, grid)
    same = evolve_free(g, 0.0)
    np.testing.assert_array_equal(same.c, g.c)
    for dt in (0.1, 3.7, -2.2, 55.0):
        assert photon_number(evolve_free(g, dt)) == pytest.approx(1.0, abs=1e-12)


def test_pulse_centroid_advances_at_c(grid):
    g = make_gaussian_state(200.0, 6.0, grid)
    dt = 0.15 * grid.length / NATURAL.c
    d0 = density_field(g, g, 0.0)
    d1 = density_field(evolve_free(g, dt), evolve_free(g, dt), 0.0)
    assert_support_clear(d0.rho)
    assert_support_clear(d1.rho)
    speed = (d1.centroid() - d0.centroid()) / dt
    assert speed == pytest.approx(NATURAL.c, rel=1e-3)


# ---- synthesis --------------------------------------------------------------------

def test_single_bin_matches_plane_wave_closed_form(small_grid):
    j0 = 40
    state = single_mode_state(small_grid, j0)
    t = 0.8
    fields = synthesize_fields(state, t)
    k0 = small_grid.k[j0]
    omega0 = NATURAL.c * k0
    weight = small_grid.dk / (TWO_PI * np.sqrt(omega0 * small_grid.area))
    pref = np.sqrt(NATURAL.hbar / NATURAL.eps0)
    x = small_grid.x
    expected = 1j * pref * weight * state.c[j0] * np.exp(1j * (k0 * x - omega0 * t))
    np.testing.assert_allclose(fields.a_plus, expected, atol=1e-12 * np.abs(expected).max())


def test_synthesis_matches_brute_force(small_grid):
    rng = np.random.default_rng(11)
    state = random_band_state(small_grid, rng)
    fields = synthesize_fields(state, t=0.3)
    brute = brute_force_a_plus(state, t=0.3)
    np.testing.assert_allclose(fields.a_plus, brute, atol=1e-12 * np.abs(brute).max())


def test_parseval_between_x_and_k_sums(small_grid):
    rng = np.random.default_rng(5)
    state = random_band_state(small_grid, rng)
    fields = synthesize_fields(state, t=0.0)
    x_sum = np.sum(np.abs(fields.a_plus) ** 2) * small_grid.dx
    omega = NATURAL.c * small_grid.k
    weights = small_grid.dk / (TWO_PI * np.sqrt(omega * small_grid.area))
    pref = np.sqrt(NATURAL.hbar / NATURAL.eps0)
    k_sum = pref**2 * small_grid.n * small_grid.dx * np.sum(np.abs(weights * state.c) ** 2)
    assert x_sum == pytest.approx(k_sum, rel=1e-12)


def test_field_relations(small_grid):
    rng = np.random.default_rng(3)
    state = random_band_state(small_grid, rng)
    f = synthesize_fields(state, t=0.6)
    # real total field
    total = f.a_plus + np.conj(f.a_plus)
    assert np.abs(total.imag).max() == 0.0
    # |B| = |E|/c bin by bin
    spec_e = np.fft.fft(f.e_plus)
    spec_b = np.fft.fft(f.b_plus)
    np.testing.assert_allclose(
        np.abs(spec_b), np.abs(spec_e) / NATURAL.c, atol=1e-12 * np.abs(spec_e).max()
    )


def test_round_trip_spectrum_recovery(grid):
    rng = np.random.default_rng(7)
    state = random_band_state(grid, rng)
    back = extract_spectrum(synthesize_fields(state, t=1.7))
    assert np.abs(back.c - state.c).max() <= 1e-10


# ---- cached synthesis factors ---------------------------------------------------------

# -0.0 follows 0.0, whose phase entry it shares, as equal keys do
CACHE_TIMES = (0.0, -0.0, 0.3, -0.7, 1e-5, 1e-300)


def uncached_fields(state, t, units):
    """A+, E+ and B+ stacked, from the synthesis formula with every factor computed in place."""
    grid = state.grid
    omega = units.c * grid.k
    weights = grid.dk / (TWO_PI * np.sqrt(omega * grid.area))
    pref = np.sqrt(units.hbar / units.eps0)
    base = np.roll(weights * state.c * np.exp(-1j * omega * t), 1)
    spectra = np.stack([base, base * (1j * np.roll(omega, 1)), base * (1j * np.roll(grid.k, 1))])
    np.fft.ifft(spectra, axis=-1, out=spectra)
    return np.multiply(1j * pref * grid.n, spectra, out=spectra)


def signed_zero_spectrum(grid, seed):
    """A random spectrum with +0 and -0 parts among its entries, so the signs of zeros are exercised too."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    c[::5] = complex(0.0, -0.0)
    c[1::10] = complex(-0.0, 0.0)
    return SpectralAmplitude(grid=grid, helicity=+1, c=c)


def assert_same_bits(fields, expected):
    for got, want in zip((fields.a_plus, fields.e_plus, fields.b_plus), expected):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
@pytest.mark.parametrize("dk", [1.0, 0.37, 1e3])
@pytest.mark.parametrize("n", [64, 1024, 16384])
def test_cached_synthesis_is_bit_identical_to_the_formula(n, dk, units):
    state = signed_zero_spectrum(KGrid1D(n=n, dk=dk, area=1.5), n)
    for t in CACHE_TIMES:
        expected = uncached_fields(state, t, units)
        assert_same_bits(synthesize_fields(state, t, units), expected)  # a miss of the phase cache
        assert_same_bits(synthesize_fields(state, t, units), expected)  # a hit


def test_interleaved_grids_and_units_each_get_their_own_fields():
    grid_a, grid_b = KGrid1D(n=256, dk=1.0), KGrid1D(n=256, dk=0.5, area=2.0)
    state_a, state_b = signed_zero_spectrum(grid_a, 1), signed_zero_spectrum(grid_b, 1)
    # one time throughout, so that a key missing the grid or the units would find the previous entry
    for state, units in [(state_a, NATURAL), (state_b, NATURAL), (state_a, NATURAL), (state_a, SI),
                         (state_a, NATURAL), (state_b, SI), (state_a, SI)]:
        for t in (0.3, 0.3):
            assert_same_bits(synthesize_fields(state, t, units), uncached_fields(state, t, units))


def test_cached_factors_are_read_only_and_fields_are_not():
    grid = KGrid1D(n=64, dk=1.0)
    fields = synthesize_fields(signed_zero_spectrum(grid, 2), 0.3)
    shared = [*spectral._mode_factors(grid, NATURAL)[:4], spectral._phase(grid, NATURAL, 0.3)]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    fields.a_plus[0] = 1.0  # each call's fields are its own
    assert synthesize_fields(signed_zero_spectrum(grid, 2), 0.3).a_plus[0] != 1.0


def test_each_cache_holds_one_entry():
    for n in (64, 128):
        state = signed_zero_spectrum(KGrid1D(n=n, dk=1.0), n)
        for units in (NATURAL, SI):
            for t in CACHE_TIMES:
                synthesize_fields(state, t, units)
                assert spectral._mode_factors.cache_info().currsize == 1
                assert spectral._phase.cache_info().currsize == 1


# ---- scalar product -----------------------------------------------------------------

def test_opposite_helicity_orthogonal(grid):
    a = make_gaussian_state(100.0, 5.0, grid, helicity=+1)
    b = make_gaussian_state(100.0, 5.0, grid, helicity=-1)
    assert scalar_product(a, b) == 0.0j
    assert scalar_product(a, b, method="xspace") == 0.0j


def test_scalar_product_diagonal_is_number(grid):
    g = make_gaussian_state(150.0, 8.0, grid)
    assert scalar_product(g, g) == pytest.approx(photon_number(g), abs=1e-12)


def test_gaussian_overlap_against_quadrature_oracle(grid):
    k0, sigma = 300.0, 8.0
    dk_off = 10.0 * sigma
    c1 = make_gaussian_state(k0, sigma, grid)
    c2 = make_gaussian_state(k0 + dk_off, sigma, grid)
    overlap = scalar_product(c1, c2)

    # continuum quadrature oracle, normalized the same way
    def density(k, center):
        return np.exp(-((k - center) ** 2) / (2.0 * sigma**2))

    norm1, _ = integrate.quad(lambda k: density(k, k0), 0.0, grid.k_max)
    norm2, _ = integrate.quad(lambda k: density(k, k0 + dk_off), 0.0, grid.k_max)
    cross, _ = integrate.quad(
        lambda k: np.exp(
            -((k - k0) ** 2 + (k - k0 - dk_off) ** 2) / (4.0 * sigma**2)
        ),
        0.0,
        grid.k_max,
    )
    oracle = cross / np.sqrt(norm1 * norm2)
    analytic = np.exp(-(dk_off**2) / (8.0 * sigma**2))
    assert abs(overlap) == pytest.approx(analytic, abs=1e-6)
    assert abs(overlap) == pytest.approx(oracle, abs=1e-6)


def test_kspace_xspace_agreement_random_states(grid):
    rng = np.random.default_rng(21)
    for _ in range(10):
        c1 = evolve_free(random_band_state(grid, rng), rng.uniform(-3, 3))
        c2 = evolve_free(random_band_state(grid, rng), rng.uniform(-3, 3))
        sk = scalar_product(c1, c2, "kspace")
        sx = scalar_product(c1, c2, "xspace", t=rng.uniform(-2, 2))
        assert abs(sk - sx) <= 1e-8 * abs(sk)


def test_xspace_time_invariance(grid):
    rng = np.random.default_rng(33)
    c1 = random_band_state(grid, rng)
    c2 = evolve_free(random_band_state(grid, rng), 1.2)
    values = [scalar_product(c1, c2, "xspace", t=t) for t in np.linspace(-4.0, 4.0, 10)]
    ref = values[0]
    assert max(abs(v - ref) for v in values) <= 1e-8 * abs(ref)


def test_evolution_is_isometry(grid):
    rng = np.random.default_rng(17)
    c1 = random_band_state(grid, rng)
    c2 = random_band_state(grid, rng)
    before = scalar_product(c1, c2)
    after = scalar_product(evolve_free(c1, 2.4), evolve_free(c2, 2.4))
    assert abs(after - before) <= 1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(deadline=None, max_examples=25)
def test_cauchy_schwarz(seed):
    grid = KGrid1D(n=256, dk=1.0)
    rng = np.random.default_rng(seed)
    c1 = random_band_state(grid, rng)
    c2 = random_band_state(grid, rng)
    lhs = abs(scalar_product(c1, c2)) ** 2
    rhs = photon_number(c1) * photon_number(c2)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_mismatched_grids_rejected(grid, small_grid):
    a = make_gaussian_state(100.0, 5.0, grid)
    b = make_gaussian_state(60.0, 5.0, small_grid)
    with pytest.raises(DimensionError):
        scalar_product(a, b)
    with pytest.raises(DomainError):
        scalar_product(a, a, method="fourier")


# ---- localized states and serialization ----------------------------------------------

def test_localized_states_orthonormal(grid):
    la = localized_state(grid, 200)
    lb = localized_state(grid, 201)
    assert scalar_product(la, la) == pytest.approx(1.0, abs=1e-12)
    assert abs(scalar_product(la, lb)) <= 1e-12


def test_json_round_trip(small_grid):
    state = make_gaussian_state(60.0, 6.0, small_grid, helicity=-1)
    blob = json.loads(json.dumps({"kind": "amplitude", **state.to_json()}))
    back = state_from_spec(blob, KGrid1D(n=4, dk=1.0))  # an amplitude state carries its own grid
    assert back.grid == state.grid
    assert back.helicity == -1
    np.testing.assert_array_equal(back.c, state.c)


def test_json_int_accepts_only_integral_numbers():
    for value in (3, -1, 256.0, -1.0):
        assert json_int(value) == value and type(json_int(value)) is int
    for value in (1.9, 256.7, float("inf"), float("nan"), True, "3", [1]):
        with pytest.raises((TypeError, ValueError)):
            json_int(value)


def test_json_converters_accept_only_their_json_type():
    assert json_number(3) == 3.0 and type(json_number(3)) is float
    assert json_complex(0.5) == 0.5 + 0j and json_complex([0.5, -1]) == complex(0.5, -1.0)
    assert json_names(["a", "b"]) == ("a", "b") and json_names([]) == ()
    for convert, value in [(json_number, True), (json_number, "0.3"), (json_number, float("nan")),
                           (json_number, 10**400), (json_number, [1.0]), (json_complex, "1+2j"),
                           (json_complex, [1.0, 2.0, 3.0]), (json_complex, [1.0]), (json_complex, [True, 0.0]),
                           (json_complex, [0.0, float("inf")]), (json_names, "src"), (json_names, [1, "d"]),
                           (json_names, [["d"]])]:
        with pytest.raises((TypeError, ValueError, OverflowError)):
            convert(value)


def test_support_check_flags_wraparound(grid):
    g = make_gaussian_state(200.0, 6.0, grid)
    rho = density_field(g, g, 0.0).rho
    shifted = np.roll(rho, -int(np.argmax(rho)) + 3)
    with pytest.raises(DomainError):
        assert_support_clear(shifted)
    assert_support_clear(rho)
    assert_support_clear(np.zeros(16))
