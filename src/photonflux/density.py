"""Photon number-density and current bilinears plus localization closed forms.

The physical density between states c1 and c2 is the real pairing

    rho(x) = (i eps0 / 2 hbar) [A2+ E1- - E1+ A2-]
           = rho+ + conj(rho+),   rho+ = (i eps0 / 2 hbar) A2+ conj(E1+),

which integrates (sum rho dx A) to Re <c1, c2> and, for c1 = c2, to the
photon number.  The current is the c-scaled curl pairing and equals c*rho
pointwise for forward-only states, which makes the continuity residual a
pure time-differencing check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StepSizeError
from .spectral import (
    TWO_PI,
    KGrid1D,
    SpectralAmplitude,
    XGrid1D,
    synthesize_fields,
)
from .units import NATURAL, UnitsConfig


@dataclass(frozen=True)
class DensityField:
    """Real photon density rho(x) at one time, in 1/(m * area) units."""

    grid: XGrid1D
    t: float
    area: float
    rho: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def total(self) -> float:
        return float(np.sum(self.rho) * self.grid.dx * self.area)

    def centroid(self) -> float:
        weight = np.abs(self.rho)
        norm = np.sum(weight)
        if norm == 0.0:
            return 0.0
        return float(np.sum(self.x * weight) / norm)


@dataclass(frozen=True)
class CurrentField:
    """Real photon current J(x) at one time, density units times m/s."""

    grid: XGrid1D
    t: float
    area: float
    j: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


@dataclass(frozen=True)
class SplitDensity:
    """Positive-frequency half rho+(x); the physical density is rho+ + conj."""

    grid: XGrid1D
    t: float
    area: float
    rho_plus: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def physical(self) -> DensityField:
        return DensityField(
            grid=self.grid, t=self.t, area=self.area, rho=2.0 * self.rho_plus.real
        )


def _check_pair(c1: SpectralAmplitude, c2: SpectralAmplitude) -> None:
    if c1.grid != c2.grid:
        raise DimensionError("bilinears require a common grid")


def positive_frequency_density(
    c1: SpectralAmplitude, c2: SpectralAmplitude, t: float, units: UnitsConfig = NATURAL
) -> SplitDensity:
    """rho+(x) = (i eps0/2 hbar) A2+(x) conj(E1+(x)); zero if helicities differ."""
    _check_pair(c1, c2)
    xg = c1.grid.xgrid()
    if c1.helicity != c2.helicity:
        return SplitDensity(grid=xg, t=t, area=c1.grid.area, rho_plus=np.zeros(c1.grid.n, complex))
    f1 = synthesize_fields(c1, t, units)
    f2 = synthesize_fields(c2, t, units)
    rho_plus = (1j * units.eps0 / (2.0 * units.hbar)) * f2.a_plus * np.conj(f1.e_plus)
    return SplitDensity(grid=xg, t=t, area=c1.grid.area, rho_plus=rho_plus)


def density_field(
    c1: SpectralAmplitude, c2: SpectralAmplitude, t: float, units: UnitsConfig = NATURAL
) -> DensityField:
    """Physical (real) photon density of the pair at time t."""
    return positive_frequency_density(c1, c2, t, units).physical()


def current_field(
    c1: SpectralAmplitude, c2: SpectralAmplitude, t: float, units: UnitsConfig = NATURAL
) -> CurrentField:
    """Photon current J(x) from the A+ x cB- pairing, scaled to m/s units.

    The curl partner enters through B+, so this is a genuinely distinct code
    path from :func:`density_field`; for forward-only grids the two must
    agree as J = c * rho.
    """
    _check_pair(c1, c2)
    xg = c1.grid.xgrid()
    if c1.helicity != c2.helicity:
        return CurrentField(grid=xg, t=t, area=c1.grid.area, j=np.zeros(c1.grid.n))
    f1 = synthesize_fields(c1, t, units)
    f2 = synthesize_fields(c2, t, units)
    j_plus = (1j * units.eps0 * units.c**2 / (2.0 * units.hbar)) * f2.a_plus * np.conj(f1.b_plus)
    return CurrentField(grid=xg, t=t, area=c1.grid.area, j=2.0 * j_plus.real)


def continuity_residual(
    state: SpectralAmplitude, t: float, dt: float, units: UnitsConfig = NATURAL
) -> float:
    """Normalized max-norm of d(rho)/dt + dJ/dx.

    The time derivative uses a second-order centered difference at t +- dt
    (requires c*dt < dx/4); the space derivative of J is spectral (exact for
    band-limited states).  The residual is therefore the centered-difference
    truncation error and must shrink by 4x when dt is halved.
    """
    grid = state.grid
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if units.c * dt >= grid.dx / 4.0:
        raise StepSizeError(
            f"c*dt = {units.c * dt:.3e} too large for dx = {grid.dx:.3e} (need < dx/4)"
        )
    rho_m = density_field(state, state, t - dt, units).rho
    rho_p = density_field(state, state, t + dt, units).rho
    drho_dt = (rho_p - rho_m) / (2.0 * dt)

    j = current_field(state, state, t, units).j
    if np.ptp(j) <= 1e-12 * np.abs(j).max():
        # spatially uniform transport (single plane wave or zero state):
        # both terms vanish identically
        return 0.0
    k_fft = TWO_PI * np.fft.fftfreq(grid.n, d=grid.dx)
    dj_dx = np.real(np.fft.ifft(1j * k_fft * np.fft.fft(j)))
    return float(np.abs(drho_dt + dj_dx).max() / np.abs(dj_dx).max())


def localized_density_1d(u, k_max: float, area: float = 1.0):
    """Band-limited positive-frequency part of the 1D localized density.

    Evaluates rho+(u) = integral_0^k_max dk exp(i k u) / (2 pi A) in closed
    form, (exp(i k_max u) - 1) / (2 pi A i u), with the u -> 0 limit
    k_max / (2 pi A).  Twice the real part is the physical density
    sin(k_max u) / (pi A u); the imaginary part carries the principal-value
    tail, oscillating about +1/(2 pi A u) for large |k_max u|.  Accepts a
    scalar or an array of u = dx - c*dt values.
    """
    if k_max <= 0:
        raise DomainError("k_max must be positive")
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


def localized_density_1d_boxsum(u, box_length: float, k_max: float, area: float = 1.0):
    """Discrete-mode realization of the 1D localized rho+ in a periodic box.

    Sums exp(i k_j u)/(L A) over modes k_j = j * 2 pi / L up to k_max.  This
    is a Riemann sum of the continuum form, converging with O(1/L) error.
    """
    dk = TWO_PI / box_length
    n_modes = int(np.floor(k_max / dk + 1e-12))
    if n_modes < 1:
        raise DomainError("box too short: no modes below k_max")
    j = np.arange(1, n_modes + 1)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    phases = np.exp(1j * np.outer(u_arr, j * dk))
    out = phases.sum(axis=1) / (box_length * area)
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return complex(out[0])
    return out


def localized_density_3d(r: float, dt: float, k_max: float, c: float = 1.0) -> complex:
    """Band-limited positive-frequency 3D localized density at radius r.

    rho+(r, dt) = (1 / 2(2 pi)^3) * 4 pi * integral_0^k_max dk k^2
                  * sinc(k r) * exp(-i c k dt),

    evaluated by adaptive quadrature.  The physical density is
    rho+ + conj(rho+), concentrated on the light shell r = c*dt.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    if k_max <= 0:
        raise DomainError("k_max must be positive")
    # imported here: loading scipy.integrate costs about half a second, and
    # this quadrature oracle is the package's only use of it
    from scipy import integrate

    def integrand(k):
        kr = k * r
        sinc = np.sin(kr) / kr if kr != 0.0 else 1.0
        return k * k * sinc * np.exp(-1j * c * k * dt)

    cycles = k_max * (r + abs(c * dt)) / TWO_PI
    limit = int(60 + 8 * cycles)
    val, _ = integrate.quad(integrand, 0.0, k_max, complex_func=True, limit=limit)
    return complex(val / (4.0 * np.pi**2))


def _incomplete_first_moment(a: np.ndarray, k_max: float) -> np.ndarray:
    """J(a) = integral_0^k_max k exp(i a k) dk, vectorized with small-|a| series."""
    a = np.asarray(a, dtype=float)
    z = a * k_max
    small = np.abs(z) < 1e-3
    a_safe = np.where(small, 1.0, a)
    closed = np.exp(1j * z) * (-1j * k_max / a_safe + 1.0 / a_safe**2) - 1.0 / a_safe**2
    series = k_max**2 * (
        0.5 + 1j * z / 3.0 - z**2 / 8.0 - 1j * z**3 / 30.0 + z**4 / 144.0
    )
    return np.where(small, series, closed)


def localized_density_3d_profile(r, dt: float, k_max: float, c: float = 1.0):
    """Closed-form evaluation of the 3D localized rho+ on an array of radii.

    Splits sin(kr) into exponentials so the band-limited integral reduces to
    incomplete first moments; used for radial scans where per-point adaptive
    quadrature would be wasteful.  Agrees with :func:`localized_density_3d`
    to quadrature accuracy.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0):
        raise DomainError("all radii must be positive")
    s = c * dt
    moment = _incomplete_first_moment
    integral = (moment(r_arr - s, k_max) - moment(-(r_arr + s), k_max)) / 2j
    out = integral / (4.0 * np.pi**2 * r_arr)
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return complex(out[0])
    return out


def shell_mass_fraction(radii: np.ndarray, rho_physical: np.ndarray, shell_radius: float, window_halfwidth: float) -> float:
    """Fraction of the squared radial amplitude (r*rho)^2 near the shell.

    The band-limited shell is the derivative of a nascent delta, whose
    absolute-value mass has log-divergent tails; the square-integral measure
    of the radial profile u(r) = r*rho(r) is the localization fraction that
    actually converges, and is what this returns.
    """
    mass = (radii * rho_physical) ** 2
    total = np.trapezoid(mass, radii)
    if total == 0.0:
        return 0.0
    inside = np.abs(radii - shell_radius) <= window_halfwidth
    return float(np.trapezoid(np.where(inside, mass, 0.0), radii) / total)


def tail_mass(values, x, window_halfwidth: float, center: float | None = None) -> float:
    """Fraction of density mass outside a window centered on the centroid.

    For complex input (a positive-frequency part) the mass is |values|; for
    real input (a physical density) the mass is the signed sum, so the
    result is the net fraction escaping the window.  A window wider than the
    sampled domain is a DomainError; an identically zero field returns 0.
    """
    vals = np.asarray(values)
    x = np.asarray(x, dtype=float)
    if vals.shape != x.shape:
        raise DimensionError("values and coordinates must have matching shape")
    span = x.max() - x.min()
    if 2.0 * window_halfwidth > span:
        raise DomainError("window exceeds the sampled domain")
    mags = np.abs(vals)
    if mags.max() == 0.0:
        return 0.0
    if center is None:
        center = float(np.sum(x * mags) / np.sum(mags))
    inside = np.abs(x - center) <= window_halfwidth
    weight = mags if np.iscomplexobj(vals) else vals
    total = np.trapezoid(weight, x)
    inner = np.trapezoid(np.where(inside, weight, 0.0), x)
    if np.iscomplexobj(vals):
        return float((total - inner) / total)
    return float(abs(total - inner) / abs(total))


def write_density_csv(path, x, rho, j=None, rho_plus=None, t: float = 0.0, k_max: float = 0.0, units_mode: str = "natural") -> None:
    """CSV export: coordinate plus rho/J, or coordinate plus rho+ and rho.

    Values are written with shortest round-trip float repr, so identical
    inputs produce byte-identical files.
    """
    with open(path, "w") as fh:
        fh.write(f"# t={float(t)!r} k_max={float(k_max)!r} units={units_mode}\n")
        if rho_plus is not None:
            fh.write("u,re(rho+),im(rho+),rho\n")
            for xi, rp, rr in zip(x, rho_plus, rho):
                fh.write(
                    f"{float(xi)!r},{float(rp.real)!r},{float(rp.imag)!r},{float(rr)!r}\n"
                )
        else:
            fh.write("x,rho,J\n")
            for xi, rr, jj in zip(x, rho, j):
                fh.write(f"{float(xi)!r},{float(rr)!r},{float(jj)!r}\n")
