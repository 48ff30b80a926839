"""One-photon states as spectral amplitudes on a forward (k > 0) grid.

A state is a complex amplitude array c(k_j) on k_j = j*dk, j = 1..N, carried
over a transverse area A.  The photon number is the continuum-measure sum

    n = sum_j |c_j|^2 * dk / (2*pi),

and positive-frequency field arrays live on the conjugate periodic x-grid
(dx * dk * N = 2*pi).  The synthesis normalization is chosen so that the
number-density bilinear in :mod:`photonflux.density` integrates exactly to
this photon number; see ``synthesize_fields``.
"""

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, GridCoverageError, NetlistError
from .units import NATURAL, UnitsConfig

TWO_PI = 2.0 * np.pi
MAX_GRID_N = 2**24  # 1024x the benchmark's largest grid; a larger N would allocate gigabytes unchecked


@dataclass(frozen=True)
class KGrid1D:
    """Forward-only wavenumber grid: k_j = j*dk for j = 1..n, area in m^2."""

    n: int
    dk: float
    area: float = 1.0

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise DomainError(f"sample count must be a power of two, got {self.n}")
        if self.n > MAX_GRID_N:
            raise DomainError(f"sample count must be at most 2**24 = {MAX_GRID_N}, got {self.n}")
        if self.dk <= 0:
            raise DomainError("dk must be positive")
        if self.area <= 0:
            raise DomainError("area must be positive")

    @property
    def k(self) -> np.ndarray:
        return self.dk * np.arange(1, self.n + 1)

    @property
    def k_max(self) -> float:
        return self.n * self.dk

    @property
    def length(self) -> float:
        return TWO_PI / self.dk

    @property
    def dx(self) -> float:
        return TWO_PI / (self.n * self.dk)

    @property
    def x(self) -> np.ndarray:
        """Conjugate periodic x-grid: x_i = i*dx for i = 0..n-1."""
        return self.dx * np.arange(self.n)


@dataclass(frozen=True)
class SpectralAmplitude:
    """One-photon spectral amplitude c(k) with helicity +-1 on a KGrid1D."""

    grid: KGrid1D
    helicity: int
    c: np.ndarray

    def __post_init__(self):
        if self.helicity not in (+1, -1):
            raise DomainError(f"helicity must be +1 or -1, got {self.helicity}")
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.grid.n,):
            raise DimensionError(
                f"amplitude length {c.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(c.view(float))):
            raise DomainError("amplitude contains non-finite entries")
        object.__setattr__(self, "c", c)

    def to_json(self) -> dict:
        return {
            "N": self.grid.n,
            "dk": self.grid.dk,
            "area": self.grid.area,
            "helicity": self.helicity,
            "re": self.c.real.tolist(),
            "im": self.c.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralAmplitude":
        def get(key, convert):
            return json_field(obj, key, convert, "state")

        grid = KGrid1D(n=get("N", json_int), dk=get("dk", float), area=get("area", float))
        re, im = get("re", _reals), get("im", _reals)
        if re.shape != im.shape:
            # numpy would broadcast them, or raise a bare ValueError
            raise NetlistError(f"state: fields 're' and 'im' differ in shape, {re.shape} vs {im.shape}")
        return cls(grid=grid, helicity=get("helicity", json_int), c=re + 1j * im)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


_REQUIRED = object()


def json_field(obj, key: str, convert, where: str, default=_REQUIRED):
    """convert(obj[key]), or ``default`` if absent or null; NetlistError naming a bad field."""
    if not isinstance(obj, dict):
        raise NetlistError(f"{where} must be a JSON object, got {type(obj).__name__}")
    raw = obj.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise NetlistError(f"{where}: missing field {key!r}")
        return default
    try:
        value = convert(raw)
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError("not finite")
    except (TypeError, ValueError, IndexError, OverflowError):
        raise NetlistError(f"{where}: field {key!r} has invalid value {raw!r:.40}") from None
    return value


def json_int(value) -> int:
    """json_field converter: an int, or a float with no fractional part (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _reals(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


@dataclass(frozen=True)
class FieldSet:
    """Positive-frequency A+, E+, B+ arrays sampled on ``grid.x`` at one time."""

    grid: KGrid1D
    t: float
    helicity: int
    a_plus: np.ndarray
    e_plus: np.ndarray
    b_plus: np.ndarray


def photon_number(state: SpectralAmplitude) -> float:
    """Continuum-measure photon count of a state; see :func:`photon_number_of`."""
    return photon_number_of(state.c, state.grid.dk)


def photon_number_of(c, dk: float) -> float:
    """Continuum-measure photon count sum_j |c_j|^2 dk / (2 pi) of a bare spectrum.

    numpy's pairwise summation keeps the result independent of evaluation
    order, so repeated calls are bit-identical.
    """
    return float((np.abs(c) ** 2).sum() * dk / TWO_PI)


def make_gaussian_state(
    k0: float, sigma: float, grid: KGrid1D, helicity: int = +1, x0: float | None = None
) -> SpectralAmplitude:
    """Unit-number Gaussian spectrum c(k) ~ exp(-(k-k0)^2 / (4 sigma^2)).

    Parameters
    ----------
    k0, sigma
        Center and spectral width (rad/m); both must be positive and the
        spectrum must be negligible at the first and last grid samples
        (< 1e-10 of its peak), otherwise a GridCoverageError is raised.
    x0
        Envelope center on the periodic x-domain, applied as the phase
        exp(-i k x0).  Defaults to the domain midpoint so the synthesized
        pulse starts well clear of the wrap-around.
    """
    if k0 <= 0 or sigma <= 0:
        raise DomainError("k0 and sigma must be positive")
    if x0 is None:
        x0 = 0.5 * grid.length
    k = grid.k
    c = np.exp(-((k - k0) ** 2) / (4.0 * sigma**2)) * np.exp(-1j * k * x0)
    peak = np.abs(c).max()
    if abs(c[0]) >= 1e-10 * peak or abs(c[-1]) >= 1e-10 * peak:
        raise GridCoverageError(
            "gaussian spectrum leaks beyond the grid edges; "
            "choose k0/sigma further from the boundaries"
        )
    state = SpectralAmplitude(grid=grid, helicity=helicity, c=c)
    return SpectralAmplitude(grid=grid, helicity=helicity, c=c / np.sqrt(photon_number(state)))


def single_mode_state(grid: KGrid1D, bin_index: int, helicity: int = +1) -> SpectralAmplitude:
    """Unit-number state occupying exactly one k-bin (a discrete plane wave)."""
    if not (0 <= bin_index < grid.n):
        raise DomainError(f"bin_index {bin_index} outside 0..{grid.n - 1}")
    c = np.zeros(grid.n, dtype=complex)
    c[bin_index] = np.sqrt(TWO_PI / grid.dk)
    return SpectralAmplitude(grid=grid, helicity=helicity, c=c)


def localized_state(grid: KGrid1D, node: int, helicity: int = +1) -> SpectralAmplitude:
    """Unit-number state localized at grid node x = node*dx.

    The flat spectrum sqrt(dx) * exp(-i k x_node) makes states at distinct
    nodes exactly orthonormal under the k-space scalar product (geometric
    sum over the N roots of unity).
    """
    if not (0 <= node < grid.n):
        raise DomainError(f"node {node} outside 0..{grid.n - 1}")
    x0 = node * grid.dx
    c = np.sqrt(grid.dx) * np.exp(-1j * grid.k * x0)
    return SpectralAmplitude(grid=grid, helicity=helicity, c=c)


def evolve_free(state: SpectralAmplitude, dt: float, units: UnitsConfig = NATURAL) -> SpectralAmplitude:
    """Free evolution by dt: each bin picks up exp(-i omega_j dt), omega = c k."""
    phase = np.exp(-1j * units.c * state.grid.k * dt)
    return SpectralAmplitude(grid=state.grid, helicity=state.helicity, c=state.c * phase)


def _mode_weights(grid: KGrid1D, units: UnitsConfig) -> tuple[np.ndarray, np.ndarray, float]:
    omega = units.c * grid.k
    weights = grid.dk / (TWO_PI * np.sqrt(omega * grid.area))
    # sqrt(hbar/eps0) rather than sqrt(hbar/2 eps0): the extra sqrt(2) makes
    # the (i eps0 / 2 hbar) number-density bilinear integrate to exactly one
    # photon for a unit-number state.
    pref = np.sqrt(units.hbar / units.eps0)
    return omega, weights, pref


def synthesize_fields(state: SpectralAmplitude, t: float, units: UnitsConfig = NATURAL) -> FieldSet:
    """Sample A+, E+, B+ on the conjugate x-grid at time t.

    A+(x, t) = i * sqrt(hbar/eps0) * sum_j [dk / (2 pi sqrt(omega_j A))]
               * c_j * exp(i (k_j x - omega_j t)),

    with E+ = -dA+/dt (spectrum * i omega_j) and B+ the curl partner
    (spectrum * i k_j).  Evaluated with one inverse FFT per field; bin j = N
    lands on the DC alias, which is harmless for edge-clean spectra.
    """
    grid = state.grid
    omega, weights, pref = _mode_weights(grid, units)
    base = weights * state.c * np.exp(-1j * omega * t)

    def invert(spectrum: np.ndarray) -> np.ndarray:
        return 1j * pref * grid.n * np.fft.ifft(np.roll(spectrum, 1))

    return FieldSet(
        grid=grid,
        t=t,
        helicity=state.helicity,
        a_plus=invert(base),
        e_plus=invert(base * (1j * omega)),
        b_plus=invert(base * (1j * grid.k)),
    )


def extract_spectrum(fields: FieldSet, units: UnitsConfig = NATURAL) -> SpectralAmplitude:
    """Recover the spectral amplitude from a synthesized A+ array (round trip)."""
    grid = fields.grid
    omega, weights, pref = _mode_weights(grid, units)
    spectrum = np.roll(np.fft.fft(fields.a_plus) / (1j * pref * grid.n), -1)
    c = spectrum / (weights * np.exp(-1j * omega * fields.t))
    return SpectralAmplitude(grid=grid, helicity=fields.helicity, c=c)


def scalar_product(
    c1: SpectralAmplitude,
    c2: SpectralAmplitude,
    method: str = "kspace",
    t: float = 0.0,
    units: UnitsConfig = NATURAL,
) -> complex:
    """One-photon scalar product <c1, c2>, conjugate-linear in c1.

    ``kspace`` evaluates sum conj(c1) c2 dk/(2 pi) directly (zero for
    opposite helicities).  ``xspace`` synthesizes both fields on a common
    t hyperplane and evaluates the sesquilinear field pairing

        (i eps0 / 2 hbar) * A * sum_x [A2+ E1- - E2+ A1-] dx,

    which conjugates state 1 in both terms so that complex overlaps are
    reproduced; the value is independent of the hyperplane time.
    """
    if c1.grid != c2.grid:
        raise DimensionError("scalar_product requires a common grid")
    if c1.helicity != c2.helicity:
        return 0.0j
    if method == "kspace":
        return complex(np.sum(np.conj(c1.c) * c2.c) * c1.grid.dk / TWO_PI)
    if method == "xspace":
        f1 = synthesize_fields(c1, t, units)
        f2 = synthesize_fields(c2, t, units)
        dx = c1.grid.dx
        pairing = np.sum(
            f2.a_plus * np.conj(f1.e_plus) - f2.e_plus * np.conj(f1.a_plus)
        )
        return complex(
            (1j * units.eps0 / (2.0 * units.hbar)) * c1.grid.area * pairing * dx
        )
    raise DomainError(f"unknown method {method!r} (expected 'kspace' or 'xspace')")


def assert_support_clear(values: np.ndarray, margin: int = 10, threshold: float = 1e-8) -> None:
    """Require a pulse to stay clear of the periodic wrap-around.

    Checks that |values| within ``margin`` samples of both domain ends stays
    below ``threshold`` times the peak.  Raises DomainError otherwise.
    """
    mags = np.abs(np.asarray(values))
    peak = mags.max()
    if peak == 0.0:
        return
    edge = max(np.max(mags[:margin]), np.max(mags[-margin:]))
    if edge > threshold * peak:
        raise DomainError(
            f"pulse support reaches the wrap-around (edge/peak = {edge / peak:.3e})"
        )
