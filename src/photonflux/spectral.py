"""One-photon states as spectral amplitudes on a forward (k > 0) grid.

A state is a complex amplitude array c(k_j) on k_j = j*dk, j = 1..N, carried
over a transverse area A.  The photon number is the continuum-measure sum

    n = sum_j |c_j|^2 * dk / (2*pi),

and positive-frequency field arrays live on the conjugate periodic x-grid
(dx * dk * N = 2*pi).  The synthesis normalization is chosen so that the
number-density bilinear in :mod:`photonflux.density` integrates exactly to
this photon number; see ``synthesize_fields``.
"""

import functools
import json
import math
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
        """The fields of an ``amplitude`` state spec, all but its ``kind``."""
        return {
            "N": self.grid.n,
            "dk": self.grid.dk,
            "area": self.grid.area,
            "helicity": self.helicity,
            "re": self.c.real.tolist(),
            "im": self.c.imag.tolist(),
        }


REQUIRED = object()


def read_json(path):
    """The JSON value in the file at ``path``; the one reader of an input file.

    Its bytes are decoded as strict UTF-8 (RFC 8259), whatever the locale.  A
    file json cannot read raises one NetlistError, ``{path}: {the decoder's message}``.
    """
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers a syntax error, a UTF-8 BOM, bytes that are not UTF-8 and the integer digit limit
        raise NetlistError(f"{path}: {exc}") from None


def json_fields(obj, where: str, fields) -> list:
    """The converted values of ``obj``'s ``fields``, each a ``(key, convert, default)``.

    A key that is absent or null takes its default; ``REQUIRED`` has none.
    The first bad field raises a NetlistError naming it: ``{where}: missing
    field ...``, or ``{where}: field ... has invalid value ...`` when
    ``convert`` raises.  Each converter below accepts only the JSON type it
    names, so a bool is never a number and a numeric string is never read
    as one, and a number must be finite.
    """
    if not isinstance(obj, dict):
        raise NetlistError(f"{where} must be a JSON object, got {type(obj).__name__}")
    values = []
    for key, convert, default in fields:
        raw = obj.get(key)
        if raw is None:
            if default is REQUIRED:
                raise NetlistError(f"{where}: missing field {key!r}")
            values.append(default)
            continue
        try:
            values.append(convert(raw))
        except (TypeError, ValueError, IndexError, OverflowError):
            raise NetlistError(f"{where}: field {key!r} has invalid value {raw!r:.40}") from None
    return values


def json_field(obj, key: str, convert, where: str, default=REQUIRED):
    """The one field ``key`` of :func:`json_fields`."""
    return json_fields(obj, where, ((key, convert, default),))[0]


def json_int(value) -> int:
    """An int, or a float with no fractional part (never a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def json_number(value) -> float:
    """A finite int or float (never a bool or a string), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def json_complex(value) -> complex:
    """A finite number, or an ``[re, im]`` pair of them."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError("expected an [re, im] pair")
        return complex(json_number(value[0]), json_number(value[1]))
    return complex(json_number(value))


def json_names(value) -> tuple:
    """A list of names, each a string, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list of names")
    "".join(value)  # a TypeError for a name that is not a string
    return tuple(value)


def json_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return value


_NUMBER_TYPES = frozenset((int, float))


def _reals(value) -> np.ndarray:
    """A list of ints and floats, as a float array (its entries' finiteness is the state's check)."""
    if not isinstance(value, (list, tuple)) or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise TypeError("expected a list of numbers")
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


# state kind -> the fields of its spec, in the order they are read
_GAUSSIAN = (("k0", json_number, REQUIRED), ("sigma", json_number, REQUIRED), ("helicity", json_int, +1),
             ("x0", json_number, None))
_ZERO = (("helicity", json_int, +1),)
_AMPLITUDE = (("N", json_int, REQUIRED), ("dk", json_number, REQUIRED), ("area", json_number, REQUIRED),
              ("re", _reals, REQUIRED), ("im", _reals, REQUIRED), ("helicity", json_int, REQUIRED))


def state_from_spec(spec, grid: KGrid1D) -> SpectralAmplitude:
    """The state a JSON state spec describes; the one reader of a state spec.

    ``kind`` (default ``gaussian``) picks the fields read by
    :func:`json_fields`: ``gaussian`` and ``zero`` states live on ``grid``,
    an ``amplitude`` state on its own ``N``, ``dk`` and ``area``, whose grid
    is built before its ``re`` and ``im`` lists are read.
    """
    kind = json_field(spec, "kind", json_str, "state", "gaussian")
    if kind == "gaussian":
        k0, sigma, helicity, x0 = json_fields(spec, "state", _GAUSSIAN)
        return make_gaussian_state(k0=k0, sigma=sigma, grid=grid, helicity=helicity, x0=x0)
    if kind == "zero":
        (helicity,) = json_fields(spec, "state", _ZERO)
        return SpectralAmplitude(grid=grid, helicity=helicity, c=np.zeros(grid.n, dtype=complex))
    if kind != "amplitude":
        raise NetlistError(f"unknown state kind {kind!r}")
    n, dk, area = json_fields(spec, "state", _AMPLITUDE[:3])
    grid = KGrid1D(n=n, dk=dk, area=area)
    re, im = json_fields(spec, "state", _AMPLITUDE[3:5])
    if re.shape != im.shape:
        # numpy would broadcast them, or raise a bare ValueError
        raise NetlistError(f"state: fields 're' and 'im' differ in shape, {re.shape} vs {im.shape}")
    (helicity,) = json_fields(spec, "state", _AMPLITUDE[5:])
    return SpectralAmplitude(grid=grid, helicity=helicity, c=re + 1j * im)


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a cached array is shared by every call that reads it."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=1)
def _mode_factors(grid: KGrid1D, units: UnitsConfig) -> tuple:
    """omega, then the rolled weights, i omega and i k and the scale of :func:`synthesize_fields`."""
    omega, weights, pref = _mode_weights(grid, units)
    arrays = (omega, np.roll(weights, 1), 1j * np.roll(omega, 1), 1j * np.roll(grid.k, 1))
    return (*map(_read_only, arrays), 1j * pref * grid.n)


@functools.lru_cache(maxsize=1)
def _phase(grid: KGrid1D, units: UnitsConfig, t: float) -> np.ndarray:
    """The rolled exp(-i omega_j t) of :func:`synthesize_fields`."""
    omega = _mode_factors(grid, units)[0]
    return _read_only(np.roll(np.exp(-1j * omega * t), 1))


def synthesize_fields(state: SpectralAmplitude, t: float, units: UnitsConfig = NATURAL) -> FieldSet:
    """Sample A+, E+, B+ on the conjugate x-grid at time t.

    A+(x, t) = i * sqrt(hbar/eps0) * sum_j [dk / (2 pi sqrt(omega_j A))]
               * c_j * exp(i (k_j x - omega_j t)),

    with E+ = -dA+/dt (spectrum * i omega_j) and B+ the curl partner
    (spectrum * i k_j).  Evaluated with one inverse FFT, in place, over the
    three spectra stacked in one (3, N) buffer, into which the spectrum
    rolled by one bin is written by two slice products, with no rolled copy;
    bin j = N lands on the DC alias, which is harmless for edge-clean
    spectra.  The three fields are rows of that buffer.

    The factors that do not depend on the state are computed once and kept
    read-only in two one-entry caches: omega, the weights, i omega, i k and
    the scale per (grid, units), and the phase exp(-i omega t) per (grid,
    units, t).  A call with another key replaces the entry, so a run that
    alternates grids recomputes them; the fields are bit for bit those
    computed without the caches.  Together the two entries hold 64 N bytes,
    1 GiB at N = 2**24.
    """
    grid = state.grid
    _, weights, i_omega, i_k, scale = _mode_factors(grid, units)
    spectra = np.empty((3, grid.n), dtype=complex)
    base = spectra[0]
    np.multiply(weights[1:], state.c[:-1], out=base[1:])
    np.multiply(weights[:1], state.c[-1:], out=base[:1])
    np.multiply(base, _phase(grid, units, t), out=base)
    np.multiply(base, i_omega, out=spectra[1])
    np.multiply(base, i_k, out=spectra[2])
    np.fft.ifft(spectra, axis=-1, out=spectra)
    a_plus, e_plus, b_plus = np.multiply(scale, spectra, out=spectra)
    return FieldSet(grid=grid, t=t, helicity=state.helicity, a_plus=a_plus, e_plus=e_plus, b_plus=b_plus)


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


# a pulse is clear of the periodic wrap-around when |values| within SUPPORT_MARGIN samples of both
# domain ends stays below SUPPORT_THRESHOLD times its peak
SUPPORT_MARGIN = 10
SUPPORT_THRESHOLD = 1e-8


def assert_support_clear(values: np.ndarray) -> None:
    """Require a pulse to stay clear of the periodic wrap-around; raises DomainError otherwise."""
    mags = np.abs(np.asarray(values))
    peak = mags.max()
    if peak == 0.0:
        return
    edge = max(np.max(mags[:SUPPORT_MARGIN]), np.max(mags[-SUPPORT_MARGIN:]))
    if edge > SUPPORT_THRESHOLD * peak:
        raise DomainError(
            f"pulse support reaches the wrap-around (edge/peak = {edge / peak:.3e})"
        )
