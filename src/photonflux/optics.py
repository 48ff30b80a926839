"""Material response, interface coefficients and momentum bookkeeping.

Media are passive (Im chi >= 0) with one constant complex chi; the
refractive index is the principal root n = sqrt(1+chi), computed once when
the medium is built.  Normal incidence only.  Two Fresnel conventions are
carried: the default flux-conserving amplitude pair, and a literal
(n-1)/(n+1), 2n/(n+1) pair kept for comparison because it does not conserve
single-photon probability.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, PassivityError, UnitarityError
from .spectral import TWO_PI, SpectralAmplitude
from .units import NATURAL, UnitsConfig

UNITARITY_TOL = 1e-12
PASSIVITY_TOL = 1e-15


def refractive_index(chi: complex) -> complex:
    """Principal-branch n = sqrt(1 + chi).

    1 + chi on the closed negative real axis is rejected: the branch point
    would make n discontinuous (or zero), and such media are outside the
    passive-dielectric model.
    """
    z = 1.0 + complex(chi)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("1 + chi lies on the principal branch cut")
    return complex(np.sqrt(z))


@dataclass(frozen=True, slots=True)
class Medium:
    """Passive dielectric with a constant complex chi; its index n is computed once, here."""

    chi: complex
    n: complex = field(init=False)

    def __post_init__(self):
        chi = complex(self.chi)
        if not cmath.isfinite(chi):
            raise DomainError(f"chi must be finite, got {chi!r}")
        if chi.imag < -PASSIVITY_TOL:
            raise PassivityError("Im chi < 0: medium would amplify")
        n = refractive_index(chi)  # rejects branch-cut values
        if n.imag < -PASSIVITY_TOL:
            raise PassivityError("medium index has n'' < 0")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "n", n)

    @classmethod
    def constant(cls, chi: complex) -> "Medium":
        return cls(chi)


def propagate_in_medium(
    state: SpectralAmplitude, medium: Medium, length: float, units: UnitsConfig = NATURAL
) -> SpectralAmplitude:
    """Multiply each bin by exp(i omega n' L / c) * exp(-omega n'' L / c).

    Amplitude attenuation goes as n'' so the photon number in each bin decays
    by exp(-2 omega n'' L / c); a dispersionless n' delays the pulse envelope
    by n' L / c relative to a vacuum run of the same length.
    """
    ((transfer,),) = MediumSegment(medium, length).transfer(units.c * state.grid.k, units)
    return SpectralAmplitude(grid=state.grid, helicity=state.helicity, c=state.c * transfer)


def fresnel_interface(n1: complex, n2: complex, paper_convention: bool = False):
    """Normal-incidence amplitude pair (r, t) from medium 1 into medium 2.

    Default: r = (n1 - n2)/(n1 + n2), t = 2 n1/(n1 + n2), which satisfies
    |r|^2 + (Re n2 / Re n1)|t|^2 = 1 whenever medium 1 is lossless.  The
    ``paper_convention`` pair uses the relative index n = n2/n1 and returns
    r = (n - 1)/(n + 1), t = 2n/(n + 1); this pair does not conserve flux
    and is provided only so the defect can be quantified.
    """
    n1 = complex(n1)
    n2 = complex(n2)
    if n1 == 0 or n2 == 0 or n1 + n2 == 0:
        raise DomainError("degenerate refractive indices")
    if paper_convention:
        n = n2 / n1
        if n + 1 == 0:
            raise DomainError("degenerate relative index")
        return (n - 1) / (n + 1), 2 * n / (n + 1)
    return (n1 - n2) / (n1 + n2), 2 * n1 / (n1 + n2)


def require_flux_indices(n_in: complex, n_out: complex) -> None:
    """The flux ratio Re n_out / Re n_in is a nonnegative number only for Re n_in > 0, Re n_out >= 0."""
    n_in, n_out = complex(n_in), complex(n_out)
    if n_in.real <= 0.0 or n_out.real < 0.0:
        raise DomainError(f"interface needs Re n_in > 0 and Re n_out >= 0, got n_in = {n_in!r}, n_out = {n_out!r}")


@dataclass(frozen=True)
class InterfaceBudget:
    r: complex
    t: complex
    reflectance: float
    transmittance: float
    total: float
    defect: float
    convention: str


def interface_budget(n1: complex, n2: complex, paper_convention: bool = False) -> InterfaceBudget:
    """Probability budget R = |r|^2, T = (Re n2/Re n1)|t|^2 and its defect."""
    require_flux_indices(n1, n2)
    r, t = fresnel_interface(n1, n2, paper_convention)
    reflectance = abs(r) ** 2
    transmittance = (complex(n2).real / complex(n1).real) * abs(t) ** 2
    total = reflectance + transmittance
    return InterfaceBudget(
        r=r,
        t=t,
        reflectance=reflectance,
        transmittance=transmittance,
        total=total,
        defect=total - 1.0,
        convention="paper" if paper_convention else "default",
    )


def mirror_momentum_kick(p_em, mode: str) -> np.ndarray:
    """Momentum transferred to the obstacle: 2 p for reflection, p for absorption."""
    p = np.asarray(p_em, dtype=float)
    if mode == "reflect":
        return 2.0 * p
    if mode == "absorb":
        return p.copy()
    raise DomainError(f"mode must be 'reflect' or 'absorb', got {mode!r}")


@dataclass(frozen=True)
class MomentumReport:
    p_abraham: float
    p_minkowski: float | None
    chi: complex
    minkowski_defined: bool


def momentum_report(state: SpectralAmplitude, chi: complex, units: UnitsConfig = NATURAL) -> MomentumReport:
    """Abraham momentum hbar * sum k |c|^2 dk/2pi and Minkowski (1+chi) partner.

    The Minkowski relation p_M = (1 + chi) p_A holds for lossless (real) chi
    only; for complex chi the report carries p_A alone with p_M flagged
    undefined.  ``chi`` is read as a :class:`Medium`'s, so a chi that a
    medium rejects (amplifying, or on the branch cut) is rejected here too.
    """
    chi = Medium(chi).chi
    k = state.grid.k
    p_a = float(units.hbar * np.sum(k * np.abs(state.c) ** 2) * state.grid.dk / TWO_PI)
    if chi.imag != 0.0:
        return MomentumReport(p_abraham=p_a, p_minkowski=None, chi=chi, minkowski_defined=False)
    return MomentumReport(
        p_abraham=p_a,
        p_minkowski=(1.0 + chi.real) * p_a,
        chi=chi,
        minkowski_defined=True,
    )


# Circuit element specs carry ``arity`` = (inputs, outputs) and a linear
# ``transfer``: one row per output of per-input amplitude factors, each a
# scalar or an array over the omega bins.  Only a MediumSegment absorbs.
# Each spec rejects a NaN parameter: every check is written so that a
# comparison with NaN, which is False, fails it.  ``passes_vacuum`` marks
# the specs whose factors are finite scalars for every grid and convention,
# so vacuum in is vacuum out; an interface's factors can overflow to NaN,
# and a medium's are per bin.


@dataclass(frozen=True, slots=True)
class PhaseShifter:
    phi: float
    arity = (1, 1)
    passes_vacuum = True

    def __post_init__(self):
        if not math.isfinite(self.phi):  # a TypeError for a complex phase: exp(i phi) must have modulus 1
            raise DomainError(f"phase must be finite, got {self.phi!r}")

    def transfer(self, omega, units: UnitsConfig = NATURAL, paper_convention: bool = False):
        return ((np.exp(1j * self.phi),),)


@dataclass(frozen=True, slots=True)
class BeamSplitter:
    """Lossless splitter with matrix ((t, r), (-r*, t*)) on its two ports."""

    t: complex
    r: complex
    arity = (2, 2)
    passes_vacuum = True

    def __post_init__(self):
        defect = abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)
        if not defect <= UNITARITY_TOL:
            raise UnitarityError(f"|t|^2+|r|^2 deviates from 1 by {defect:.3e}")

    @property
    def scattering(self) -> np.ndarray:
        """Amplitude map on (port0, port1) inputs: columns are single-photon images."""
        return np.array(
            [[self.t, -np.conj(self.r)], [self.r, np.conj(self.t)]], dtype=complex
        )

    def transfer(self, omega, units: UnitsConfig = NATURAL, paper_convention: bool = False):
        """``scattering.tolist()`` bit for bit, built from Python scalars without an array.

        ``conjugate`` leaves a real t or r real, as ``np.conj`` does, so
        ``complex`` gives its imaginary part the same +0.0.
        """
        t, r = self.t, self.r
        return [[complex(t), complex(-r.conjugate())], [complex(r), complex(t.conjugate())]]


@dataclass(frozen=True, slots=True)
class MediumSegment:
    medium: Medium
    length: float
    arity = (1, 1)
    passes_vacuum = False

    def __post_init__(self):
        if not 0.0 <= self.length < math.inf:
            raise DomainError(f"segment length must be finite and non-negative, got {self.length!r}")

    def transfer(self, omega, units: UnitsConfig = NATURAL, paper_convention: bool = False):
        """exp(i omega n' L / c) * exp(-omega n'' L / c) per bin."""
        n = self.medium.n
        return ((np.exp((1j * n.real - n.imag) * omega * self.length / units.c),),)

    def group_delay(self, amplitude, units: UnitsConfig = NATURAL) -> float:
        """n_eff L / c, n_eff the |amplitude|^2-weighted Re n: Re n itself, but for a rounding every delay carries."""
        weight = np.abs(amplitude) ** 2
        total = weight.sum()
        if total == 0.0:
            return 0.0
        n_eff = float(np.sum(weight * self.medium.n.real) / total)
        return n_eff * self.length / units.c


@dataclass(frozen=True, slots=True)
class DielectricInterface:
    """Planar interface crossed from n_in into n_out; n_in must be lossless."""

    n_in: complex
    n_out: complex
    arity = (1, 2)
    passes_vacuum = False

    def __post_init__(self):
        for n in (self.n_in, self.n_out):
            n = complex(n)
            if n == 0 or not cmath.isfinite(n):
                raise DomainError("indices must be finite and nonzero")
        require_flux_indices(self.n_in, self.n_out)

    def transfer(self, omega, units: UnitsConfig = NATURAL, paper_convention: bool = False):
        """Transmitted, then reflected output; t is flux-normalized so |t|^2 is a probability."""
        n1 = complex(self.n_in)
        n2 = complex(self.n_out)
        r, t = fresnel_interface(n1, n2, paper_convention)
        return ((t * np.sqrt(n2.real / n1.real),), (r,))


@dataclass(frozen=True, slots=True)
class Mirror:
    r: complex = 1.0 + 0.0j
    arity = (1, 1)
    passes_vacuum = True

    def __post_init__(self):
        if not abs(abs(self.r) - 1.0) <= UNITARITY_TOL:
            raise UnitarityError("mirror reflectivity must have unit magnitude")

    def transfer(self, omega, units: UnitsConfig = NATURAL, paper_convention: bool = False):
        return ((self.r,),)


ElementSpec = Union[PhaseShifter, BeamSplitter, MediumSegment, DielectricInterface, Mirror]
