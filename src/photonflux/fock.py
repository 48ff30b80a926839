"""Exact truncated multimode bosonic Fock algebra.

States are sparse maps from occupation tuples to complex amplitudes.  One
slot is reserved per (k-mode, helicity) pair, so a state over ``num_modes``
k-modes carries occupation tuples of length ``2 * num_modes``.  All
operations are pure functions returning new states; ladder arithmetic uses
exact integer factorials, so the only rounding is in the final sqrt.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidModeError,
    NormalizationError,
    TruncationError,
    UnitarityError,
)

UNITARITY_TOL = 1e-12
NORM_TOL = 1e-9


@dataclass(frozen=True)
class ModeIndex:
    """Label for one discrete field mode: a k-bin plus a helicity sign."""

    helicity: int
    mode_id: int

    def __post_init__(self):
        if self.helicity not in (+1, -1):
            raise InvalidModeError(f"helicity must be +1 or -1, got {self.helicity}")
        if self.mode_id < 0:
            raise InvalidModeError(f"mode_id must be non-negative, got {self.mode_id}")


def _slot(mode: ModeIndex, num_modes: int) -> int:
    if mode.mode_id >= num_modes:
        raise InvalidModeError(
            f"mode_id {mode.mode_id} outside declared mode count {num_modes}"
        )
    return 2 * mode.mode_id + (0 if mode.helicity == +1 else 1)


@dataclass(frozen=True)
class FockState:
    """Sparse occupation-number state, truncated at ``n_max`` quanta per slot.

    ``amplitudes`` maps occupation tuples of length ``2 * num_modes`` to
    complex amplitudes.  Treat instances as immutable; operations never
    mutate the map in place.
    """

    num_modes: int
    n_max: int
    amplitudes: dict

    def __post_init__(self):
        width = 2 * self.num_modes
        for occ in self.amplitudes:
            if len(occ) != width:
                raise DimensionError(f"occupation tuple {occ} has wrong length")
            if any(n < 0 or n > self.n_max for n in occ):
                raise TruncationError(f"occupation {occ} violates 0..{self.n_max}")

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def vacuum(num_modes: int, n_max: int) -> FockState:
    return FockState(num_modes, n_max, {(0,) * (2 * num_modes): 1.0 + 0.0j})


def basis_state(num_modes: int, n_max: int, occupations: dict) -> FockState:
    """Unit-amplitude state with the given {ModeIndex: n} occupations."""
    occ = [0] * (2 * num_modes)
    for mode, n in occupations.items():
        occ[_slot(mode, num_modes)] = n
    return FockState(num_modes, n_max, {tuple(occ): 1.0 + 0.0j})


def apply_annihilation(state: FockState, mode: ModeIndex) -> FockState:
    """Lower the occupation of ``mode`` by one; vacuum components vanish."""
    slot = _slot(mode, state.num_modes)
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        n = occ[slot]
        if n == 0:
            continue
        new = occ[:slot] + (n - 1,) + occ[slot + 1 :]
        out[new] = out.get(new, 0.0j) + amp * math.sqrt(n)
    return FockState(state.num_modes, state.n_max, out)


def apply_creation(state: FockState, mode: ModeIndex) -> FockState:
    """Raise the occupation of ``mode`` by one.

    Raises :class:`TruncationError` if any occupied component already sits
    at the cutoff; overflow is never clipped silently.
    """
    slot = _slot(mode, state.num_modes)
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        n = occ[slot]
        if n >= state.n_max:
            raise TruncationError(
                f"creation on occupation {n} would exceed n_max={state.n_max}"
            )
        new = occ[:slot] + (n + 1,) + occ[slot + 1 :]
        out[new] = out.get(new, 0.0j) + amp * math.sqrt(n + 1)
    return FockState(state.num_modes, state.n_max, out)


def n_photon_state(mode: ModeIndex, n: int, n_max: int, num_modes: int | None = None) -> FockState:
    """Normalized n-quantum state built by repeated creation on the vacuum."""
    if n < 0 or n > n_max:
        raise TruncationError(f"n must lie in 0..{n_max}, got {n}")
    if num_modes is None:
        num_modes = mode.mode_id + 1
    state = vacuum(num_modes, n_max)
    for _ in range(n):
        state = apply_creation(state, mode)
    scale = 1.0 / math.sqrt(math.factorial(n))
    return FockState(
        state.num_modes,
        state.n_max,
        {occ: amp * scale for occ, amp in state.amplitudes.items()},
    )


def inner_product(s1: FockState, s2: FockState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if s1.num_modes != s2.num_modes:
        raise DimensionError(
            f"mode counts differ: {s1.num_modes} vs {s2.num_modes}"
        )
    small, large = (s1.amplitudes, s2.amplitudes)
    if len(large) < len(small):
        return complex(np.conj(inner_product(s2, s1)))
    total = 0.0j
    for occ, a1 in small.items():
        a2 = large.get(occ)
        if a2 is not None:
            total += np.conj(a1) * a2
    return complex(total)


def number_expectation(state: FockState, mode: ModeIndex) -> float:
    """<a† a> for one mode; requires a normalized state."""
    if abs(state.norm_squared() - 1.0) > NORM_TOL:
        raise NormalizationError(
            f"state norm^2 = {state.norm_squared():.6g} is not 1"
        )
    slot = _slot(mode, state.num_modes)
    return float(sum(occ[slot] * abs(amp) ** 2 for occ, amp in state.amplitudes.items()))


def total_number_expectation(state: FockState) -> float:
    """Sum of occupation expectations over all slots."""
    if abs(state.norm_squared() - 1.0) > NORM_TOL:
        raise NormalizationError("state is not normalized")
    return float(sum(sum(occ) * abs(amp) ** 2 for occ, amp in state.amplitudes.items()))


def apply_mode_phase(state: FockState, mode: ModeIndex, phi: float) -> FockState:
    """Phase shifter exp(i phi n) acting on one mode."""
    slot = _slot(mode, state.num_modes)
    out = {
        occ: amp * cmath.exp(1j * phi * occ[slot])
        for occ, amp in state.amplitudes.items()
    }
    return FockState(state.num_modes, state.n_max, out)


@dataclass(frozen=True)
class MixMatrix2:
    """Two-mode mixing matrix ((t, r), (-r*, t*)).

    The (t, r; -r*, t*) form is unitary whenever |t|^2 + |r|^2 = 1, which is
    validated on construction.  Which output picks up the conjugated
    reflection phase is a convention of this package, not a physical fact.
    """

    t: complex
    r: complex

    def __post_init__(self):
        defect = abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)
        if not defect <= UNITARITY_TOL:  # a NaN fails it
            raise UnitarityError(f"|t|^2+|r|^2 deviates from 1 by {defect:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.t, self.r], [-np.conj(self.r), np.conj(self.t)]], dtype=complex
        )


def two_mode_mix(state: FockState, mode_a: ModeIndex, mode_b: ModeIndex, u: MixMatrix2) -> FockState:
    """Apply the mode mixer: a† -> t a† + r b†,  b† -> -r* a† + t* b†.

    Exact on the truncated space provided no component has combined
    occupation above ``n_max`` over the two slots (checked).  Total quantum
    number over the pair is conserved term by term.
    """
    sa = _slot(mode_a, state.num_modes)
    sb = _slot(mode_b, state.num_modes)
    if sa == sb:
        raise InvalidModeError("two_mode_mix needs two distinct modes")
    m_ = u.matrix
    if not np.abs(m_ @ m_.conj().T - np.eye(2)).max() <= UNITARITY_TOL:  # a NaN fails it
        raise UnitarityError("mixing matrix is not unitary")
    t, r = u.t, u.r
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        m, n = occ[sa], occ[sb]
        if m + n > state.n_max:
            raise TruncationError(
                f"combined occupation {m + n} over the mixed pair exceeds n_max"
            )
        base = amp / math.sqrt(math.factorial(m) * math.factorial(n))
        for i in range(m + 1):
            ci = math.comb(m, i) * t**i * r ** (m - i)
            for j in range(n + 1):
                cj = math.comb(n, j) * (-np.conj(r)) ** j * np.conj(t) ** (n - j)
                p = i + j
                q = m + n - p
                new = list(occ)
                new[sa] = p
                new[sb] = q
                key = tuple(new)
                w = base * ci * cj * math.sqrt(math.factorial(p) * math.factorial(q))
                out[key] = out.get(key, 0.0j) + w
    out = {occ: amp for occ, amp in out.items() if amp != 0.0}
    return FockState(state.num_modes, state.n_max, out)


def commutator_residual(n_max: int, include_top_level: bool = False) -> float:
    """Max-norm deviation of [a, a†] from the identity on a truncated mode.

    The ladder matrices are assembled by applying the sparse operators to
    every basis level 0..n_max.  By default the deviation is measured on
    levels 0..n_max-1 only, where the truncated algebra is exact; with
    ``include_top_level`` the known cutoff artifact at level n_max is
    included (its magnitude is n_max + 1).
    """
    if n_max < 2:
        raise TruncationError("commutator check needs n_max >= 2")
    mode = ModeIndex(helicity=+1, mode_id=0)
    dim = n_max + 1

    def column(op_result: FockState) -> np.ndarray:
        col = np.zeros(dim, dtype=complex)
        for occ, amp in op_result.amplitudes.items():
            col[occ[0]] = amp
        return col

    a = np.zeros((dim, dim), dtype=complex)
    adag = np.zeros((dim, dim), dtype=complex)
    for n in range(dim):
        level = basis_state(1, n_max, {mode: n})
        a[:, n] = column(apply_annihilation(level, mode))
        if n < n_max:
            adag[:, n] = column(apply_creation(level, mode))
        # creation at the cutoff level is a contract error; the truncated
        # matrix simply has a zero column there.
    comm = a @ adag - adag @ a
    defect = comm - np.eye(dim)
    if not include_top_level:
        defect = defect[:n_max, :n_max]
    return float(np.abs(defect).max())
