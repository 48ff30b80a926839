import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflux import (
    FockState,
    MixMatrix2,
    ModeIndex,
    apply_annihilation,
    apply_creation,
    apply_mode_phase,
    basis_state,
    commutator_residual,
    inner_product,
    n_photon_state,
    number_expectation,
    total_number_expectation,
    two_mode_mix,
    vacuum,
)
from photonflux.errors import (
    DimensionError,
    InvalidModeError,
    NormalizationError,
    TruncationError,
    UnitarityError,
)

MODE_A = ModeIndex(helicity=+1, mode_id=0)
MODE_B = ModeIndex(helicity=+1, mode_id=1)


# ---- independent dense-matrix oracle ----------------------------------------

def dense_ladder(n_max):
    """Truncated annihilation matrix on levels 0..n_max, built from np.diag."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    return a, a.conj().T


def as_vector(state, n_max):
    """Single-mode state as a dense coefficient vector."""
    vec = np.zeros(n_max + 1, dtype=complex)
    for occ, amp in state.amplitudes.items():
        vec[occ[0]] = amp
    return vec


# ---- ladder operators --------------------------------------------------------

def test_annihilation_kills_vacuum():
    out = apply_annihilation(vacuum(1, 4), MODE_A)
    assert out.amplitudes == {}


def test_annihilation_of_unoccupied_mode_is_zero():
    one_b = basis_state(2, 4, {MODE_B: 1})
    out = apply_annihilation(one_b, MODE_A)
    assert out.amplitudes == {}


def test_annihilation_matches_dense_matrix():
    n_max = 6
    a, _ = dense_ladder(n_max)
    three = n_photon_state(MODE_A, 3, n_max)
    expected = a @ as_vector(three, n_max)
    got = as_vector(apply_annihilation(three, MODE_A), n_max)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    # sqrt(3)|2> explicitly
    assert got[2] == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_creation_from_vacuum():
    out = apply_creation(vacuum(1, 4), MODE_A)
    assert out.amplitudes == {(1, 0): pytest.approx(1.0)}


def test_creation_matches_dense_matrix():
    n_max = 6
    _, adag = dense_ladder(n_max)
    one = n_photon_state(MODE_A, 1, n_max)
    expected = adag @ as_vector(one, n_max)
    got = as_vector(apply_creation(one, MODE_A), n_max)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    assert abs(got[2] - math.sqrt(2.0)) < 1e-14


def test_creation_at_cutoff_raises():
    top = n_photon_state(MODE_A, 3, n_max=3)
    with pytest.raises(TruncationError):
        apply_creation(top, MODE_A)


def test_unknown_mode_raises():
    with pytest.raises(InvalidModeError):
        apply_annihilation(vacuum(1, 3), ModeIndex(+1, 5))
    with pytest.raises(InvalidModeError):
        ModeIndex(helicity=2, mode_id=0)


# ---- n-photon states ----------------------------------------------------------

@pytest.mark.parametrize("n", [0, 2, 5, 8])
def test_n_photon_norm_is_one(n):
    state = n_photon_state(MODE_A, n, n_max=8)
    norm_sq = sum(abs(amp) ** 2 for amp in state.amplitudes.values())
    assert abs(norm_sq - 1.0) <= 1e-12


def test_n_photon_above_cutoff_raises():
    with pytest.raises(TruncationError):
        n_photon_state(MODE_A, 5, n_max=4)


# ---- inner product -------------------------------------------------------------

def test_vacuum_inner_product_is_one():
    assert inner_product(vacuum(1, 2), vacuum(1, 2)) == 1.0 + 0.0j


def test_distinct_modes_orthogonal():
    one_a = basis_state(2, 3, {MODE_A: 1})
    one_b = basis_state(2, 3, {MODE_B: 1})
    assert inner_product(one_a, one_b) == 0.0j


def test_two_photon_norm():
    two = n_photon_state(MODE_A, 2, n_max=4)
    assert inner_product(two, two) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_conjugate_linear_first_argument():
    s = n_photon_state(MODE_A, 1, n_max=2)
    scaled = FockState(s.num_modes, s.n_max, {k: 1j * v for k, v in s.amplitudes.items()})
    assert inner_product(scaled, s) == pytest.approx(-1j, abs=1e-14)
    assert inner_product(s, scaled) == pytest.approx(+1j, abs=1e-14)


def test_inner_product_mode_count_mismatch():
    with pytest.raises(DimensionError):
        inner_product(vacuum(1, 2), vacuum(2, 2))


# ---- number expectation --------------------------------------------------------

def test_number_expectation_cases():
    assert number_expectation(vacuum(1, 3), MODE_A) == 0.0
    assert number_expectation(n_photon_state(MODE_A, 3, 4), MODE_A) == pytest.approx(3.0, abs=1e-12)
    plus = FockState(1, 2, {(0, 0): 1 / math.sqrt(2), (1, 0): 1 / math.sqrt(2)})
    assert number_expectation(plus, MODE_A) == pytest.approx(0.5, abs=1e-12)


def test_number_expectation_requires_normalization():
    unnorm = FockState(1, 2, {(1, 0): 2.0 + 0j})
    with pytest.raises(NormalizationError):
        number_expectation(unnorm, MODE_A)


# ---- commutator --------------------------------------------------------------

def test_commutator_exact_below_truncation():
    # sqrt(n)*sqrt(n) re-rounding keeps this at a few ulps, not literal zero
    assert commutator_residual(2) <= 1e-15
    assert commutator_residual(16) <= 1e-12


def test_commutator_top_level_defect():
    # dense oracle: [a, a+] has eigenvalue -n_max at the cutoff level, so the
    # full-space distance to the identity is n_max + 1
    for n_max in (2, 5, 16):
        a, adag = dense_ladder(n_max)
        comm = a @ adag - adag @ a
        oracle = np.abs(comm - np.eye(n_max + 1)).max()
        assert oracle == pytest.approx(n_max + 1.0, abs=1e-12)
        assert commutator_residual(n_max, include_top_level=True) == pytest.approx(
            oracle, abs=1e-12
        )


@given(n_max=st.integers(min_value=2, max_value=12), n=st.integers(min_value=0, max_value=11))
@settings(deadline=None, max_examples=30)
def test_commutator_identity_on_levels(n_max, n):
    # (a a+ - a+ a)|n> = |n> for every retained level below the cutoff
    if n >= n_max:
        n = n_max - 1
    level = n_photon_state(MODE_A, n, n_max)
    first = apply_annihilation(apply_creation(level, MODE_A), MODE_A)
    second = apply_creation(apply_annihilation(level, MODE_A), MODE_A) if n > 0 else vacuum(1, n_max)
    diff = {
        occ: first.amplitudes.get(occ, 0.0j)
        - (second.amplitudes.get(occ, 0.0j) if n > 0 else 0.0j)
        - level.amplitudes.get(occ, 0.0j)
        for occ in set(first.amplitudes) | set(level.amplitudes)
    }
    assert max(abs(v) for v in diff.values()) <= 1e-12


# ---- two-mode mixing -----------------------------------------------------------

def balanced():
    return MixMatrix2(t=1.0 / math.sqrt(2.0), r=1.0 / math.sqrt(2.0))


def test_identity_mix_is_identity():
    state = basis_state(2, 4, {MODE_A: 1, MODE_B: 2})
    out = two_mode_mix(state, MODE_A, MODE_B, MixMatrix2(t=1.0, r=0.0))
    assert set(out.amplitudes) == set(state.amplitudes)
    for occ, amp in state.amplitudes.items():
        assert out.amplitudes[occ] == pytest.approx(amp, abs=1e-14)


def test_single_photon_splits_as_t_r():
    t, r = 0.6, 0.8j
    state = basis_state(2, 3, {MODE_A: 1})
    out = two_mode_mix(state, MODE_A, MODE_B, MixMatrix2(t=t, r=r))
    assert out.amplitudes[(1, 0, 0, 0)] == pytest.approx(t, abs=1e-14)
    assert out.amplitudes[(0, 0, 1, 0)] == pytest.approx(r, abs=1e-14)
    assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_balanced_splitter_probabilities_and_coincidence():
    state = basis_state(2, 3, {MODE_A: 1})
    out = two_mode_mix(state, MODE_A, MODE_B, balanced())
    assert number_expectation(out, MODE_A) == pytest.approx(0.5, abs=1e-12)
    assert number_expectation(out, MODE_B) == pytest.approx(0.5, abs=1e-12)
    # no |1,1> component can appear from one photon
    assert (1, 0, 1, 0) not in out.amplitudes


def test_mix_truncation_guard():
    state = basis_state(2, 3, {MODE_A: 2, MODE_B: 2})
    with pytest.raises(TruncationError):
        two_mode_mix(state, MODE_A, MODE_B, balanced())


def test_nonunitary_matrix_rejected():
    with pytest.raises(UnitarityError):
        MixMatrix2(t=0.9, r=0.6)


def test_mix_matrix_rejects_a_nan_amplitude():
    with pytest.raises(UnitarityError):
        MixMatrix2(t=float("nan"), r=0.0)


def test_two_mode_mix_rejects_a_nan_matrix():
    # a mixer built past MixMatrix2's own check
    u = object.__new__(MixMatrix2)
    object.__setattr__(u, "t", float("nan"))
    object.__setattr__(u, "r", 0.0)
    with pytest.raises(UnitarityError):
        two_mode_mix(basis_state(2, 3, {MODE_A: 1}), MODE_A, MODE_B, u)


@st.composite
def mix_matrices(draw):
    theta = draw(st.floats(0.0, math.pi / 2.0))
    alpha = draw(st.floats(0.0, 2.0 * math.pi))
    beta = draw(st.floats(0.0, 2.0 * math.pi))
    return MixMatrix2(
        t=math.cos(theta) * complex(math.cos(alpha), math.sin(alpha)),
        r=math.sin(theta) * complex(math.cos(beta), math.sin(beta)),
    )


@st.composite
def single_photon_states(draw):
    # normalized one-photon superposition over two k-modes
    x = draw(st.floats(-1.0, 1.0))
    y = draw(st.floats(-1.0, 1.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    norm = math.hypot(x, y)
    if norm < 1e-6:
        x, y, norm = 1.0, 0.0, 1.0
    amp_a = x / norm
    amp_b = (y / norm) * complex(math.cos(phase), math.sin(phase))
    amps = {}
    if amp_a != 0.0:
        amps[(1, 0, 0, 0)] = complex(amp_a)
    if amp_b != 0.0:
        amps[(0, 0, 1, 0)] = amp_b
    return FockState(2, 4, amps)


@given(u=mix_matrices(), s1=single_photon_states(), s2=single_photon_states())
@settings(deadline=None, max_examples=40)
def test_mix_preserves_inner_products(u, s1, s2):
    before = inner_product(s1, s2)
    after = inner_product(
        two_mode_mix(s1, MODE_A, MODE_B, u), two_mode_mix(s2, MODE_A, MODE_B, u)
    )
    assert abs(after - before) <= 1e-11


@given(u=mix_matrices(), s=single_photon_states())
@settings(deadline=None, max_examples=40)
def test_mix_conserves_photon_number(u, s):
    out = two_mode_mix(s, MODE_A, MODE_B, u)
    assert abs(total_number_expectation(out) - total_number_expectation(s)) <= 1e-12
    # single excitation cannot produce a joint double click
    assert all(occ[0] * occ[2] == 0 for occ in out.amplitudes)


def test_mode_phase_matches_number_eigenvalue():
    two = n_photon_state(MODE_A, 2, n_max=3)
    out = apply_mode_phase(two, MODE_A, 0.7)
    (occ, amp), = out.amplitudes.items()
    assert amp == pytest.approx(np.exp(1j * 1.4), abs=1e-14)


# ---- error branches ---------------------------------------------------------------

@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ModeIndex(helicity=+1, mode_id=-1), InvalidModeError, "mode_id must be non-negative"),
        (lambda: FockState(1, 2, {(0,): 1.0}), DimensionError, "wrong length"),
        (lambda: FockState(1, 2, {(3, 0): 1.0}), TruncationError, "violates 0..2"),
        (lambda: total_number_expectation(FockState(1, 2, {(0, 0): 2.0})), NormalizationError, "not normalized"),
        (lambda: two_mode_mix(vacuum(2, 2), MODE_A, MODE_A, MixMatrix2(1.0, 0.0)), InvalidModeError,
         "two distinct modes"),
        (lambda: commutator_residual(1), TruncationError, "n_max >= 2"),
    ],
    ids=["negative-mode-id", "occupation-wrong-length", "occupation-above-cutoff", "total-number-unnormalized",
         "mix-one-mode", "commutator-cutoff-too-low"],
)
def test_error_branches(call, error, match):
    with pytest.raises(error, match=match):
        call()
