import math
import re

import numpy as np
import pytest

from circle_cs import (
    DomainError,
    SampledWaveFunction,
    StateLabel,
    coherent_eval,
    fourier_coefficients,
    normalization_constant,
    phase_transform,
    sample_state,
    shift_transform,
    wrap_angle,
)
from circle_cs.states import named_vector

PI = math.pi


# ---------------------------------------------------------------------------
# wrap_angle
# ---------------------------------------------------------------------------


def test_wrap_examples():
    assert wrap_angle(PI) == -PI
    assert wrap_angle(-PI) == -PI
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(3 * PI / 2) - (-PI / 2)) <= 1e-15
    assert abs(wrap_angle(-3 * PI / 2) - (PI / 2)) <= 1e-15
    assert wrap_angle(0.5) == 0.5


def test_wrap_idempotent_bitwise():
    rng = np.random.default_rng(11)
    below = math.nextafter(-PI, -math.inf)
    values = list(rng.uniform(-50.0, 50.0, size=500)) + [1e6, -1e6, PI, -PI, 0.0, below]
    for x in values:
        once = wrap_angle(x)
        assert -PI <= once < PI
        assert wrap_angle(once) == once


@pytest.mark.parametrize(
    "bad",
    [
        float("nan"), float("inf"), -float("inf"), "0.5", "x", None, 1j, [1.0],
        pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400"),
    ],
)
def test_wrap_domain(bad):
    # only a finite numbers.Real is an angle, and an integer past the double
    # range is not finite; the message names the value
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        wrap_angle(bad)
    with pytest.raises(DomainError):
        StateLabel(0, bad)
    with pytest.raises(DomainError):
        coherent_eval(StateLabel(0, 0.0), bad)


# ---------------------------------------------------------------------------
# normalization and point evaluation
# ---------------------------------------------------------------------------


def test_normalization_value():
    a = normalization_constant()
    # 17-digit value from quadrature of the envelope at 30-digit precision
    assert abs(a - 0.75112887803727103) <= 1e-15
    # low-precision published rounding
    assert abs(a - 0.751128) <= 5e-6
    assert abs(a * a * math.sqrt(PI) * math.erf(PI) - 1.0) <= 1e-14


def test_normalization_cached():
    normalization_constant()
    before = normalization_constant.cache_info().hits
    normalization_constant()
    assert normalization_constant.cache_info().hits == before + 1


def test_label_canonicalizes():
    assert StateLabel(0, 3 * PI / 2).alpha == wrap_angle(3 * PI / 2)
    assert StateLabel(2, PI).alpha == -PI
    # one ulp below -pi wraps onto -pi, the same label as pi
    assert StateLabel(0, math.nextafter(-PI, -math.inf)) == StateLabel(0, PI)
    # adding whole turns is only float-exact up to the rounding of the sum
    assert abs(StateLabel(-1, 0.3 + 2 * PI * 3).alpha - 0.3) <= 1e-14
    with pytest.raises(DomainError):
        StateLabel(1.5, 0.0)
    with pytest.raises(DomainError):
        StateLabel(0, float("nan"))
    m = StateLabel(np.int64(-3), 0.0).m
    assert m == -3 and type(m) is int


def test_winding_bound():
    # |m| < 2^511 keeps m^2 and every gap's square (n - m)^2 in the double range
    edge = 2**511 - 1
    assert StateLabel(edge, 0.0).m == edge
    psi = sample_state(StateLabel(0, 0.0), 16)
    assert phase_transform(psi, -edge).n_grid == 16
    for m in (2**511, -(2**511), 2**1024):
        with pytest.raises(DomainError, match="winding number"):
            StateLabel(m, 0.0)
        with pytest.raises(DomainError, match="winding number"):
            phase_transform(psi, m)


def test_coherent_eval_values():
    a = normalization_constant()
    assert coherent_eval(StateLabel(0, 0.0), 0.0) == a + 0j
    # envelope three quarter turns from the center
    val = coherent_eval(StateLabel(0, PI / 2), -3 * PI / 4)
    assert abs(val - 0.046793813677419453) <= 1e-15
    # winding phase at a quarter turn
    val = coherent_eval(StateLabel(1, 0.0), PI / 2)
    assert abs(val - 1j * a * math.exp(-PI * PI / 8)) <= 1e-15
    vacuum = StateLabel(0, 0.0)
    assert abs(coherent_eval(vacuum, PI / 2) - 0.21873844379499023) <= 1e-15
    assert abs(coherent_eval(vacuum, -PI) - 0.0054020312760367817) <= 1e-17


def test_periodicity():
    label = StateLabel(3, 1.1)
    for phi in (-2.5, 0.0, 0.7, 3.0):
        assert abs(coherent_eval(label, phi + 2 * PI) - coherent_eval(label, phi)) <= 1e-14


def test_reflection_identities():
    # psi_{m,alpha}(phi) = psi_{-m,-alpha}(-phi): reflection without
    # conjugation; and conjugation alone flips only the winding.
    for m, alpha, phi in [(2, 0.7, 0.3), (-1, -1.2, 2.0), (3, 2.9, -1.4)]:
        lhs = coherent_eval(StateLabel(m, alpha), phi)
        rhs = coherent_eval(StateLabel(-m, -alpha), -phi)
        assert abs(lhs - rhs) <= 1e-15
        conj = coherent_eval(StateLabel(-m, alpha), phi)
        assert abs(lhs.conjugate() - conj) <= 1e-15


def test_continuous_at_period_boundary():
    # the wrapped envelope has no jump at phi = +-pi even for alpha != 0
    label = StateLabel(2, PI / 2)
    left = coherent_eval(label, PI - 1e-9)
    right = coherent_eval(label, -PI)
    assert abs(left - right) <= 1e-8


def test_kink_at_antipode():
    # |psi| has a derivative kink at wrap(alpha - pi) of magnitude
    # 2 pi A e^{-pi^2/2}; measure one-sided slopes numerically.
    alpha = PI / 2
    label = StateLabel(0, alpha)
    seam = wrap_angle(alpha - PI)
    eps = 1e-6
    lo = abs(coherent_eval(label, seam - eps))
    hi = abs(coherent_eval(label, seam + eps))
    at = abs(coherent_eval(label, seam))
    slope_left = (at - lo) / eps
    slope_right = (hi - at) / eps
    expected = 2 * PI * normalization_constant() * math.exp(-PI * PI / 2)
    assert abs((slope_right - slope_left) - expected) <= 1e-4


def test_eval_and_sample_share_one_formula():
    # coherent_eval and sample_state evaluate the same expression, so they
    # agree bit for bit at every grid point.
    rng = np.random.default_rng(23)
    n = 256
    for _ in range(50):
        label = StateLabel(int(rng.integers(-20, 21)), float(rng.uniform(-PI, PI)))
        psi = sample_state(label, n)
        for phi, z in zip(psi.grid(), psi.amplitudes):
            assert coherent_eval(label, phi) == z


def test_unwrapped_form_jump_magnitude():
    # The non-modular expression A e^{-(phi-alpha)^2/2} e^{i m phi} would
    # jump at the period boundary by A|e^{-(pi-alpha)^2/2}-e^{-(pi+alpha)^2/2}|;
    # pinned here as an identity about its one-sided limits.  The modular
    # form used by coherent_eval is continuous there (test above).
    alpha = PI / 2
    a = normalization_constant()
    gap = a * abs(
        math.exp(-((PI - alpha) ** 2) / 2) - math.exp(-((PI + alpha) ** 2) / 2)
    )
    assert abs(gap - 0.21872712994573189) <= 1e-12


# ---------------------------------------------------------------------------
# sampling and Fourier coefficients
# ---------------------------------------------------------------------------


def test_sampled_grid_layout():
    psi = sample_state(StateLabel(0, 0.0), 64)
    grid = psi.grid()
    assert grid[0] == -PI
    assert abs(grid[1] - grid[0] - 2 * PI / 64) <= 1e-15
    assert len(grid) == 64


def test_sampled_norm():
    for label in (StateLabel(0, 0.0), StateLabel(5, PI / 3)):
        psi = sample_state(label, 4096)
        assert abs(psi.norm_squared() - 1.0) <= 1e-9


def test_sample_validation():
    with pytest.raises(DomainError):
        sample_state(StateLabel(0, 0.0), 8)
    with pytest.raises(DomainError):
        sample_state(StateLabel(0, 0.0), 16.0)
    assert sample_state(StateLabel(0, 0.0), np.int32(16)).n_grid == 16
    with pytest.raises(DomainError):
        SampledWaveFunction(4, np.zeros(5, dtype=complex))
    with pytest.raises(DomainError):
        SampledWaveFunction(4.0, np.zeros(4, dtype=complex))
    n = SampledWaveFunction(np.int64(4), np.zeros(4, dtype=complex)).n_grid
    assert n == 4 and type(n) is int
    with pytest.raises(DomainError):
        SampledWaveFunction(4, np.array([1.0, 2.0, np.inf, 0.0]))
    with pytest.raises(DomainError):
        SampledWaveFunction(1, np.zeros(1, dtype=complex))
    # plane_wave_<k> needs |k| <= n_grid / 4
    with pytest.raises(DomainError):
        named_vector("plane_wave_5", 16)


def test_amplitudes_read_only():
    psi = sample_state(StateLabel(0, 0.0), 32)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_fourier_plane_wave():
    n = 256
    phi = -PI + np.arange(n) * (2 * PI / n)
    psi = SampledWaveFunction(n, np.exp(1j * 5 * phi) / math.sqrt(2 * PI))
    coeffs = fourier_coefficients(psi, 8)
    ns = np.arange(-8, 9)
    peak = coeffs[ns == 5][0]
    assert abs(peak - 1 / math.sqrt(2 * PI)) <= 1e-14
    assert np.all(np.abs(coeffs[ns != 5]) <= 1e-14)


def test_fourier_vacuum_symmetric():
    psi = sample_state(StateLabel(0, 0.0), 1024)
    coeffs = fourier_coefficients(psi, 20)
    assert np.max(np.abs(coeffs.imag)) <= 1e-15
    assert np.max(np.abs(coeffs - coeffs[::-1])) <= 1e-15


def test_fourier_winding_peak():
    psi = sample_state(StateLabel(3, 0.0), 512)
    coeffs = fourier_coefficients(psi, 10)
    assert np.argmax(np.abs(coeffs)) == 13  # n = +3


def test_fourier_parseval():
    psi = sample_state(StateLabel(0, 0.0), 4096)
    coeffs = fourier_coefficients(psi, 60)
    assert abs(2 * PI * np.sum(np.abs(coeffs) ** 2) - psi.norm_squared()) <= 1e-9


def test_fourier_validation():
    psi = sample_state(StateLabel(0, 0.0), 64)
    with pytest.raises(DomainError):
        fourier_coefficients(psi, -1)
    with pytest.raises(DomainError):
        fourier_coefficients(psi, 17)  # 64 < 4*17
    with pytest.raises(DomainError):
        fourier_coefficients(psi, 2.0)
    assert np.array_equal(fourier_coefficients(psi, np.int64(2)), fourier_coefficients(psi, 2))


# ---------------------------------------------------------------------------
# grid transforms
# ---------------------------------------------------------------------------


def test_phase_transform_pointwise():
    psi = sample_state(StateLabel(0, 0.0), 64)
    shifted = phase_transform(psi, 2)
    ref = psi.amplitudes * np.exp(2j * psi.grid())
    assert np.max(np.abs(shifted.amplitudes - ref)) == 0.0
    with pytest.raises(DomainError):
        phase_transform(psi, 1.5)
    assert np.array_equal(phase_transform(psi, np.int64(2)).amplitudes, shifted.amplitudes)


def test_shift_transform_matches_resampling():
    n = 256
    psi = sample_state(StateLabel(0, 0.0), n)
    rolled = shift_transform(psi, PI / 2)
    direct = sample_state(StateLabel(0, PI / 2), n)
    assert np.max(np.abs(rolled.amplitudes - direct.amplitudes)) <= 1e-14


def test_shift_requires_grid_alignment():
    psi = sample_state(StateLabel(0, 0.0), 256)
    for alpha in (0.1, math.nan, math.inf, -math.inf, "0.39269908169872414", None, 1j):
        with pytest.raises(DomainError):
            shift_transform(psi, alpha)


def test_weyl_commutation_single_pair():
    # winding-after-shift carries e^{i m alpha} relative to shift-after-winding:
    # the rotation displaces exactly that phase out of the winding factor
    n, m, alpha = 256, 2, PI / 4
    psi = sample_state(StateLabel(0, 0.0), n)
    wound_then_shifted = shift_transform(phase_transform(psi, m), alpha).amplitudes
    shifted_then_wound = phase_transform(shift_transform(psi, alpha), m).amplitudes
    ratio = shifted_then_wound / wound_then_shifted
    assert np.max(np.abs(ratio - np.exp(1j * m * alpha))) <= 1e-10
