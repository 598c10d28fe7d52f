import cmath
import math

import numpy as np
import pytest

from circle_cs import DomainError, erf_complex
from circle_cs.special import _faddeeva_upper, _scaled_re_erf

from oracles import erf_maclaurin, scaled_re_erf_reference

# Complex zeros of erf in the first quadrant, nearest three; relative error
# is ill-conditioned within ~1e-7 of these (absolute error is not).
_ERF_ZEROS = (
    2.2446592738 + 2.6165751407j,
    2.8397410469 + 3.1756280996j,
    3.3354607354 + 3.6461743764j,
)


def _far_from_zeros(z: complex, radius: float = 1e-2) -> bool:
    for z0 in _ERF_ZEROS:
        for w in (z0, -z0, z0.conjugate(), -z0.conjugate()):
            if abs(z - w) < radius:
                return False
    return True


def _sample_disk(rng, count, radius):
    out = []
    while len(out) < count:
        z = complex(*rng.uniform(-radius, radius, size=2))
        if abs(z) <= radius and _far_from_zeros(z):
            out.append(z)
    return out


def test_frozen_values():
    assert erf_complex(0.0) == 0.0
    assert abs(erf_complex(1.0) - 0.84270079294971487) <= 1e-15
    assert abs(erf_complex(1j).imag - 1.6504257587975429) <= 1e-15
    assert erf_complex(1j).real == 0.0
    # one deep-box point per branch
    assert abs(erf_complex(0.5 + 0.5j) - erf_maclaurin(0.5 + 0.5j)) <= 1e-15
    ref = erf_maclaurin(2 + 3j)
    assert abs(erf_complex(2 + 3j) - ref) / abs(ref) <= 1e-13


def test_real_axis_exact():
    for x in np.linspace(-11.5, 11.5, 47):
        val = erf_complex(float(x))
        assert val.imag == 0.0
        assert abs(val.real - math.erf(float(x))) <= 1e-14


def test_imaginary_axis_exact():
    for y in np.linspace(-11.5, 11.5, 47):
        if y == 0.0:
            continue
        val = erf_complex(complex(0.0, float(y)))
        assert val.real == 0.0
        mirrored = erf_complex(complex(0.0, -float(y)))
        assert mirrored == -val
    # small-|z| branch against the reference
    ref = erf_maclaurin(2.5j)
    assert abs(erf_complex(2.5j).imag - ref.imag) / abs(ref) <= 1e-13


def test_symmetries_bitwise():
    rng = np.random.default_rng(20240817)
    for _ in range(500):
        z = complex(*rng.uniform(-12, 12, size=2))
        val = erf_complex(z)
        assert erf_complex(-z) == -val
        assert erf_complex(z.conjugate()) == val.conjugate()


def test_against_series_oracle():
    rng = np.random.default_rng(7151)
    for z in _sample_disk(rng, 300, 4.0):
        ref = erf_maclaurin(z)
        got = erf_complex(z)
        scale = max(abs(ref), 1e-300)
        assert abs(got - ref) / scale <= 1e-12, z


def test_branch_seam_continuity():
    # Points straddling the |z| = 3 switch between the series and the
    # scaled-complement route must agree with the reference on both sides.
    rng = np.random.default_rng(99)
    for _ in range(40):
        theta = rng.uniform(0, 2 * math.pi)
        for r in (3.0 - 1e-9, 3.0 + 1e-9):
            z = r * cmath.exp(1j * theta)
            ref = erf_maclaurin(z)
            assert abs(erf_complex(z) - ref) / abs(ref) <= 1e-12


def test_box_corner_is_inside():
    val = erf_complex(12 + 12j)
    assert math.isfinite(val.real) and math.isfinite(val.imag)


def test_kernel_runs_in_its_arguments_precision():
    # A Python complex stays a Python complex end to end (no numpy call on
    # the scalar overlap route), a complex128 array stays complex128, and a
    # clongdouble, scalar or array, stays extended.
    assert type(_faddeeva_upper(complex(-1.5, 0.7))) is complex
    assert type(_scaled_re_erf(0.7, -1.5, cmath.exp(2.1j), math.exp(-2.25))) is float
    assert _faddeeva_upper(np.array([-1.5 + 0.7j, 0.3j])).dtype == np.complex128
    assert type(_faddeeva_upper(np.clongdouble(-1.5 + 0.7j))) is np.clongdouble
    p = np.arange(3)
    t = p / np.sqrt(np.longdouble(2.0))
    assert _scaled_re_erf(1.0, t, 1.0, np.exp(-0.5 * p * p)).dtype == np.longdouble


def test_scaled_re_erf_against_mpmath():
    # The overlap panels' arguments: x in [0, pi], t = u/2 for winding gaps
    # |u| <= 16 and, log-uniformly, up to 1e5, with the phase formed as the
    # panels form it, and e^{-t^2} passed as the callers pass it.  Measured
    # worst absolute error on these points: 2.8e-16 for floats (double w),
    # 1.1e-16 for a longdouble t with a float x, as the window coefficients
    # call it (extended w).
    rng = np.random.default_rng(2026)
    for i in range(300):
        x = float(rng.uniform(0.0, math.pi))
        if i % 2:
            u = int(rng.integers(-16, 17))
        else:
            u = int(rng.choice((-1, 1))) * int(round(10 ** rng.uniform(0.0, 5.0)))
        phase = cmath.exp(-1j * x * u)
        ref = scaled_re_erf_reference(x, 0.5 * u)
        gauss = math.exp(-0.25 * u * u)
        assert abs(_scaled_re_erf(x, 0.5 * u, phase, gauss) - ref) <= 5e-16, (x, u)
        ext = _scaled_re_erf(x, np.longdouble(0.5 * u), phase, gauss)
        assert abs(float(ext) - ref) <= 2e-16, (x, u)


@pytest.mark.parametrize(
    "bad",
    [
        float("nan"),
        float("inf"),
        complex(0, float("inf")),
        12.0001,
        -12.5,
        5 + 12.0001j,
        complex(float("nan"), 1.0),
    ],
)
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        erf_complex(bad)
