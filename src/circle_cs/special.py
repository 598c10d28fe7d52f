"""Complex error function and the Faddeeva kernel w behind it.

The package's closed forms (overlap panels, window coefficients) share one
overflow-free helper, _scaled_re_erf, which evaluates e^{-t^2} Re erf(x + it)
through the kernel _faddeeva_upper; erf_complex is the public erf, certified
on the box |Re z|, |Im z| <= 12 and refusing anything outside.

Scheme
------
The argument is first reflected into the quadrant Re z >= 0, Im z >= 0 using
the exact symmetries

    erf(-z) = -erf(z),        erf(conj(z)) = conj(erf(z)),

applied in that order so both hold bit-for-bit on the output.  Inside the
disk |z| <= 3 the Maclaurin series

    erf(z) = (2/sqrt(pi)) * sum_k (-1)^k z^(2k+1) / (k! (2k+1))

is summed with 80-bit extended-precision arithmetic until the next term is
below 1e-22 relative.  Outside the disk,

    erf(z) = 1 - exp(-z^2) * w(iz),

where w is the scaled complement exp(-t^2) erfc(-it), evaluated by a 48-term
rational approximation on the (closed) upper half plane.  Its coefficients
come from tools/gen_faddeeva_coeffs.py and are frozen here as decimal
strings.  The one Horner recurrence takes its constants by the argument's
dtype: extended for a clongdouble (erf_complex, the window coefficients),
so the final rounding to double dominates the error there, and double for
a Python complex (the scalar overlap panels) or a complex128 array.

Accuracy, measured against a 50-digit reference over the box: worst relative
error 2.2e-16, on both sides of the |z| = 3 seam.  erf has isolated complex
zeros (the first at 2.2447 + 2.6166i); within ~1e-7 of such a zero the
*relative* error degrades toward ~1e-12 because the value itself vanishes,
while the absolute error stays at the 1e-16 scale.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_BOX = 12.0
_SERIES_RADIUS = 3.0

# 1/sqrt(pi), and the pole parameter and polynomial coefficients (constant
# term first) of the rational approximation of w on the upper half plane, as
# decimal strings; see tools/gen_faddeeva_coeffs.py for the construction and
# its validation.
_INV_SQRT_PI_DIGITS = "0.564189583547756286948079451560772585844050629328998856844086"
_L_DIGITS = "5.82590126048788104340464752989"
_W_DIGITS = (
    "3.19406458939507117448132077428",
    "2.93044989562375649410989536221",
    "2.53704848744469066350505770434",
    "2.0707599716742919656346298223",
    "1.59130846911780074250026702241",
    "1.14922046453977825973603773364",
    "0.778062419148422892591860896114",
    "0.492257023913990727765248621138",
    "0.289799890796048302773350056029",
    "0.157863304433804819700926582437",
    "0.0789558955347002302062152913115",
    "0.0358613699833767190502085726036",
    "0.0145468377922375575796163020453",
    "0.00512581354822586356244749987287",
    "0.00148649912519563570106052579222",
    "0.000307869136408866170213160704586",
    "0.0000175063163711463539248256716388",
    "-0.0000190544616189843066105647297782",
    "-0.00000947563824038513358394156398004",
    "-0.00000194456577893192626579776743006",
    "0.000000194943374833222604363030806868",
    "0.000000265494920170899255449846268164",
    "0.0000000692700063588718912082742714257",
    "-0.0000000063868099518349111015383718341",
    "-0.00000000959625475269032699826420339428",
    "-0.000000002015659975374729333287299431",
    "5.77528976557392893752765014797e-10",
    "3.87942106688395314697861793999e-10",
    "2.1621977623864712632860037216e-11",
    "-4.3865882662554395361664206671e-11",
    "-1.19354943287593509032941077273e-11",
    "3.4254258518412529323093102027e-12",
    "2.21549047261860459988657834927e-12",
    "-9.64327644643045517968569291203e-14",
    "-3.22684830738347819681126983642e-13",
    "-3.19394237431695781901723723791e-14",
    "4.23431046969193819451362723681e-14",
    "9.60484048271172407804590606712e-15",
    "-5.2979443451748263599638130724e-15",
    "-1.94266486063821696988112755156e-15",
    "6.55448101819189196047708376206e-16",
    "3.48391245515957750812025264246e-16",
    "-8.30426154989128723357083177169e-17",
    "-5.98058230629468166862354756686e-17",
    "1.12397210467117185326287530628e-17",
    "1.01436447680763844490369403696e-17",
    "-1.70024147037099191849763078481e-18",
    "-1.7229929424733809759784349582e-18",
)

# 1/sqrt(pi), L and the coefficients once per precision, chosen by the
# argument's dtype; a Python complex has no dtype and takes the double set.
_EXTENDED, _DOUBLE = (
    (real(_INV_SQRT_PI_DIGITS), real(_L_DIGITS), tuple(map(real, _W_DIGITS)))
    for real in (np.longdouble, float)
)
_BY_DTYPE = {np.dtype(np.clongdouble): _EXTENDED}


def _faddeeva_upper(zeta):
    """Scaled complement w(zeta) for Im(zeta) >= 0, in zeta's precision.

    Callers own the domain check.  A clongdouble, scalar or array, runs on
    the extended constants; a Python complex or a complex128 array runs on
    the double ones and keeps its type, a Python complex with no numpy call
    (numpy dispatch on a 0-d array would cost several times the arithmetic).
    """
    inv_sqrt_pi, ell, coeffs = _BY_DTYPE.get(getattr(zeta, "dtype", None), _DOUBLE)
    den = ell - 1j * zeta
    big_z = (ell + 1j * zeta) / den
    poly = 0j
    for c in reversed(coeffs):
        poly = poly * big_z + c
    return 2.0 * poly / (den * den) + inv_sqrt_pi / den


def _scaled_re_erf(x, t, phase, gauss):
    """e^{-t^2} Re erf(x + it) for a real float x >= 0 and t, scalar or ndarray.

    erf(z) = 1 - e^{-z^2} w(iz) with iz = -t + ix in the upper half plane
    gives e^{-t^2} - e^{-x^2} Re[e^{-2ixt} w(-t + ix)], whose terms are both
    bounded for every t.  The caller passes phase = e^{-2ixt} and
    gauss = e^{-t^2}, each exact where its closed form allows (a sign and
    e^{-p^2/2} from integer p, for the window coefficients).  w runs in the
    precision of -t + ix (docs/formulas.md, section 6): a float t gives a
    float, a longdouble t keeps w extended and callers round.  The double
    route is 7.4e-16 absolute, 2.7e-14 relative, at small x with |t| <= 1;
    the overlap panels are immune, a new caller at small x must check.
    """
    w = _faddeeva_upper(-t + 1j * x)
    return gauss - math.exp(-x * x) * (phase * w).real


def _erf_series(z: complex) -> complex:
    zl = np.clongdouble(z)
    z2 = zl * zl
    term = zl
    acc = np.clongdouble(0.0)
    k = 0
    while True:
        piece = term / (2 * k + 1)
        acc = acc + piece
        k += 1
        term = -term * z2 / k
        if abs(piece) < 1e-22 * abs(acc) or k > 200:
            break
    return complex(2.0 * _EXTENDED[0] * acc)


def _erf_outer(z: complex) -> complex:
    zl = np.clongdouble(z)
    val = 1.0 - np.exp(-zl * zl) * _faddeeva_upper(1j * zl)
    return complex(val)


def erf_complex(z) -> complex:
    """erf(z) for complex z inside the certified box |Re z|,|Im z| <= 12.

    Raises DomainError for non-finite input or input outside the box.
    Exactly odd, exactly symmetric under conjugation, and exactly real on
    the real axis.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"erf_complex: non-finite argument {z!r}")
    if abs(z.real) > _BOX or abs(z.imag) > _BOX:
        raise DomainError(
            f"erf_complex: {z!r} outside the certified box |Re|,|Im| <= {_BOX}"
        )

    # Reflect into the closed quadrant Re >= 0, Im >= 0.  Oddness first so
    # that the two symmetries commute on the axes.
    negate = z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0)
    if negate:
        z = -z
    conjugate = z.imag < 0.0
    if conjugate:
        z = z.conjugate()

    if abs(z) <= _SERIES_RADIUS:
        val = _erf_series(z)
    else:
        val = _erf_outer(z)
        if z.real == 0.0:
            # On the imaginary axis erf is purely imaginary; the series
            # branch preserves that through its arithmetic, this one needs
            # the residual real part dropped.
            val = complex(0.0, val.imag)

    if conjugate:
        val = val.conjugate()
    if negate:
        val = -val
    return val
