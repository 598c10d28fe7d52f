"""Analytic overlaps between coherent states, plus their quadrature check.

The overlap of two states splits into two Gaussian panel integrals once the
wrapped envelopes are unfolded on a common period: with u = n - m,
delta = (beta - alpha)/2 and s = (alpha + beta)/2, completing the square in
each panel gives (for labels in the canonical wedge 0 <= alpha <= beta <= pi)

    I1 = sqrt(pi) e^{-(pi-delta)^2} e^{-u^2/4} e^{i u (s-pi)} Re erf(delta + iu/2)
    I2 = sqrt(pi) e^{-delta^2}      e^{-u^2/4} e^{i u s}      Re erf(pi-delta + iu/2)

and  <m,alpha | n,beta> = A^2 (I1 + I2).  The A^2 prefactor and every sign
above were fixed by calibration against direct quadrature (docs/formulas.md
walks the derivation and lists the sign traps).  Both panels are one
function, _panel, which takes e^{-u^2/4} Re erf from special._scaled_re_erf,
the overflow-free helper the window coefficients share, for every u.

General label pairs reduce to alpha = 0 by one exact move, a rigid
rotation by -alpha, which multiplies the overlap by e^{i u alpha}.  The
separation d = wrap(beta - alpha) keeps its sign: the panels take |d|/2
in their erf arguments and Gaussians and d/2 in their phases.

overlap_quadrature() integrates conj(psi_a) psi_b directly with the
adaptive engine, splitting panels at each envelope kink; it is the
independent route the analytic path is tested against.  The product is
written out, A^2 e^{i u phi} e^{-(d_a^2 + d_b^2)/2} with d = wrap(phi -
alpha) of each state, so each abscissa costs one complex and one real
exponential.  Both routes return an OverlapResult, a value and its error
estimate.  overlap_quadrature_table() runs a whole list of pairs through
one engine run, row for row the same.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec
from .special import _scaled_re_erf
from .states import (
    StateLabel,
    _integrate_period,
    _label_arrays,
    _wrap_array,
    normalization_constant,
    wrap_angle,
)
from .tables import to_csv

_SQRT_PI = math.sqrt(math.pi)

# Rounding bound reported for the analytic route: the scaled erf takes w's
# double route here and is good to a few 1e-16 absolute, worst at small x,
# where the panel's e^{-y^2} <= e^{-pi^2/4} damps it; the assembly is a
# short product (measured <= 2.3e-16 against 40-digit references, the same
# as with extended w).  When beta - alpha leaves [-pi, pi), wrap_angle's
# double arithmetic moves the separation by up to ~7e-16, and such pairs
# measure up to 5.6e-16 (4.0e-16 at (6, -2.196350087088389) ->
# (5, 2.7722884364884512)), so 1e-14 is conservative.
_ANALYTIC_ERR = 1e-14


@dataclass(frozen=True)
class OverlapResult:
    value: complex
    err_est: float

    def __post_init__(self):
        if not (math.isfinite(self.err_est) and self.err_est >= 0.0):
            raise DomainError(f"err_est must be finite and >= 0, got {self.err_est}")
        object.__setattr__(self, "value", complex(self.value))
        if abs(self.value) > 1.0 + 1e-9:
            raise DomainError(
                f"overlap modulus {abs(self.value)} exceeds 1 beyond rounding"
            )


def _check_wedge(alpha: float, beta: float, dn) -> tuple:
    """(u, delta, s) of a pair in the canonical wedge, else DomainError."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"non-finite angles ({alpha}, {beta})")
    if not 0.0 <= alpha <= beta <= math.pi:
        raise DomainError(
            f"angles must satisfy 0 <= alpha <= beta <= pi, got ({alpha}, {beta})"
        )
    if not isinstance(dn, numbers.Integral):
        raise DomainError(f"dn must be an integer, got {dn!r}")
    return int(dn), 0.5 * (beta - alpha), 0.5 * (alpha + beta)


def _panel(x: float, y: float, u: int, c: float) -> complex:
    """sqrt(pi) e^{-y^2} e^{iuc} e^{-u^2/4} Re erf(x + iu/2), the shape of both
    panels; exactly 0 at x = 0, where the erf argument is purely imaginary.
    """
    gauss = math.exp(-0.25 * u * u)
    scaled = 0.0 if x == 0.0 else _scaled_re_erf(x, 0.5 * u, cmath.exp(-1j * x * u), gauss)
    return _SQRT_PI * math.exp(-y * y) * cmath.exp(1j * u * c) * scaled


def overlap_I1(alpha: float, beta: float, dn: int) -> complex:
    """Panel integral across the seam, for 0 <= alpha <= beta <= pi.

    Vanishes identically when alpha == beta (the panel degenerates to a
    point: Re erf of a purely imaginary argument is zero).
    """
    u, delta, s = _check_wedge(alpha, beta, dn)
    return _panel(delta, math.pi - delta, u, s - math.pi)


def overlap_I2(alpha: float, beta: float, dn: int) -> complex:
    """Panel integral away from the seam, for 0 <= alpha <= beta <= pi."""
    u, delta, s = _check_wedge(alpha, beta, dn)
    return _panel(math.pi - delta, delta, u, s)


def _wedge_value(d: float, u: int) -> complex:
    """A^2 (I1 + I2) at alpha = 0, for a signed separation d in [-pi, pi)."""
    h = 0.5 * d
    g = abs(h)
    return normalization_constant() ** 2 * (
        _panel(g, math.pi - g, u, h - math.pi) + _panel(math.pi - g, g, u, h)
    )


def overlap(a: StateLabel, b: StateLabel) -> OverlapResult:
    """<a|b> by the closed forms, reduced to alpha = 0 by rotation.

    Equal labels short-circuit to exactly 1.  Any winding difference
    |n - m| takes the same path.
    """
    if a == b:
        return OverlapResult(1.0 + 0.0j, 0.0)
    u = b.m - a.m
    val = cmath.exp(1j * u * a.alpha) * _wedge_value(wrap_angle(b.alpha - a.alpha), u)
    return OverlapResult(val, _ANALYTIC_ERR)


def overlap_quadrature(
    a: StateLabel, b: StateLabel, spec: QuadratureSpec | None = None
) -> OverlapResult:
    """<a|b> by adaptive integration of conj(psi_a) psi_b over one period.

    The envelope of each state has a derivative kink at the point antipodal
    to its center; both kinks are declared as split points so every panel
    sees a smooth integrand.
    """
    return overlap_quadrature_table([(a, b)], spec)[0]


def overlap_quadrature_table(pairs, spec: QuadratureSpec | None = None) -> list:
    """overlap_quadrature of every (a, b) pair, in one engine run.

    The integrand is conj(psi_a) psi_b written out as A^2 e^{i(n - m) phi}
    e^{-(d_a^2 + d_b^2)/2}, d = wrap(phi - alpha) of each state.  Each
    result is bit for bit the one overlap_quadrature gives alone.  A pair
    that misses the tolerance raises ToleranceNotMet, whose .row is its
    index in pairs.
    """
    m_a, alpha_a = _label_arrays([a for a, _ in pairs])
    m_b, alpha_b = _label_arrays([b for _, b in pairs])
    u = m_b - m_a
    a2 = normalization_constant() ** 2

    def f(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        d_a = _wrap_array(phi - alpha_a[rows])
        d_b = _wrap_array(phi - alpha_b[rows])
        envelope = a2 * np.exp(-0.5 * (d_a * d_a + d_b * d_b))
        return envelope * np.exp(1j * (u[rows] * phi))

    values, errs = _integrate_period(f, spec, pairs)
    return [OverlapResult(v, e) for v, e in zip(values.tolist(), errs.tolist())]


def overlap_table_csv(entries) -> str:
    """Serialize (a, b, OverlapResult) triples to the flat overlap schema.

    Columns: m,alpha,n,beta,re,im,abs,err_est; 17 significant digits.
    """
    return to_csv([
        ("m", "alpha", "n", "beta", "re", "im", "abs", "err_est"),
        *(
            (a.m, a.alpha, b.m, b.alpha, res.value.real, res.value.imag,
             abs(res.value), res.err_est)
            for a, b, res in entries
        ),
    ])
