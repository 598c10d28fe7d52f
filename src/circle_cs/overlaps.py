"""Analytic overlaps between coherent states, plus their quadrature check.

The overlap of two states splits into two Gaussian panel integrals once the
wrapped envelopes are unfolded on a common period: with u = n - m,
delta = (beta - alpha)/2 and s = (alpha + beta)/2, completing the square in
each panel gives (for labels in the canonical wedge 0 <= alpha <= beta <= pi)

    I1 = sqrt(pi) e^{-(pi-delta)^2} e^{-u^2/4} e^{i u (s-pi)} Re erf(delta + iu/2)
    I2 = sqrt(pi) e^{-delta^2}      e^{-u^2/4} e^{i u s}      Re erf(pi-delta + iu/2)

and  <m,alpha | n,beta> = A^2 (I1 + I2).  The A^2 prefactor and every sign
above were fixed by calibration against direct quadrature (docs/formulas.md
walks the derivation and lists the sign traps).

General label pairs reduce to the wedge by two exact moves: a rigid
rotation by -alpha, which multiplies the overlap by e^{i u alpha}, and
hermitian conjugation when the reduced separation is negative.  Both are
identities of the closed forms, not approximations.

overlap_quadrature() integrates conj(psi_a) psi_b directly with the
adaptive engine, splitting panels at each envelope kink; it is the
independent route the analytic path is tested against.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec, integrate
from .special import erf_complex
from .states import StateLabel, _amplitudes, normalization_constant, wrap_angle
from .tables import to_csv

_SQRT_PI = math.sqrt(math.pi)

# erf_complex is certified for |Im| <= 12, i.e. |dn| <= 24 in the panel
# forms; overlap() stops trusting the analytic route earlier, at 16.
_DN_ANALYTIC_MAX = 16
_DN_PANEL_MAX = 24

# Rounding bound reported for the analytic route: the erf evaluation is good
# to ~2e-16 relative and the assembly is a short product, so 1e-14 absolute
# is already conservative for overlaps bounded by 1.
_ANALYTIC_ERR = 1e-14


@dataclass(frozen=True)
class OverlapResult:
    value: complex
    method: str
    err_est: float

    def __post_init__(self):
        if self.method not in ("analytic", "quadrature"):
            raise DomainError(f"unknown overlap method {self.method!r}")
        if not (math.isfinite(self.err_est) and self.err_est >= 0.0):
            raise DomainError(f"err_est must be finite and >= 0, got {self.err_est}")
        object.__setattr__(self, "value", complex(self.value))
        if abs(self.value) > 1.0 + 1e-9:
            raise DomainError(
                f"overlap modulus {abs(self.value)} exceeds 1 beyond rounding"
            )


def _check_wedge(alpha: float, beta: float, dn) -> int:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError(f"non-finite angles ({alpha}, {beta})")
    if not 0.0 <= alpha <= beta <= math.pi:
        raise DomainError(
            f"angles must satisfy 0 <= alpha <= beta <= pi, got ({alpha}, {beta})"
        )
    if not isinstance(dn, numbers.Integral):
        raise DomainError(f"dn must be an integer, got {dn!r}")
    if abs(dn) > _DN_PANEL_MAX:
        raise DomainError(f"|dn| = {abs(dn)} beyond the erf box (max {_DN_PANEL_MAX})")
    return int(dn)


def overlap_I1(alpha: float, beta: float, dn: int) -> complex:
    """Panel integral across the seam, for 0 <= alpha <= beta <= pi.

    Vanishes identically when alpha == beta (the panel degenerates to a
    point: Re erf of a purely imaginary argument is zero).
    """
    u = _check_wedge(alpha, beta, dn)
    delta = 0.5 * (beta - alpha)
    s = 0.5 * (alpha + beta)
    return (
        _SQRT_PI
        * math.exp(-((math.pi - delta) ** 2))
        * math.exp(-0.25 * u * u)
        * cmath.exp(1j * u * (s - math.pi))
        * erf_complex(complex(delta, 0.5 * u)).real
    )


def overlap_I2(alpha: float, beta: float, dn: int) -> complex:
    """Panel integral away from the seam, for 0 <= alpha <= beta <= pi."""
    u = _check_wedge(alpha, beta, dn)
    delta = 0.5 * (beta - alpha)
    s = 0.5 * (alpha + beta)
    return (
        _SQRT_PI
        * math.exp(-(delta * delta))
        * math.exp(-0.25 * u * u)
        * cmath.exp(1j * u * s)
        * erf_complex(complex(math.pi - delta, 0.5 * u)).real
    )


def _wedge_value(beta: float, u: int) -> complex:
    a2 = normalization_constant() ** 2
    return a2 * (overlap_I1(0.0, beta, u) + overlap_I2(0.0, beta, u))


def overlap(a: StateLabel, b: StateLabel) -> OverlapResult:
    """<a|b> by the closed forms, reduced to the canonical wedge.

    Equal labels short-circuit to exactly 1.  Winding differences beyond
    |n - m| = 16 fall back to overlap_quadrature (the erf arguments would
    leave the certified box), flagged by the result's method field.
    """
    if a == b:
        return OverlapResult(1.0 + 0.0j, "analytic", 0.0)
    u = b.m - a.m
    if abs(u) > _DN_ANALYTIC_MAX:
        return overlap_quadrature(a, b)
    d = wrap_angle(b.alpha - a.alpha)
    if d >= 0.0:
        val = cmath.exp(1j * u * a.alpha) * _wedge_value(d, u)
    else:
        val = (
            cmath.exp(1j * u * a.alpha)
            * cmath.exp(1j * u * d)
            * _wedge_value(-d, -u).conjugate()
        )
    return OverlapResult(val, "analytic", _ANALYTIC_ERR)


def overlap_quadrature(
    a: StateLabel, b: StateLabel, spec: QuadratureSpec | None = None
) -> OverlapResult:
    """<a|b> by adaptive integration of conj(psi_a) psi_b over one period.

    The envelope of each state has a derivative kink at the point antipodal
    to its center; both kinks are declared as split points so every panel
    sees a smooth integrand.
    """
    if spec is None:
        spec = QuadratureSpec()
    seams = set(spec.split_points)
    for label in (a, b):
        seam = wrap_angle(label.alpha - math.pi)
        if -math.pi < seam < math.pi:
            seams.add(seam)
    spec = dataclasses.replace(spec, split_points=tuple(sorted(seams)))

    def f(phi: np.ndarray) -> np.ndarray:
        return np.conj(_amplitudes(a, phi)) * _amplitudes(b, phi)

    value, err = integrate(f, -math.pi, math.pi, spec)
    return OverlapResult(value, "quadrature", err)


def overlap_table_csv(entries) -> str:
    """Serialize (a, b, OverlapResult) triples to the flat overlap schema.

    Columns: m,alpha,n,beta,re,im,abs,method,err_est; 17 significant digits.
    """
    return to_csv([
        ("m", "alpha", "n", "beta", "re", "im", "abs", "method", "err_est"),
        *(
            (a.m, a.alpha, b.m, b.alpha, res.value.real, res.value.imag,
             abs(res.value), res.method, res.err_est)
            for a, b, res in entries
        ),
    ])
