"""Independent reference computations used by the tests.

Everything here runs in mpmath at elevated precision and never touches the
package's own evaluators, so comparisons in the tests are genuinely
two-route.  Frozen literals sprinkled through the test files were produced
by these helpers (or by the generators in tools/) and then rounded to 17
significant digits.
"""

from __future__ import annotations

import mpmath as mp


def erf_maclaurin(z, dps: int = 50) -> complex:
    """erf by direct Maclaurin summation, terms added until below 1e-20.

    Deliberately primitive: no reflection, no asymptotics, just the series
    at high working precision.  Adequate for |z| <= 4, where the largest
    intermediate term is ~e^16 and 50 digits leave plenty of headroom.
    """
    with mp.workdps(dps):
        zz = mp.mpc(z)
        z2 = zz * zz
        term = zz
        acc = mp.mpc(0)
        k = 0
        while True:
            piece = term / (2 * k + 1)
            acc += piece
            k += 1
            term = -term * z2 / k
            if abs(piece) < mp.mpf("1e-20") and k > 4:
                break
            if k > 500:
                raise RuntimeError("series did not settle")
        return complex(2 / mp.sqrt(mp.pi) * acc)


def overlap_reference(m: int, alpha: float, n: int, beta: float, dps: int = 40) -> complex:
    """<m,alpha|n,beta> by direct mpmath quadrature of the wrapped integrand."""
    with mp.workdps(dps):
        a_const = 1 / mp.sqrt(mp.sqrt(mp.pi) * mp.erf(mp.pi))

        def wrap(x):
            y = mp.fmod(x + mp.pi, 2 * mp.pi)
            if y < 0:
                y += 2 * mp.pi
            return y - mp.pi

        def f(phi):
            da = wrap(phi - alpha)
            db = wrap(phi - beta)
            return mp.e ** (1j * (n - m) * phi) * mp.e ** (
                -(da * da) / 2 - (db * db) / 2
            )

        # Split at the envelope kinks so every panel is analytic.
        seams = (wrap(alpha - mp.pi), wrap(beta - mp.pi))
        interior = sorted({s for s in seams if -mp.pi < s < mp.pi})
        points = [-mp.pi, *interior, mp.pi]
        val = a_const**2 * mp.quad(f, points)
        return complex(val)


def window_coefficient_reference(p: int, dps: int = 50) -> float:
    """ghat_p = (1/2pi) int_{-pi}^{pi} e^{-w^2/2} cos(p w) dw by mpmath quadrature.

    The integrand is even, so this integrates [0, pi] and halves the
    prefactor, with one panel per half period of cos(p w) so every panel
    sees at most one sign change; the integrand is entire, so Gauss-Legendre
    converges on each panel.
    """
    p = abs(int(p))
    with mp.workdps(dps):
        points = [mp.pi * j / max(p, 1) for j in range(max(p, 1) + 1)]
        val = mp.quad(
            lambda w: mp.e ** (-(w * w) / 2) * mp.cos(p * w),
            points,
            method="gauss-legendre",
        )
        return float(val / mp.pi)
