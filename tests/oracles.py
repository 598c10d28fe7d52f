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
    """<m,alpha|n,beta> by direct mpmath quadrature of the wrapped integrand.

    The period is cut into max(|n - m|, 8) equal panels, so each spans at
    most one oscillation of e^{i(n-m)phi}, and cut again at the two envelope
    kinks.  On each panel both envelopes are plain Gaussians about fixed
    (unwrapped) centers, the integrand is entire, and a 16-node
    Gauss-Legendre rule matches mp.quad's adaptive one to 2e-30.  Without
    the period panels the quadrature returned |<0,0|300,0>| = 8.4e-9
    against the true 4.07e-9.
    """
    u = n - m
    with mp.workdps(dps):
        two_pi = 2 * mp.pi
        nodes, weights = mp.gauss_quadrature(16, "legendre")

        def wrap(x):
            y = mp.fmod(x + mp.pi, two_pi)
            if y < 0:
                y += two_pi
            return y - mp.pi

        panels = max(abs(u), 8)
        grid = [-mp.pi + two_pi * j / panels for j in range(panels + 1)]
        seams = (wrap(alpha - mp.pi), wrap(beta - mp.pi))
        points = sorted(set(grid) | {s for s in seams if -mp.pi < s < mp.pi})
        total = mp.mpc(0)
        for lo, hi in zip(points, points[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            ca = mid - wrap(mid - alpha)
            cb = mid - wrap(mid - beta)
            for t, wt in zip(nodes, weights):
                phi = mid + half * t
                total += half * wt * mp.exp(
                    mp.mpc(-((phi - ca) ** 2 + (phi - cb) ** 2) / 2, u * phi)
                )
        return complex(total / (mp.sqrt(mp.pi) * mp.erf(mp.pi)))


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


def scaled_re_erf_reference(x: float, t: float, dps: int = 60) -> float:
    """e^{-t^2} Re erf(x + it) straight from mp.erf at dps digits.

    No scaling trick: erf(x + it) is formed at its full size, up to
    e^{t^2} (mpmath's exponent range is unbounded), and multiplied back.
    """
    with mp.workdps(dps):
        return float(mp.exp(-mp.mpf(t) ** 2) * mp.re(mp.erf(mp.mpc(x, t))))
