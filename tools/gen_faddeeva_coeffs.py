"""Regenerate the rational-approximation coefficients in special.py.

The scaled complement w(z) = e^{-z^2} erfc(-iz) is approximated on the
upper half plane by the classical tangent-substitution construction: with
L = sqrt(N/sqrt 2), the function f(theta) = e^{-t^2} (L^2 + t^2) under
t = L tan(theta/2) is periodic and analytic, so its Fourier cosine
coefficients a_n decay geometrically, and

    w(z) ~ 2/(L-iz)^2 * sum_{n=1..N} a_n Z^{n-1} + (1/sqrt(pi))/(L-iz),
    Z = (L+iz)/(L-iz).

The DFT runs at 50 digits; N = 48 puts the coefficient tail near 1e-18,
so with 80-bit evaluation arithmetic the final rounding to double is the
dominant error of the extended route.

Requires mpmath, and circle_cs importable (`pip install -e .` or
`PYTHONPATH=src`).  Prints L and the 48 coefficients at 30 digits in the
order special.py embeds them, then maps the accuracy of the kernel that
ships, special._faddeeva_upper, on a clongdouble argument (extended route)
and on a Python complex (double route), on a coarse grid over the kernel's
range and on a fine patch near the origin, where the double route is worst.
"""

import mpmath as mp
import numpy as np

from circle_cs import special

N = 48
DPS = 50


def weideman_coeffs(n_terms, dps):
    with mp.workdps(dps):
        m = 2 * n_terms
        m2 = 2 * m
        ell = mp.sqrt(n_terms / mp.sqrt(2))
        samples = [mp.mpf(0)]  # f(-pi) = 0
        for j in range(1, m2):
            theta = -mp.pi + mp.pi * j / m
            t = ell * mp.tan(theta / 2)
            samples.append(mp.e ** (-(t**2)) * (ell * ell + t * t))
        shifted = samples[m:] + samples[:m]  # index 0 <-> theta = 0
        coefs = []
        for n in range(1, n_terms + 1):
            acc = mp.mpc(0)
            for j in range(m2):
                acc += shifted[j] * mp.e ** (-2 * mp.pi * 1j * n * j / m2)
            coefs.append(mp.re(acc) / m2)
        return ell, coefs


def w_reference(zeta):
    return mp.e ** (-mp.mpc(zeta) ** 2) * mp.erfc(-1j * mp.mpc(zeta))


def main():
    ell, coefs = weideman_coeffs(N, DPS)
    print(f"L = {mp.nstr(ell, 30)}")
    for c in coefs:
        print(f'    "{mp.nstr(c, 30)}",')

    # Accuracy map: the shipped kernel in each precision against mpmath on
    # the upper half plane.  Every caller rounds w's result to double, so
    # both results are compared, rounded, with w rounded to double.
    def worst_errors(res, ims):
        worst = {"extended": (0.0, None), "double": (0.0, None)}
        for re in res:
            for im in ims:
                zeta = complex(re, im)
                ref = complex(w_reference(zeta))
                for name, arg in (("extended", np.clongdouble(zeta)), ("double", zeta)):
                    rel = abs(complex(special._faddeeva_upper(arg)) - ref) / abs(ref)
                    if rel > worst[name][0]:
                        worst[name] = (rel, zeta)
        return worst

    # The 0.5-step grid spans the kernel's range.  Near the origin
    # Z = (L + iz)/(L - iz) is close to 1 and the 48 terms add in phase, so
    # the double route's rounding peaks there; a 0.01 x 0.05 patch finds it.
    with mp.workdps(30):
        regions = (
            ("on the grid", worst_errors(np.linspace(-17, 17, 69), np.linspace(0, 17, 35))),
            ("near the origin", worst_errors(np.linspace(-0.6, 0.6, 121), np.linspace(0, 0.6, 13))),
        )
    print()
    for region, worst in regions:
        for name, (rel, where) in worst.items():
            print(f"worst relative w error {region}, {name}: {rel:.3e} at {where}")


if __name__ == "__main__":
    main()
