"""Regenerate the rational-approximation coefficients in special.py.

The scaled complement w(z) = e^{-z^2} erfc(-iz) is approximated on the
upper half plane by the classical tangent-substitution construction: with
L = sqrt(N/sqrt 2), the function f(theta) = e^{-t^2} (L^2 + t^2) under
t = L tan(theta/2) is periodic and analytic, so its Fourier cosine
coefficients a_n decay geometrically, and

    w(z) ~ 2/(L-iz)^2 * sum_{n=1..N} a_n Z^{n-1} + (1/sqrt(pi))/(L-iz),
    Z = (L+iz)/(L-iz).

The DFT runs at 50 digits; N = 48 puts the coefficient tail near 1e-18,
which together with 80-bit evaluation arithmetic leaves the final rounding
to double as the dominant error (measured ~1e-16 on an upper-half grid).

Requires mpmath.  Prints L and the 48 coefficients at 30 digits in the
order special.py embeds them, then maps the achieved w accuracy with the
recurrence run in double-extended and in plain double arithmetic, on a
coarse grid over the kernel's range and on a fine patch near the origin,
where the double route is worst.
"""

import mpmath as mp

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

    # Accuracy map: evaluate the rational form in double-extended, as
    # special.py does for numpy arguments, and in plain doubles, as it does
    # for Python complex ones, and compare both against mpmath on an
    # upper-half-plane grid.
    import numpy as np

    digits = [mp.nstr(c, 25) for c in coefs]
    ld = np.clongdouble(mp.nstr(ell, 25))
    a = [np.longdouble(s) for s in digits]
    inv_sqrt_pi_digits = "0.564189583547756286948079451560772585844050629328998856844086"
    inv_sqrt_pi = np.longdouble(inv_sqrt_pi_digits)
    ell_d = float(mp.nstr(ell, 25))
    a_d = [float(s) for s in digits]
    inv_sqrt_pi_d = float(inv_sqrt_pi_digits)

    def w_rational(zeta):
        zl = np.clongdouble(zeta)
        den = ld - 1j * zl
        big_z = (ld + 1j * zl) / den
        poly = np.clongdouble(a[-1])
        for c in a[-2::-1]:
            poly = poly * big_z + c
        return 2 * poly / (den * den) + inv_sqrt_pi / den

    def w_rational_double(zeta):
        den = ell_d - 1j * zeta
        big_z = (ell_d + 1j * zeta) / den
        poly = a_d[-1] + 0j
        for c in a_d[-2::-1]:
            poly = poly * big_z + c
        return 2 * poly / (den * den) + inv_sqrt_pi_d / den

    def worst_errors(res, ims):
        worst = {"extended": (0.0, None), "double": (0.0, None)}
        for re in res:
            for im in ims:
                zeta = complex(re, im)
                ref = complex(w_reference(zeta))
                for name, got in (
                    ("extended", complex(w_rational(zeta))),
                    ("double", w_rational_double(zeta)),
                ):
                    rel = abs(got - ref) / abs(ref)
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
