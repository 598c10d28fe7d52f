"""Regenerate the Gauss 7 / Kronrod 15 tables embedded in quadrature.py.

Everything is derived, nothing copied: the Gauss nodes are the roots of the
Legendre polynomial P7; the seven new Kronrod nodes are the roots of the
degree-8 Stieltjes polynomial E8 fixed by the orthogonality conditions

    int_{-1}^{1} E8(x) P7(x) x^k dx = 0,   k = 0..7

(only odd k constrain anything, E8 is even); weights solve the interpolatory
moment systems.  All arithmetic at 60 digits, and the run validates the rule
by degree exactness before printing: G7 must integrate every monomial
through degree 13 exactly, K15 through degree 22, with visible failure at
degree 14 / 24 respectively.

Requires mpmath.  Output format matches the tuples in quadrature.py.
"""

import mpmath as mp

DPS = 60


def legendre_coeffs(n):
    """Ascending coefficients of P_n."""
    return [mp.mpf(c) for c in mp.taylor(lambda x: mp.legendre(n, x), 0, n)]


def moment(k):
    return mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)


@mp.workdps(DPS)
def main():
    p7 = legendre_coeffs(7)

    # E8(x) = x^8 + c6 x^6 + c4 x^4 + c2 x^2 + c0; solve the odd-k conditions.
    rows, rhs = [], []
    for k in (1, 3, 5, 7):
        rows.append(
            [
                sum(p7[j] * moment(j + deg + k) for j in range(8))
                for deg in (6, 4, 2, 0)
            ]
        )
        rhs.append(-sum(p7[j] * moment(j + 8 + k) for j in range(8)))
    c6, c4, c2, c0 = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))

    # Roots of E8 through the quartic in y = x^2.
    yroots = mp.polyroots([mp.mpf(1), c6, c4, c2, c0], maxsteps=200, extraprec=120)
    assert all(abs(mp.im(y)) < mp.mpf("1e-50") for y in yroots)
    kron_new = sorted(mp.sqrt(mp.re(y)) for y in yroots)

    groots = mp.polyroots(list(reversed(p7)), maxsteps=200, extraprec=120)
    gauss_pos = sorted(mp.re(r) for r in groots if mp.re(r) > mp.mpf("1e-30"))

    def p7prime(x):
        return sum(j * p7[j] * x ** (j - 1) for j in range(1, 8))

    gauss_weight = {
        x: 2 / ((1 - x**2) * p7prime(x) ** 2) for x in gauss_pos + [mp.mpf(0)]
    }

    nodes = sorted(
        {mp.mpf(0)}
        | set(gauss_pos)
        | {-x for x in gauss_pos}
        | set(kron_new)
        | {-x for x in kron_new}
    )
    assert len(nodes) == 15

    vand = mp.matrix(15, 15)
    for i in range(15):
        for j in range(15):
            vand[i, j] = nodes[j] ** i
    kron_weights = mp.lu_solve(vand, mp.matrix([moment(i) for i in range(15)]))

    def rule_err(xs, ws, deg):
        return abs(sum(w * x**deg for x, w in zip(xs, ws)) - moment(deg))

    gauss_all = sorted([mp.mpf(0)] + gauss_pos + [-x for x in gauss_pos])
    gauss_ws = [gauss_weight[abs(x)] for x in gauss_all]
    kron_ws = [kron_weights[i] for i in range(15)]

    print("G7  max err deg<=13:", mp.nstr(max(rule_err(gauss_all, gauss_ws, d) for d in range(14)), 3))
    print("G7  err at deg 14  :", mp.nstr(rule_err(gauss_all, gauss_ws, 14), 3))
    print("K15 max err deg<=22:", mp.nstr(max(rule_err(nodes, kron_ws, d) for d in range(23)), 3))
    print("K15 err at deg 24  :", mp.nstr(rule_err(nodes, kron_ws, 24), 3))
    print("sum K15 weights - 2:", mp.nstr(sum(kron_ws) - 2, 3))
    print("all K15 weights > 0:", all(w > 0 for w in kron_ws))

    by_node = dict(zip(nodes, kron_ws))
    print("\n# positive Kronrod nodes (descending) with K15 weights")
    for x in sorted((n for n in nodes if n >= 0), reverse=True):
        print(f'    ("{mp.nstr(x, 25)}", "{mp.nstr(by_node[x], 25)}"),')
    print("\n# G7 weights for the positive Gauss nodes (descending)")
    for x in sorted(gauss_pos, reverse=True) + [mp.mpf(0)]:
        print(f'    ("{mp.nstr(x, 25)}", "{mp.nstr(gauss_weight[x], 25)}"),')


if __name__ == "__main__":
    main()
