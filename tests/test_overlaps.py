import cmath
import math

import numpy as np
import pytest

from circle_cs import (
    DomainError,
    OverlapResult,
    QuadratureSpec,
    StateLabel,
    integrate,
    normalization_constant,
    overlap,
    overlap_I1,
    overlap_I2,
    overlap_quadrature,
    overlap_table_csv,
)

from oracles import overlap_reference

PI = math.pi


def _raw_I1(alpha, beta, dn):
    """Direct quadrature of the seam panel on [alpha-pi, beta-pi]."""

    def f(phi):
        return (
            np.exp(1j * dn * phi)
            * np.exp(-((phi - alpha) ** 2) / 2)
            * np.exp(-((phi - beta + 2 * PI) ** 2) / 2)
        )

    value, _ = integrate(f, alpha - PI, beta - PI)
    return value


def _raw_I2(alpha, beta, dn):
    """Direct quadrature of the main panel on [beta-pi, pi+alpha]."""

    def f(phi):
        return (
            np.exp(1j * dn * phi)
            * np.exp(-((phi - alpha) ** 2) / 2)
            * np.exp(-((phi - beta) ** 2) / 2)
        )

    value, _ = integrate(f, beta - PI, PI + alpha)
    return value


# ---------------------------------------------------------------------------
# panel closed forms
# ---------------------------------------------------------------------------


def test_I1_examples():
    assert abs(overlap_I1(0.0, PI / 2, 0) - 0.0050444213187695725) <= 1e-16
    # degenerate panel: the seam integral vanishes identically at alpha==beta
    for dn in (*range(-16, 17), -25, 25, -300, 300):
        assert overlap_I1(0.3, 0.3, dn) == 0.0


def test_I2_examples():
    assert abs(overlap_I2(0.0, 0.0, 0) - math.sqrt(PI) * math.erf(PI)) <= 1e-14
    assert abs(overlap_I2(0.0, 0.0, 0) - 1.7724381183457055) <= 1e-14
    assert abs(overlap_I2(0.0, 0.0, 1) - 1.3804038617166089) <= 1e-13
    # depends only on beta - alpha up to the winding phase
    shifted = overlap_I2(PI / 4, PI / 4, 0)
    assert abs(shifted - overlap_I2(0.0, 0.0, 0)) <= 1e-14


def test_panels_match_their_integrals():
    rng = np.random.default_rng(314)
    for _ in range(12):
        alpha, beta = np.sort(rng.uniform(0.0, PI, size=2))
        if beta - alpha < 1e-3:
            beta = min(alpha + 1e-3, PI)
        dn = int(rng.integers(-8, 9))
        assert abs(overlap_I1(alpha, beta, dn) - _raw_I1(alpha, beta, dn)) <= 1e-10
        assert abs(overlap_I2(alpha, beta, dn) - _raw_I2(alpha, beta, dn)) <= 1e-10


def test_panel_conjugation_in_dn():
    for dn in (1, 2, 5, 11, 25, 300):
        a = overlap_I1(0.2, 2.0, dn)
        b = overlap_I1(0.2, 2.0, -dn)
        assert abs(a - b.conjugate()) <= 1e-16
        a = overlap_I2(0.2, 2.0, dn)
        b = overlap_I2(0.2, 2.0, -dn)
        assert abs(a - b.conjugate()) <= 1e-15


@pytest.mark.parametrize(
    "alpha,beta,dn",
    [
        (-0.1, 1.0, 0),
        (0.5, 0.4, 0),
        (0.0, PI + 0.01, 0),
        (0.0, 1.0, 0.5),
    ],
)
def test_panel_domain(alpha, beta, dn):
    with pytest.raises(DomainError):
        overlap_I1(alpha, beta, dn)
    with pytest.raises(DomainError):
        overlap_I2(alpha, beta, dn)


# ---------------------------------------------------------------------------
# assembled overlap
# ---------------------------------------------------------------------------


def test_self_overlap_exact():
    res = overlap(StateLabel(3, 1.2), StateLabel(3, 1.2))
    assert res.value == 1.0 + 0.0j
    assert res.err_est == 0.0


def test_direct_wedge_equals_reduced():
    # In-wedge pairs evaluated two ways: assembled A^2 (I1+I2) directly,
    # and through overlap()'s rotation reduction; exact identity.
    a2 = normalization_constant() ** 2
    rng = np.random.default_rng(2718)
    for _ in range(20):
        alpha, beta = np.sort(rng.uniform(0.0, PI, size=2))
        dn = int(rng.integers(-6, 7))
        direct = a2 * (overlap_I1(alpha, beta, dn) + overlap_I2(alpha, beta, dn))
        reduced = overlap(StateLabel(0, alpha), StateLabel(dn, beta)).value
        assert abs(direct - reduced) <= 1e-12


def test_against_independent_reference():
    cases = [
        (0, 0.0, 0, PI / 2),
        (0, 0.0, 1, 0.0),
        (2, PI / 8, 5, 3 * PI / 4),
        (1, -2.0, -2, 2.5),
        # beta - alpha folds through the wrap, whose rounding costs 4.0e-16
        (6, -2.196350087088389, 5, 2.7722884364884512),
    ]
    # large winding gaps; at (0, 0) the oracle needs its per-period panels
    # (0.3, 0.301) and (0.301, 0.3) pin both signs of the separation near 0
    pairs = ((0.0, 0.0), (0.0, 0.4), (0.3, 0.301), (0.301, 0.3), (-2.0, 2.5), (1.0, 1.0 + PI))
    cases += [(0, a, dn, b) for dn in (17, -25, 64, -300) for a, b in pairs]
    for m, alpha, n, beta in cases:
        ref = overlap_reference(m, alpha, n, beta)
        ana = overlap(StateLabel(m, alpha), StateLabel(n, beta)).value
        quad = overlap_quadrature(StateLabel(m, alpha), StateLabel(n, beta)).value
        assert abs(ana - ref) <= 1e-15
        assert abs(quad - ref) <= 1e-11


def test_frozen_values():
    assert abs(
        overlap(StateLabel(0, 0.0), StateLabel(0, PI / 2)).value - 0.5420272761615008
    ) <= 1e-15
    assert abs(
        overlap(StateLabel(0, 0.0), StateLabel(1, 0.0)).value - 0.77881639275790376
    ) <= 1e-15
    val = overlap(StateLabel(2, PI / 8), StateLabel(5, 3 * PI / 4)).value
    frozen = complex(-0.020971803362760883, -0.031386521766195418)
    assert abs(val - frozen) <= 1e-15


def test_hermitian_symmetry():
    rng = np.random.default_rng(55)
    for _ in range(25):
        a = StateLabel(int(rng.integers(-4, 5)), float(rng.uniform(-PI, PI)))
        b = StateLabel(int(rng.integers(-4, 5)), float(rng.uniform(-PI, PI)))
        ab = overlap(a, b).value
        ba = overlap(b, a).value
        assert abs(ab - ba.conjugate()) <= 1e-12


def test_rotation_covariance():
    # rotating both labels by the same angle multiplies the overlap by
    # e^{i (n - m) theta}
    rng = np.random.default_rng(808)
    for _ in range(25):
        m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        alpha, beta = rng.uniform(-PI, PI, size=2)
        theta = float(rng.uniform(-PI, PI))
        base = overlap(StateLabel(m, alpha), StateLabel(n, beta)).value
        moved = overlap(
            StateLabel(m, alpha + theta), StateLabel(n, beta + theta)
        ).value
        assert abs(moved - cmath.exp(1j * (n - m) * theta) * base) <= 1e-10


def test_modulus_depends_on_differences_only():
    v1 = overlap(StateLabel(2, 0.3), StateLabel(5, 1.1)).value
    v2 = overlap(StateLabel(0, 0.0), StateLabel(3, 0.8)).value
    assert abs(abs(v1) - abs(v2)) <= 1e-10


def test_large_winding_values():
    res = overlap(StateLabel(0, 0.0), StateLabel(17, 0.4))
    # seam kinks make the tail algebraic (~1/dn^2), not Gaussian-small;
    # references computed at 40-digit precision with per-period panels
    assert abs(res.value - (3.2155616899997412e-06 + 8.4992730044875205e-07j)) <= 1e-15
    assert res.err_est <= 1e-10
    res = overlap(StateLabel(0, 0.0), StateLabel(16, 0.4))
    assert abs(res.value - (-4.1038236728118638e-06 - 2.3996638817177369e-07j)) <= 1e-12


def test_antipodal_odd_winding_vanishes():
    # At |beta - alpha| = pi the two panel phases cancel exactly for odd
    # winding difference; the analytic value is an exact zero and the
    # quadrature route confirms within its tolerance.
    for dn in (1, 3, 5):
        ana = overlap(StateLabel(0, 0.0), StateLabel(dn, PI)).value
        assert abs(ana) <= 1e-15
        quad = overlap_quadrature(StateLabel(0, 0.0), StateLabel(dn, PI)).value
        assert abs(quad) <= 1e-11
    # even winding differences at the antipode stay finite
    even = overlap(StateLabel(0, 0.0), StateLabel(4, PI)).value
    assert abs(abs(even) - 0.00094022632837889312) <= 1e-13


def test_quadrature_self_overlap():
    res = overlap_quadrature(StateLabel(2, 1.0), StateLabel(2, 1.0))
    assert abs(res.value - 1.0) <= 1e-11
    assert res.err_est <= 1e-11


def test_quadrature_accepts_spec():
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
    res = overlap_quadrature(StateLabel(0, 0.0), StateLabel(1, 2.0), spec)
    ref = overlap(StateLabel(0, 0.0), StateLabel(1, 2.0)).value
    assert abs(res.value - ref) <= 1e-8


def test_result_invariant_enforced():
    with pytest.raises(DomainError):
        OverlapResult(1.1 + 0j, 0.0)
    with pytest.raises(DomainError):
        OverlapResult(0.5 + 0j, -1.0)


def test_table_csv_schema():
    a = StateLabel(0, 0.0)
    b = StateLabel(1, PI / 2)
    rows = [(a, b, overlap(a, b))]
    text = overlap_table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "m,alpha,n,beta,re,im,abs,err_est"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[2] == "1"
    val = overlap(a, b).value
    assert abs(float(fields[2 + 2]) - val.real) <= 1e-16  # re column
    assert abs(float(fields[6]) - abs(val)) <= 1e-16
