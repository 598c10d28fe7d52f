import json
import math

import numpy as np
import pytest

from circle_cs import (
    DomainError,
    QuadratureSpec,
    ResolutionReport,
    SampledWaveFunction,
    StateLabel,
    ToleranceNotMet,
    expectation_P,
    expectation_P2,
    expectation_P2_fourier,
    expectation_P2_quadrature,
    expectation_P_quadrature,
    expectation_Q,
    expectation_Q_quadrature,
    expectation_Q_quadrature_table,
    integrate,
    momentum_dispersion,
    normalization_constant,
    observables,
    quadrature,
    resolution_check,
    sample_state,
)
from circle_cs.observables import (
    _density_moment,
    _kink_coefficients,
    _kink_expansion,
    _window_coefficients,
)
from circle_cs.states import named_vector
from oracles import window_coefficient_reference

PI = math.pi
TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# mean angle
# ---------------------------------------------------------------------------


def test_q_mean_fixed_points():
    assert expectation_Q(StateLabel(0, 0.0)) == 0.0
    # alpha = pi wraps to the seam where the density is symmetric again
    assert abs(expectation_Q(StateLabel(0, PI))) <= 1e-11
    assert abs(expectation_Q(StateLabel(0, -PI))) <= 1e-11


def test_q_mean_value_and_oracle():
    label = StateLabel(0, PI / 2)
    assert abs(expectation_Q(label) - 1.4881333826939969) <= 1e-13
    assert abs(expectation_Q(label) - expectation_Q_quadrature(label)) <= 1e-11


def test_q_mean_oracle_sweep():
    for alpha in np.linspace(-PI, PI, 9):
        label = StateLabel(0, float(alpha))
        assert abs(expectation_Q(label) - expectation_Q_quadrature(label)) <= 1e-11


def test_q_mean_odd_in_alpha():
    for alpha in (0.3, 1.1, 2.8):
        assert abs(
            expectation_Q(StateLabel(0, alpha)) + expectation_Q(StateLabel(0, -alpha))
        ) <= 1e-12


def test_q_mean_ignores_winding():
    base = expectation_Q(StateLabel(0, 1.3))
    for m in range(-5, 6):
        assert expectation_Q(StateLabel(m, 1.3)) == base


def test_q_mean_lags_behind_center():
    # the wrap steals weight to the far side, so 0 < <Q> < alpha on (0, pi)
    for alpha in (0.5, 1.5, 2.5, 3.0):
        q = expectation_Q(StateLabel(0, alpha))
        assert 0.0 < q < alpha


# ---------------------------------------------------------------------------
# winding moments
# ---------------------------------------------------------------------------


def test_p_mean_exact():
    for m in range(-4, 5):
        assert expectation_P(StateLabel(m, 0.7)) == float(m)


def test_p_mean_oracle():
    for m in (-3, 0, 2):
        for alpha in (0.0, PI / 3, -2.0):
            label = StateLabel(m, alpha)
            assert abs(expectation_P(label) - expectation_P_quadrature(label)) <= 1e-11


def test_p2_closed_form():
    disp = 0.5 - normalization_constant() ** 2 * PI * math.exp(-PI * PI)
    assert abs(expectation_P2(StateLabel(0, 0.0)) - 0.49990832222568661) <= 1e-15
    for m in (-2, 1, 3):
        label = StateLabel(m, 1.1)
        assert abs(expectation_P2(label) - (m * m + disp)) <= 1e-15


def test_p2_alpha_independent():
    vals = {expectation_P2(StateLabel(2, a)) for a in (-3.0, -1.0, 0.0, 0.5, 3.0)}
    assert len(vals) == 1


def test_p2_oracle():
    for m in (-3, 0, 2):
        for alpha in (0.0, PI / 2, 2.9):
            label = StateLabel(m, alpha)
            assert abs(expectation_P2(label) - expectation_P2_quadrature(label)) <= 1e-11


def _moment_table(seed):
    """The 7 x 41 labels of `observables --m -3:3` over a seeded alpha range."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-PI, 0.0)
    alphas = np.linspace(start, start + rng.uniform(0.5 * PI, PI), 41)
    return [StateLabel(m, float(alpha)) for m in range(-3, 4) for alpha in alphas]


@pytest.mark.parametrize("cap", [quadrature._MAX_PANELS, 200])
def test_moment_table_rows_match_single_rows_bitwise(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
    labels = _moment_table(1204)
    q = expectation_Q_quadrature_table(labels)
    assert q.tolist() == [expectation_Q_quadrature(label) for label in labels]
    # the winding-weighted moments gather m per abscissa
    p2 = _density_moment(labels, lambda phi, w, m: m * m + w * w, None)
    assert p2.tolist() == [expectation_P2_quadrature(label) for label in labels]


def _record_rows(monkeypatch) -> list:
    """The label rows every later observables._integrate_period call gets."""
    rows = []
    integrate_period = observables._integrate_period

    def recording(f, spec, label_rows):
        rows.extend(label_rows)
        return integrate_period(f, spec, label_rows)

    monkeypatch.setattr(observables, "_integrate_period", recording)
    return rows


def test_q_table_integrates_each_alpha_once(monkeypatch):
    rows = _record_rows(monkeypatch)
    labels = _moment_table(1204)
    expectation_Q_quadrature_table(labels)
    # one row per distinct alpha, from its first label (m = -3)
    assert rows == [(label,) for label in labels[:41]]


def test_q_table_shares_rows_across_windings_and_signed_zero(monkeypatch):
    labels = [StateLabel(m, x) for m in (0, 3) for x in (-0.0, 0.0, 1.0)]
    single = [expectation_Q_quadrature(label) for label in labels]
    rows = _record_rows(monkeypatch)
    table = expectation_Q_quadrature_table(labels)
    assert rows == [(labels[0],), (labels[2],)]
    assert table.tobytes() == np.array(single).tobytes()


def test_q_table_failure_names_the_first_label_of_its_alpha():
    # alpha = 1 meets 1e-16 relative; the odd integrand of alpha = 0 sums to
    # rounding noise and cannot.  Its row is the second distinct alpha, and
    # label 2 is the first to carry it.
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16)
    labels = [StateLabel(0, 1.0), StateLabel(1, 1.0), StateLabel(0, 0.0), StateLabel(2, 0.0)]
    with pytest.raises(ToleranceNotMet) as table:
        expectation_Q_quadrature_table(labels, spec)
    with pytest.raises(ToleranceNotMet) as single:
        expectation_Q_quadrature(StateLabel(0, 0.0), spec)
    assert table.value.row == 2
    assert (table.value.value, table.value.err_est) == (single.value.value, single.value.err_est)
    assert str(table.value) == str(single.value)


def test_moment_table_meets_the_oracle_tolerances():
    labels = _moment_table(1205)
    for label, q in zip(labels, expectation_Q_quadrature_table(labels)):
        assert abs(expectation_Q(label) - q) <= 1e-11
    p2 = _density_moment(labels, lambda phi, w, m: m * m + w * w, None)
    for label, value in zip(labels, p2):
        assert abs(expectation_P2(label) - value) <= 1e-11


def test_dispersion_constant():
    base = momentum_dispersion(StateLabel(0, 0.0))
    assert abs(base - 0.49990832222568661) <= 1e-15
    assert base < 0.5
    for m, alpha in [(-3, 1.0), (5, -2.2), (0, 3.1)]:
        assert momentum_dispersion(StateLabel(m, alpha)) == base


def test_p2_fourier_converges_to_derivative_norm():
    # The spectral sum reproduces the L2 norm of psi', which is the -psi''
    # matrix element once the delta at the envelope kink, of weight
    # 2 A^2 pi e^{-pi^2}, is taken off the pointwise integrand.
    a2 = normalization_constant() ** 2
    derivative_norm = 0.5 - a2 * PI * math.exp(-PI * PI)
    for m in (0, 2):
        got = expectation_P2_fourier(StateLabel(m, 0.9), n_max=64, n_grid=4096)
        assert abs(got - (m * m + derivative_norm)) <= 2e-5
    assert abs(
        expectation_P2(StateLabel(0, 0.0)) - expectation_P2_fourier(StateLabel(0, 0.0))
    ) <= 1e-9
    assert abs(2 * a2 * PI * math.exp(-PI * PI) - 0.00018335554862678729) <= 1e-15


def test_p2_fourier_matches_closed_form_at_any_label():
    # The tail and alias corrections come from the kink's derivative jumps,
    # so they hold off the acceptance label and at other window sizes too.
    for m, alpha in [(3, 0.7), (-2, -2.9), (5, 3.0), (1, -PI)]:
        label = StateLabel(m, alpha)
        got = expectation_P2_fourier(label, n_max=64, n_grid=4096)
        assert abs(got - expectation_P2(label)) <= 1e-9
    for n_max, n_grid in [(16, 64), (256, 1024)]:
        label = StateLabel(-1, 2.0)
        got = expectation_P2_fourier(label, n_max=n_max, n_grid=n_grid)
        assert abs(got - expectation_P2(label)) <= 1e-9


def test_p2_fourier_window_margin():
    # the expansion needs the window edge at least 8 windings past the peak
    label = StateLabel(56, 0.3)
    assert abs(expectation_P2_fourier(label, n_max=64) - expectation_P2(label)) <= 1e-9
    for bad in (StateLabel(57, 0.3), StateLabel(-60, 0.3)):
        with pytest.raises(DomainError):
            expectation_P2_fourier(bad, n_max=64)
    with pytest.raises(DomainError):
        expectation_P2_fourier(StateLabel(0, 0.0), n_max=64.0)
    with pytest.raises(DomainError):
        expectation_P2_fourier(StateLabel(0, 0.0), n_max=64, n_grid=128)


def _periodic_difference_p2(label, n_grid):
    """<psi, -D_h psi> with the periodic second difference D_h on the samples."""
    psi = sample_state(label, n_grid).amplitudes
    h = TWO_PI / n_grid
    d2 = (2 * psi - np.roll(psi, 1) - np.roll(psi, -1)) / (h * h)
    return float((h * np.vdot(psi, d2)).real)


def test_p2_periodic_difference_route():
    # A third route, with neither Fourier series nor kink analysis: the
    # second difference across the kink sees its delta in the samples.  It
    # approaches expectation_P2 at O(h^2), far inside the kink delta's
    # weight 2 A^2 pi e^{-pi^2} ~ 1.8e-4 that separates the two signs.
    for m, alpha in [(0, 0.0), (3, 0.7), (-2, -2.9), (5, 3.0)]:
        label = StateLabel(m, alpha)
        coarse, fine = (
            _periodic_difference_p2(label, n) - expectation_P2(label)
            for n in (16384, 65536)
        )
        assert abs(fine) <= abs(coarse) / 8
        assert abs(fine) <= 1e-6
    label = StateLabel(0, 0.0)
    assert abs(_periodic_difference_p2(label, 65536) - expectation_P2(label)) <= 1e-9


# ---------------------------------------------------------------------------
# resolution of unity
# ---------------------------------------------------------------------------


def test_resolution_vacuum():
    eta = sample_state(StateLabel(0, 0.0), 4096)
    report = resolution_check(eta, 30)
    assert report.defect <= 1e-6
    assert report.estimate < TWO_PI
    assert all(t >= 0.0 for t in report.per_k_terms)
    cum = report.cumulative()
    assert all(b >= a for a, b in zip(cum, cum[1:]))
    assert cum[-1] == report.estimate


def test_resolution_truncation_grows_monotonically():
    eta = sample_state(StateLabel(0, 0.0), 4096)
    estimates = [resolution_check(eta, k).estimate for k in (0, 2, 5, 10)]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] < TWO_PI


def test_resolution_displaced_state():
    # truncation symmetric around k = 0 also covers a winding-displaced
    # state once k_max exceeds the displacement plus the window width
    eta = sample_state(StateLabel(4, 1.0), 4096)
    report = resolution_check(eta, 34)
    assert report.defect <= 1e-6


def test_window_coefficients_against_direct_integration():
    # resolution_check rests on |ghat_p|^2: near the peak against 50-digit
    # quadrature, far out against the expansion the kink's jumps fix
    p_max = 2200
    ghat = _window_coefficients(p_max)
    for p in (0, 1, 2, 7, 28, 29, 60, 120):
        ref = window_coefficient_reference(p)
        for got in (ghat[p_max + p], ghat[p_max - p]):
            assert abs(got - ref) <= 4e-15 * abs(ref), (p, got, ref)
    p = np.arange(300, p_max + 1)
    ref = _kink_coefficients(p, _kink_expansion())
    for got in (ghat[p_max + p], ghat[p_max - p]):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15


def _adaptive_resolution_terms(eta, k_max):
    """The per-k integrals of |<k,alpha|eta>|^2 over alpha, by adaptive quadrature.

    The projection's convolution form 2 pi A sum_q ghat_{k-q} a_q e^{iq alpha}
    is evaluated for every k at each Gauss-Kronrod abscissa (one
    matrix-vector product, cached across the k integrals) and its squared
    modulus integrated over one period, with no use of Parseval.
    """
    n = eta.n_grid
    q = np.arange(-(n // 2), n - n // 2)
    a_q = np.where(q % 2 == 0, 1.0, -1.0) * np.fft.fft(eta.amplitudes)[q % n] / n
    p_max = k_max + n // 2 + 1
    ks = np.arange(-k_max, k_max + 1)
    gather = _window_coefficients(p_max)[ks[:, None] - q[None, :] + p_max]
    scale = (TWO_PI * normalization_constant()) ** 2
    cache = {}

    def terms_at(alpha):
        if alpha not in cache:
            proj = gather @ (a_q * np.exp(1j * q * alpha))
            cache[alpha] = scale * (proj.real**2 + proj.imag**2)
        return cache[alpha]

    terms = []
    for i in range(ks.size):

        def f(alpha, i=i):
            return np.array([terms_at(float(x))[i] for x in alpha])

        value, _ = integrate(f, -PI, PI, QuadratureSpec())
        terms.append(value.real)
    return terms


def test_resolution_terms_match_adaptive_alpha_integration():
    vectors = {
        "vacuum": sample_state(StateLabel(0, 0.0), 4096),
        "two_peak": named_vector("two_peak", 4096),
        "displaced": sample_state(StateLabel(4, 1.0), 4096),
    }
    cases = [(name, eta, k_max) for name, eta in vectors.items() for k_max in (5, 30)]
    # k_max beyond n_grid/2: the window slice runs past the FFT band on both sides
    cases.append(("two_peak_64", named_vector("two_peak", 64), 40))
    for name, eta, k_max in cases:
        got = resolution_check(eta, k_max).per_k_terms
        ref = _adaptive_resolution_terms(eta, k_max)
        err = max(abs(a - b) for a, b in zip(got, ref))
        assert err <= 1e-12, (name, k_max, err)


def test_resolution_validation():
    eta = sample_state(StateLabel(0, 0.0), 4096)
    with pytest.raises(DomainError):
        resolution_check(eta, -1)
    off = SampledWaveFunction(eta.n_grid, eta.amplitudes * 1.01)
    with pytest.raises(DomainError):
        resolution_check(off, 5)


def test_report_json_round_trips():
    eta = sample_state(StateLabel(0, 0.0), 4096)
    report = resolution_check(eta, 3)
    doc = json.loads(report.to_json())
    assert doc["k_max"] == 3
    assert report.k_max == len(report.per_k_terms) // 2 == 3
    assert report.estimate == report.cumulative()[-1]
    assert doc["estimate"] == report.estimate
    assert doc["defect"] == report.defect
    assert doc["per_k_terms"] == list(report.per_k_terms)
    assert len(doc["convergence"]) == 4
    # the estimate is the last center-outward cumulative sum, bit for bit
    assert doc["convergence"][-1]["estimate"] == report.estimate


def test_report_invariants_enforced():
    for even in ((), (0.5, 0.5)):
        with pytest.raises(DomainError):
            ResolutionReport(even)
    with pytest.raises(DomainError):
        ResolutionReport((-1.0,))
