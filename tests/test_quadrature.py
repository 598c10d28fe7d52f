import math

import numpy as np
import pytest

from circle_cs import (
    DomainError,
    QuadratureSpec,
    StateLabel,
    ToleranceNotMet,
    expectation_Q_quadrature_table,
    integrate,
    overlap,
    overlap_quadrature,
    overlap_quadrature_table,
    quadrature,
)
from circle_cs.quadrature import _G_WEIGHTS, _GAUSS_SLICE, _K_WEIGHTS, _NODES, integrate_rows


def test_rule_degree_exactness():
    def residual(weights, nodes, d):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        return abs(float(weights @ nodes**d) - exact)

    gauss_nodes = _NODES[_GAUSS_SLICE]
    for d in range(23):
        assert residual(_K_WEIGHTS, _NODES, d) <= 1e-15, d
    for d in range(14):
        assert residual(_G_WEIGHTS, gauss_nodes, d) <= 1e-15, d
    # one degree past exactness both rules miss, so a wrong slice or a
    # misordered table cannot pass the loops above by accident
    assert residual(_K_WEIGHTS, _NODES, 24) > 1e-12
    assert residual(_G_WEIGHTS, gauss_nodes, 14) > 1e-12


def test_constant():
    value, err = integrate(lambda x: np.ones_like(x), -1.0, 1.0)
    assert abs(value - 2.0) <= 1e-15
    assert err <= 1e-12


def test_scalar_return_broadcasts():
    value, _ = integrate(lambda x: 1.0, -1.0, 1.0)
    assert abs(value - 2.0) <= 1e-15


def test_oscillatory_cancellation():
    value, _ = integrate(lambda x: np.exp(1j * x), -math.pi, math.pi)
    assert abs(value) <= 1e-13


def test_gaussian():
    value, err = integrate(lambda x: np.exp(-x * x), -math.pi, math.pi)
    assert abs(value.real - math.sqrt(math.pi) * math.erf(math.pi)) <= 1e-13
    assert abs(value.imag) == 0.0
    assert err <= 1e-12


def test_vectorized_contract():
    seen = []

    def f(x):
        seen.append(type(x))
        return np.exp(-x * x)

    integrate(f, 0.0, 1.0)
    assert seen and all(t is np.ndarray for t in seen)


def test_split_point_removes_kink_refinement():
    evals_plain = [0]
    evals_split = [0]

    def counting(counter):
        def f(x):
            counter[0] += x.size
            return np.abs(x) + np.abs(x - 0.3)

        return f

    v1, _ = integrate(counting(evals_plain), -1.0, 1.0)
    # unsorted and repeated points: the engine sorts and merges them
    v2, _ = integrate(counting(evals_split), -1.0, 1.0, split_points=(0.3, 0.0, 0.3))
    assert abs(v1 - 2.09) <= 1e-12
    assert abs(v2 - 2.09) <= 1e-14
    # with the kinks declared, each panel is smooth and three panels suffice
    assert evals_split[0] == 45
    assert evals_plain[0] > evals_split[0]


def test_additivity():
    rng = np.random.default_rng(4242)

    def f(x):
        return np.exp(-x * x) * np.cos(3 * x)

    for _ in range(5):
        c = float(rng.uniform(-0.9, 0.9))
        whole, err_w = integrate(f, -1.0, 1.0)
        left, err_l = integrate(f, -1.0, c)
        right, err_r = integrate(f, c, 1.0)
        assert abs(whole - (left + right)) <= err_w + err_l + err_r + 1e-13


def test_conjugation_bitwise():
    def f(x):
        return np.exp(1j * 2 * x) * np.exp(-x * x)

    def g(x):
        return np.conj(np.exp(1j * 2 * x) * np.exp(-x * x))

    vf, ef = integrate(f, -2.0, 2.0)
    vg, eg = integrate(g, -2.0, 2.0)
    assert vg == vf.conjugate()
    assert eg == ef


def test_determinism():
    def f(x):
        return np.exp(-x * x) / (1.0 + x * x)

    first = integrate(f, -3.0, 3.0)
    second = integrate(f, -3.0, 3.0)
    assert first == second


def test_relative_tolerance_mode():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-10)
    cases = [
        (lambda x: np.exp(-x * x), -1.0, 1.0),
        # integral 2.1e-4, small next to the integrand itself
        (lambda x: np.exp(-x * x) * np.cos(6 * x), -math.pi, math.pi),
        (lambda x: np.exp(3j * x) / (1 + x * x), -2.0, 3.0),
        (lambda x: np.cos(40 * x), 0.0, 1.0),
        (lambda x: np.sqrt(x), 0.0, 1.0),
    ]
    for f, a, b in cases:
        value, err = integrate(f, a, b, spec)
        assert err <= 1e-10 * abs(value), (a, b)


def test_tolerance_not_met_carries_estimate(monkeypatch):
    # Inverse-square-root edge singularity: the open rule never samples the
    # endpoint, but panel errors shrink too slowly for 1e-12.
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)

    def f(x):
        return 1.0 / np.sqrt(np.abs(x))

    with pytest.raises(ToleranceNotMet) as info:
        integrate(f, 0.0, 1.0)
    exc = info.value
    assert abs(exc.value - 2.0) <= 1e-2
    assert exc.err_est > 1e-12


def test_frozen_panel_leaves_its_tolerance_to_the_rest(monkeypatch):
    # The panel at the singularity freezes at depth 10 holding most of the
    # 2.4e-3 budget; the other panels must refine into what it leaves.
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 10)
    spec = QuadratureSpec(abs_tol=2.4e-3, rel_tol=0.0)
    value, err = integrate(lambda x: 1 / np.sqrt(x) + np.cos(30 * x), 0.0, 1.0, spec)
    assert err <= 2.4e-3
    assert abs(value - (2.0 + math.sin(30.0) / 30.0)) <= err


def test_panel_budget_raises_with_estimate():
    # 954 jumps on (0, 1): every panel holding one stays over its share of
    # the tolerance until the panel budget runs out.
    with pytest.raises(ToleranceNotMet, match="panel budget") as info:
        integrate(lambda x: np.sign(np.sin(3000.0 * x)), 0.0, 1.0)
    exact = 1.0 - 954.0 * math.pi / 3000.0
    assert abs(info.value.value - exact) <= 1e-5


def _count_rounds(monkeypatch):
    """Record the (row, lo, hi) of every panel per integrand call of the engine."""
    rounds = []

    def counting(f, lo, hi, rows):
        rounds.append(list(zip(rows.tolist(), lo.tolist(), hi.tolist())))
        return panels(f, lo, hi, rows)

    panels = quadrature._panels
    monkeypatch.setattr(quadrature, "_panels", counting)
    return rounds


def _overlap_pairs(seed):
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(-math.pi, math.pi, 2)
    return [(StateLabel(0, alpha), StateLabel(dn, beta)) for dn in range(-16, 17)]


def test_one_integrand_call_per_round(monkeypatch):
    rounds = _count_rounds(monkeypatch)
    a, b = StateLabel(0, 0.3), StateLabel(256, 1.2)
    result = overlap_quadrature(a, b)
    assert len(rounds) <= 12
    assert abs(result.value - overlap(a, b).value) <= 1e-10

    # The table of `overlap --dn-max 16` evaluates all 33 rows in its first
    # round, so it needs no more calls than its slowest row takes alone.
    pairs = [(a, StateLabel(dn, 1.2)) for dn in range(-16, 17)]
    alone = []
    for pair in pairs:
        rounds.clear()
        overlap_quadrature(*pair)
        alone.append(len(rounds))
    rounds.clear()
    overlap_quadrature_table(pairs)
    assert len(rounds) == max(alone)
    assert {row for row, _, _ in rounds[0]} == set(range(len(pairs)))


@pytest.mark.parametrize("cap", [quadrature._MAX_PANELS, 200])
def test_batch_rows_match_single_rows_bitwise(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
    pairs = _overlap_pairs(1201)
    rounds = _count_rounds(monkeypatch)
    table = overlap_quadrature_table(pairs)
    evaluated = [panel for panel_round in rounds for panel in panel_round]
    restarted = len(evaluated) - len(set(evaluated))
    assert max(len(panel_round) for panel_round in rounds) <= cap
    # Every panel is evaluated once.  The uncapped table takes 6 calls; the
    # small cap splits the batch, which takes more.
    assert restarted == 0
    assert len(rounds) == 6 if cap == 16384 else len(rounds) > 6
    for pair, result in zip(pairs, table):
        alone = overlap_quadrature(*pair)
        assert (result.value, result.err_est) == (alone.value, alone.err_est)


def test_panel_sums_do_not_depend_on_the_batch():
    # Matrix-vector products round differently with the number of panels
    # that share them; per-panel sums must not.
    rng = np.random.default_rng(1206)
    lo = np.sort(rng.uniform(-math.pi, 2.8, 40))
    hi = lo + rng.uniform(0.01, 0.3, 40)
    m = rng.integers(-16, 17, 40)

    def f(x, rows):
        return np.exp(1j * m[rows] * x - (x - 0.3) ** 2)

    together = quadrature._panels(f, lo, hi, np.arange(40))
    for i in range(40):
        alone = quadrature._panels(f, lo[i : i + 1], hi[i : i + 1], np.array([i]))
        assert (alone[0][0], alone[1][0]) == (together[0][i], together[1][i])


def test_conjugate_rows_conjugate_bitwise():
    pairs = _overlap_pairs(1202)
    table = overlap_quadrature_table([*pairs, *((b, a) for a, b in pairs)])
    for forward, backward in zip(table, table[len(pairs):]):
        assert backward.value == forward.value.conjugate()
        assert backward.err_est == forward.err_est


def test_table_meets_the_oracle_tolerance():
    pairs = _overlap_pairs(1203)
    for (a, b), result in zip(pairs, overlap_quadrature_table(pairs)):
        assert abs(result.value - overlap(a, b).value) <= 1e-10


def test_rows_keep_their_own_split_points():
    values, errs = integrate_rows(
        lambda x, rows: np.abs(x - 0.25 * rows), -1.0, 1.0,
        splits=[(), (0.25,), (0.5,)],
    )
    exact = [1.0, 1.0625, 1.25]
    assert np.all(np.abs(values - exact) <= 1e-12)
    assert errs[1] <= 1e-14 and errs[2] <= 1e-14  # kink declared: no refinement


@pytest.mark.parametrize("point", [1.5, -1.0, 1.0, float("nan")])
def test_row_split_point_outside_raises(point):
    with pytest.raises(DomainError):
        integrate_rows(lambda x, rows: x, -1.0, 1.0, splits=[(0.5,), (point,)])
    with pytest.raises(DomainError):
        integrate(lambda x: x, -1.0, 1.0, split_points=(point,))


def test_empty_batch():
    values, errs = integrate_rows(lambda x, rows: x, 0.0, 1.0, None, [])
    assert values.shape == errs.shape == (0,)
    assert overlap_quadrature_table([]) == []
    assert expectation_Q_quadrature_table([]).shape == (0,)


def test_initial_panels_over_the_cap(monkeypatch):
    # 150 rows of 4-8 initial panels each hold about 900 panels before any
    # is evaluated, far over a cap of 200.
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 200)
    rng = np.random.default_rng(1207)
    m = rng.integers(-8, 9, 150)
    c = rng.uniform(-2.0, 2.0, 150)
    splits = [tuple(rng.uniform(-3.0, 3.0, rng.integers(3, 8))) for _ in range(150)]

    def f(x, rows):
        return np.exp(1j * m[rows] * x - (x - c[rows]) ** 2) * np.abs(x - c[rows])

    rounds = _count_rounds(monkeypatch)
    values, errs = integrate_rows(f, -math.pi, math.pi, splits=splits)
    evaluated = [panel for panel_round in rounds for panel in panel_round]
    assert max(len(panel_round) for panel_round in rounds) <= 200
    assert len(evaluated) == len(set(evaluated))
    for i, points in enumerate(splits):
        alone = integrate(lambda x: f(x, np.full(x.shape, i)), -math.pi, math.pi,
                          split_points=points)
        assert (values[i], errs[i]) == alone


@pytest.mark.parametrize("cap", [quadrature._MAX_PANELS, 40])
def test_failure_names_the_lowest_failing_row(monkeypatch, cap):
    # The odd rows hit the inverse-square-root singularity at depth 12; the
    # even rows are smooth.  Together the odd rows outgrow a cap of 40.  The
    # batch fails on row 1, with the value and err_est row 1 has alone.
    monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)

    def f(x, rows):
        return np.where(rows % 2 == 1, 1.0 / np.sqrt(x), np.exp(-x * x))

    rounds = _count_rounds(monkeypatch)
    with pytest.raises(ToleranceNotMet) as batch:
        integrate_rows(f, 0.0, 1.0, splits=[()] * 8)
    assert max(len(panel_round) for panel_round in rounds) <= cap
    with pytest.raises(ToleranceNotMet) as alone:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert batch.value.row == 1
    assert alone.value.row == 0
    assert (batch.value.value, batch.value.err_est) == (alone.value.value, alone.value.err_est)


def test_singularity_at_declared_split_is_never_sampled(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 10)

    def f(x):
        assert not np.any(x == 0.0)
        with np.errstate(divide="raise"):
            return 1.0 / np.sqrt(np.abs(x))

    with pytest.raises(ToleranceNotMet):
        integrate(f, -1.0, 1.0, split_points=(0.0,))


@pytest.mark.parametrize(
    "a,b,spec_kwargs",
    [
        (1.0, 1.0, {}),
        (2.0, 1.0, {}),
        (float("nan"), 1.0, {}),
        (0.0, float("inf"), {}),
        (0.0, 1.0, {"split_points": (1.5,)}),
        (0.0, 1.0, {"split_points": (0.0,)}),
    ],
)
def test_domain_errors(a, b, spec_kwargs):
    # split_points is integrate's argument, not a QuadratureSpec field.
    kwargs = dict(spec_kwargs)
    split_points = kwargs.pop("split_points", ())
    with pytest.raises(DomainError):
        integrate(lambda x: np.ones_like(x), a, b, QuadratureSpec(**kwargs),
                  split_points=split_points)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"rel_tol": -1.0},
        {"abs_tol": float("inf")},
        {"abs_tol": float("nan")},
        {"rel_tol": float("nan")},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(DomainError):
        QuadratureSpec(**kwargs)
