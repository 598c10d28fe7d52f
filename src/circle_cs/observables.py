"""Expectation values and the resolution-of-unity check.

Closed forms
------------
With A the normalization constant, rho(phi) = A^2 e^{-wrap(phi-alpha)^2}
the state's density, and the position observable read as the canonical
angle in [-pi, pi):

    <Q>   = sgn(alpha) (|alpha| - A^2 sqrt(pi^3) (erf(pi) - erf(pi - |alpha|)))
            (odd in alpha, independent of m)
    <P>   = m      (exactly)
    <P^2> = m^2 + 1/2 - A^2 pi e^{-pi^2}

so the momentum dispersion <P^2> - <P>^2 is the same constant for every
label.  P = -i d/dphi is the winding operator, whose spectrum is the
integers, so <P^2> is the second moment of the winding distribution
|a_n|^2 and, by Parseval, the squared L2 norm of psi'.  Read pointwise
between kinks, -psi''/psi integrates to m^2 + 1/2 + A^2 pi e^{-pi^2}; the
envelope kink at the antipode of alpha is the envelope's minimum, so -psi''
also carries a delta there that takes 2 A^2 pi e^{-pi^2} back off
(docs/formulas.md, "Momentum second moment").  Each closed form ships with
a quadrature oracle built on the adaptive engine so tests never compare a
formula with itself; the three moment oracles weight one density integral
(_density_moment, which runs a whole table of labels through one engine
run), and <P^2> also has a spectral route.

Resolution of unity
-------------------
Summing |<k,alpha|eta>|^2 over windings k and integrating alpha over one
period returns 2 pi times the squared norm of eta.  resolution_check()
verifies that on a sampled vector, truncating the winding sum at |k| <=
k_max.  The inner projection has the exact convolution form

    <k,alpha|eta> = 2 pi A sum_p ghat_p a_{k-p} e^{-i p alpha},

with a_q the FFT Fourier coefficients of eta (eta read as its trigonometric
interpolant) and ghat_p the Fourier coefficients of the wrapped Gaussian
window:

    ghat_p = e^{-p^2/2}/sqrt(2 pi)
             + (-1)^{p+1} e^{-pi^2/2}/sqrt(2 pi) * Re w((-p + i pi)/sqrt 2),

where w is the scaled complementary error function.  The naive expression
e^{-p^2/2} Re erf((pi + i p)/sqrt 2) is the same number but overflows past
p ~ 28; the scaled form, special._scaled_re_erf (shared with the overlap
panels), is stable for every p the sum touches.  The projection is a
trigonometric polynomial in alpha, so by Parseval its alpha-integral is
exactly 2 pi (2 pi A)^2 sum_q |ghat_{k-q}|^2 |a_q|^2.  ResolutionReport
holds these per-k terms alone; k_max, estimate and defect derive from them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .quadrature import QuadratureSpec
from .special import _scaled_re_erf
from .states import (
    SampledWaveFunction,
    StateLabel,
    _integrate_period,
    _label_arrays,
    _wrap_array,
    fourier_coefficients,
    normalization_constant,
    sample_state,
)
from .tables import to_json

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# first and second moments
# ---------------------------------------------------------------------------


def expectation_Q(label: StateLabel) -> float:
    """Mean canonical angle; drags behind alpha as the wrap is approached."""
    a = abs(label.alpha)
    lag = normalization_constant() ** 2 * math.sqrt(math.pi**3) * (
        math.erf(math.pi) - math.erf(math.pi - a)
    )
    return math.copysign(1.0, label.alpha) * (a - lag)


def expectation_P(label: StateLabel) -> float:
    """Mean winding; exactly the integer label."""
    return float(label.m)


def expectation_P2(label: StateLabel) -> float:
    """Second moment of the winding, m^2 + 1/2 - A^2 pi e^{-pi^2}."""
    return label.m**2 + momentum_dispersion(label)


def momentum_dispersion(label: StateLabel) -> float:
    """<P^2> - <P>^2; one constant, 1/2 - A^2 pi e^{-pi^2}, for all labels."""
    a2 = normalization_constant() ** 2
    return 0.5 - a2 * math.pi * math.exp(-math.pi**2)


def _density_moment(labels, weight, spec: QuadratureSpec | None) -> np.ndarray:
    """Re int weight(phi, w, m) rho(phi) dphi over one period, per label, in
    one engine run; w = wrap(phi - alpha), and m is the label's winding."""
    a2 = normalization_constant() ** 2
    m, alpha = _label_arrays(labels)

    def f(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        w = _wrap_array(phi - alpha[rows])
        return weight(phi, w, m[rows]) * a2 * np.exp(-w * w)

    values, _ = _integrate_period(f, spec, [(label,) for label in labels])
    return values.real


def expectation_Q_quadrature(
    label: StateLabel, spec: QuadratureSpec | None = None
) -> float:
    """Direct integral of phi |psi(phi)|^2, split at the envelope kink."""
    return float(expectation_Q_quadrature_table([label], spec)[0])


def expectation_Q_quadrature_table(labels, spec: QuadratureSpec | None = None) -> np.ndarray:
    """expectation_Q_quadrature of every label, in one engine run.

    The integrand phi rho depends on alpha alone, so the run integrates one
    row per distinct alpha (compared as floats, so -0.0 and 0.0 share one),
    taken from its first label, and every label reads its alpha's value.
    Each value is bit for bit the one of a single-label call.  A label that
    misses the tolerance raises ToleranceNotMet, whose .row is its index;
    since rows follow first appearance, that is the lowest failing label.
    """
    slot, heads = {}, []
    for i, label in enumerate(labels):
        if label.alpha not in slot:
            slot[label.alpha] = len(heads)
            heads.append(i)
    try:
        values = _density_moment([labels[i] for i in heads], lambda phi, w, m: phi, spec)
    except ToleranceNotMet as exc:
        exc.row = heads[exc.row]
        raise
    return values[np.array([slot[label.alpha] for label in labels], dtype=int)]


def expectation_P_quadrature(
    label: StateLabel, spec: QuadratureSpec | None = None
) -> float:
    """Integral of conj(psi) (-i psi'); the integrand is (m + i w) rho."""
    return float(_density_moment([label], lambda phi, w, m: m + 1j * w, spec)[0])


def expectation_P2_quadrature(
    label: StateLabel, spec: QuadratureSpec | None = None
) -> float:
    """Integral of |psi'|^2; the integrand is (m^2 + w^2) rho.

    On the circle <psi|-psi''> = ||psi'||^2 by parts with no boundary term,
    so this form counts the kink's delta without having to sample it; the
    pointwise integrand (1 + (m+iw)^2) rho of -psi'' would drop it.
    """
    return float(_density_moment([label], lambda phi, w, m: m * m + w * w, spec)[0])


# The kink expansion keeps k^-2 .. k^-_KINK_ORDER; the spectral route needs
# its nearest tail winding _KINK_MARGIN past the window edge.
_KINK_ORDER = 8
_KINK_MARGIN = 8
_BERNOULLI_EVEN = (1.0, 1 / 6, -1 / 30, 1 / 42, -1 / 30)  # B_0, B_2, .., B_8


@functools.cache
def _kink_expansion() -> np.ndarray:
    """c_p for p = 0 .. 8, with ghat_k ~ (-1)^k sum_p c_p k^{-p} as |k| grows.

    ghat_k are the Fourier coefficients of the envelope g(w) = e^{-w^2/2} on
    [-pi, pi).  Integrating by parts r + 1 times turns the jump J_r =
    g^(r)(-pi+) - g^(r)(pi-) of its r-th derivative across the kink into
    (-1)^k J_r / (2 pi (ik)^{r+1}).  Since g^(r) = (-1)^r He_r g, with He_r
    the probabilists' Hermite polynomial, only odd r jump, by
    J_r = 2 He_r(pi) e^{-pi^2/2}.
    """
    he = [1.0, math.pi]
    for r in range(1, _KINK_ORDER - 1):
        he.append(math.pi * he[r] - r * he[r - 1])
    c = np.zeros(_KINK_ORDER + 1)
    for r in range(1, _KINK_ORDER, 2):
        jump = 2.0 * he[r] * math.exp(-0.5 * math.pi**2)
        c[r + 1] = (-1) ** ((r + 1) // 2) * jump / _TWO_PI
    return c


def _kink_coefficients(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(-1)^k sum_p c_p k^{-p} for k != 0, and 0 at k = 0."""
    kf = np.where(k == 0, 1, k).astype(float)
    series = sum(c[p] * kf ** -p for p in range(2, len(c), 2))
    return np.where(k == 0, 0.0, np.where(k % 2 == 0, 1.0, -1.0) * series)


def _kink_function(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The function of w in [-pi, pi) whose coefficients are _kink_coefficients.

    sum_{k != 0} (-1)^k k^{-p} e^{ikw} = -(-1)^{p/2} (2 pi)^p B_p(1/2 + t) / p!
    for even p, with t = w / 2 pi and B_p the Bernoulli polynomial, here
    expanded about 1/2 (B_j(1/2) = (2^{1-j} - 1) B_j), where it is even in t
    and cancels least.
    """
    t = np.asarray(w, dtype=float) / _TWO_PI
    out = np.zeros_like(t)
    for p in range(2, len(c), 2):
        bern = sum(
            math.comb(p, 2 * i) * (2.0 ** (1 - 2 * i) - 1.0) * b * t ** (p - 2 * i)
            for i, b in enumerate(_BERNOULLI_EVEN[: p // 2 + 1])
        )
        out -= c[p] * (-1) ** (p // 2) * _TWO_PI**p / math.factorial(p) * bern
    return out


def _power_tail(s: int, k0: int) -> float:
    """sum_{k >= k0} k^{-s} for s >= 2 and k0 >= 1.

    Terms below x = max(k0, 64) are summed directly; the rest is
    Euler-Maclaurin at x with three Bernoulli corrections, which leaves a
    remainder below (s)_7 x^{-s-7} / 1.2e6.
    """
    x = max(k0, 64)
    head = float(np.sum(np.arange(k0, x, dtype=float) ** -s))
    x = float(x)
    tail = x ** (1 - s) / (s - 1) + 0.5 * x**-s
    rising = float(s)
    for j in range(1, 4):
        tail += _BERNOULLI_EVEN[j] / math.factorial(2 * j) * rising * x ** (1 - s - 2 * j)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + tail


def expectation_P2_fourier(
    label: StateLabel, n_max: int = 64, n_grid: int = 4096
) -> float:
    """Spectral route: sum n^2 |a_n|^2 / sum |a_n|^2 over every winding n.

    This is the second moment of the winding distribution, the quantity
    expectation_P2 states in closed form.  The a_n come from an FFT of the
    n_grid-point sampled state, and the raw window sum misses it twice:
    a_n ~ 1/(n - m)^2 past the kink, so stopping at |n| = n_max drops
    ~6e-6, and the FFT returns the interpolant's coefficients
    sum_j a_{n + j n_grid}, a few 1e-9 off.  Both are closed with the
    asymptotic expansion of a_n that the kink's derivative jumps fix
    (_kink_expansion):

    * aliases: the samples of the expansion's own function (Bernoulli
      polynomials, _kink_function) are subtracted before the FFT and its
      exact coefficients added back, so its aliases cancel; the smooth
      rest aliases at O(n_grid^-10);
    * tail: |n| > n_max is the expansion summed in closed form.

    Agrees with expectation_P2 to rounding (a few ulps of m^2 + 1/2) once
    n_max - |m| >= 16.  Closer in, the nearest tail winding |n - m| =
    n_max + 1 - |m| comes near the peak, where the expansion is poor: at
    n_max = 64 the error measured 7e-12 at n_max - |m| = 12 and 2e-10 at 8.
    Below _KINK_MARGIN = 8 DomainError is raised.  n_grid >= 4 n_max as
    for fourier_coefficients.
    """
    if not isinstance(n_max, numbers.Integral) or n_max - abs(label.m) < _KINK_MARGIN:
        raise DomainError(
            f"n_max must be an integer >= |m| + {_KINK_MARGIN}, "
            f"got {n_max!r} for m = {label.m}"
        )
    psi = sample_state(label, n_grid)
    c = _kink_expansion()
    amp = normalization_constant()
    phi = psi.grid()
    kink = (
        amp
        * np.exp(1j * label.m * phi)
        * _kink_function(_wrap_array(phi - label.alpha), c)
    )
    n = np.arange(-n_max, n_max + 1)
    k = n - label.m
    a = fourier_coefficients(SampledWaveFunction(n_grid, psi.amplitudes - kink), n_max)
    a = a + amp * np.exp(-1j * k * label.alpha) * _kink_coefficients(k, c)
    weight = np.abs(a) ** 2
    numer = float(np.sum(n * n * weight))
    denom = float(np.sum(weight))
    # Past the window |a_n|^2 = sum_p d_p k^{-p}.  On the side of n > 0 (mu =
    # m) and of n < 0 (mu = -m) the windings are |k| >= n_max + 1 - mu with
    # n^2 = (|k| + mu)^2.
    d = np.convolve(c, c) * amp**2
    for mu in (label.m, -label.m):
        k0 = n_max + 1 - mu
        for p in range(4, len(d), 2):
            numer += d[p] * (
                _power_tail(p - 2, k0)
                + 2 * mu * _power_tail(p - 1, k0)
                + mu * mu * _power_tail(p, k0)
            )
            denom += d[p] * _power_tail(p, k0)
    return numer / denom


# ---------------------------------------------------------------------------
# resolution of unity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionReport:
    """Outcome of resolution_check: the per-k terms and what they sum to.

    per_k_terms holds the individual integrals for k = -k_max .. k_max (an
    odd count, all nonnegative).  estimate is their sum, the last entry of
    cumulative(), and defect its distance from 2 pi.
    """

    per_k_terms: tuple

    def __post_init__(self):
        n = len(self.per_k_terms)
        if n % 2 != 1:
            raise DomainError(f"expected an odd number of per-k terms, got {n}")
        if any(t < 0.0 for t in self.per_k_terms):
            raise DomainError("per-k terms must be nonnegative")

    @property
    def k_max(self) -> int:
        return len(self.per_k_terms) // 2

    @property
    def estimate(self) -> float:
        return self.cumulative()[-1]

    @property
    def defect(self) -> float:
        return abs(self.estimate - _TWO_PI)

    def cumulative(self) -> list:
        """Partial sums over |k| <= j for j = 0 .. k_max (nondecreasing)."""
        t, c = self.per_k_terms, self.k_max
        out = [t[c]]
        for j in range(1, c + 1):
            out.append(out[-1] + t[c - j] + t[c + j])
        return out

    def to_json(self) -> str:
        """Deterministic JSON document (fixed key order, 17 digit floats)."""
        return to_json({
            "k_max": self.k_max,
            "estimate": self.estimate,
            "defect": self.defect,
            "per_k_terms": self.per_k_terms,
            "convergence": [
                {"k": j, "estimate": c} for j, c in enumerate(self.cumulative())
            ],
        })


_INV_SQRT_TWO_PI = 1.0 / math.sqrt(_TWO_PI)


def _window_coefficients(p_max: int) -> np.ndarray:
    """ghat_p = e^{-p^2/2} Re erf((pi + ip)/sqrt 2)/sqrt(2 pi), |p| <= p_max.

    The phase e^{-i pi p} must be the exact sign (-1)^p and e^{-p^2/2} is
    formed from integer p (docs/formulas.md, section 4); the longdouble
    t = p/sqrt 2 keeps the kernel on its extended route.
    """
    p = np.arange(0, p_max + 1)
    parity = np.where(p % 2 == 0, 1.0, -1.0)
    gauss = np.exp(-0.5 * p * p)
    t = p / np.sqrt(np.longdouble(2.0))
    scaled = _scaled_re_erf(math.pi / math.sqrt(2.0), t, parity, gauss).astype(float)
    half = _INV_SQRT_TWO_PI * scaled
    return np.concatenate((half[:0:-1], half))


def resolution_check(eta: SampledWaveFunction, k_max: int) -> ResolutionReport:
    """Verify sum_k int |<k,alpha|eta>|^2 dalpha -> 2 pi on a unit vector.

    eta must be normalized to 1e-9 in the trapezoid norm (DomainError
    otherwise).  Truncation keeps |k| <= k_max; each per-k alpha-integral
    is its exact Parseval sum 2 pi (2 pi A)^2 sum_q |ghat_{k-q}|^2 |a_q|^2.
    The estimate approaches 2 pi from below as k_max grows, since dropped
    terms are nonnegative.
    """
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    nsq = eta.norm_squared()
    if abs(nsq - 1.0) > 1e-9:
        raise DomainError(
            f"eta must be normalized: |norm^2 - 1| = {abs(nsq - 1.0):.3e} > 1e-9"
        )

    n = eta.n_grid
    q_lo = -(n // 2)
    q = np.arange(q_lo, q_lo + n)
    forward = np.fft.fft(eta.amplitudes) / n
    power = np.abs(forward[q % n]) ** 2

    p_max = k_max + max(-q_lo, q_lo + n - 1) + 1
    window_power = _window_coefficients(p_max) ** 2

    # Row k needs |ghat_{k-q}|^2 for q = q_lo .. q_lo + n - 1; since |ghat_p|^2
    # is even in p, that is the contiguous slice starting at q_lo - k + p_max,
    # so all rows together are one correlation, in O(n + k_max) memory.
    lo = q_lo - k_max + p_max
    rows = np.correlate(window_power[lo : lo + 2 * k_max + n], power, "valid")[::-1]
    scale = _TWO_PI * (_TWO_PI * normalization_constant()) ** 2
    return ResolutionReport(tuple((scale * rows).tolist()))
