"""Wrapped-Gaussian coherent states on the unit circle.

A state is labeled by an integer winding number m and an angle alpha; its
wave function on [-pi, pi) is

    psi_{m,alpha}(phi) = A * exp(i m phi) * exp(-wrap(phi - alpha)^2 / 2),

where wrap() reduces modulo 2 pi into [-pi, pi) and A normalizes the state,
A = 1/sqrt(sqrt(pi) erf(pi)).  Because the Gaussian envelope is applied to
the *wrapped* distance, |psi| is continuous everywhere on the circle; the
envelope has a derivative kink at the point antipodal to alpha, and that is
the only non-smooth feature.

Angles are floats.  wrap_angle() turns any finite real number into the
canonical representative in [-pi, pi); StateLabel applies it on
construction, so two labels that describe the same state compare equal.

coherent_eval (one angle) and sample_state (a grid) evaluate this formula
through one routine, so they agree bit for bit.  An n-point sampling lives
on phi_j = -pi + 2 pi j / n, read as its trigonometric interpolant wherever
a continuum object is needed (norm, Fourier coefficients).
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec, integrate_rows

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce x modulo 2 pi into [-pi, pi); x must be a finite numbers.Real.

    Values already in range are returned unchanged, which makes the
    reduction exactly idempotent.  pi maps to -pi.
    """
    try:
        finite = (type(x) is float or isinstance(x, numbers.Real)) and math.isfinite(x)
    except OverflowError:  # isfinite's float() of a real past the double range
        finite = False
    if not finite:
        raise DomainError(f"wrap_angle: angle must be a finite real number, got {x!r}")
    x = float(x)
    if -math.pi <= x < math.pi:
        return x
    y = (x + math.pi) % _TWO_PI - math.pi
    # Just below -pi the modulo rounds up to 2 pi, which lands y on pi.
    return y - _TWO_PI if y >= math.pi else y


def _integer(name: str, value, low: int | None = None) -> int:
    """int(value) for any numbers.Integral (bool included) that is at least
    low, if low is given, else DomainError: wrap_angle's twin for integers."""
    if not isinstance(value, (int, numbers.Integral)) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _winding(value) -> int:
    """_integer for a winding number m, held to |m| < 2^511 so that m^2 and
    every gap's square (n - m)^2 lie inside the double range."""
    m = _integer("winding number", value)
    if m.bit_length() > 511:
        raise DomainError(f"winding number must satisfy |m| < 2^511, got {m!r}")
    return m


def _wrap_array(x: np.ndarray) -> np.ndarray:
    y = np.mod(np.asarray(x, dtype=float) + math.pi, _TWO_PI) - math.pi
    # np.mod can land on the open endpoint through rounding.
    return np.where(y >= math.pi, y - _TWO_PI, y)


@functools.cache
def normalization_constant() -> float:
    """A = 1/sqrt(sqrt(pi) erf(pi)), the L2 normalization of every state.

    Cached; the closed form comes from int_{-pi}^{pi} e^{-x^2} dx =
    sqrt(pi) erf(pi).
    """
    return 1.0 / math.sqrt(math.sqrt(math.pi) * math.erf(math.pi))


@dataclass(frozen=True)
class StateLabel:
    """Label (m, alpha) of one coherent state: |m| < 2^511, alpha canonicalized."""

    m: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "m", _winding(self.m))
        object.__setattr__(self, "alpha", wrap_angle(self.alpha))


def coherent_eval(label: StateLabel, phi: float) -> complex:
    """Wave function of the labeled state at angle phi, by sample_state's formula.

    phi may be any finite float (DomainError otherwise); it is wrapped
    first, so evaluation is 2 pi periodic by construction.
    """
    return complex(_amplitudes(label.m, label.alpha, wrap_angle(phi)))


def _amplitudes(m, alpha, phi: np.ndarray) -> np.ndarray:
    """The wave function of label (m, alpha) at phi in [-pi, pi]; m and alpha
    may be arrays of phi's shape, one label per point.  Only the distance
    phi - alpha is wrapped: every caller already passes phi in range."""
    d = _wrap_array(phi - alpha)
    return normalization_constant() * np.exp(1j * m * phi) * np.exp(-0.5 * d * d)


def _integrate_period(f, spec: QuadratureSpec | None, label_rows):
    """integrate_rows(f, -pi, pi, spec), one row per tuple of labels, each
    row split at its labels' envelope kinks, wrap(alpha - pi), unless one
    falls on the endpoint -pi.
    """
    kinks = (
        [wrap_angle(label.alpha - math.pi) for label in labels] for labels in label_rows
    )
    splits = [[k for k in row if k > -math.pi] for row in kinks]
    return integrate_rows(f, -math.pi, math.pi, spec, splits)


@dataclass(frozen=True)
class SampledWaveFunction:
    """A wave function sampled on the uniform grid phi_j = -pi + 2 pi j / n.

    The amplitude array is copied and frozen read-only.  norm_squared() is
    the trapezoid rule on the periodic grid, which for a trigonometric
    interpolant is its exact L2 norm.
    """

    n_grid: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _integer("n_grid", self.n_grid, 2)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (n,):
            raise DomainError(f"amplitudes must have shape ({n},), got {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise DomainError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "n_grid", n)
        object.__setattr__(self, "amplitudes", amps)

    def grid(self) -> np.ndarray:
        return -math.pi + np.arange(self.n_grid) * (_TWO_PI / self.n_grid)

    def norm_squared(self) -> float:
        return _TWO_PI / self.n_grid * float(np.sum(np.abs(self.amplitudes) ** 2))


def sample_state(label: StateLabel, n_grid: int) -> SampledWaveFunction:
    """Sample the labeled state; n_grid must be at least 16."""
    n_grid = _integer("n_grid", n_grid, 16)
    phi = -math.pi + np.arange(n_grid) * (_TWO_PI / n_grid)
    return SampledWaveFunction(n_grid, _amplitudes(label.m, label.alpha, phi))


_PLANE_WAVE = re.compile(r"^plane_wave_(-?\d+)$")


def named_vector(name: str, n_grid: int) -> SampledWaveFunction:
    """A unit test vector by name: vacuum, two_peak or plane_wave_<k>.

    vacuum is the (0, 0) state; two_peak the normalized sum of the
    (0, -pi/2) and (0, pi/2) states; plane_wave_<k> is e^{i k phi}/sqrt(2 pi),
    with |k| <= n_grid/4.  n_grid must be at least 16, as in sample_state.
    """
    vacuum = sample_state(StateLabel(0, 0.0), n_grid)
    if name == "vacuum":
        return vacuum
    if name == "two_peak":
        amps = (
            sample_state(StateLabel(0, -math.pi / 2), n_grid).amplitudes
            + sample_state(StateLabel(0, math.pi / 2), n_grid).amplitudes
        )
        nsq = SampledWaveFunction(n_grid, amps).norm_squared()
        return SampledWaveFunction(n_grid, amps / math.sqrt(nsq))
    match = _PLANE_WAVE.match(name)
    if match:
        winding = int(match.group(1))
        if abs(winding) > n_grid // 4:
            raise DomainError(
                f"plane wave winding {winding} too fast for n_grid = {n_grid}"
            )
        amps = np.exp(1j * winding * vacuum.grid()) / math.sqrt(_TWO_PI)
        return SampledWaveFunction(n_grid, amps)
    raise DomainError(
        f"unknown vector {name!r}; expected vacuum, two_peak, or plane_wave_<int>"
    )


def fourier_coefficients(psi: SampledWaveFunction, n_max: int) -> np.ndarray:
    """Coefficients a_n = (1/2 pi) int psi(phi) e^{-i n phi} dphi.

    Returned for n = -n_max .. n_max (index 0 is n = -n_max), computed by
    one FFT of the samples: the periodic trapezoid rule gives
    a_n = (-1)^n / n_grid * FFT(psi)[n mod n_grid].  These are the
    coefficients of the trigonometric interpolant, i.e. the aliased sums
    sum_j a_{n + j n_grid} of the function's own coefficients.  n_grid >=
    4 * n_max is enforced, which keeps the window well inside the Nyquist
    band but does not make the aliases vanish: for a coherent state, whose
    slope kink makes a_n decay like (n - m)^-2, the returned coefficient
    is off by up to about ((n - m)/n_grid)^2 pi^2/3 relative.
    """
    n_max = _integer("n_max", n_max, 0)
    if psi.n_grid < 4 * n_max:
        raise DomainError(
            f"n_grid = {psi.n_grid} too coarse for n_max = {n_max}"
            f" (need n_grid >= {4 * n_max})"
        )
    forward = np.fft.fft(psi.amplitudes) / psi.n_grid
    n = np.arange(-n_max, n_max + 1)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return sign * forward[n % psi.n_grid]


def phase_transform(psi: SampledWaveFunction, m: int) -> SampledWaveFunction:
    """Multiply the samples by e^{i m phi_j} (grid winding operator)."""
    return SampledWaveFunction(
        psi.n_grid, psi.amplitudes * np.exp(1j * _winding(m) * psi.grid())
    )


def shift_transform(psi: SampledWaveFunction, alpha: float) -> SampledWaveFunction:
    """Rotate the samples by alpha, which must be a grid multiple.

    The rotated vector is psi(phi - alpha) realized as an index roll, so
    alpha must be an angle wrap_angle accepts, and wrap_angle(alpha)/h (h
    the grid step) an integer to 1e-9, else DomainError.
    """
    h = _TWO_PI / psi.n_grid
    steps = wrap_angle(alpha) / h
    nearest = round(steps)
    if abs(steps - nearest) > 1e-9:
        raise DomainError(
            f"shift {alpha} is not a multiple of the grid step {h:.6g}"
        )
    return SampledWaveFunction(psi.n_grid, np.roll(psi.amplitudes, int(nearest) % psi.n_grid))
