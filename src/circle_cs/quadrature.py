"""Global-adaptive Gauss-Kronrod integration for complex-valued integrands.

One rule, used everywhere in the package the closed forms need independent
checking: the 7-point Gauss rule embedded in the 15-point Kronrod extension.
All nodes are interior, so integrands may be singular at panel boundaries
(declare such points via split_points and the engine never samples them).

Integrands are vectorized: f receives an ndarray of abscissae and must
return an array of the same shape (a scalar return is broadcast, so
constants work too).

The node/weight tables were generated from first principles by
tools/gen_gauss_kronrod.py in 60-digit arithmetic and validated by degree
exactness (Gauss exact through degree 13, Kronrod through 22) before being
rounded to the decimal strings below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ToleranceNotMet

# Positive Kronrod abscissae, descending, with their K15 weights.
_KRONROD_POSITIVE = (
    ("0.9914553711208126392068547", "0.02293532201052922496373201"),
    ("0.9491079123427585245261897", "0.06309209262997855329070066"),
    ("0.8648644233597690727897128", "0.1047900103222501838398763"),
    ("0.7415311855993944398638648", "0.1406532597155259187451896"),
    ("0.5860872354676911302941448", "0.1690047266392679028265834"),
    ("0.4058451513773971669066064", "0.1903505780647854099132564"),
    ("0.2077849550078984676006894", "0.204432940075298892414162"),
)
_KRONROD_CENTER_WEIGHT = "0.2094821410847278280129992"

# G7 weights for the embedded Gauss nodes (every second Kronrod node),
# positive abscissae descending.
_GAUSS_POSITIVE = (
    "0.1294849661688696932706114",
    "0.2797053914892766679014678",
    "0.3818300505051189449503698",
)
_GAUSS_CENTER_WEIGHT = "0.417959183673469387755102"

_pos = np.array([float(x) for x, _ in _KRONROD_POSITIVE])
_wk = np.array([float(w) for _, w in _KRONROD_POSITIVE])
_NODES = np.concatenate((-_pos, [0.0], _pos[::-1]))
_K_WEIGHTS = np.concatenate((_wk, [float(_KRONROD_CENTER_WEIGHT)], _wk[::-1]))
_g = np.array([float(w) for w in _GAUSS_POSITIVE])
_G_WEIGHTS = np.concatenate((_g, [float(_GAUSS_CENTER_WEIGHT)], _g[::-1]))
# Gauss nodes sit at the odd positions of the ascending 15-node array.
_GAUSS_SLICE = slice(1, 14, 2)

del _pos, _wk, _g

# Hard budget on the panel count, independent of max_depth; hitting it
# raises ToleranceNotMet rather than looping for minutes.
_MAX_PANELS = 16384


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel policy for integrate().

    split_points are abscissae where the integrand is non-smooth (or
    singular); they become initial panel boundaries and are never sampled.
    They must lie strictly inside the integration interval.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 40
    split_points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise DomainError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise DomainError(f"max_depth must be an integer >= 1, got {self.max_depth}")
        pts = tuple(sorted(float(p) for p in self.split_points))
        for p in pts:
            if not math.isfinite(p):
                raise DomainError(f"non-finite split point {p}")
        object.__setattr__(self, "split_points", pts)


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """K15 values and |K15 - G7| estimates of every panel, from one f call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    y = np.asarray(f(x), dtype=complex)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    y = y.reshape(lo.size, _NODES.size)
    k15 = half * (y @ _K_WEIGHTS)
    g7 = half * (y[:, _GAUSS_SLICE] @ _G_WEIGHTS)
    return k15, np.abs(k15 - g7)


def _not_met(reason: str, value: complex, err: float) -> ToleranceNotMet:
    return ToleranceNotMet(
        f"integrate: {reason}; best estimate {value} with err_est {err:.3e}",
        value,
        err,
    )


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None):
    """Adaptively integrate f over [a, b] to the spec's tolerances.

    Returns (value, err_est) with err_est <= max(abs_tol, rel_tol*|value|).
    Refinement runs in rounds: each round sums every panel in interval
    order and accepts the totals if they meet the tolerance.  Otherwise it
    bisects every panel whose |K15 - G7| exceeds its width's share of the
    tolerance and evaluates all the new panels in one call to f.  A panel at
    max_depth, or one too narrow to have a midpoint strictly inside it, is
    frozen: it keeps its estimate, and only the tolerance its error leaves
    is shared among the others.  The result is a deterministic function of
    (f, a, b, spec) alone.

    Raises DomainError for a >= b, non-finite limits, or split points not
    strictly inside (a, b); raises ToleranceNotMet (carrying the best value
    and its error estimate) when only frozen panels are left to bisect or
    the panel budget runs out first.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"non-finite integration limits ({a}, {b})")
    if not a < b:
        raise DomainError(f"integration limits must satisfy a < b, got ({a}, {b})")
    for p in spec.split_points:
        if not a < p < b:
            raise DomainError(f"split point {p} not strictly inside ({a}, {b})")

    edges = np.array((a, *spec.split_points, b))
    lo, hi = edges[:-1], edges[1:]
    depth = np.zeros(lo.size, dtype=int)
    val, err = _panels(f, lo, hi)
    while True:
        value = complex(val.sum())
        err_est = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if err_est <= tol:
            return value, err_est
        mid = 0.5 * (lo + hi)
        width = hi - lo
        live = (depth < spec.max_depth) & (lo < mid) & (mid < hi)
        # Frozen panels keep their error; the live ones share what is left.
        spare = tol - err[~live].sum()
        split = live & (err * width[live].sum() > spare * width)
        if spare <= 0.0 or not split.any():
            raise _not_met("the error left is held by frozen panels", value, err_est)
        if lo.size + np.count_nonzero(split) > _MAX_PANELS:
            raise _not_met(f"panel budget {_MAX_PANELS} exhausted", value, err_est)
        # Each split panel becomes two adjacent children, which keeps the
        # arrays in interval order.
        reps = 1 + split
        last = np.cumsum(reps) - 1
        lo, hi = np.repeat(lo, reps), np.repeat(hi, reps)
        lo[last[split]] = mid[split]
        hi[last[split] - 1] = mid[split]
        depth = np.repeat(depth + split, reps)
        new = np.repeat(split, reps)
        val, err = np.repeat(val, reps), np.repeat(err, reps)
        val[new], err[new] = _panels(f, lo[new], hi[new])
