"""Global-adaptive Gauss-Kronrod integration for complex-valued integrands.

One rule, used everywhere in the package the closed forms need independent
checking: the 7-point Gauss rule embedded in the 15-point Kronrod extension.
All nodes are interior, so integrands may be singular at panel boundaries
(declare such points as split points and the engine never samples them).

Integrands are vectorized: f receives an ndarray of abscissae and must
return an array of the same shape (a scalar return is broadcast, so
constants work too).

One engine, integrate_rows, refines a batch of integrals at once, each
row with its own split points, panels, tolerance test and error estimate;
every round evaluates the new panels of all rows in one call f(x, rows).
Each row comes out bit for bit as it does alone, each panel is evaluated
once, and no call takes more than _MAX_PANELS panels: a batch over the cap
finishes its lowest rows first.  integrate() is a batch of one.  The
tolerances are a QuadratureSpec's; _MAX_DEPTH and _MAX_PANELS are fixed.

The node/weight tables were generated from first principles by
tools/gen_gauss_kronrod.py in 60-digit arithmetic and validated by degree
exactness (Gauss exact through degree 13, Kronrod through 22) before being
rounded to the decimal strings below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# A panel bisected _MAX_DEPTH times is frozen.  _MAX_PANELS is a hard budget
# on the panel count; hitting it raises ToleranceNotMet rather than looping
# for minutes.  No integrand call of a batch takes more panels than this.
_MAX_DEPTH = 40
_MAX_PANELS = 16384

# A batch holding more than _MAX_PANELS panels first finishes its lowest
# 1/_SPLIT rows (at least one) on their own.
_SPLIT = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for integrate(); the panel policy is the engine's own."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0.0):
            raise DomainError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")


def _panels(f, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """K15 values and |K15 - G7| estimates of every panel, from one f call.

    The rule sums run per panel, not as matrix-vector products, whose
    rounding depends on how many panels share the product; so a panel's
    estimates depend on its own integrand values alone.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    y = np.asarray(f(x, np.repeat(rows, _NODES.size)), dtype=complex)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    y = y.reshape(lo.size, _NODES.size)
    k15 = half * (y * _K_WEIGHTS).sum(axis=1)
    g7 = half * (y[:, _GAUSS_SLICE] * _G_WEIGHTS).sum(axis=1)
    return k15, np.abs(k15 - g7)


def _not_met(reason: str, value: complex, err: float, row: int) -> ToleranceNotMet:
    return ToleranceNotMet(
        f"integrate: {reason}; best estimate {value} with err_est {err:.3e}",
        value,
        err,
        row,
    )


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None,
              split_points=()):
    """Adaptively integrate f over [a, b] to the spec's tolerances.

    Returns (value, err_est) with err_est <= max(abs_tol, rel_tol*|value|).
    split_points are abscissae where f is non-smooth (or singular); they
    become initial panel boundaries and are never sampled.  Refinement runs
    in rounds: each round sums every panel in interval order and accepts
    the totals if they meet the tolerance.  Otherwise it bisects every
    panel whose |K15 - G7| exceeds its width's share of the tolerance and
    evaluates all the new panels in one call to f.  A panel at _MAX_DEPTH,
    or one too narrow to have a midpoint strictly inside it, is frozen: it
    keeps its estimate, and only the tolerance its error leaves is shared
    among the others.  The result is a deterministic function of
    (f, a, b, spec, split_points) alone.  This is integrate_rows with a
    single row.

    Raises DomainError for a >= b, non-finite limits, or split points not
    strictly inside (a, b); raises ToleranceNotMet (carrying the best value
    and its error estimate) when only frozen panels are left to bisect or
    the panel budget runs out first.
    """
    values, err_ests = integrate_rows(lambda x, rows: f(x), a, b, spec, (split_points,))
    return complex(values[0]), float(err_ests[0])


def integrate_rows(f, a: float, b: float, spec: QuadratureSpec | None = None,
                   splits=((),)):
    """Integrate a batch of rows over [a, b], each as integrate() would alone.

    f(x, rows) gets the abscissae of every open panel of every row, with
    the row of each abscissa in the same-shaped int array rows, and returns
    each row's integrand there.  splits holds one tuple of split points per
    row, where that row's initial panels start.  Returns (values, err_ests),
    arrays with one entry per row.

    Every row keeps its own panels, tolerance test, err_est and panel
    budget, and each round evaluates the new panels of all rows in one
    call to f.  A row's arithmetic reads only its own panels (per-panel
    rule sums, per-row segment totals), so every row comes out bit for bit
    as it does alone, whatever the batch around it.

    A round that starts with more than _MAX_PANELS panels and more than
    one row first runs the lowest 1/_SPLIT of the rows to completion, as a
    batch of their own, and then carries on with the others, whose panels
    wait unchanged.  So no call to f takes more than _MAX_PANELS panels
    (unless one row's split points alone make more), and every panel is
    evaluated exactly once.

    Raises DomainError as integrate() does, for any row.  When a row fails,
    the rows above it are dropped; once every row below it has finished,
    ToleranceNotMet is raised for it, with its index as .row, so a batch
    fails on the row a loop over the rows would have failed on.
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"non-finite integration limits ({a}, {b})")
    if not a < b:
        raise DomainError(f"integration limits must satisfy a < b, got ({a}, {b})")
    edges = []
    for row_points in splits:
        points = sorted({float(p) for p in row_points})
        for p in points:
            if not a < p < b:
                raise DomainError(f"split point {p} not strictly inside ({a}, {b})")
        edges.append((a, *points, b))

    values = np.zeros(len(edges), dtype=complex)
    err_ests = np.zeros(len(edges))
    row = np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges])
    lo = np.array([x for e in edges for x in e[:-1]])
    hi = np.array([x for e in edges for x in e[1:]])
    _refine(f, spec, values, err_ests, row, lo, hi, np.zeros_like(row),
            np.zeros(row.size, dtype=complex), np.zeros(row.size),
            np.ones(row.size, dtype=bool))
    return values, err_ests


def _refine(f, spec, values, err_ests, row, lo, hi, depth, val, err, fresh):
    """Refine the given panels until their rows finish, into values and err_ests.

    The panels are grouped by row in ascending order and in interval order
    within a row; fresh marks those not yet evaluated.  Raises
    ToleranceNotMet for the lowest failing row.
    """
    cap = _MAX_PANELS
    failed = None
    while row.size:
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        if row.size > cap and starts.size > 1:
            # Finish the lowest rows first (a failure there is the lowest);
            # the others wait with their panels as they stand.
            state = (row, lo, hi, depth, val, err, fresh)
            cut = starts[max(1, starts.size // _SPLIT)]
            _refine(f, spec, values, err_ests, *(x[:cut] for x in state))
            row, lo, hi, depth, val, err, fresh = (x[cut:] for x in state)
            continue
        val[fresh], err[fresh] = _panels(f, lo[fresh], hi[fresh], row[fresh])

        # One segment per row: its totals and its tolerance test.
        ids = row[starts]
        counts = np.diff(starts, append=row.size)
        seg = np.repeat(np.arange(ids.size), counts)
        value = np.add.reduceat(val, starts)
        err_est = np.add.reduceat(err, starts)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
        done = err_est <= tol
        values[ids[done]] = value[done]
        err_ests[ids[done]] = err_est[done]

        mid = 0.5 * (lo + hi)
        width = hi - lo
        live = (depth < _MAX_DEPTH) & (lo < mid) & (mid < hi)
        # Frozen panels keep their error; the live ones share what is left.
        spare = tol - np.add.reduceat(np.where(live, 0.0, err), starts)
        live_width = np.add.reduceat(np.where(live, width, 0.0), starts)
        split = live & (err * live_width[seg] > spare[seg] * width)
        need = np.add.reduceat(split.astype(int), starts)
        stuck = ~done & ((spare <= 0.0) | (need == 0))
        over = ~done & ~stuck & (counts + need > cap)
        keep = ~done
        if (stuck | over).any():
            k = np.flatnonzero(stuck | over)[0]
            reason = (
                "the error left is held by frozen panels" if stuck[k]
                else f"panel budget {cap} exhausted"
            )
            failed = _not_met(reason, complex(value[k]), float(err_est[k]), int(ids[k]))
            keep[k:] = False
        split &= keep[seg]

        # Each split panel becomes two adjacent children, which keeps the
        # arrays in row and interval order; finished rows drop out.
        reps = np.where(keep[seg], 1 + split, 0)
        last = np.cumsum(reps) - 1
        row, lo, hi, depth, val, err = (
            np.repeat(x, reps) for x in (row, lo, hi, depth + split, val, err)
        )
        lo[last[split]] = mid[split]
        hi[last[split] - 1] = mid[split]
        fresh = np.repeat(split, reps)
    if failed is not None:
        raise failed
