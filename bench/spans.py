"""Outside-in tracing of circle_cs: spans around each module's public entry points.

Tracer.install() replaces every traced function at each module attribute
that holds it, so calls between modules (overlaps -> special.erf_complex as
`overlaps.erf_complex`, observables -> quadrature.integrate as
`observables.integrate`, ...) go through a wrapper.  A wrapper records a
span [name, start, end, parent index] and, for a few entry points, counts
derived from the arguments or the result.  Nothing in src/ is changed, and
uninstall() puts every original back.

Entry points missing from the package (deleted or renamed later) are
listed in Tracer.absent and their metrics read 0.  Microsecond helpers such
as wrap_angle, StateLabel, coherent_eval and the closed-form moments are
not traced: a wrapper would cost more than the call, and their time stays
in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Layer (module of circle_cs) -> traced public entry points.
TRACE_POINTS = {
    "special": ("erf_complex",),
    "quadrature": ("integrate",),
    "states": ("sample_state", "fourier_coefficients", "phase_transform", "shift_transform"),
    "overlaps": ("overlap", "overlap_quadrature", "overlap_table_csv"),
    "observables": (
        "resolution_check",
        "expectation_Q_quadrature",
        "expectation_P_quadrature",
        "expectation_P2_quadrature",
        "expectation_P2_fourier",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACE_POINTS) + ("harness",)

# The Faddeeva kernel is counted (points per call), not spanned.
W_KERNEL = ("special", "_faddeeva_upper")

# erf_complex sums its Maclaurin series inside this radius.
SERIES_RADIUS = 3.0

ROOT_SPAN = "harness.op"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.integrand_s = 0.0
        self.absent = []
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_series(self, args):
        if args and abs(complex(args[0])) <= SERIES_RADIUS:
            self.counts["special.erf_complex.series"] += 1
        return args

    def _count_quadrature_result(self, result):
        if getattr(result, "method", None) == "quadrature":
            self.counts["overlaps.overlap.quadrature"] += 1

    def _count_integrand(self, args):
        if not args:
            return args
        f = args[0]
        counts, clock = self.counts, time.perf_counter

        def counted(x):
            counts["quadrature.integrand_points"] += np.size(x)
            t0 = clock()
            try:
                return f(x)
            finally:
                self.integrand_s += clock() - t0

        return (counted,) + tuple(args[1:])

    def _counted_w(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(zeta, *args, **kwargs):
            counts["special.w.points"] += np.size(zeta)
            return fn(zeta, *args, **kwargs)

        return wrapper

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        if full == "special.erf_complex":
            return self._spanned(full, fn, before=self._count_series)
        if full == "overlaps.overlap":
            return self._spanned(full, fn, after=self._count_quadrature_result)
        if full == "quadrature.integrate":
            return self._spanned(full, fn, before=self._count_integrand)
        return self._spanned(full, fn)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        self.absent = []
        by_id = {}
        for layer, names in TRACE_POINTS.items():
            module = sys.modules.get(f"circle_cs.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                by_id[id(fn)] = (fn, self._wrap(layer, name, fn))
        layer, name = W_KERNEL
        kernel = getattr(sys.modules.get(f"circle_cs.{layer}"), name, None)
        if callable(kernel):
            by_id[id(kernel)] = (kernel, self._counted_w(kernel))
        else:
            self.absent.append(f"{layer}.{name}")

        for modname, module in list(sys.modules.items()):
            if modname != "circle_cs" and not modname.startswith("circle_cs."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def root(self, fn, *args):
        """Call fn(*args) under the root span; returns its result."""
        return self._spanned(ROOT_SPAN, fn)(*args)

    def take(self):
        """Summarize and clear what was recorded since the last take().

        Returns {"spans": {name: (calls, self_s)}, "layers": {layer: self_s},
        "total_s": root duration, "counts": Counter, "integrand_s": float}.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = defaultdict(lambda: [0, 0.0])
        layers = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        for (name, start, end, parent), inner in zip(spans, child):
            own = (end - start) - inner
            entry = per_name[name]
            entry[0] += 1
            entry[1] += own
            layers[name.split(".", 1)[0]] += own
            if parent < 0:
                total += end - start
        summary = {
            "spans": {k: tuple(v) for k, v in per_name.items()},
            "layers": layers,
            "total_s": total,
            "counts": Counter(self.counts),
            "integrand_s": self.integrand_s,
        }
        self.spans.clear()
        self.counts.clear()
        self.integrand_s = 0.0
        return summary
