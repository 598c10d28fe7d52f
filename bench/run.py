"""circle-cs benchmark: one seeded workload, timed, checked, optionally traced.

    python3 bench/run.py --workload {frame,sweep,resolution} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: circle_cs is imported from its src/
and from nowhere else (a directory without it exits 2 before any result).
The BLAS pool is one thread (see machine.py) and CIRCLE_CS_THREADS is unset.

The op loop is closed with one client and runs until the ops' own time sums
to S seconds.  With --trace 0 a pass of the workload's reference kernel
(reference.py) runs before the first op and after each one, and the gated latencies are op
times over the mean of the two reference times beside them, so that the
host's swings in speed cancel; the set-up probes are spread over the same
run.  Outputs are checked outside the timed region: the first op's
output by a second route (workloads.py), every later one for bit-equality
with the first.  With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 ops alternate between untraced and run under
spans.Tracer, and the result holds the per-layer metrics.  stdout ends with
one JSON line: correct, attempted, failed, metrics.  The lines before it
record the machine and details such as the tail percentile, the latencies
in seconds and the README probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine
import reference

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 9
NUMPY_PROBES = 5
PROBE_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------


def _time_until_ready(argv: list) -> float:
    """Seconds from spawning argv to its "ready" line; the child must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=machine.child_env(), cwd=machine.ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def setup_probe(name: str, seed: int):
    """A zero-argument function timing one fresh-interpreter set-up."""
    argv = [sys.executable, str(BENCH / "probe.py"), name, str(seed)]
    return lambda: _time_until_ready(argv)


def numpy_import_seconds() -> float:
    argv = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    return statistics.median(_time_until_ready(argv) for _ in range(NUMPY_PROBES))


# ---------------------------------------------------------------------------
# the op loop
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # ops that raised
    first: object = None
    differing: int = 0  # outputs not bit-equal to the first
    busy: float = 0.0  # seconds spent inside ops
    relative: list = field(default_factory=list)  # latency / reference time beside it, per op
    references: list = field(default_factory=list)  # reference kernel times

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.errors)

    def step(self, workload, inputs, call=None):
        """Run and time one op, through call(op, inputs) if given.  Returns
        its latency, or None if it raised."""
        error = None
        t0 = time.perf_counter()
        try:
            out = call(workload.op, inputs) if call else workload.op(inputs)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.busy += dt
        if error is not None:
            self.errors.append(error)
            return None
        self.latencies.append(dt)
        if self.first is None:
            self.first = out
        elif not workload.same(self.first, out):
            self.differing += 1
        return dt


def run_loop(workload, inputs, seconds: float, probe, probes: int) -> tuple:
    """Closed loop until the ops' own time sums to `seconds`; returns the
    Loop and the `probes` results of probe().

    A pass of the workload's reference kernel runs before the first op and
    after each op, and each op's latency is also recorded over the mean of
    the two.
    The probes run between ops, spread evenly over the ops' time, so that
    they meet the same swings in host speed as the ops do."""
    loop, probed, before = Loop(), [], None
    while loop.busy < seconds:
        if len(probed) < probes and loop.busy >= len(probed) * seconds / probes:
            probed.append(probe())
            before = None
        if before is None:
            before = reference.seconds(workload.reference_kernel)
            loop.references.append(before)
        dt = loop.step(workload, inputs)
        after = reference.seconds(workload.reference_kernel)
        loop.references.append(after)
        if dt is not None:
            loop.relative.append(dt / (0.5 * (before + after)))
        before = after
    while len(probed) < probes:
        probed.append(probe())
    return loop, probed


def merge(workload, traced: Loop, untraced: Loop) -> Loop:
    """One Loop holding the traced and the untraced ops of a run, for scoring."""
    both = Loop(
        latencies=untraced.latencies + traced.latencies,
        errors=untraced.errors + traced.errors,
        first=untraced.first if untraced.first is not None else traced.first,
        differing=untraced.differing + traced.differing,
    )
    if untraced.first is not None and traced.first is not None:
        both.differing += not workload.same(untraced.first, traced.first)
    return both


def check_loop(workload, inputs, loop: Loop) -> tuple:
    """(failed ops, max abs error, failure notes) for a finished loop.

    The error reads -1 when the check failed."""
    notes = list(loop.errors)
    if loop.first is None:
        return loop.attempted, 0.0, notes
    if len(loop.latencies) == 1 and not workload.same(loop.first, workload.op(inputs)):
        loop.differing += 1
    try:
        max_err = workload.check(inputs, loop.first)
    except Exception as exc:  # unparsable output fails its check too
        notes.append(f"check failed: {type(exc).__name__}: {exc}")
        return loop.attempted, -1.0, notes
    if loop.differing:
        notes.append(f"{loop.differing} outputs differ from the first op's")
    return len(loop.errors) + loop.differing, max_err, notes


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least 10 samples above it; the maximum if there are <= 10."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def summary(latencies: list) -> tuple:
    """(ops per unit of latency, median, tail, tail percentile, samples
    beyond the tail) of a list of op latencies."""
    if not latencies:
        return 0.0, 0.0, 0.0, 0.0, 0
    return (len(latencies) / sum(latencies), statistics.median(latencies), *tail(latencies))


# ---------------------------------------------------------------------------
# traced metrics
# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


ORACLES = (
    "observables.expectation_Q_quadrature",
    "observables.expectation_P_quadrature",
    "observables.expectation_P2_quadrature",
)


def layer_metrics(summaries: list, setup: dict) -> dict:
    """Per-op medians of the traced quantities; sample_state is timed over
    one traced input build instead, since only set-up calls it."""
    import spans  # after cap_threads(), as in measure()

    def med(fn, pick=statistics.median):
        return pick([fn(s) for s in summaries]) if summaries else 0

    def calls(s, name):
        return s["spans"].get(name, (0, 0.0))[0]

    def self_s(s, name):
        return s["spans"].get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    def per_op(name, unit, fn):
        # Counts repeat exactly from op to op; median_low keeps them whole.
        out[name] = _metric(med(fn, statistics.median_low if unit == "count" else statistics.median), unit)

    out = {}
    per_op("special.erf_complex.calls", "count", lambda s: calls(s, "special.erf_complex"))
    per_op("special.erf_complex.self_s", "s", lambda s: self_s(s, "special.erf_complex"))
    per_op("special.erf_complex.series_frac", "ratio", lambda s: ratio(
        s["counts"]["special.erf_complex.series"], calls(s, "special.erf_complex")))
    per_op("special.w.points", "count", lambda s: s["counts"]["special.w.points"])
    per_op("quadrature.integrate.calls", "count", lambda s: calls(s, "quadrature.integrate"))
    per_op("quadrature.integrate.self_s", "s", lambda s: self_s(s, "quadrature.integrate"))
    per_op("quadrature.integrand_points", "count", lambda s: s["counts"]["quadrature.integrand_points"])
    per_op("quadrature.integrand_s", "s", lambda s: s["integrand_s"])
    per_op("overlaps.overlap.calls", "count", lambda s: calls(s, "overlaps.overlap"))
    per_op("overlaps.overlap.self_s", "s", lambda s: self_s(s, "overlaps.overlap"))
    per_op("overlaps.overlap.quadrature_frac", "ratio", lambda s: ratio(
        s["counts"]["overlaps.overlap.quadrature"], calls(s, "overlaps.overlap")))
    per_op("overlaps.overlap_quadrature.self_s", "s", lambda s: self_s(s, "overlaps.overlap_quadrature"))
    per_op("observables.resolution_check.self_s", "s", lambda s: self_s(s, "observables.resolution_check"))
    per_op("observables.oracles.self_s", "s", lambda s: sum(self_s(s, n) for n in ORACLES))
    per_op("cli.main.self_s", "s", lambda s: self_s(s, "cli.main"))
    for layer in spans.LAYERS:
        per_op(f"layer.{layer}.self_frac", "ratio", lambda s: ratio(s["layers"][layer], s["total_s"]))
    out["states.sample_state.self_s"] = _metric(self_s(setup, "states.sample_state"), "s")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple:
    """Run one workload; returns (details, result) as printed by main()."""
    # Imported here, not at the top: numpy must load after cap_threads().
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, tiny)
    workload.warm(inputs)
    details = {"workload": name, "seed": seed, "trace": trace}

    if trace:
        # Traced and untraced ops alternate, so drift in machine speed
        # cancels out of trace.overhead_frac.
        tracer = spans.Tracer()
        untraced, loop, summaries = Loop(), Loop(), []
        while untraced.busy + loop.busy < seconds:
            untraced.step(workload, inputs)
            with tracer:
                loop.step(workload, inputs, call=tracer.root)
            summaries.append(tracer.take())
        with tracer:
            tracer.root(workload.build, seed, tiny)
            setup = tracer.take()
        traced_ops_per_s = summary(loop.latencies)[0]
        loop = merge(workload, loop, untraced)
    else:
        loop, setup = run_loop(workload, inputs, seconds, setup_probe(name, seed), SETUP_PROBES)

    failed, max_err, notes = check_loop(workload, inputs, loop)
    probe = workloads.readme_probe() if name == "sweep" else []
    probe_failed = sum(1 for _, ok, _ in probe if not ok)
    bytes_out = workload.bytes_out(loop.first) if loop.first is not None else 0

    details.update(
        samples=len(loop.latencies),
        ops_failed_frac=(failed + probe_failed) / (loop.attempted + len(probe)),
        check_max_abs_err=max_err,
        failures=notes,
        readme_probe=[{"command": c, "ok": ok, "detail": d} for c, ok, d in probe],
    )

    if trace:
        rate, p50, tail_s, _, _ = summary(untraced.latencies)
        metrics = layer_metrics(summaries, setup)
        metrics.update({
            "ops_per_s": _metric(rate, "1/s"),
            "op_p50_s": _metric(p50, "s"),
            "op_tail_s": _metric(tail_s, "s"),
            "cli.bytes_out": _metric(bytes_out, "bytes"),
            "trace.overhead_frac": _metric(
                traced_ops_per_s / rate - 1.0 if untraced.latencies else 0.0, "ratio"
            ),
            "trace.absent": _metric(len(tracer.absent), "count"),
            "env.numpy_import_s": _metric(numpy_import_seconds(), "s"),
            "check.max_abs_err": _metric(max_err, "abs"),
            "ops_failed_frac": _metric(details["ops_failed_frac"], "ratio"),
            "readme_probe.attempted": _metric(len(probe), "count"),
            "readme_probe.failed": _metric(probe_failed, "count"),
        })
        details["absent"] = tracer.absent
    else:
        rate, p50, tail_ref, pct, beyond = summary(loop.relative)
        rate_s, p50_s, tail_s, _, _ = summary(loop.latencies)
        details.update(
            op_tail_percentile=pct, op_tail_beyond=beyond,
            ops_per_s=rate_s, op_p50_s=p50_s, op_tail_s=tail_s,
            reference_p50_s=statistics.median(loop.references),
        )
        metrics = {
            "ops_per_ref": _metric(rate, "1/ref"),
            "op_p50_ref": _metric(p50, "ref"),
            "op_tail_ref": _metric(tail_ref, "ref"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    result = {
        "correct": failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("frame", "sweep", "resolution"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    cap = machine.cap_threads()
    try:
        machine.load_package()
    except machine.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": machine.describe(cap)}))
    details, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
