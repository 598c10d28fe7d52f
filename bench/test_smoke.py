"""Smoke tests for the benchmark: every workload at a tiny size, every metric named.

    python3 -m pytest bench/test_smoke.py -q

Not part of the package's test suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import machine  # noqa: E402

machine.cap_threads()
machine.load_package()

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((machine.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    details, result = run.measure(name, seed=7, seconds=0.05, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    json.dumps(result, allow_nan=False)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.absent"]["value"] == 0, details["absent"]
        assert metrics["overlaps.overlap.quadrature_frac"]["value"] == 0.0
        if name == "frame":
            assert metrics["quadrature.integrate.calls"]["value"] == 0


def test_readme_commands_are_verbatim():
    readme = (machine.ROOT / "README.md").read_text(encoding="utf-8")
    for command in workloads.README_COMMANDS:
        assert command in readme


def test_spans_restore_the_package():
    import circle_cs
    import spans

    before = circle_cs.overlaps.erf_complex
    with spans.Tracer() as tracer:
        assert circle_cs.overlaps.erf_complex is not before
        tracer.root(circle_cs.overlap, circle_cs.StateLabel(0, 0.0), circle_cs.StateLabel(1, 1.0))
        summary = tracer.take()
    assert circle_cs.overlaps.erf_complex is before
    assert summary["spans"]["special.erf_complex"][0] == 2
    assert summary["spans"]["overlaps.overlap"][0] == 1


def test_tail_percentile():
    assert run.tail([1.0] * 5) == (1.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(1, 31)])
    assert (value, pct, beyond) == (20.0, 100.0 * 20 / 30, 10)


def test_loop_pairs_each_op_with_references():
    workload = workloads.WORKLOADS["frame"]
    inputs = workload.build(7, tiny=True)
    calls = []
    loop, probed = run.run_loop(workload, inputs, 0.05, lambda: calls.append(1) or 0.5, 3)
    assert probed == [0.5] * 3 and len(calls) == 3
    assert len(loop.relative) == len(loop.latencies) >= 1
    assert len(loop.references) >= len(loop.latencies) + 1
    assert all(r > 0 for r in loop.relative)


def test_exits_nonzero_without_sources():
    with tempfile.TemporaryDirectory(dir=machine.ROOT, prefix=".bench-smoke-") as bare:
        shutil.copy(machine.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "frame", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
