"""The three benchmark workloads: inputs, one op, and its output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs come only from the seed; every op of a run
repeats the same work on the same inputs, so outputs must repeat bit for bit.
Checks use a second route (quadrature oracle, parsed output, the criterion-2
conditions) and run outside the timed region.

Import this module only after machine.load_package(): it calls the package
through module attributes looked up at call time, which is what lets the
traced run substitute its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

import circle_cs as cc
from circle_cs import cli

import machine
import reference


class CheckFailed(Exception):
    """An op's output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# frame: the N x N Gram matrix through scalar overlap()
# ---------------------------------------------------------------------------


@dataclass
class FrameInputs:
    labels: list
    samples: list  # (i, j) entries checked against overlap_quadrature


class Frame:
    name = "frame"
    reference_kernel = staticmethod(reference.dispatch)

    def build(self, seed: int, tiny: bool = False) -> FrameInputs:
        rng = random.Random(seed)
        m_max, n_angles, n_samples = (2, 2, 4) if tiny else (8, 8, 24)
        angles = [rng.uniform(-math.pi, math.pi) for _ in range(n_angles)]
        labels = [cc.StateLabel(m, a) for m in range(-m_max, m_max + 1) for a in angles]
        n = len(labels)
        samples = []
        while len(samples) < n_samples:
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                samples.append((i, j))
        return FrameInputs(labels, samples)

    def warm(self, inputs: FrameInputs) -> None:
        cc.overlap(inputs.labels[0], inputs.labels[-1])

    def op(self, inputs: FrameInputs) -> np.ndarray:
        labels = inputs.labels
        overlap = cc.overlap
        gram = np.empty((len(labels), len(labels)), dtype=complex)
        for i, a in enumerate(labels):
            row = gram[i]
            for j, b in enumerate(labels):
                row[j] = overlap(a, b).value
        return gram

    def same(self, first: np.ndarray, other: np.ndarray) -> bool:
        return np.array_equal(first, other)

    def check(self, inputs: FrameInputs, gram: np.ndarray) -> float:
        _require(bool(np.all(np.diag(gram) == 1.0)), "diagonal is not exactly 1")
        herm = float(np.max(np.abs(gram - gram.conj().T)))
        _require(herm <= 1e-15, f"not Hermitian: max |G - G^H| = {herm:.3e}")
        modulus = float(np.max(np.abs(gram)))
        _require(modulus <= 1.0, f"|G| reaches {modulus!r} > 1")
        worst = herm
        for i, j in inputs.samples:
            oracle = cc.overlap_quadrature(inputs.labels[i], inputs.labels[j]).value
            err = abs(gram[i, j] - oracle)
            _require(err <= 1e-10, f"G[{i},{j}] off the quadrature oracle by {err:.3e}")
            worst = max(worst, err)
        return worst

    def bytes_out(self, output) -> int:
        return 0


# ---------------------------------------------------------------------------
# sweep: the CLI's two-route tables, in-process
# ---------------------------------------------------------------------------


@dataclass
class SweepInputs:
    commands: list  # argv lists passed to cli.main
    overlap_rows: int
    observable_rows: int


# The CLI examples of the top-level README, copied verbatim.  The probe runs
# each once per run, untimed; test_smoke.py keeps the copy in step.
README_COMMANDS = (
    "circle-cs eval --m 2 --alpha 0.7854 --grid 512 --out state.csv",
    "circle-cs overlap --alpha 0 --beta 1.5708 --dn-max 5",
    "circle-cs observables --m -3:3 --alpha 0:3.14159:9",
    "circle-cs resolution --vector plane_wave_5 --k-max 30 --format json",
)


def _run_main(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _overlap_errors(rows) -> float:
    """Largest |analytic - quadrature| over parsed rows, recomputed from the
    printed parts and cross-checked against the printed abs_diff."""
    worst = 0.0
    for ana, quad, printed in rows:
        diff = abs(ana - quad)
        _require(diff <= 1e-10, f"overlap routes differ by {diff:.3e}")
        _require(printed <= 1e-10, f"printed abs_diff {printed:.3e} > 1e-10")
        worst = max(worst, diff, printed)
    return worst


def _observable_errors(rows) -> float:
    worst = 0.0
    for q, q_oracle in rows:
        diff = abs(q - q_oracle)
        _require(diff <= 1e-10, f"q_mean off its oracle by {diff:.3e}")
        worst = max(worst, diff)
    return worst


def _parse_overlap_csv(text: str) -> list:
    return [
        (
            complex(float(r["re_analytic"]), float(r["im_analytic"])),
            complex(float(r["re_quadrature"]), float(r["im_quadrature"])),
            float(r["abs_diff"]),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def _parse_overlap_json(text: str) -> list:
    return [
        (
            complex(r["analytic"]["re"], r["analytic"]["im"]),
            complex(r["quadrature"]["re"], r["quadrature"]["im"]),
            float(r["abs_diff"]),
        )
        for r in json.loads(text)["rows"]
    ]


def _parse_observables_csv(text: str) -> list:
    return [
        (float(r["q_mean"]), float(r["q_mean_oracle"]))
        for r in csv.DictReader(io.StringIO(text))
    ]


def _parse_observables_json(text: str) -> list:
    return [(r["q_mean"], r["q_mean_oracle"]) for r in json.loads(text)["rows"]]


class Sweep:
    name = "sweep"
    reference_kernel = staticmethod(reference.dispatch)

    def build(self, seed: int, tiny: bool = False) -> SweepInputs:
        rng = random.Random(seed)
        dn_max, m_sweep, n_alpha = (2, "-1:1", 5) if tiny else (16, "-3:3", 41)
        alpha = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(-math.pi, math.pi)
        start = rng.uniform(-math.pi, 0.0)
        stop = start + rng.uniform(0.5 * math.pi, math.pi)
        overlap = ["overlap", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--dn-max={dn_max}"]
        observables = ["observables", f"--m={m_sweep}", f"--alpha={start!r}:{stop!r}:{n_alpha}"]
        commands = [
            overlap,
            overlap + ["--format", "json"],
            observables,
            observables + ["--format", "json"],
        ]
        lo, hi = (int(t) for t in m_sweep.split(":"))
        return SweepInputs(commands, 2 * dn_max + 1, (hi - lo + 1) * n_alpha)

    def warm(self, inputs: SweepInputs) -> None:
        _run_main(["overlap", "--dn-max", "0"])
        _run_main(["observables"])

    def op(self, inputs: SweepInputs) -> list:
        return [_run_main(argv) for argv in inputs.commands]

    def same(self, first: list, other: list) -> bool:
        return first == other

    def check(self, inputs: SweepInputs, results: list) -> float:
        for argv, (code, _, err) in zip(inputs.commands, results):
            _require(code == 0, f"{' '.join(argv)} exited {code}: {err.strip()}")
        (_, ov_csv, _), (_, ov_json, _), (_, ob_csv, _), (_, ob_json, _) = results
        parsed = (
            (_parse_overlap_csv(ov_csv), _parse_overlap_json(ov_json), inputs.overlap_rows),
            (_parse_observables_csv(ob_csv), _parse_observables_json(ob_json), inputs.observable_rows),
        )
        for from_csv, from_json, rows in parsed:
            _require(len(from_csv) == rows, f"CSV has {len(from_csv)} rows, expected {rows}")
            _require(from_csv == from_json, "CSV and JSON tables disagree")
        ov_rows, ob_rows = parsed[0][0], parsed[1][0]
        return max(_overlap_errors(ov_rows), _observable_errors(ob_rows))

    def bytes_out(self, results: list) -> int:
        return sum(len(out.encode("utf-8")) for _, out, _ in results)


def _check_readme_output(command: str, workdir: str, stdout: str) -> None:
    sub = shlex.split(command)[1]
    if sub == "eval":
        with open(f"{workdir}/state.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "phi,re,im" and len(lines) == 513, "eval wrote a bad state.csv")
    elif sub == "overlap":
        _overlap_errors(_parse_overlap_csv(stdout))
    elif sub == "observables":
        _observable_errors(_parse_observables_csv(stdout))
    elif sub == "resolution":
        report = json.loads(stdout)
        _require(report["defect"] <= 1e-6, f"defect {report['defect']:.3e} > 1e-6")
        _require(all(t >= 0.0 for t in report["per_k_terms"]), "negative per-k term")


def readme_probe() -> list:
    """Run every README command verbatim as `python -m circle_cs ...`.

    Returns (command, ok, detail) per command.  Runs in a throwaway directory
    inside the checkout, since `eval --out state.csv` writes to the cwd.
    """
    outcomes = []
    with tempfile.TemporaryDirectory(dir=machine.ROOT, prefix=".bench-readme-") as workdir:
        for command in README_COMMANDS:
            argv = [sys.executable, "-m", "circle_cs", *shlex.split(command)[1:]]
            try:
                done = subprocess.run(
                    argv, cwd=workdir, env=machine.child_env(),
                    capture_output=True, text=True, timeout=60,
                )
            except subprocess.TimeoutExpired:
                outcomes.append((command, False, "timed out after 60 s"))
                continue
            if done.returncode != 0:
                detail = f"exit {done.returncode}: {done.stderr.strip().splitlines()[-1:]}"
                outcomes.append((command, False, detail))
                continue
            try:
                _check_readme_output(command, workdir, done.stdout)
            except Exception as exc:  # unreadable output fails the command
                outcomes.append((command, False, f"bad output: {exc}"))
                continue
            outcomes.append((command, True, "ok"))
    return outcomes


# ---------------------------------------------------------------------------
# resolution: resolution_check on the criterion-2 trio plus a superposition
# ---------------------------------------------------------------------------


@dataclass
class ResolutionInputs:
    vectors: list  # (name, SampledWaveFunction)
    k_max: int


def _normalized(amps: np.ndarray):
    n_grid = amps.size
    nsq = 2.0 * math.pi / n_grid * float(np.sum(np.abs(amps) ** 2))
    return cc.SampledWaveFunction(n_grid, amps / math.sqrt(nsq))


def _superposition(rng: random.Random, n_grid: int, terms: int = 3):
    amps = np.zeros(n_grid, dtype=complex)
    for _ in range(terms):
        label = cc.StateLabel(rng.randint(-3, 3), rng.uniform(-math.pi, math.pi))
        coeff = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        amps += coeff * cc.sample_state(label, n_grid).amplitudes
    return _normalized(amps)


class Resolution:
    name = "resolution"
    reference_kernel = staticmethod(reference.matvec)

    def build(self, seed: int, tiny: bool = False) -> ResolutionInputs:
        rng = random.Random(seed)
        n_grid = 1024 if tiny else 4096
        phi = -math.pi + np.arange(n_grid) * (2.0 * math.pi / n_grid)
        plane_wave_5 = cc.SampledWaveFunction(n_grid, np.exp(5j * phi) / math.sqrt(2.0 * math.pi))
        if tiny:
            return ResolutionInputs([("plane_wave_5", plane_wave_5)], 30)
        vacuum = cc.sample_state(cc.StateLabel(0, 0.0), n_grid)
        two_peak = _normalized(
            cc.sample_state(cc.StateLabel(0, -math.pi / 2), n_grid).amplitudes
            + cc.sample_state(cc.StateLabel(0, math.pi / 2), n_grid).amplitudes
        )
        vectors = [
            ("vacuum", vacuum),
            ("plane_wave_5", plane_wave_5),
            ("two_peak", two_peak),
            ("superposition", _superposition(rng, n_grid)),
        ]
        return ResolutionInputs(vectors, 30)

    def warm(self, inputs: ResolutionInputs) -> None:
        cc.resolution_check(inputs.vectors[0][1], 0)

    def op(self, inputs: ResolutionInputs) -> list:
        return [cc.resolution_check(eta, inputs.k_max) for _, eta in inputs.vectors]

    def same(self, first: list, other: list) -> bool:
        return [r.per_k_terms for r in first] == [r.per_k_terms for r in other]

    def check(self, inputs: ResolutionInputs, reports: list) -> float:
        worst = 0.0
        for (name, _), report in zip(inputs.vectors, reports):
            _require(report.defect <= 1e-6, f"{name}: defect {report.defect:.3e} > 1e-6")
            _require(all(t >= 0.0 for t in report.per_k_terms), f"{name}: negative per-k term")
            cum = report.cumulative()
            _require(all(b >= a for a, b in zip(cum, cum[1:])), f"{name}: cumulative sums not monotone")
            worst = max(worst, report.defect)
        return worst

    def bytes_out(self, output) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Frame(), Sweep(), Resolution())}
