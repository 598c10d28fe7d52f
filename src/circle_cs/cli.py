"""Command-line front end.

Four subcommands:

  eval         sample one coherent state on the uniform grid
  overlap      analytic vs quadrature overlap table over a winding sweep
  observables  moment table over sweeps of m and alpha
  resolution   truncated resolution-of-unity check on a test vector

Every command writes CSV by default (--format json switches); floats are
printed with 17 significant digits, and repeated runs with the same
arguments produce byte-identical output.  A value of --m, --alpha or
--beta may start with a minus sign ('--m -3:3').

Exit codes: 0 success, 2 bad arguments or domain validation, 3 adaptive
integration (overlap, observables) could not reach tolerance, 4 output
could not be written.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .observables import (
    expectation_P,
    expectation_P2,
    expectation_Q,
    expectation_Q_quadrature,
    momentum_dispersion,
    resolution_check,
)
from .overlaps import overlap, overlap_quadrature
from .quadrature import QuadratureSpec
from .states import (
    SampledWaveFunction,
    StateLabel,
    _amplitudes,
    sample_state,
    wrap_angle,
)

_TWO_PI = 2.0 * math.pi


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _make_spec(args) -> QuadratureSpec:
    kwargs = {}
    if args.abs_tol is not None:
        kwargs["abs_tol"] = args.abs_tol
    if args.rel_tol is not None:
        kwargs["rel_tol"] = args.rel_tol
    return QuadratureSpec(**kwargs)


def _parse_int_sweep(text: str) -> list:
    """'3', '1,2,5', or 'lo:hi' (inclusive integer range)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise DomainError(f"integer range must be lo:hi, got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"malformed integer range {text!r}")
        if hi < lo:
            raise DomainError(f"empty integer range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise DomainError(f"malformed integer list {text!r}")


def _parse_float_sweep(text: str) -> list:
    """'0.5', '0,0.4,0.8', or 'start:stop:count' (inclusive linspace)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"float range must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise DomainError(f"malformed float range {text!r}")
        if count < 1:
            raise DomainError(f"float range needs count >= 1, got {text!r}")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise DomainError(f"malformed float list {text!r}")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output text)
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> str:
    psi = sample_state(StateLabel(args.m, args.alpha), args.grid)
    if args.format == "csv":
        buf = io.StringIO()
        psi.to_csv(buf)
        return buf.getvalue()
    grid = psi.grid()
    return (
        "{"
        f'"n_grid": {psi.n_grid}, '
        '"phi": [' + ", ".join(_g(p) for p in grid) + "], "
        '"re": [' + ", ".join(_g(z.real) for z in psi.amplitudes) + "], "
        '"im": [' + ", ".join(_g(z.imag) for z in psi.amplitudes) + "]"
        "}\n"
    )


def _cmd_overlap(args) -> str:
    if not 0 <= args.dn_max <= 16:
        raise DomainError(f"--dn-max must be in 0..16, got {args.dn_max}")
    spec = _make_spec(args)
    a = StateLabel(0, args.alpha)
    beta = wrap_angle(args.beta)

    def row(dn: int):
        b = StateLabel(dn, beta)
        ana = overlap(a, b)
        quad = overlap_quadrature(a, b, spec)
        return (dn, ana, quad)

    rows = [row(dn) for dn in range(-args.dn_max, args.dn_max + 1)]

    if args.format == "csv":
        lines = [
            "alpha,beta,dn,re_analytic,im_analytic,abs_analytic,"
            "re_quadrature,im_quadrature,abs_quadrature,abs_diff,method,err_est"
        ]
        for dn, ana, quad in rows:
            diff = abs(ana.value - quad.value)
            lines.append(
                f"{_g(a.alpha)},{_g(beta)},{dn},"
                f"{_g(ana.value.real)},{_g(ana.value.imag)},{_g(abs(ana.value))},"
                f"{_g(quad.value.real)},{_g(quad.value.imag)},{_g(abs(quad.value))},"
                f"{_g(diff)},{ana.method},{_g(quad.err_est)}"
            )
        return "\n".join(lines) + "\n"

    objs = []
    for dn, ana, quad in rows:
        objs.append(
            "{"
            f'"dn": {dn}, '
            f'"analytic": {{"re": {_g(ana.value.real)}, "im": {_g(ana.value.imag)}, '
            f'"method": "{ana.method}", "err_est": {_g(ana.err_est)}}}, '
            f'"quadrature": {{"re": {_g(quad.value.real)}, "im": {_g(quad.value.imag)}, '
            f'"err_est": {_g(quad.err_est)}}}, '
            f'"abs_diff": {_g(abs(ana.value - quad.value))}'
            "}"
        )
    return (
        "{"
        f'"alpha": {_g(a.alpha)}, "beta": {_g(beta)}, '
        '"rows": [' + ", ".join(objs) + "]"
        "}\n"
    )


def _cmd_observables(args) -> str:
    ms = _parse_int_sweep(args.m)
    alphas = _parse_float_sweep(args.alpha)
    spec = _make_spec(args)

    def row(m: int, alpha: float):
        label = StateLabel(m, alpha)
        q = expectation_Q(label)
        return (
            label,
            q,
            expectation_Q_quadrature(label, spec),
            expectation_P(label),
            expectation_P2(label),
            momentum_dispersion(label),
            q - label.alpha,
        )

    rows = [row(m, alpha) for m in ms for alpha in alphas]

    if args.format == "csv":
        lines = ["m,alpha,q_mean,q_mean_oracle,p_mean,p2_mean,dispersion,q_dev"]
        for label, q, q_or, p, p2, disp, dev in rows:
            lines.append(
                f"{label.m},{_g(label.alpha)},{_g(q)},{_g(q_or)},"
                f"{_g(p)},{_g(p2)},{_g(disp)},{_g(dev)}"
            )
        return "\n".join(lines) + "\n"

    objs = [
        "{"
        f'"m": {label.m}, "alpha": {_g(label.alpha)}, "q_mean": {_g(q)}, '
        f'"q_mean_oracle": {_g(q_or)}, "p_mean": {_g(p)}, "p2_mean": {_g(p2)}, '
        f'"dispersion": {_g(disp)}, "q_dev": {_g(dev)}'
        "}"
        for label, q, q_or, p, p2, disp, dev in rows
    ]
    return '{"rows": [' + ", ".join(objs) + "]}\n"


_PLANE_WAVE = re.compile(r"^plane_wave_(-?\d+)$")


def _build_vector(name: str, n_grid: int) -> SampledWaveFunction:
    if name == "vacuum":
        return sample_state(StateLabel(0, 0.0), n_grid)
    if name == "two_peak":
        if n_grid < 16:
            raise DomainError(f"n_grid must be >= 16, got {n_grid}")
        phi = -math.pi + np.arange(n_grid) * (_TWO_PI / n_grid)
        amps = _amplitudes(StateLabel(0, -math.pi / 2), phi) + _amplitudes(
            StateLabel(0, math.pi / 2), phi
        )
        nsq = _TWO_PI / n_grid * float(np.sum(np.abs(amps) ** 2))
        return SampledWaveFunction(n_grid, amps / math.sqrt(nsq))
    match = _PLANE_WAVE.match(name)
    if match:
        winding = int(match.group(1))
        if n_grid < 16:
            raise DomainError(f"n_grid must be >= 16, got {n_grid}")
        if abs(winding) > n_grid // 4:
            raise DomainError(
                f"plane wave winding {winding} too fast for n_grid = {n_grid}"
            )
        phi = -math.pi + np.arange(n_grid) * (_TWO_PI / n_grid)
        amps = np.exp(1j * winding * phi) / math.sqrt(_TWO_PI)
        return SampledWaveFunction(n_grid, amps)
    raise DomainError(
        f"unknown vector {name!r}; expected vacuum, two_peak, or plane_wave_<int>"
    )


def _cmd_resolution(args) -> str:
    if args.k_max < 0:
        raise DomainError(f"--k-max must be >= 0, got {args.k_max}")
    eta = _build_vector(args.vector, args.grid)
    report = resolution_check(eta, args.k_max)
    if args.format == "json":
        return report.to_json() + "\n"
    lines = ["k,term,estimate"]
    center = report.k_max
    cumulative = report.cumulative()
    for j in range(report.k_max + 1):
        if j == 0:
            term = report.per_k_terms[center]
        else:
            term = report.per_k_terms[center - j] + report.per_k_terms[center + j]
        lines.append(f"{j},{_g(term)},{_g(cumulative[j])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sub.add_argument("--out", default=None, help="write output to this path")


def _add_tolerances(sub) -> None:
    sub.add_argument(
        "--abs-tol", type=float, default=None, help="quadrature absolute tolerance"
    )
    sub.add_argument(
        "--rel-tol", type=float, default=None, help="quadrature relative tolerance"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-cs",
        description="Wrapped-Gaussian coherent states on the unit circle: "
        "sampling, overlaps, moments, resolution of unity.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="sample one coherent state")
    p.add_argument("--m", type=int, default=0, help="winding number")
    p.add_argument("--alpha", type=float, default=0.0, help="center angle")
    p.add_argument("--grid", type=int, default=256, help="number of grid points")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("overlap", help="overlap table, analytic vs quadrature")
    p.add_argument("--alpha", type=float, default=0.0, help="first center angle")
    p.add_argument("--beta", type=float, default=0.0, help="second center angle")
    p.add_argument(
        "--dn-max",
        type=int,
        default=5,
        help="winding difference sweep half-width (0..16)",
    )
    _add_common(p)
    _add_tolerances(p)
    p.set_defaults(handler=_cmd_overlap)

    p = subs.add_parser("observables", help="moment table over label sweeps")
    p.add_argument(
        "--m", default="0", help="winding sweep: 'a', 'a,b,c', or 'lo:hi'"
    )
    p.add_argument(
        "--alpha",
        default="0",
        help="angle sweep: 'x', 'x,y,z', or 'start:stop:count'",
    )
    _add_common(p)
    _add_tolerances(p)
    p.set_defaults(handler=_cmd_observables)

    p = subs.add_parser("resolution", help="resolution-of-unity defect report")
    p.add_argument("--k-max", type=int, default=30, help="winding truncation")
    p.add_argument(
        "--vector",
        default="vacuum",
        help="test vector: vacuum, two_peak, or plane_wave_<int>",
    )
    p.add_argument("--grid", type=int, default=4096, help="sampling grid size")
    _add_common(p)
    p.set_defaults(handler=_cmd_resolution)

    return parser


# argparse reads a token such as '-3:3' as an option, not as the value of
# the option before it; these options take such values.
_SIGNED_OPTIONS = ("--m", "--alpha", "--beta")
_SIGNED_VALUE = re.compile(r"-\d")


def _attach_signed_values(argv: list) -> list:
    """Rewrite '--m -3:3' as '--m=-3:3', which argparse parses as written."""
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_signed_values(argv))
    try:
        text = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0
