"""Command-line front end.

Four subcommands:

  eval         sample one coherent state on the uniform grid
  overlap      analytic vs quadrature overlap table over a winding sweep
  observables  moment table over sweeps of m and alpha
  resolution   truncated resolution-of-unity check on a test vector

Every command writes CSV by default (--format json switches); each handler
builds its rows or its document and hands them to tables.py, which owns
the format (floats with 17 significant digits).  Repeated runs with the
same arguments produce byte-identical output.  A value of --m, --alpha or
--beta may start with a minus sign ('--m -3:3').

Exit codes: 0 success, 2 bad arguments or domain validation, 3 adaptive
integration (overlap, observables) could not reach tolerance, 4 output
could not be written.  Each of those two tables runs its oracle column in
one engine run, and an exit-3 message names the first row that failed.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .observables import (
    expectation_P,
    expectation_P2,
    expectation_Q,
    expectation_Q_quadrature_table,
    momentum_dispersion,
    resolution_check,
)
from .overlaps import overlap, overlap_quadrature_table
from .quadrature import QuadratureSpec
from .states import StateLabel, named_vector, sample_state, wrap_angle
from .tables import cell, to_csv, to_json


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
        return psi.to_csv()
    amps = psi.amplitudes
    doc = {"n_grid": psi.n_grid, "phi": psi.grid(), "re": amps.real, "im": amps.imag}
    return to_json(doc) + "\n"


def _oracle_table(oracle, rows, spec, name):
    """oracle(rows, spec); a row that misses the tolerance is named, by
    name(index), in the error."""
    try:
        return oracle(rows, spec)
    except ToleranceNotMet as exc:
        raise ToleranceNotMet(
            f"row {name(exc.row)}: {exc}", exc.value, exc.err_est, exc.row
        ) from None


_OVERLAP_COLUMNS = (
    "alpha", "beta", "dn", "re_analytic", "im_analytic", "abs_analytic",
    "re_quadrature", "im_quadrature", "abs_quadrature", "abs_diff",
    "err_est_quadrature",
)


def _cmd_overlap(args) -> str:
    if args.dn_max < 0:
        raise DomainError(f"--dn-max must be >= 0, got {args.dn_max}")
    spec = QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    a = StateLabel(0, args.alpha)
    beta = wrap_angle(args.beta)

    dns = range(-args.dn_max, args.dn_max + 1)
    pairs = [(a, StateLabel(dn, beta)) for dn in dns]
    quads = _oracle_table(
        overlap_quadrature_table, pairs, spec, lambda i: f"dn={dns[i]}"
    )
    rows = [(dn, overlap(a, b), quad) for dn, (_, b), quad in zip(dns, pairs, quads)]
    if args.format == "csv":
        return to_csv([_OVERLAP_COLUMNS, *(
            (a.alpha, beta, dn, ana.value.real, ana.value.imag, abs(ana.value),
             quad.value.real, quad.value.imag, abs(quad.value),
             abs(ana.value - quad.value), quad.err_est)
            for dn, ana, quad in rows
        )])
    return to_json({"alpha": a.alpha, "beta": beta, "rows": [
        {
            "dn": dn,
            "analytic": {"re": ana.value.real, "im": ana.value.imag,
                         "err_est": ana.err_est},
            "quadrature": {"re": quad.value.real, "im": quad.value.imag,
                           "err_est": quad.err_est},
            "abs_diff": abs(ana.value - quad.value),
        }
        for dn, ana, quad in rows
    ]}) + "\n"


_OBSERVABLE_COLUMNS = (
    "m", "alpha", "q_mean", "q_mean_oracle", "p_mean", "p2_mean", "dispersion", "q_dev"
)


def _cmd_observables(args) -> str:
    ms = _parse_int_sweep(args.m)
    alphas = _parse_float_sweep(args.alpha)
    spec = QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol)

    labels = [StateLabel(m, alpha) for m in ms for alpha in alphas]
    oracle = _oracle_table(
        expectation_Q_quadrature_table, labels, spec,
        lambda i: f"m={labels[i].m}, alpha={cell(labels[i].alpha)}",
    )

    def row(label: StateLabel, q_oracle: float):
        q = expectation_Q(label)
        return (
            label.m, label.alpha, q, q_oracle,
            expectation_P(label), expectation_P2(label), momentum_dispersion(label),
            q - label.alpha,
        )

    rows = [row(label, q_oracle) for label, q_oracle in zip(labels, oracle.tolist())]
    if args.format == "csv":
        return to_csv([_OBSERVABLE_COLUMNS, *rows])
    return to_json({"rows": [dict(zip(_OBSERVABLE_COLUMNS, r)) for r in rows]}) + "\n"


def _cmd_resolution(args) -> str:
    report = resolution_check(named_vector(args.vector, args.grid), args.k_max)
    if args.format == "json":
        return report.to_json() + "\n"
    terms, c = report.per_k_terms, report.k_max
    pairs = [terms[c]] + [terms[c - j] + terms[c + j] for j in range(1, c + 1)]
    return to_csv([("k", "term", "estimate"), *zip(range(c + 1), pairs, report.cumulative())])


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
        "--abs-tol", type=float, default=QuadratureSpec.abs_tol,
        help="quadrature absolute tolerance",
    )
    sub.add_argument(
        "--rel-tol", type=float, default=QuadratureSpec.rel_tol,
        help="quadrature relative tolerance",
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
        help="winding difference sweep half-width (>= 0)",
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
