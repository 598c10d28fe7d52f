"""The generators in tools/ reproduce the constant tables frozen in the package,
and the output comparison tool tells equal trees from different ones."""

import contextlib
import importlib.util
import io
import re
import shutil
from pathlib import Path

import mpmath as mp
import numpy as np

import circle_cs
from circle_cs import quadrature, special

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PAIR = re.compile(r'\("([^"]+)", "([^"]+)"\)')


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gauss_kronrod_generator_reproduces_the_table():
    dps = mp.mp.dps
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _load("gen_gauss_kronrod").main()
    assert mp.mp.dps == dps  # the generator scopes its own precision
    kronrod, gauss = out.getvalue().split("# G7 weights")
    pairs = PAIR.findall(kronrod)
    assert pairs == [*quadrature._KRONROD_POSITIVE, ("0.0", quadrature._KRONROD_CENTER_WEIGHT)]
    weights = [w for _, w in PAIR.findall(gauss)]
    assert weights == [*quadrature._GAUSS_POSITIVE, quadrature._GAUSS_CENTER_WEIGHT]


def test_faddeeva_generator_reproduces_the_coefficients():
    dps = mp.mp.dps
    gen = _load("gen_faddeeva_coeffs")
    ell, coefs = gen.weideman_coeffs(gen.N, gen.DPS)
    assert mp.mp.dps == dps  # the generator scopes its own precision
    printed = [mp.nstr(c, 30) for c in (ell, *coefs)]
    for real, (_, ell, coeffs) in ((np.longdouble, special._EXTENDED), (float, special._DOUBLE)):
        assert [real(s) for s in printed] == [ell, *coeffs]


def test_faddeeva_accuracy_map_covers_both_precisions():
    # The shipped kernel in each precision, rounded to double, against
    # mpmath; the measured worst relative errors (extended, double) are
    # 4.8e-18 and 3.5e-16 on the coarse grid, and 4.8e-17 and 1.012e-15 on
    # the patch near the origin, where the double route's rounding peaks.
    dps = mp.mp.dps
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _load("gen_faddeeva_coeffs").main()
    assert mp.mp.dps == dps
    worst = dict(re.findall(r"on the grid, (\w+): (\S+) at", out.getvalue()))
    assert float(worst["extended"]) <= 1e-16
    assert float(worst["double"]) <= 7e-16
    near = dict(re.findall(r"near the origin, (\w+): (\S+) at", out.getvalue()))
    assert float(near["extended"]) <= 1e-16
    assert 1e-15 <= float(near["double"]) <= 1.5e-15


def test_compare_outputs_tells_same_from_different(tmp_path):
    tool = _load("compare_outputs")
    src = Path(circle_cs.__file__).resolve().parents[1]
    commands = [
        "circle-cs overlap --dn-max 1 --format json",
        "circle-cs overlap --dn-max 2 --abs-tol 1e-30 --rel-tol 1e-30",
        "circle-cs eval --grid 16 --out x.csv",
    ]
    assert tool.compare(src, src, commands) == [(command, []) for command in commands]
    # a copy that prints 16 digits differs in every printed float, and only there
    other = tmp_path / "src"
    shutil.copytree(src / "circle_cs", other / "circle_cs")
    tables = other / "circle_cs" / "tables.py"
    tables.write_text(tables.read_text().replace('".17g"', '".16g"'))
    assert tool.compare(src, other, [commands[0], commands[2]]) == [
        (commands[0], ["stdout"]), (commands[2], ["files"])
    ]
