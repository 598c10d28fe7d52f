"""Text output: the one place the CSV and JSON format lives.

Every value prints by cell(): a string as it is, an integer (numpy
integers included) as a bare integer, anything else as a float with 17
significant digits, which round-trips a double exactly ('0.1' prints as
0.10000000000000001, '3.0' as 3).  The stdlib json module prints repr
floats instead, so it is used only to quote strings, through the ASCII
quoting function that json.dumps itself calls on a str.
"""

from __future__ import annotations

import numbers
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


def cell(x) -> str:
    """One value as text."""
    if isinstance(x, float):  # numpy float64 included; the common case first
        return format(x, ".17g")
    if isinstance(x, str):
        return x
    if isinstance(x, (int, numbers.Integral)):  # int first skips the slow ABC check
        return str(int(x))
    return format(float(x), ".17g")


def to_csv(rows) -> str:
    """Comma-separated lines, one per row; the first row is the header."""
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def to_json(x) -> str:
    """JSON text of nested dicts, lists, tuples, arrays, strings and numbers.

    Dict keys are strings and keep their order; items are separated by ', '
    and keys by ': '.  No trailing newline.
    """
    if isinstance(x, (list, tuple, np.ndarray)):
        items = x.tolist() if isinstance(x, np.ndarray) else x
        return "[" + ", ".join(map(to_json, items)) + "]"
    if isinstance(x, dict):
        items = (f"{_quote(k)}: {to_json(v)}" for k, v in x.items())
        return "{" + ", ".join(items) + "}"
    return _quote(x) if isinstance(x, str) else cell(x)
