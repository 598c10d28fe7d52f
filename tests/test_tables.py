import json

import numpy as np

from circle_cs.tables import cell, to_csv, to_json


def test_cell_format_rules():
    assert cell(0.1) == "0.10000000000000001"
    assert cell(3.0) == "3"
    assert cell(-0.0) == "-0"
    assert cell(np.float64(2.5)) == "2.5"
    assert cell(np.float64(3.0)) == "3"
    assert cell(7) == "7"
    assert cell(True) == "1"
    assert cell(np.int64(-12)) == "-12"
    assert cell(np.int64(10**17)) == "100000000000000000"
    assert cell("analytic") == "analytic"


def test_csv_rows():
    rows = [("k", "method", "value"), (0, "analytic", 0.1), (np.int64(-2), "quadrature", 1e-300)]
    assert to_csv(rows) == (
        "k,method,value\n0,analytic,0.10000000000000001\n-2,quadrature,1e-300\n"
    )
    assert to_csv([("k", "value")]) == "k,value\n"


def test_json_document():
    doc = {
        "z": 1,
        "a": {"re": 0.1, "method": "analytic"},
        "terms": (3.0, np.float64(0.5)),
        "array": np.array([1.0, 0.25]),
        "counts": np.arange(2),
        "rows": [],
    }
    text = to_json(doc)
    assert text == (
        '{"z": 1, "a": {"re": 0.10000000000000001, "method": "analytic"}, '
        '"terms": [3, 0.5], "array": [1, 0.25], "counts": [0, 1], "rows": []}'
    )
    parsed = json.loads(text)
    assert list(parsed) == ["z", "a", "terms", "array", "counts", "rows"]
    assert list(parsed["a"]) == ["re", "method"]
    assert parsed["a"]["re"] == 0.1
    assert to_json('say "hi"') == '"say \\"hi\\""'


def test_json_strings_quote_as_json_dumps():
    keys = ['say "hi"', "back\\slash", "café", "two\nlines", "tab\tand\x01"]
    doc = {k: k for k in keys}
    assert to_json(doc) == "{" + ", ".join(
        f"{json.dumps(k)}: {json.dumps(k)}" for k in keys
    ) + "}"
    assert json.loads(to_json(doc)) == doc
    assert to_json("café") == '"caf\\u00e9"'
