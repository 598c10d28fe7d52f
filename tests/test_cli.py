import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import circle_cs

PI = math.pi
README = Path(__file__).resolve().parents[1] / "README.md"


# The package the in-process tests import, for every subprocess to run too.
SRC = str(Path(circle_cs.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "circle_cs", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def test_eval_csv_shape():
    proc = run_cli("eval", "--m", "0", "--alpha", "0", "--grid", "64")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "phi,re,im"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert abs(float(first[0]) + PI) <= 1e-15
    # the vacuum is real on the whole grid
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_eval_winding_preserves_modulus():
    flat = run_cli("eval", "--m", "0", "--grid", "32")
    wound = run_cli("eval", "--m", "3", "--grid", "32")
    for a, b in zip(flat.stdout.strip().split("\n")[1:], wound.stdout.strip().split("\n")[1:]):
        _, ra, ia = (float(x) for x in a.split(","))
        _, rb, ib = (float(x) for x in b.split(","))
        assert abs(math.hypot(ra, ia) - math.hypot(rb, ib)) <= 1e-14


def test_eval_centered_peak():
    proc = run_cli("eval", "--alpha", str(PI / 2), "--grid", "128")
    rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    peak = max(rows, key=lambda r: abs(float(r[1])))
    assert abs(float(peak[0]) - PI / 2) <= 2 * PI / 128 + 1e-12


def test_eval_json_parses():
    proc = run_cli("eval", "--grid", "16", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["n_grid"] == 16
    assert len(doc["phi"]) == len(doc["re"]) == len(doc["im"]) == 16


def test_overlap_table_agreement_column():
    proc = run_cli("overlap", "--alpha", "0", "--beta", str(PI / 2), "--dn-max", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header[:4] == ["alpha", "beta", "dn", "re_analytic"]
    assert len(lines) == 8  # header + dn in -3..3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header) == 11
        assert float(fields[9]) <= 1e-9  # abs_diff


def test_overlap_past_sixteen_windings():
    proc = run_cli("overlap", "--beta", "0.4", "--dn-max", "24")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    assert [int(r[2]) for r in rows] == list(range(-24, 25))
    for fields in rows:
        assert float(fields[9]) <= 1e-10  # abs_diff


def test_overlap_self_row():
    proc = run_cli("overlap", "--dn-max", "0")
    fields = proc.stdout.strip().split("\n")[1].split(",")
    assert float(fields[3]) == 1.0  # re_analytic of the self overlap
    assert float(fields[5]) == 1.0


def test_overlap_prints_wrapped_beta():
    row = run_cli("overlap", "--beta", "4", "--dn-max", "0").stdout.split("\n")[1]
    assert row.split(",")[1] == format(4 - 2 * PI, ".17g")
    doc = json.loads(run_cli("overlap", "--beta", "4", "--dn-max", "0", "--format", "json").stdout)
    assert doc["beta"] == 4 - 2 * PI


def test_signed_option_values():
    proc = run_cli("observables", "--m", "-1", "--alpha", "-1:0:3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
    assert [(r[0], float(r[1])) for r in rows] == [("-1", -1.0), ("-1", -0.5), ("-1", 0.0)]
    proc = run_cli("overlap", "--beta", "-1e-3", "--dn-max", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1].split(",")[1] == "-0.001"


def test_overlap_json():
    proc = run_cli("overlap", "--beta", "1.0", "--dn-max", "2", "--format", "json")
    doc = json.loads(proc.stdout)
    assert [row["dn"] for row in doc["rows"]] == [-2, -1, 0, 1, 2]
    for row in doc["rows"]:
        assert row["abs_diff"] <= 1e-9


def test_observables_sweep():
    proc = run_cli(
        "observables", "--m", "0:3", "--alpha", f"0:{PI}:5"
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "m,alpha,q_mean,q_mean_oracle,p_mean,p2_mean,dispersion,q_dev"
    assert len(lines) == 1 + 4 * 5
    for line in lines[1:]:
        f = line.split(",")
        m = int(f[0])
        assert float(f[4]) == float(m)  # p_mean
        assert abs(float(f[2]) - float(f[3])) <= 1e-10  # closed vs oracle
        assert abs(float(f[5]) - (m * m + 0.49990832222568661)) <= 1e-14
        assert abs(float(f[7]) - (float(f[2]) - float(f[1]))) <= 1e-15


def test_resolution_json_document():
    proc = run_cli("resolution", "--k-max", "5", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["k_max"] == 5
    assert len(doc["per_k_terms"]) == 11
    assert len(doc["convergence"]) == 6
    estimates = [row["estimate"] for row in doc["convergence"]]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))
    assert doc["defect"] == abs(doc["estimate"] - 2 * PI)


@pytest.mark.parametrize("k_max", [30, 100])
def test_resolution_estimate_is_the_last_convergence_entry(k_max):
    args = ("resolution", "--vector", "plane_wave_5", "--k-max", str(k_max))
    doc = json.loads(run_cli(*args, "--format", "json").stdout)
    assert doc["estimate"] == doc["convergence"][-1]["estimate"]
    _, rows = _csv_table(run_cli(*args).stdout)
    assert float(rows[-1][2]) == doc["estimate"]


def test_resolution_csv_table():
    proc = run_cli("resolution", "--k-max", "3")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "k,term,estimate"
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert int(last[0]) == 3


def test_resolution_two_peak_vector():
    proc = run_cli("resolution", "--k-max", "8", "--vector", "two_peak", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["estimate"] < 2 * PI


def test_resolution_plane_wave_centered():
    proc = run_cli("resolution", "--k-max", "7", "--vector", "plane_wave_5", "--format", "json")
    doc = json.loads(proc.stdout)
    terms = doc["per_k_terms"]
    # spectrum sits at winding 5, so the largest term is at k = +5
    assert max(range(len(terms)), key=terms.__getitem__) == 7 + 5


def _csv_table(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_csv_and_json_carry_the_same_numbers():
    args = ("eval", "--m", "2", "--alpha", "0.3", "--grid", "32")
    header, rows = _csv_table(run_cli(*args).stdout)
    doc = json.loads(run_cli(*args, "--format", "json").stdout)
    assert header == ["phi", "re", "im"]
    assert doc["n_grid"] == len(rows) == 32
    for j, name in enumerate(header):
        assert [float(r[j]) for r in rows] == doc[name]

    args = ("observables", "--m", "-1:1", "--alpha", "-3:3:4")
    header, rows = _csv_table(run_cli(*args).stdout)
    doc = json.loads(run_cli(*args, "--format", "json").stdout)
    assert [list(obj) for obj in doc["rows"]] == [header] * len(rows) == [header] * 12
    for row, obj in zip(rows, doc["rows"]):
        assert int(row[0]) == obj["m"]
        assert [float(x) for x in row[1:]] == [obj[name] for name in header[1:]]

    args = ("overlap", "--alpha", "0.4", "--beta", "-2", "--dn-max", "3")
    header, rows = _csv_table(run_cli(*args).stdout)
    doc = json.loads(run_cli(*args, "--format", "json").stdout)
    assert header[9:] == ["abs_diff", "err_est_quadrature"]
    assert len(rows) == len(doc["rows"]) == 7
    for row, obj in zip(rows, doc["rows"]):
        ana, quad = obj["analytic"], obj["quadrature"]
        assert int(row[2]) == obj["dn"]
        assert [float(x) for x in row[3:5]] == [ana["re"], ana["im"]]
        assert [float(x) for x in row[6:8]] == [quad["re"], quad["im"]]
        assert float(row[9]) == obj["abs_diff"]
        assert float(row[10]) == quad["err_est"]

    args = ("resolution", "--k-max", "6", "--vector", "two_peak")
    header, rows = _csv_table(run_cli(*args).stdout)
    doc = json.loads(run_cli(*args, "--format", "json").stdout)
    assert header == ["k", "term", "estimate"]
    assert [int(r[0]) for r in rows] == [c["k"] for c in doc["convergence"]]
    assert [float(r[2]) for r in rows] == [c["estimate"] for c in doc["convergence"]]
    terms = doc["per_k_terms"]
    pairs = [terms[6]] + [terms[6 - j] + terms[6 + j] for j in range(1, 7)]
    assert [float(r[1]) for r in rows] == pairs


def test_out_file(tmp_path):
    target = tmp_path / "state.csv"
    proc = run_cli("eval", "--grid", "16", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text().startswith("phi,re,im\n")


def test_determinism():
    base = run_cli("overlap", "--beta", "0.7", "--dn-max", "4")
    again = run_cli("overlap", "--beta", "0.7", "--dn-max", "4")
    assert base.stdout == again.stdout
    res1 = run_cli("resolution", "--k-max", "4", "--format", "json")
    res2 = run_cli("resolution", "--k-max", "4", "--format", "json")
    assert res1.stdout == res2.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("overlap", "--dn-max", "-1"),
        ("eval", "--grid", "8"),
        ("eval", "--m", "not_int"),
        ("observables", "--m", "1:x"),
        ("observables", "--alpha", "0:1:0"),
        ("resolution", "--vector", "mystery"),
        ("resolution", "--k-max", "2", "--grid", "512"),
        ("nonsense",),
        ("eval", "--abs-tol", "1e-9"),
        ("resolution", "--rel-tol", "1e-9"),
        ("resolution", "--k-max", "-1"),
    ],
)
def test_argument_failures_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_unreachable_tolerance_exit_3():
    proc = run_cli(
        "observables", "--m", "0", "--alpha", "0.5",
        "--abs-tol", "1e-30", "--rel-tol", "1e-30",
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: row m=0, alpha=0.5: integrate: ")
    # Only the second row fails: alpha = 1 meets 1e-16 relative, while the
    # odd integrand of alpha = 0 sums to rounding noise and cannot.
    proc = run_cli(
        "observables", "--m", "0", "--alpha", "1,0",
        "--abs-tol", "1e-300", "--rel-tol", "1e-16",
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: row m=0, alpha=0: integrate: ")
    proc = run_cli("overlap", "--dn-max", "2", "--abs-tol", "1e-30", "--rel-tol", "1e-30")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: row dn=-2: integrate: ")


def test_unwritable_output_exit_4(tmp_path):
    proc = run_cli("eval", "--grid", "16", "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert proc.returncode == 4


def _readme_cli_commands():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("circle-cs ")]


def test_readme_cli_commands_run_verbatim(tmp_path):
    commands = _readme_cli_commands()
    assert commands
    for command in commands:
        proc = run_cli(*shlex.split(command)[1:], cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr)
