"""Compare circle-cs output bytes between a git revision and the working tree.

    python tools/compare_outputs.py --against HEAD~1

exports REV's src/ with `git archive` (local git only) into a temporary
directory.  It then runs each command of one fixed list, COMMANDS, as
`python -m circle_cs ...` under each tree's src/, in a fresh empty working
directory per run, and compares the exit code, stdout, stderr and every
file the command wrote.  It prints one line per command, `same` or the
parts that differ, then the numpy SIMD dispatch targets switched on: output
bytes are stable only within one dispatch level.  Exits 0 when every
command matches, 1 when any differs.
"""

from __future__ import annotations

import argparse
import io
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list:
    """The circle-cs lines of the README's CLI block, as its tests read them."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("circle-cs ")]


# The sweep workload's four commands at seeds 5 and 11 (bench/workloads.py).
_SWEEP = [
    f"circle-cs {sub} {args}{fmt}"
    for sub, args in (
        ("overlap", "--alpha=0.7722141235584434 --beta=1.5191924583902034 --dn-max=16"),
        ("observables", "--m=-3:3 --alpha=-0.6434183898267269:2.407775380911968:41"),
        ("overlap", "--alpha=-0.2992080897084395 --beta=0.3755609779960376 --dn-max=16"),
        ("observables", "--m=-3:3 --alpha=-0.23809947245091267:2.064138274028494:41"),
    )
    for fmt in ("", " --format json")
]

# The exit-2, exit-3 and exit-4 commands of tests/test_cli.py (the two that
# need an address-space limit to fail are left out).
_FAILURES = [
    "circle-cs overlap --dn-max -1",
    "circle-cs eval --grid 8",
    "circle-cs eval --m not_int",
    "circle-cs observables --m 1:x",
    "circle-cs observables --alpha 0:1:0",
    "circle-cs resolution --vector mystery",
    "circle-cs resolution --k-max 2 --grid 512",
    "circle-cs nonsense",
    "circle-cs eval --abs-tol 1e-9",
    "circle-cs resolution --rel-tol 1e-9",
    "circle-cs resolution --k-max -1",
    "circle-cs observables --alpha 0:inf:3",
    "circle-cs observables --alpha=-inf:0:2",
    "circle-cs observables --alpha 0:nan:3",
    f"circle-cs observables --m {2**511} --alpha 0.5",
    f"circle-cs eval --m {-(2**511)}",
    "circle-cs observables --m 0 --alpha 0.5 --abs-tol 1e-30 --rel-tol 1e-30",
    "circle-cs observables --m 0 --alpha 1,0 --abs-tol 1e-300 --rel-tol 1e-16",
    "circle-cs overlap --dn-max 2 --abs-tol 1e-30 --rel-tol 1e-30",
    "circle-cs eval --grid 16 --out no/dir/x.csv",
]

COMMANDS = [
    *_readme_commands(),
    *_SWEEP,
    *(f"circle-cs overlap --alpha 0 --beta 1.5708 --dn-max {n}" for n in (0, 1, 64, 256)),
    *_FAILURES,
]


def export_src(rev: str, dest: Path) -> Path:
    """Write REV's src/ under dest by `git archive`; returns dest / 'src'."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run(src: Path, command: str) -> tuple:
    """(exit code, stdout, stderr, {name: bytes} of files written) of one
    command run under src in an empty working directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "circle_cs", *shlex.split(command)[1:]],
            capture_output=True, cwd=cwd, env=env, timeout=600,
        )
        files = {
            str(path.relative_to(cwd)): path.read_bytes()
            for path in sorted(Path(cwd).rglob("*")) if path.is_file()
        }
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(src_a: Path, src_b: Path, commands) -> list:
    """(command, the parts that differ) for each command; no parts, same."""
    parts = ("exit code", "stdout", "stderr", "files")
    out = []
    for command in commands:
        a, b = run(src_a, command), run(src_b, command)
        out.append((command, [name for name, x, y in zip(parts, a, b) if x != y]))
    return out


def dispatch_level() -> str:
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"baseline {' '.join(umath.__cpu_baseline__)}; dispatch {' '.join(enabled)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = compare(export_src(args.against, Path(tmp)), ROOT / "src", COMMANDS)
    for command, differ in results:
        print(f"{'same' if not differ else 'DIFFERS (' + ', '.join(differ) + ')'}: {command}")
    same = sum(not differ for _, differ in results)
    print(f"{same} of {len(results)} commands identical to {args.against}")
    print(f"numpy {dispatch_level()}")
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
