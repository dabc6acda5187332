"""Compare what the CLI writes under two source trees, byte for byte.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 3 7]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding ``mflqg/``
(for instance the ``src`` of a ``git archive`` of the parent commit, and this
checkout's ``src``).  Every command of a fixed list runs once under each tree
as its own ``python -m mflqg.cli`` process, in a fresh working directory
that holds the input files, with ``--out out``.  Paths are relative, so the
``source`` labels in the outputs match.  The script prints every output
file, stdout, stderr or exit code that differs, then a count, and exits 1
if anything differs.  For an output file that differs and parses as CSV or
JSON under both trees, with its numbers in the same places, it also prints
the largest relative difference between corresponding numbers, which tells
a change in the last bits from a real one.  Giving the same tree twice
shows that reruns reproduce the same bytes.

The commands: every op of ``perfbench/workloads.py`` at each seed; example1
to example4 as solve, simulate and verify at defaults; the benchmark's
``matrix.ini`` as solve, simulate and verify, with and without ``--x 1,0,0``;
a ``[partial_obs]`` file with ``s = 0.25``; verify of a ``[problem]`` file
with constant coefficients and ``A = 0``, which has a closed form; and
failure paths: a ``--dt`` that does not divide the horizon, and Monte Carlo
divergences (a spread lost in rounding, overflowing statistics).  The full
list takes a few minutes per tree at the CLI's default 1e5 paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

PARTIAL_INI = """\
[partial_obs]
sigma_hat = 0.6
sigma_tilde = 0.8
eta_hat = 0.8
eta_tilde = 0.6
s = 0.25
x = 1.0
T = 1.0
D1 = 0.8
D2 = 0.4
"""

CONSTANT_INI = """\
[problem]
A = 0
B = 2
sigma = 0.5
Q = 0.5
D1 = 1
D2 = 0.5
T = 1
"""

SCALAR_DT_INI = """\
[problem]
A = 0
B = 1
sigma = 1
Q = 1
D1 = 1
D2 = 0
T = 1

[simulation]
n_paths = 100
dt = 0.3
seed = 5
"""


def commands(seeds) -> tuple[dict, list[tuple[str, ...]]]:
    """(input file name -> text, argv list without --out), duplicates dropped."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads as wl
    inputs = dict(wl.INPUT_FILES, **{"partial.ini": PARTIAL_INI,
                                     "constant.ini": CONSTANT_INI,
                                     "scalar_dt.ini": SCALAR_DT_INI})
    argvs = []
    for seed in seeds:
        for ops in wl.WORKLOADS.values():
            for op in ops:
                argvs.append(tuple(a.replace("{seed}", str(seed))
                                   .replace("{inputs}", "inputs") for a in op.argv))
    for command in ("solve", "simulate", "verify"):
        for name in ("example1", "example2", "example3", "example4"):
            argvs.append((command, "--preset", name))
        for x in ((), ("--x", "1,0,0")):
            argvs.append((command, "--config", "inputs/matrix.ini", *x))
        argvs.append((command, "--config", "inputs/partial.ini"))
    argvs.append(("verify", "--config", "inputs/constant.ini"))
    for command in ("simulate", "verify"):
        argvs += [
            (command, "--preset", "example1", "--dt", "0.3", "--paths", "100"),
            (command, "--config", "inputs/partial.ini", "--dt", "0.1"),
            (command, "--config", "inputs/scalar_dt.ini"),
            (command, "--preset", "example1", "--x", "1e20", "--paths", "100",
             "--dt", "0.1"),
            (command, "--preset", "example1", "--x", "1e153", "--paths", "100",
             "--dt", "0.1"),
            (command, "--preset", "example1", "--x", "1e154", "--paths", "4",
             "--dt", "0.1"),
        ]
    return inputs, list(dict.fromkeys(argvs))


def run(src: pathlib.Path, argv, inputs: dict, work: pathlib.Path) -> dict:
    """Run one command under `src` in the empty directory `work`: its exit
    code, stdout, stderr and every output file's bytes."""
    (work / "inputs").mkdir(parents=True)
    for name, text in inputs.items():
        (work / "inputs" / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, "-m", "mflqg.cli", *argv,
                           "--out", "out"], cwd=work, env=env,
                          capture_output=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def numbers(data: bytes) -> dict:
    """The numbers of a JSON document, keyed by their path, or else of CSV
    text, keyed by (row, column); cells that are not numbers are skipped."""
    text = data.decode()
    found = {}
    try:
        doc = json.loads(text)
    except ValueError:
        for i, line in enumerate(text.splitlines()):
            for j, cell in enumerate(line.split(",")):
                try:
                    found[i, j] = float(cell)
                except ValueError:
                    pass
        return found

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + (i,))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found[path] = float(node)

    walk(doc, ())
    return found


def largest_relative_difference(a: bytes, b: bytes) -> float | None:
    """max |x - y| / max(|x|, |y|) over the corresponding numbers of two
    CSV or JSON files; None when their numbers do not sit in the same
    places.  A NaN or infinity on one side only counts as infinite."""
    try:
        na, nb = numbers(a), numbers(b)
    except UnicodeDecodeError:
        return None
    if not na or na.keys() != nb.keys():
        return None
    worst = 0.0
    for key, x in na.items():
        y = nb[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, rel if math.isfinite(rel) else math.inf)
    return worst


def differences(a: dict, b: dict) -> list[str]:
    diffs = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            where = ("only under PARENT_SRC" if name not in b["files"] else
                     "only under CHANGE_SRC" if name not in a["files"] else "bytes")
            if where == "bytes":
                rel = largest_relative_difference(a["files"][name], b["files"][name])
                if rel is not None:
                    where += f", largest relative difference {rel:.3g}"
            diffs.append(f"{name} ({where})")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=pathlib.Path)
    parser.add_argument("change_src", type=pathlib.Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7],
                        help="benchmark seeds of the workload ops (default 3 7)")
    args = parser.parse_args(argv)
    inputs, argvs = commands(args.seeds)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for i, cmd in enumerate(argvs):
            a = run(args.parent_src, cmd, inputs, pathlib.Path(tmp, f"{i}", "parent"))
            b = run(args.change_src, cmd, inputs, pathlib.Path(tmp, f"{i}", "change"))
            diffs = differences(a, b)
            label = " ".join(cmd)
            if diffs:
                differing += 1
                print(f"DIFFERS  {label}  [exit {a['exit code']} -> "
                      f"{b['exit code']}]: {', '.join(diffs)}")
            else:
                print(f"same     {label}  [exit {a['exit code']}]")
            sys.stdout.flush()
    print(f"{len(argvs) - differing} of {len(argvs)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
