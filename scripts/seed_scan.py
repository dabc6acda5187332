"""Scan the benchmark's Monte Carlo ops over a range of seeds.

    python scripts/seed_scan.py SRC [SRC2] --seeds LO HI [--op WORKLOAD:COMMAND ...]

SRC and SRC2 are ``src`` directories, each holding ``mflqg/`` (for instance
the ``src`` of a ``git archive`` of the parent commit, and this checkout's
``src``).  Every ``simulate`` and ``verify`` op of ``perfbench/workloads.py``
(or only those named by ``--op``, e.g. ``--op mc-narrow:simulate``) runs at
each seed from LO to HI inclusive, as ``mflqg.cli.main`` calls inside one
fresh interpreter per tree, the trees one after the other.  An op fails at a
seed by the benchmark's own rules: an exit code other than 0, a ``verify``
check that did not pass, ``within_threshold`` false in ``simulate``'s
summary, or an oracle total off its closed form.

For each tree and op the script prints the failing seeds, each with what
failed, the measured value and its threshold, then one summary line per op
across the trees.  It exits 1 if any seed failed under any tree.  A change of
streams moves which seeds land in a statistical gate's tail, so the scan is
how such a change shows what it does to the benchmark's verdicts; it reads
``perfbench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "verify")


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads
    return workloads


def scanned_ops(only) -> dict:
    """'workload:command' -> the workload's op, for every simulate and verify
    op of the benchmark, or for those named in `only`."""
    wl = _workloads()
    ops = {f"{name}:{op.command}": op for name, ops in wl.WORKLOADS.items()
           for op in ops if op.command in COMMANDS}
    unknown = [name for name in only if name not in ops]
    if unknown:
        raise SystemExit(f"unknown op {', '.join(unknown)}; "
                         f"choose from {', '.join(ops)}")
    return {name: ops[name] for name in only} if only else ops


def failures(op, rc, out: pathlib.Path, closed_form_tol: float) -> list[str]:
    """What failed in one op's outputs: 'what measured vs threshold' lines."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    found = []
    if op.command == "verify":
        report = json.loads((out / "verify.json").read_text())
        found = [f"{c['name']} {c['measured']:.4g} vs {c['threshold']:.4g}"
                 for c in report["checks"] if not c["passed"]]
    else:
        summary = json.loads((out / "summary.json").read_text())
        if not summary["within_threshold"]:
            found.append(f"within_threshold |MC - oracle| "
                         f"{summary['discrepancy']:.4g} vs {summary['threshold']:.4g}")
        if op.closed_form is not None:
            gap = abs(summary["oracle"]["total"] - op.closed_form)
            if not gap <= closed_form_tol:
                found.append(f"closed form {gap:.4g} vs {closed_form_tol:.4g}")
    return found or ([] if rc == 0 else ["exit code 1"])


def scan_tree(src: str, names: list[str], seeds: range) -> dict:
    """In a fresh interpreter: every named op at every seed under `src`;
    name -> [(seed, failures)] for the seeds that failed."""
    sys.path.insert(0, os.path.abspath(src))
    import mflqg.cli
    wl = _workloads()
    ops = scanned_ops(names)
    failed = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="seed_scan_") as tmp:
        inputs = pathlib.Path(tmp, "inputs")
        inputs.mkdir()
        for file, text in wl.INPUT_FILES.items():
            (inputs / file).write_text(text)
        for name in names:
            for seed in seeds:
                argv = [a.replace("{seed}", str(seed))
                        .replace("{inputs}", str(inputs)) for a in ops[name].argv]
                out = pathlib.Path(tmp, f"{name.replace(':', '-')}-{seed}")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = mflqg.cli.main(argv + ["--out", str(out)])
                try:
                    found = failures(ops[name], rc, out, wl.CLOSED_FORM_TOL)
                except (OSError, KeyError, ValueError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                if found:
                    failed[name].append((seed, found))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="+", type=pathlib.Path,
                        help="one or two src directories holding mflqg/")
    parser.add_argument("--seeds", type=int, nargs=2, required=True,
                        metavar=("LO", "HI"), help="seed range, both ends included")
    parser.add_argument("--op", action="append", default=[],
                        metavar="WORKLOAD:COMMAND",
                        help="scan only this op (repeatable; default every "
                             "simulate and verify op)")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two src directories")
    lo, hi = args.seeds
    if not 0 <= lo <= hi:
        parser.error("seeds must satisfy 0 <= LO <= HI")
    names = list(scanned_ops(args.op))
    seeds = range(lo, hi + 1)
    results = []
    spawn = multiprocessing.get_context("spawn")
    for src in args.src:
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            failed = pool.submit(scan_tree, str(src), names, seeds).result()
        results.append(failed)
        print(f"tree {src}")
        for name in names:
            print(f"  {name}, seeds {lo}-{hi}: {len(failed[name])} failing")
            for seed, found in failed[name]:
                print(f"    seed {seed}: {'; '.join(found)}")
        sys.stdout.flush()
    print("summary (failing seeds per tree, in the order given)")
    for name in names:
        cells = [", ".join(str(seed) for seed, _ in failed[name]) or "none"
                 for failed in results]
        print(f"  {name}, seeds {lo}-{hi}: {' | '.join(cells)}")
    return 1 if any(f for failed in results for f in failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
