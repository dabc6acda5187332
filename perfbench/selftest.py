"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload, in both modes, it
checks that run.py exits 0, that its last line is the result object with
exactly the keys correct, attempted, failed and metrics, and that every
metric BENCHMARK.json names is reported with its unit.  It then checks that a forced failure (an op with a
missing --config file, exit code 6) is counted as a failed op and clears
`correct`, and that run.py exits non-zero without a result in a directory
holding only BENCHMARK.json and the benchmark's files.  Prints one line per
check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import RUNS_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SECONDS = "1"
TIMEOUT_S = 170


def run(args, cwd, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd, text=True,
                          capture_output=True, timeout=TIMEOUT_S)


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = []

    def check(label, ok, detail=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {label}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(label)

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} trace {trace}"
            proc = run(["--workload", name, "--seed", "0", "--seconds", SECONDS,
                        "--trace", str(trace), "--tiny"], root)
            check(f"{label} exits 0", proc.returncode == 0, proc.stderr[-500:])
            try:
                out = last_json(proc.stdout)
            except json.JSONDecodeError as exc:
                check(f"{label} ends with a JSON line", False, repr(exc))
                continue
            check(f"{label} result keys", set(out) == {"correct", "attempted",
                                                      "failed", "metrics"}, str(out)[:300])
            metrics = out.get("metrics", {})
            wrong = [s["name"] for s in bench[key]
                     if metrics.get(s["name"], {}).get("unit") != s["unit"]
                     or not isinstance(metrics[s["name"]].get("value"), (int, float))]
            extra = sorted(set(metrics) - {s["name"] for s in bench[key]})
            check(f"{label} reports every {key} metric with its unit",
                  not wrong and not extra, f"wrong {wrong}, extra {extra}")
            check(f"{label} attempted >= 1", out.get("attempted", 0) >= 1)

    proc = run(["--workload", "mc-narrow", "--seed", "0", "--seconds", SECONDS,
                "--trace", "0", "--tiny", "--force-failure"], root)
    out = last_json(proc.stdout)
    with open(os.path.join(root, RUNS_DIR, "mc-narrow-seed0-trace0", "result.json")) as fh:
        result = json.load(fh)
    forced = [r for r in result["ops"] if r["index"] == len(WORKLOADS["mc-narrow"])]
    check("forced failure exits 6 and counts as failed",
          bool(forced) and all(r["rc"] == 6 and r["misses"] for r in forced),
          str([(r["rc"], r["misses"]) for r in forced]))
    ratio = out["metrics"]["ops_passed_ratio"]["value"]
    check("forced failure lands in ops_passed_ratio and failed",
          out["failed"] >= len(forced) and ratio <= 1 - len(forced) / out["attempted"],
          str(out))
    check("forced failure clears correct", out["correct"] is False)

    bare = os.path.join(root, RUNS_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "mc-full", "--seed", "0", "--seconds", SECONDS,
                "--trace", "0"], bare, os.path.join(bare, "perfbench", "run.py"))
    check("bare directory exits non-zero without a result",
          proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"exit {proc.returncode}")
    shutil.rmtree(bare)

    print(f"{'all checks passed' if not failures else 'FAILED: ' + ', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
