"""mflqg benchmark: closed-loop CLI ops, end to end or traced by layer.

    python3 perfbench/run.py --workload mc-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding src/mflqg and
BENCHMARK.json).  Each workload runs in a fresh interpreter (worker.py): one
client, one op at a time, BLAS pinned to one thread.  Before it, four probe
interpreters import mflqg.cli; setup_s is the median of those five start-up
times.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones.  The full record
(per-op verdicts, output hashes, environment) goes to
.perfbench_runs/<workload>-seed<n>-trace<t>/result.json.

Exit status is 0 when the benchmark ran, whatever its verdicts; it is 2 when
the checkout lacks the program or BENCHMARK.json, and 3 when a workload
process fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import INPUT_FILES, WORKLOADS  # noqa: E402

RUNS_DIR = ".perfbench_runs"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
PROBE = "import time\nimport mflqg.cli\nprint(repr(time.monotonic()))"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _env(root: str) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def setup_probe(root: str, env: dict) -> float:
    """Seconds from spawning an interpreter until `import mflqg.cli` returns."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env,
                         text=True, capture_output=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"import probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.strip()) - start


def run_workload(root: str, name: str, args) -> dict:
    env = _env(root)
    work = os.path.join(root, RUNS_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    inputs = os.path.join(root, RUNS_DIR, "inputs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(inputs, exist_ok=True)
    for fname, text in INPUT_FILES.items():
        with open(os.path.join(inputs, fname), "w") as fh:
            fh.write(text)

    setup = [setup_probe(root, env) for _ in range(SETUP_PROBES)]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work, "--inputs", inputs]
    if args.tiny:
        cmd.append("--tiny")
    if args.force_failure:
        cmd.append("--force-failure")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {name} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload {name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)
    setup.append(result["ready"] - start)
    result["setup_samples_s"] = setup
    result["environment"]["git_commit"] = _git_commit(root)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, result: dict, specs: list[dict]) -> None:
    """Human-readable lines: environment, op verdicts, metrics with units."""
    env = result["environment"]
    print(f"== {name}  seed {result['seed']}  trace {result['trace']}  "
          f"iterations {len(result['iterations'])}")
    print(f"   python {env['python']}  numpy {env['numpy']}  backend {env['backend']}"
          f"  bit generators {','.join(env['bit_generators_in_source'])}"
          f"  nproc {env['nproc']}  blas threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}  commit {env['git_commit']}"
          f"  src lines {env['src_lines']['total']}")
    by_argv: dict[str, list[dict]] = {}
    for rec in result["ops"]:
        by_argv.setdefault(" ".join(rec["argv"]), []).append(rec)
    for argv, recs in by_argv.items():
        bad = [r for r in recs if r["misses"]]
        verdict = "ok" if not bad else (
            "FAIL (known false failure)" if all(r["known_false_failure"] for r in bad)
            else "FAIL")
        print(f"   {argv}: {verdict} ({len(recs) - len(bad)}/{len(recs)} passed)")
        for miss in sorted({m for r in bad for m in r["misses"]}):
            print(f"      - {miss}")
    print(f"   ops_failed_ratio {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']})")
    tails = result.get("tails", {})
    for spec in specs:
        value = result["metrics"][spec["name"]]
        line = f"   {spec['name']} = {_fmt(value)} {spec['unit']}"
        t = tails.get(spec["name"])
        if t:
            pct = [k for k in t if k.startswith("p")]
            line += f"  (median of n={t['n']}"
            line += f", {pct[0]} {t[pct[0]]:.6g})" if pct else \
                "; no percentile has 10 samples beyond it)"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the numbers mean nothing")
    parser.add_argument("--force-failure", action="store_true",
                        help="self-test: add an op that must fail (missing --config)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "mflqg", "cli.py"))
            and os.path.isfile(bench_path)):
        print("error: run from the root of an mflqg checkout "
              "(src/mflqg/cli.py and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, result in results.items():
        missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
        if missing:
            print(f"error: {name} did not report {', '.join(missing)}", file=sys.stderr)
            return 3
        report(name, result, specs)

    def entry(result, spec):
        return {"value": result["metrics"][spec["name"]], "unit": spec["unit"]}

    if len(names) == 1:
        metrics = {s["name"]: entry(results[names[0]], s) for s in specs}
    else:
        metrics = {f"{n}.{s['name']}": entry(r, s)
                   for n, r in results.items() for s in specs}
    print(json.dumps({
        "correct": all(r["unexpected_failures"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
