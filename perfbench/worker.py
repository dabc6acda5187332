"""One workload in a fresh interpreter: a closed loop of mflqg CLI ops.

Started by run.py as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --inputs DIR [--tiny] [--force-failure]

from the root of a checkout.  The first thing it does is import mflqg.cli,
so the monotonic time at which that import returns, minus the time run.py
spawned this process, is one setup_s sample.  It then runs iterations of the
workload's ops, one op at a time, until the next iteration would overrun
--seconds (at least one), checks every op's outputs, and writes result.json
(and spans.json when traced) into --work.

With --trace 1 the budget is split: untraced iterations first, then traced
ones, then an isolated timing of the particle kernel.  The difference between
the two phases' median iteration times is the tracing overhead.
"""

import os
import sys
import time


def _import_program() -> float:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import mflqg.cli  # noqa: F401
    return time.monotonic()


READY = _import_program() if __name__ == "__main__" else None

import argparse  # noqa: E402  (after the timed import on purpose)
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import WRITERS, Tracer, layer_name  # noqa: E402
from workloads import (CLOSED_FORM_TOL, FORCED_FAILURE, WORKLOADS)  # noqa: E402

COMMANDS = ("solve", "simulate", "verify")
SRC_MODULES = ("__init__", "_kernels", "cli", "config", "control", "errors",
               "model", "partial_obs", "presets", "riccati", "simulate")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
KERNEL_REPEATS = 5


# ---------------------------------------------------------------------------
# outputs and checks

def _hash_outputs(out_dir: str) -> tuple[dict, int]:
    hashes, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def check_op(op, rc, out_dir: str) -> tuple[list[str], bool]:
    """Misses of one op, and whether they are all the op's known false failure."""
    misses = []
    known = False
    if rc != 0:
        misses.append(f"exit code {rc}")
    if rc not in (0, 1):
        return misses, False
    try:
        if op.command == "verify":
            report = _load(out_dir, "verify.json")
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            if not report["passed"]:
                misses.append(f"verify.json passed is false: {', '.join(failing)}")
                known = failing == [op.known_false_failure]
        elif op.command == "simulate":
            summary = _load(out_dir, "summary.json")
            if not summary["within_threshold"]:
                misses.append(
                    f"within_threshold is false: |MC - oracle| = "
                    f"{summary['discrepancy']:.3e} > {summary['threshold']:.3e}")
        if op.closed_form is not None:
            summary = _load(out_dir, "summary.json")
            value = (summary["values"][0]["value"] if op.command == "solve"
                     else summary["oracle"]["total"])
            if not abs(value - op.closed_form) <= CLOSED_FORM_TOL:
                misses.append(f"value {value!r} != closed form {op.closed_form!r}")
    except (OSError, KeyError, IndexError, ValueError) as exc:
        misses.append(f"unreadable output: {exc!r}")
    return misses, known and rc == 1 and len(misses) == 2


def run_op(cli, op, argv, out_dir: str, tracer: Tracer | None, op_id: int) -> dict:
    os.makedirs(out_dir)
    sink = io.StringIO()
    rec = tracer.begin_op(op_id, f"cli.{op.command}") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(argv) + ["--out", out_dir])
    except Exception:  # a crash is a failed op, not a failed benchmark
        rc = "exception"
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if tracer:
        tracer.end_op(rec)
    misses, known = check_op(op, rc, out_dir)
    hashes, size = _hash_outputs(out_dir)
    return {"op": op_id, "argv": list(argv), "command": op.command, "rc": rc,
            "wall_s": wall, "misses": misses, "known_false_failure": known,
            "hashes": hashes, "bytes": size,
            "log_tail": sink.getvalue()[-2000:] if misses else ""}


# ---------------------------------------------------------------------------
# the closed loop

def run_phase(cli, ops, argvs, budget: float, work: str, records: list,
              tracer: Tracer | None, first_iteration: int) -> list[dict]:
    """Iterations until the next one would overrun `budget` seconds (>= 1)."""
    iterations = []
    phase_start = time.perf_counter()
    it = first_iteration
    while True:
        counts_before = tracer.snapshot_counts() if tracer else {}
        start = time.perf_counter()
        op_records = []
        for j, (op, argv) in enumerate(zip(ops, argvs)):
            out_dir = os.path.join(work, "out", f"it{it}", f"op{j}")
            rec = run_op(cli, op, argv, out_dir, tracer, len(records))
            rec.update(iteration=it, index=j)
            if rec["hashes"] and it > 0:
                first = next(r for r in records
                             if r["index"] == j and r["iteration"] == 0)
                if first["hashes"] != rec["hashes"]:
                    rec["misses"].append("outputs differ from iteration 0")
                    rec["known_false_failure"] = False
            records.append(rec)
            op_records.append(rec)
        wall = time.perf_counter() - start
        shutil.rmtree(os.path.join(work, "out", f"it{it}"))
        counts = {}
        if tracer:
            after = tracer.snapshot_counts()
            counts = {k: after[k] - counts_before.get(k, 0) for k in after}
        iterations.append({"iteration": it, "wall_s": wall, "ops": op_records,
                           "counts": counts})
        it += 1
        elapsed = time.perf_counter() - phase_start
        if elapsed + wall > budget:
            return iterations


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        cut = ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]
        if sum(v > cut for v in ordered) >= 10:
            out[f"p{p}"] = cut
            break
    return out


def end_to_end(ops, iterations: list[dict], records: list[dict]) -> tuple[dict, dict]:
    """The untraced metrics, plus the tail of every *_s series."""
    series = {f"{c}_s": [sum(r["wall_s"] for r in it["ops"] if r["command"] == c)
                         for it in iterations] for c in COMMANDS}
    rates = [ops[r["index"]].path_steps(r["argv"]) / r["wall_s"]
             for it in iterations for r in it["ops"] if r["command"] == "simulate"]
    failed = sum(1 for r in records if r["misses"])
    metrics = {name: statistics.median(vals) for name, vals in series.items()}
    metrics["path_steps_per_s"] = statistics.median(rates)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ops_passed_ratio"] = (len(records) - failed) / len(records)
    tails = {name: tail(vals) for name, vals in series.items()}
    tails["path_steps_per_s"] = tail(rates)
    return metrics, tails


# ---------------------------------------------------------------------------
# per-layer metrics

def _layer_metrics(tracer: Tracer, it: dict) -> dict:
    s = tracer.summarize(r["op"] for r in it["ops"])

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    m = {}
    for name in ("riccati.solve_riccati", "riccati.solve_matrix_riccati",
                 "simulate.cost_oracle"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name, "busy_s")
        m[f"{name}.steps"] = get(name, "work")
    m["control.optimal_feedback.busy_s"] = get("control.optimal_feedback", "busy_s")
    m["control.residual_sweep.busy_s"] = get("control.residual_sweep", "busy_s")
    m["control.residual_sweep.points"] = get("control.residual_sweep", "work")
    m["control.FeedbackLaw.at.calls"] = it["counts"].get("control.FeedbackLaw.at", 0)
    m["model.Coefficient.calls"] = it["counts"].get("model.Coefficient", 0)
    m["config.load_config.calls"] = get("config.load_config", "calls")
    m["config.load_config.busy_s"] = get("config.load_config", "busy_s")
    m["simulate.perturbation_sweep.busy_s"] = get("simulate.perturbation_sweep", "busy_s")
    m["simulate.gaussianity_check.busy_s"] = get("simulate.gaussianity_check", "busy_s")
    for name in ("simulate.evolve_cloud", "partial_obs.evolve_partial"):
        for key in ("calls", "busy_s", "self_s"):
            m[f"{name}.{key}"] = get(name, key)
        m[f"{name}.path_steps"] = get(name, "work")
    m["partial_obs.cost_decomposition_check.busy_s"] = get(
        "partial_obs.cost_decomposition_check", "busy_s")
    for name in ("kernels.mc_chunk", "kernels.partial_chunk"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.busy_s"] = get(name, "busy_s")
        m[f"{name}.bytes_computed"] = get(name, "work")
    useful = total = 0
    for r in it["ops"]:
        first_seen, all_steps = tracer.cloud_steps.get(r["op"], (0, 0))
        useful += first_seen
        total += all_steps
    m["simulate.useful_path_steps_ratio"] = useful / total if total else 1.0
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = get(f"cli.{c}", "self_s")
    m["cli.write_s"] = sum(get(name, "busy_s") for name in WRITERS)
    m["cli.bytes_written"] = sum(r["bytes"] for r in it["ops"])
    m["trace.spans"] = sum(v["calls"] for v in s.values())
    return m


def kernel_isolated(mc_chunk, n: int, steps: int, seed: int) -> float:
    """Median ns per path-step of one mc_chunk call on pre-drawn increments,
    with example1's coefficients on a dt = 1e-3 grid (beta = 0)."""
    dt = 1e-3
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((steps, n))
    ts = np.arange(steps) * dt
    a, b = np.zeros(steps), np.ones(steps)
    s_sqdt, q_dt = np.full(steps, math.sqrt(dt)), np.full(steps, dt)
    al, be = -1.0 / (1.0 + 1.0 - ts), np.zeros(steps)
    m1, m2 = np.empty(steps), np.empty(steps)
    times = []
    for _ in range(KERNEL_REPEATS):
        x, run = np.ones(n), np.zeros(n)
        start = time.perf_counter()
        mc_chunk(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1, m2)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (n * steps) * 1e9


def src_lines(root: str) -> dict:
    pkg = os.path.join(root, "src", "mflqg")
    counts = {}
    for mod in SRC_MODULES:
        path = os.path.join(pkg, f"{mod}.py")
        counts[mod] = _count_lines(path) if os.path.exists(path) else 0
    total = sum(_count_lines(os.path.join(pkg, f)) for f in os.listdir(pkg)
                if f.endswith(".py"))
    return {"total": total, "modules": counts}


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def environment(root: str) -> dict:
    """What decides the numbers, recorded with every result."""
    import mflqg._kernels as kernels

    pkg = os.path.join(root, "src", "mflqg")
    generators = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                generators.update(re.findall(r"np\.random\.(Philox|PCG64DXSM|PCG64|"
                                             r"MT19937|SFC64)\(", fh.read()))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.BACKEND,
        "bit_generators_in_source": sorted(generators),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines(root),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--force-failure", action="store_true")
    args = parser.parse_args()

    import mflqg
    import mflqg._kernels as kernels
    cli = sys.modules["mflqg.cli"]
    root = os.getcwd()
    ops = WORKLOADS[args.workload] + ((FORCED_FAILURE,) if args.force_failure else ())
    inputs = os.path.relpath(args.inputs, root)
    argvs = [tuple(a.format(seed=args.seed, inputs=inputs)
                   for a in (op.tiny_argv if args.tiny and op.tiny_argv else op.argv))
             for op in ops]

    records: list[dict] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_phase(cli, ops, argvs, budget, args.work, records, None, 0)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ready": READY, "environment": environment(root)}
    if args.trace:
        tracer = Tracer()
        original_chunk = kernels.mc_chunk
        tracer.install(mflqg)
        traced = run_phase(cli, ops, argvs, budget, args.work, records, tracer,
                           len(plain))
        tracer.uninstall()
        per_it = [_layer_metrics(tracer, it) for it in traced]
        layers = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
        untraced_s = statistics.median(it["wall_s"] for it in plain)
        traced_s = statistics.median(it["wall_s"] for it in traced)
        layers.update({
            "trace.untraced_iteration_s": untraced_s,
            "trace.traced_iteration_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
            "kernels.mc_chunk.isolated_wide_ns_per_path_step":
                kernel_isolated(original_chunk, 100_000, 80, args.seed),
            "kernels.mc_chunk.isolated_narrow_ns_per_path_step":
                kernel_isolated(original_chunk, 2000, 4000, args.seed),
        })
        lines = result["environment"]["src_lines"]
        layers["src.lines"] = lines["total"]
        for mod, count in lines["modules"].items():
            layers[f"{layer_name(mod)}.src_lines"] = count
        result["metrics"] = layers
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
        iterations = plain + traced
    else:
        metrics, tails = end_to_end(ops, plain, records)
        result["metrics"] = metrics
        result["tails"] = tails
        iterations = plain
    result["iterations"] = [{"iteration": it["iteration"], "wall_s": it["wall_s"],
                             "ops": [r["op"] for r in it["ops"]]}
                            for it in iterations]
    result["ops"] = records
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if r["misses"])
    result["unexpected_failures"] = sum(
        1 for r in records if r["misses"] and not r["known_false_failure"])
    shutil.rmtree(os.path.join(args.work, "out"), ignore_errors=True)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
