"""In-memory span tracing of the mflqg modules, installed from outside.

Every public function of each mflqg module is replaced by a wrapper that
records a span (name, start, end, parent span, op id).  A function is
rebound under every module-global name that refers to it, so a caller that
did ``from .simulate import evolve_cloud`` reaches the wrapper as well.
Scalar hot paths (``Coefficient.__call__``, ``FeedbackLaw.at``) only count
calls: a span per call would cost more than the call itself.

Spans stay in a Python list until the run ends; nothing is written while the
program runs.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

# The CSV and JSON writers; their spans add up to cli.write_s.
WRITERS = frozenset({
    "riccati.solution_to_csv", "riccati.matrix_solution_to_csv",
    "control.law_to_csv", "control.residual_to_csv",
    "simulate.trajectory_to_csv", "partial_obs.partial_trajectory_to_csv",
    "cli._write_json", "cli.RunManifest.write",
})

# Bytes an Euler step must move at the least, per particle: mc_chunk reads
# and writes x and the running cost and reads one increment (5 doubles);
# partial_chunk does the same for xhat, e and the running cost and reads two
# increments (8 doubles).  Computed from array sizes, not measured.
MC_CHUNK_BYTES_PER_PATH_STEP = 5 * 8
PARTIAL_CHUNK_BYTES_PER_PATH_STEP = 8 * 8

START, END, PARENT, OP, NAME, WORK = range(6)


def layer_name(module_name: str) -> str:
    """'mflqg._kernels' -> 'kernels': metric names start with a letter."""
    short = module_name.rsplit(".", 1)[-1]
    return {"_kernels": "kernels", "__init__": "init"}.get(short, short)


def _cloud_key(spec, law, initial, config, t_stop) -> str:
    """Identity of a simulated cloud: same key, same seeded stream, same cloud."""
    h = hashlib.sha256()
    h.update(repr(spec).encode())
    for arr in (law.grid, law.alpha, law.beta):
        h.update(arr.tobytes())
    states = getattr(initial, "states", None)
    h.update(states.tobytes() if states is not None else repr(initial).encode())
    h.update(repr(config).encode())
    h.update(repr(spec.T if t_stop is None else float(t_stop)).encode())
    return h.hexdigest()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, list[int]] = {}
        self._seen_clouds: set[str] = set()
        # per op: [path-steps of first-seen clouds, all path-steps]
        self.cloud_steps: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> list:
        """Open the root span of one CLI op."""
        self.op = op_id
        self._seen_clouds = set()
        rec = [time.perf_counter(), 0.0, -1, op_id, name, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn, work=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [clock(), 0.0, stack[-1] if stack else -1, tracer.op, name, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- work counters ---------------------------------------------------

    def _evolve_work(self, signature, partial: bool):
        def work(args, kwargs, traj):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if partial:
                key = _cloud_key(a["spec"], a["law"], None, a["config"], None)
                n = traj.xhat.size
            else:
                key = _cloud_key(a["spec"], a["law"], a["initial"], a["config"],
                                 a["t_stop"])
                n = traj.states.size
            path_steps = n * (traj.times.size - 1)
            tally = self.cloud_steps[self.op]
            tally[1] += path_steps
            if key not in self._seen_clouds:
                self._seen_clouds.add(key)
                tally[0] += path_steps
            return path_steps
        return work

    @staticmethod
    def _steps_arg(signature):
        def work(args, kwargs, _result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return int(bound.arguments["steps"])
        return work

    def _work_for(self, name: str, fn):
        if name in ("simulate.evolve_cloud", "partial_obs.evolve_partial"):
            return self._evolve_work(inspect.signature(fn),
                                     partial=name.startswith("partial_obs"))
        if name == "simulate.cost_oracle":
            return self._steps_arg(inspect.signature(fn))
        if name in ("riccati.solve_riccati", "riccati.solve_matrix_riccati"):
            return lambda a, k, sol: sol.grid.size - 1
        if name == "control.residual_sweep":
            return lambda a, k, rows: len(rows)
        if name == "kernels.mc_chunk":
            return lambda a, k, r: MC_CHUNK_BYTES_PER_PATH_STEP * a[2].size
        if name == "kernels.partial_chunk":
            return lambda a, k, r: PARTIAL_CHUNK_BYTES_PER_PATH_STEP * a[3].size
        return None

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every module of `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = layer_name(mod.__name__)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "cli":
                    continue  # the op spans are cli's; see begin_op
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._span_wrapper(name, fn,
                                                      self._work_for(name, fn))
        cli = sys.modules[f"{package.__name__}.cli"]
        wrappers[id(cli._write_json)] = self._span_wrapper("cli._write_json",
                                                           cli._write_json)
        self._set(cli.RunManifest, "write",
                  self._span_wrapper("cli.RunManifest.write", cli.RunManifest.write))
        # Rebind every module-global name that refers to a wrapped function.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._set(mod, attr, wrapper)
        model = sys.modules[f"{package.__name__}.model"]
        control = sys.modules[f"{package.__name__}.control"]
        self._set(model.Coefficient, "__call__",
                  self._count_wrapper("model.Coefficient",
                                      model.Coefficient.__call__))
        self._set(control.FeedbackLaw, "at",
                  self._count_wrapper("control.FeedbackLaw.at",
                                      control.FeedbackLaw.at))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def summarize(self, op_ids) -> dict:
        """Per-name calls, busy, self time and work over the given ops."""
        ops = set(op_ids)
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[OP] in ops and rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = {}
        for idx, rec in enumerate(self.spans):
            if rec[OP] not in ops:
                continue
            agg = out.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0,
                                             "self_s": 0.0, "work": 0})
            dur = rec[END] - rec[START]
            agg["calls"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_time[idx]
            agg["work"] += rec[WORK]
        return out

    def snapshot_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counts.items()}

    def dump(self) -> list[dict]:
        return [{"name": r[NAME], "start": r[START], "end": r[END],
                 "parent": r[PARENT], "op": r[OP], "work": r[WORK]}
                for r in self.spans]
