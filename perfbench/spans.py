"""Spans around calls into thermofem's public functions, made from outside.

The tracer replaces a public name with a timing wrapper wherever callers
look it up: the defining module, every thermofem module that imported the
name with ``from .x import name``, and the class for methods.  Nothing in
the program changes; a name that no longer exists is skipped, so its
metrics are absent from the report instead of failing the benchmark.

Each span records its inclusive time and its self time (inclusive minus
the time covered by child spans).  Calls and inclusive time count only the
outermost span of a name, so a layer that calls itself is not counted
twice.

The spans' own cost is measured in the traced process, as the time a
wrapper adds to a no-op call times the number of spans opened: comparing a
traced call with an untraced one in another process would measure the
host's drift, which is larger than the cost.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, metric); "Class.method" attributes patch the class.
TARGETS = [
    ("thermofem.mesh", "focused_domain_mesh", "mesh.build"),
    ("thermofem.mesh", "unit_square_mesh", "mesh.build"),
    ("thermofem.fem", "build_space", "fem.build_space"),
    ("thermofem.fem", "FESpace.values", "fem.values"),
    ("thermofem.fem", "ritz_projection", "fem.ritz_projection"),
    ("thermofem.fem", "assemble_mass", "fem.assemble_mass"),
    ("thermofem.fem", "assemble_weighted_stiffness", "fem.assemble_weighted_stiffness"),
    ("thermofem.fem", "assemble_stiffness", "fem.assemble_stiffness"),
    ("thermofem.fem", "assemble_load", "fem.assemble_load"),  # split by source type
    ("thermofem.fem", "FEValues.fe_values", "fem.fe_values"),
    ("thermofem.fem", "FEValues.fe_gradients", "fem.fe_gradients"),
    ("thermofem.fem", "error_norms", "fem.error_norms"),
    ("thermofem.linalg", "factorize", "linalg.factorize"),
    ("thermofem.linalg", "_LUSolver.__call__", "linalg.lu_solve"),
    ("thermofem.linalg", "sparse_from_triplets", "linalg.sparse_from_triplets"),
    ("thermofem.linalg", "SparseMatrix.submatrix", "linalg.submatrix"),
    ("thermofem.linalg", "matvec", "linalg.matvec"),
    ("thermofem.coefficients", "q_of_theta", "coefficients.tables"),
    ("thermofem.coefficients", "beta_of_theta", "coefficients.tables"),
    ("thermofem.coefficients", "k_coefficients", "coefficients.tables"),
    ("thermofem.coefficients", "absorption_weights", "coefficients.tables"),
    ("thermofem.stepping", "run_simulation", "stepping.run"),
    ("thermofem.stepping", "wave_step", "stepping.wave_step"),
    ("thermofem.stepping", "heat_step", "stepping.heat_step"),
    ("thermofem.stepping", "write_step_reports", "output.write_step_reports"),
    ("thermofem.mms", "total_error", "mms.total_error"),
    ("thermofem.output", "write_vtk", "output.write_vtk"),
    ("thermofem.output", "write_snapshot_csv", "output.write_snapshot_csv"),
    ("thermofem.scenarios", "run_scenario", "scenarios.run_scenario"),
]

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Units of the per-layer metrics that count work rather than time it.
COUNT_UNITS = ("count", "B", "iter/step", "count/step")


def per_layer_units() -> dict:
    """Name and unit of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads(BENCHMARK_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def count_metrics() -> list:
    """Metrics that count work; two traced runs of the same code must agree on them."""
    return [name for name, unit in per_layer_units().items() if unit in COUNT_UNITS]


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.bytes = Counter()
        self.present = set()
        self._stack = []  # one [child_time] per open span
        self._depth = Counter()
        self._step_ends = []
        self.step_gaps = []
        self.steps = 0
        self.fp_iterations = 0
        self.spans = 0

    def span(self, name, fn, args, kwargs, after=None):
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        self._depth[name] += 1
        self.spans += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            dur = end - start
            self._stack.pop()
            self._depth[name] -= 1
            if self._stack:
                self._stack[-1][0] += dur
            self.self_time[name] += dur - frame[0]
            if self._depth[name] == 0:
                self.total[name] += dur
                self.calls[name] += 1
        if after is not None:
            after(result, args, kwargs, end)
        return result

    # -- hooks on particular layers ----------------------------------------
    def _run_started(self):
        self._step_ends = []

    def _after_run(self, result, args, kwargs, end):
        reports = getattr(result, "reports", None)
        if reports is not None:
            self.steps += len(reports)
            self.fp_iterations += sum(r.iterations for r in reports)

    def _after_heat_step(self, result, args, kwargs, end):
        if self._step_ends:
            self.step_gaps.append(end - self._step_ends[-1])
        self._step_ends.append(end)

    def _after_write(self, metric):
        def after(result, args, kwargs, end):
            path = args[0] if args else kwargs.get("path")
            self.bytes[metric] += os.path.getsize(path)
        return after

    # -- installation -------------------------------------------------------
    def _wrapper(self, orig, metric):
        after = None
        before = None
        if metric == "stepping.run":
            before, after = self._run_started, self._after_run
        elif metric == "stepping.heat_step":
            after = self._after_heat_step
        elif metric in ("output.write_vtk", "output.write_snapshot_csv"):
            after = self._after_write(metric)

        if metric == "fem.assemble_load":  # analytic field or value table
            field_type = sys.modules["thermofem.fem"].ScalarField

            @functools.wraps(orig)
            def load_wrapper(*args, **kwargs):
                source = args[1] if len(args) > 1 else kwargs.get("source")
                kind = "analytic" if isinstance(source, field_type) else "table"
                return self.span(f"fem.assemble_load_{kind}", orig, args, kwargs)
            return load_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            return self.span(metric, orig, args, kwargs, after)
        return wrapper

    def install(self):
        """Wrap every target that exists and note its metric as present."""
        import thermofem  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "thermofem" or name.startswith("thermofem."))]
        for mod_name, attr, metric in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                setattr(cls, meth, self._wrapper(orig, metric))
            else:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrapper(orig, metric)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
            self.present.add(metric)

    # -- report ---------------------------------------------------------------
    def metrics(self, names, wall: float) -> dict:
        """The metrics among `names` whose layers were found, for a traced
        call that took `wall` seconds."""
        out = {}
        for name in names:
            for suffix, table in (("_self_s", self.self_time), ("_calls", self.calls),
                                  ("_bytes", self.bytes), ("_s", self.total)):
                if name.endswith(suffix):
                    span = name[:-len(suffix)]
                    layer = "fem.assemble_load" if span.startswith("fem.assemble_load_") else span
                    if layer in self.present:
                        out[name] = table[span]
                    break
        n_fact = self.calls["linalg.factorize"]
        if n_fact:
            out["linalg.factorize_ms_per_call"] = 1e3 * self.total["linalg.factorize"] / n_fact
        if "stepping.run" in self.present:
            out["stepping.steps"] = self.steps
            if self.steps:
                out["stepping.fp_iterations_per_step"] = self.fp_iterations / self.steps
                if "linalg.factorize" in self.present:
                    out["stepping.factorizations_per_step"] = n_fact / self.steps
        if self.step_gaps:
            gaps = sorted(self.step_gaps)
            out["stepping.step_s_p50"] = statistics.median(gaps)
            out["stepping.step_s_p90"] = gaps[min(len(gaps) - 1, int(0.9 * len(gaps)))]
        cost = self.spans * span_cost_s()
        out["trace.wall_s"] = wall
        out["trace.overhead_frac"] = cost / (wall - cost)
        return {name: out[name] for name in names if name in out}


def span_cost_s(reps: int = 20000, repeats: int = 5) -> float:
    """Time one span adds to a call: a wrapped no-op against a bare one,
    the median over `repeats` timings of `reps` calls each."""
    def noop():
        return None

    wrapped = Tracer()._wrapper(noop, "probe")
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(reps):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(reps):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / reps)
    return statistics.median(costs)
