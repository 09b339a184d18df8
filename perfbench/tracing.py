"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each portqubo module and rebinds the
name in every portqubo module that holds it (``portqubo.qubo.build_qubo``,
``portqubo.bench.build_qubo``, ``portqubo.cli.build_qubo`` and so on), so calls
between modules go through the wrapper. ``make_solver`` closures look their
solver up at call time, so they are covered too. Each call becomes a span
(name, start, end, parent, pass) kept in memory; counts are read from return
values and argument files. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc

LAYER_FUNCTIONS = {
    "data": (
        "generate_synthetic",
        "load_prices_csv",
        "compute_stats",
        "load_universe",
        "save_universe",
        "load_instance",
        "save_instance",
    ),
    "model": ("solution_from_bits",),
    "tuning": ("estimate_lambda1", "estimate_lambda2", "lambda_sweep"),
    "qubo": ("build_qubo", "to_ising", "write_qubo", "read_qubo", "chain_strength_bound", "decode"),
    "solvers": ("solve_sa", "solve_tabu", "solve_ga", "solve_exhaustive_subsets", "solve_qubo_bruteforce"),
    "bench": ("run_benchmark", "render_report"),
    "cli": ("cli_main",),
}
CLI_COMMANDS = ("solve", "ingest", "make-instance", "build", "sweep")

# Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS = {}
for _fn in ("solve_sa", "solve_tabu"):
    PER_LAYER_METRICS.update(
        {
            f"solvers.{_fn}.s": "s",
            f"solvers.{_fn}.evaluations": "count",
            f"solvers.{_fn}.ns_per_eval": "ns",
            f"solvers.{_fn}.evals_to_best_frac": "fraction",
        }
    )
PER_LAYER_METRICS.update(
    {
        "solvers.solve_ga.s": "s",
        "solvers.solve_ga.evaluations": "count",
        "solvers.solve_ga.ns_per_individual": "ns",
        "solvers.solve_ga.evals_to_best_frac": "fraction",
        "solvers.solve_exhaustive_subsets.s": "s",
        "solvers.solve_exhaustive_subsets.subsets": "count",
        "solvers.solve_exhaustive_subsets.ns_per_subset": "ns",
        "solvers.solve_exhaustive_subsets.peak_alloc_mb": "MB",
        "solvers.solve_qubo_bruteforce.s": "s",
        "solvers.solve_qubo_bruteforce.assignments": "count",
        "solvers.solve_qubo_bruteforce.ns_per_assignment": "ns",
        "qubo.build_qubo.s": "s",
        "qubo.build_qubo.calls": "count",
        "qubo.build_qubo.ns_per_nnz": "ns",
        "qubo.dim": "count",
        "qubo.nnz": "count",
        "qubo.to_ising.s": "s",
        "qubo.write_qubo.s": "s",
        "qubo.write_qubo.bytes": "bytes",
        "qubo.read_qubo.s": "s",
        "qubo.chain_strength_bound.s": "s",
        "qubo.decode.s": "s",
        "qubo.decode.calls": "count",
        "tuning.estimate_lambda1.s": "s",
        "tuning.estimate_lambda2.s": "s",
        "tuning.lambda_sweep.s": "s",
        "tuning.lambda_sweep.points": "count",
        "data.generate_synthetic.s": "s",
        "data.load_prices_csv.s": "s",
        "data.load_prices_csv.bytes": "bytes",
        "data.compute_stats.s": "s",
        "data.load_universe.s": "s",
        "data.save_universe.s": "s",
        "data.load_instance.s": "s",
        "data.save_instance.s": "s",
        "model.solution_from_bits.s": "s",
        "model.solution_from_bits.calls": "count",
        "bench.run_benchmark.s": "s",
        "bench.self_s": "s",
        "bench.render_report.s": "s",
        "bench.rows": "count",
        "bench.error_rows": "count",
    }
)
PER_LAYER_METRICS.update({f"cli.{cmd}.s": "s" for cmd in CLI_COMMANDS})
PER_LAYER_METRICS["cli.self_s"] = "s"
PER_LAYER_METRICS["trace.overhead_s"] = "s"

# Times are means over the traced passes, scaled as wall_s is (see run.py);
# counts repeat exactly per pass.
_TIME_UNITS = ("s", "ns")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts(name: str, args: tuple, result) -> dict:
    if name in ("solvers.solve_sa", "solvers.solve_tabu", "solvers.solve_ga"):
        trace = result.energy_trace or [(0, result.energy)]
        return {"evaluations": result.evaluations, "last_improvement": trace[-1][0]}
    if name == "solvers.solve_exhaustive_subsets":
        return {"subsets": result.provenance.get("enumerated", 0)}
    if name == "solvers.solve_qubo_bruteforce":
        return {"assignments": 1 << args[0].dim}
    if name == "qubo.build_qubo":
        q = result[0]
        return {"dim": q.dim, "nnz": len(q.coeffs)}
    if name == "qubo.write_qubo":
        return {"bytes": _file_size(args[1])}
    if name == "data.load_prices_csv":
        return {"bytes": _file_size(args[0])}
    if name == "tuning.lambda_sweep":
        return {"points": len(result)}
    if name == "bench.run_benchmark":
        return {"rows": len(result.rows), "error_rows": sum(1 for r in result.rows if r.error)}
    return {}


class Tracer:
    """Install wrappers, collect spans per pass, and reduce them to the
    per-layer metrics."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.pass_index: int | None = None  # spans are recorded only inside a traced pass
        self.oracle_instances: dict[int, list] = {}  # pass -> oracle arguments
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "portqubo" or n.startswith("portqubo.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"portqubo.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.pass_index is None:
                return original(*args, **kwargs)
            span_name = name
            if name == "cli.cli_main":
                argv = args[0] if args else kwargs.get("argv") or []
                span_name = f"cli.{argv[0] if argv else 'none'}"
            span = {
                "id": len(tracer.spans),
                "name": span_name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "pass": tracer.pass_index,
                "start": tracer.clock(),
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = tracer.clock()
                tracer._stack.pop()
            span["counts"] = _counts(name, args, result)
            if name == "solvers.solve_exhaustive_subsets":
                tracer.oracle_instances.setdefault(span["pass"], []).append(args[0])
            return result

        return wrapper

    def oracle_peak_alloc_mb(self, original) -> float:
        """Peak traced allocation of the subset oracle, re-run under
        tracemalloc on the instances the first traced pass gave it. Kept out
        of the timed passes because tracemalloc slows every allocation."""
        peak = 0
        first = min(self.oracle_instances, default=None)
        for instance in self.oracle_instances.get(first, []):
            tracemalloc.start()
            try:
                original(instance)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s["pass"] == pass_index]
        by_id = {s["id"]: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] in by_id:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

        def named(name):
            return [s for s in spans if s["name"] == name]

        def total(name):
            return sum(s["end"] - s["start"] for s in named(name))

        def count(name, key):
            return sum(s["counts"].get(key, 0) for s in named(name))

        def self_time(prefix):
            return sum(
                s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                for s in spans
                if s["name"].startswith(prefix)
            )

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        m: dict[str, float] = {}
        for fn, rate in (("solve_sa", "ns_per_eval"), ("solve_tabu", "ns_per_eval"), ("solve_ga", "ns_per_individual")):
            name = f"solvers.{fn}"
            calls = named(name)
            m[f"{name}.s"] = total(name)
            m[f"{name}.evaluations"] = count(name, "evaluations")
            m[f"{name}.{rate}"] = per(total(name) * 1e9, count(name, "evaluations"))
            m[f"{name}.evals_to_best_frac"] = per(
                sum(per(s["counts"]["last_improvement"], s["counts"]["evaluations"]) for s in calls),
                len(calls),
            )
        name = "solvers.solve_exhaustive_subsets"
        m[f"{name}.s"] = total(name)
        m[f"{name}.subsets"] = count(name, "subsets")
        m[f"{name}.ns_per_subset"] = per(total(name) * 1e9, count(name, "subsets"))
        name = "solvers.solve_qubo_bruteforce"
        m[f"{name}.s"] = total(name)
        m[f"{name}.assignments"] = count(name, "assignments")
        m[f"{name}.ns_per_assignment"] = per(total(name) * 1e9, count(name, "assignments"))
        m["qubo.build_qubo.s"] = total("qubo.build_qubo")
        m["qubo.build_qubo.calls"] = len(named("qubo.build_qubo"))
        m["qubo.build_qubo.ns_per_nnz"] = per(total("qubo.build_qubo") * 1e9, count("qubo.build_qubo", "nnz"))
        m["qubo.dim"] = max((s["counts"]["dim"] for s in named("qubo.build_qubo")), default=0)
        m["qubo.nnz"] = count("qubo.build_qubo", "nnz")
        for fn in ("to_ising", "write_qubo", "read_qubo", "chain_strength_bound", "decode"):
            m[f"qubo.{fn}.s"] = total(f"qubo.{fn}")
        m["qubo.write_qubo.bytes"] = count("qubo.write_qubo", "bytes")
        m["qubo.decode.calls"] = len(named("qubo.decode"))
        for fn in ("estimate_lambda1", "estimate_lambda2", "lambda_sweep"):
            m[f"tuning.{fn}.s"] = total(f"tuning.{fn}")
        m["tuning.lambda_sweep.points"] = count("tuning.lambda_sweep", "points")
        for fn in LAYER_FUNCTIONS["data"]:
            m[f"data.{fn}.s"] = total(f"data.{fn}")
        m["data.load_prices_csv.bytes"] = count("data.load_prices_csv", "bytes")
        m["model.solution_from_bits.s"] = total("model.solution_from_bits")
        m["model.solution_from_bits.calls"] = len(named("model.solution_from_bits"))
        m["bench.run_benchmark.s"] = total("bench.run_benchmark")
        m["bench.self_s"] = self_time("bench.run_benchmark")
        m["bench.render_report.s"] = total("bench.render_report")
        m["bench.rows"] = count("bench.run_benchmark", "rows")
        m["bench.error_rows"] = count("bench.run_benchmark", "error_rows")
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
        m["cli.self_s"] = self_time("cli.")
        return m

    def layer_metrics(
        self, traced_passes: list[int], overhead_s: float, peak_alloc_mb: float, scale: float
    ) -> dict[str, float]:
        """Reduce the traced passes: times are the mean over the passes
        multiplied by `scale`, counts come from the first pass (they repeat
        exactly)."""
        per_pass = [self.pass_metrics(i) for i in traced_passes]
        out = {}
        for name, unit in PER_LAYER_METRICS.items():
            if name in ("trace.overhead_s", "solvers.solve_exhaustive_subsets.peak_alloc_mb"):
                continue
            values = [m[name] for m in per_pass]
            out[name] = sum(values) / len(values) * scale if unit in _TIME_UNITS else values[0]
        out["trace.overhead_s"] = overhead_s
        out["solvers.solve_exhaustive_subsets.peak_alloc_mb"] = peak_alloc_mb
        return out
