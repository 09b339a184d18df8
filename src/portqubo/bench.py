"""Benchmark harness: run an instance x solver x seed matrix, recompute every
metric from the decoded bits, and render CSV/Markdown reports.

The exhaustive subset oracle is run alongside the heuristics whenever the
instance is small enough, and its row certifies the best-known value as
proven optimal. Externally produced results (licensed solvers this toolkit
does not invoke) can be merged from a sidecar CSV and are marked external.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import (
    DataFormatError,
    SyntheticSpec,
    generate_synthetic,
    load_instance,
)
from .model import PortfolioInstance
from .qubo import PenaltyParams, build_qubo, decode
from .solvers import (
    SUBSET_ENUMERATION_GUARD,
    InfeasibleInstanceError,
    make_solver,
    solve_exhaustive_subsets,
)
from .tuning import default_grid, estimate_lambdas, grid_search

ORACLE_SOLVER_NAME = "oracle"

CSV_COLUMNS = [
    "instance",
    "N",
    "n",
    "r_star",
    "qubo_dim",
    "lambda1",
    "lambda2",
    "solver",
    "seed",
    "energy",
    "risk",
    "return",
    "feasible",
    "gap_percent",
    "wall_time_s",
]


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n_assets: int
    n: int
    r_star: float
    qubo_dim: int
    lambda1: float
    lambda2: float
    solver: str
    seed: int | None
    energy: float
    risk: float
    ret: float
    feasible: bool
    wall_time_s: float
    gap_percent: float | None = None
    optimal: bool = False
    external: bool = False
    error: str | None = None


@dataclass(frozen=True)
class InstanceSummary:
    instance: str
    best_risk: float | None
    best_solver: str | None
    proven_optimal: bool
    external: bool


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    summaries: tuple[InstanceSummary, ...]


@dataclass(frozen=True)
class BenchPlan:
    instances: tuple
    solvers: tuple
    seeds: tuple[int, ...]
    penalty_policy: str = "estimate"
    explicit_lambda1: float = 0.0
    explicit_lambda2: float = 0.0
    time_limit_s: float | None = None
    external_results: str | None = None
    grid_repeats: int = 5

    def __post_init__(self):
        if not self.instances or not self.solvers or not self.seeds:
            raise ValueError("plan needs nonempty instances, solvers and seeds")
        if self.penalty_policy not in ("estimate", "grid", "explicit"):
            raise ValueError(f"unknown penalty policy {self.penalty_policy!r}")


def load_plan(path) -> BenchPlan:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("instances", "solvers", "seeds"):
        if key not in doc:
            raise DataFormatError(f"{path}: missing field {key!r}")
    policy = doc.get("penalty_policy", "estimate")
    explicit1 = explicit2 = 0.0
    if isinstance(policy, dict):
        explicit1 = float(policy.get("lambda1", 0.0))
        explicit2 = float(policy.get("lambda2", 0.0))
        policy = policy.get("policy", "explicit")
    base = Path(path).parent
    instances = []
    for entry in doc["instances"]:
        if isinstance(entry, str):
            p = Path(entry)
            instances.append(str(p if p.is_absolute() else base / p))
        else:
            instances.append(entry)
    return BenchPlan(
        instances=tuple(instances),
        solvers=tuple(doc["solvers"]),
        seeds=tuple(int(s) for s in doc["seeds"]),
        penalty_policy=policy,
        explicit_lambda1=explicit1,
        explicit_lambda2=explicit2,
        time_limit_s=doc.get("time_limit_s"),
        external_results=doc.get("external_results"),
        grid_repeats=int(doc.get("grid_repeats", 5)),
    )


def _instance_from_entry(entry) -> tuple[str, PortfolioInstance]:
    if isinstance(entry, str):
        return Path(entry).stem, load_instance(entry)
    if not isinstance(entry, dict):
        raise DataFormatError(f"unrecognized instance entry {entry!r}")
    if "synthetic" in entry:
        synth = entry["synthetic"]
        spec = SyntheticSpec(
            n_assets=int(synth["n_assets"]),
            n_factors=int(synth.get("n_factors", 3)),
            idiosyncratic_floor=float(synth.get("idiosyncratic_floor", 1.0)),
            return_range=tuple(synth.get("return_range", (0.0, 200.0))),
            seed=int(synth.get("seed", 0)),
        )
        universe = generate_synthetic(spec)
        instance = PortfolioInstance(
            universe=universe,
            n=int(entry["n"]),
            r_star=float(entry.get("r_star", 0.0)),
            return_mode=entry.get("return_mode", "none"),
        )
        default_id = f"syn{spec.n_assets}n{instance.n}s{spec.seed}"
        return str(entry.get("id", default_id)), instance
    raise DataFormatError(f"instance entry needs a path or a 'synthetic' block: {entry!r}")


def _solver_entry(entry) -> tuple[str, str, dict]:
    """Returns (display name, solver type, options)."""
    if isinstance(entry, str):
        return entry, entry, {}
    name = entry["name"]
    return entry.get("id", name), name, dict(entry.get("options", {}))


def _resolve_penalties(plan: BenchPlan, instance: PortfolioInstance) -> PenaltyParams:
    if plan.penalty_policy == "explicit":
        return PenaltyParams(1.0, plan.explicit_lambda1, plan.explicit_lambda2)
    est = estimate_lambdas(instance)
    if plan.penalty_policy == "estimate":
        return PenaltyParams(1.0, est.lambda1_hat, est.lambda2_hat)
    # grid: refine around the estimates with the plan's first solver
    _, solver_type, options = _solver_entry(plan.solvers[0])
    solver = make_solver(solver_type, options)
    best, _, _ = grid_search(
        instance,
        solver,
        default_grid(est.lambda1_hat),
        default_grid(est.lambda2_hat),
        repeats=plan.grid_repeats,
        seeds=list(plan.seeds[: plan.grid_repeats]),
    )
    return best


def load_external_results(path) -> list[BenchRow]:
    """Sidecar CSV with columns instance,solver,risk[,return]; rows join the
    report marked external and participate in the best-known summary."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            rows.append(
                BenchRow(
                    instance=record["instance"],
                    n_assets=0,
                    n=0,
                    r_star=float(record.get("r_star", 0.0) or 0.0),
                    qubo_dim=0,
                    lambda1=0.0,
                    lambda2=0.0,
                    solver=record["solver"],
                    seed=None,
                    energy=float(record.get("energy", "nan") or "nan"),
                    risk=float(record["risk"]),
                    ret=float(record.get("return", "nan") or "nan"),
                    feasible=True,
                    wall_time_s=0.0,
                    external=True,
                )
            )
    return rows


def run_benchmark(plan: BenchPlan, no_timing: bool = False) -> BenchReport:
    """Execute the full (instance, solver, seed) matrix plus oracle rows.

    Individual run failures, and a QUBO build that fails for an instance, are
    recorded in their rows; the matrix always completes.
    """
    rows: list[BenchRow] = []
    summaries: list[InstanceSummary] = []
    external_rows = (
        load_external_results(plan.external_results) if plan.external_results else []
    )
    for entry in plan.instances:
        inst_id, instance = _instance_from_entry(entry)
        params = _resolve_penalties(plan, instance)
        try:
            q, layout = build_qubo(instance, params)
        except ValueError as exc:
            q, layout, build_error = None, None, str(exc)
        else:
            build_error = None
        template = BenchRow(
            instance=inst_id,
            n_assets=instance.n_assets,
            n=instance.n,
            r_star=instance.r_star,
            qubo_dim=0 if q is None else q.dim,
            lambda1=params.lambda1,
            lambda2=params.lambda2,
            solver="",
            seed=None,
            energy=math.nan,
            risk=math.nan,
            ret=math.nan,
            feasible=False,
            wall_time_s=0.0,
        )
        inst_rows: list[BenchRow] = []
        for solver_entry in plan.solvers:
            display, solver_type, options = _solver_entry(solver_entry)
            if plan.time_limit_s is not None:
                options.setdefault("time_limit_s", plan.time_limit_s)
            solver = make_solver(solver_type, options)
            for seed in plan.seeds:
                row = replace(template, solver=display, seed=seed, error=build_error)
                if q is not None:
                    try:
                        result = solver(q, seed)
                        sol = decode(instance, layout, result.bits, energy=result.energy)
                        row = replace(
                            row,
                            energy=result.energy,
                            risk=sol.risk,
                            ret=sol.ret,
                            feasible=sol.feasible,
                            wall_time_s=0.0 if no_timing else result.wall_time_s,
                        )
                    except Exception as exc:
                        row = replace(row, error=str(exc))
                inst_rows.append(row)
        if math.comb(instance.n_assets, instance.n) <= SUBSET_ENUMERATION_GUARD:
            try:
                oracle = solve_exhaustive_subsets(instance)
                inst_rows.append(
                    replace(
                        template,
                        solver=ORACLE_SOLVER_NAME,
                        energy=oracle.risk,
                        risk=oracle.risk,
                        ret=oracle.ret,
                        feasible=True,
                        wall_time_s=0.0
                        if no_timing
                        else oracle.provenance.get("wall_time_s", 0.0),
                        optimal=True,
                    )
                )
            except InfeasibleInstanceError:
                pass
        inst_rows.extend(r for r in external_rows if r.instance == inst_id)
        summary = _summarize(inst_id, inst_rows)
        summaries.append(summary)
        best_risk = summary.best_risk
        if best_risk is not None:
            inst_rows = [
                replace(
                    r,
                    gap_percent=(r.risk - best_risk) / best_risk * 100.0
                    if r.feasible and not math.isnan(r.risk) and best_risk != 0
                    else (0.0 if r.feasible and not math.isnan(r.risk) else None),
                )
                for r in inst_rows
            ]
        rows.extend(inst_rows)
    rows.sort(key=_row_sort_key)
    return BenchReport(rows=tuple(rows), summaries=tuple(summaries))


def _summarize(inst_id: str, inst_rows: list[BenchRow]) -> InstanceSummary:
    """Best-known feasible risk of one instance, the first row in order that
    reaches it, and whether an optimal (oracle) row proves it."""
    feasible = [r for r in inst_rows if r.feasible and not math.isnan(r.risk)]
    if not feasible:
        return InstanceSummary(
            instance=inst_id,
            best_risk=None,
            best_solver=None,
            proven_optimal=False,
            external=False,
        )
    best = min(feasible, key=lambda r: r.risk)
    return InstanceSummary(
        instance=inst_id,
        best_risk=best.risk,
        best_solver=best.solver,
        proven_optimal=any(r.optimal for r in inst_rows),
        external=best.external,
    )


def _row_sort_key(row: BenchRow):
    return (
        row.instance,
        row.solver == ORACLE_SOLVER_NAME,
        row.external,
        row.solver,
        row.seed if row.seed is not None else -1,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def render_report(report: BenchReport, fmt: str = "csv") -> str:
    if not report.rows:
        raise ValueError("report has no rows")
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}; expected csv or markdown")


def _render_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow(
            [
                r.instance,
                r.n_assets,
                r.n,
                _fmt(r.r_star),
                r.qubo_dim,
                _fmt(r.lambda1),
                _fmt(r.lambda2),
                r.solver + ("*" if r.optimal else "") + ("(ext)" if r.external else ""),
                r.seed if r.seed is not None else "",
                _fmt(r.energy),
                _fmt(r.risk),
                _fmt(r.ret),
                str(r.feasible).lower(),
                _fmt(r.gap_percent) if r.gap_percent is not None else "",
                _fmt(r.wall_time_s),
            ]
        )
    return buf.getvalue()


def _render_markdown(report: BenchReport) -> str:
    instances = []
    for r in report.rows:
        if r.instance not in instances:
            instances.append(r.instance)
    solvers = []
    for r in report.rows:
        if r.solver not in solvers and r.solver != ORACLE_SOLVER_NAME:
            solvers.append(r.solver)
    header = ["instance", "N", "n", "R*", "Size(Q)"] + solvers + ["best"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    summary_by_id = {s.instance: s for s in report.summaries}
    for inst_id in instances:
        inst_rows = [r for r in report.rows if r.instance == inst_id]
        meta = next(r for r in inst_rows if not r.external)
        cells = [inst_id, str(meta.n_assets), str(meta.n), f"{meta.r_star:g}", str(meta.qubo_dim)]
        for solver in solvers:
            candidates = [
                r
                for r in inst_rows
                if r.solver == solver and r.feasible and not math.isnan(r.risk)
            ]
            if candidates:
                best = min(c.risk for c in candidates)
                cells.append(f"{best:.6g}")
            else:
                cells.append("-")
        summary = summary_by_id[inst_id]
        if summary.best_risk is None:
            cells.append("-")
        else:
            marker = "*" if summary.proven_optimal else ("(ext)" if summary.external else "")
            cells.append(f"{summary.best_risk:.6g}{marker}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def parse_report_csv(path) -> BenchReport:
    """Rebuild a BenchReport from a CSV produced by :func:`render_report`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise DataFormatError(f"{path}: unexpected report columns {reader.fieldnames}")
        for rec in reader:
            solver = rec["solver"]
            optimal = solver.endswith("*")
            external = solver.endswith("(ext)")
            solver = solver.rstrip("*").removesuffix("(ext)")
            rows.append(
                BenchRow(
                    instance=rec["instance"],
                    n_assets=int(rec["N"]),
                    n=int(rec["n"]),
                    r_star=float(rec["r_star"]),
                    qubo_dim=int(rec["qubo_dim"]),
                    lambda1=float(rec["lambda1"]),
                    lambda2=float(rec["lambda2"]),
                    solver=solver,
                    seed=int(rec["seed"]) if rec["seed"] else None,
                    energy=float(rec["energy"]),
                    risk=float(rec["risk"]),
                    ret=float(rec["return"]),
                    feasible=rec["feasible"] == "true",
                    wall_time_s=float(rec["wall_time_s"]),
                    gap_percent=float(rec["gap_percent"]) if rec["gap_percent"] else None,
                    optimal=optimal,
                    external=external,
                )
            )
    if not rows:
        raise DataFormatError(f"{path}: report has no rows")
    seen = []
    for r in rows:
        if r.instance not in seen:
            seen.append(r.instance)
    summaries = tuple(_summarize(i, [r for r in rows if r.instance == i]) for i in seen)
    return BenchReport(rows=tuple(rows), summaries=summaries)
