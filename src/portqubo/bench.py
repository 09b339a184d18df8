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
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .data import (
    DataFormatError,
    SyntheticSpec,
    _float_field,
    _load_json,
    generate_synthetic,
    int_field,
    load_instance,
    number_field,
    require_fields,
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


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n_assets: int
    n: int
    r_star: float
    qubo_dim: int
    lambda1: float
    lambda2: float
    solver: str = ""
    seed: int | None = None
    energy: float = math.nan
    risk: float = math.nan
    ret: float = math.nan
    feasible: bool = False
    wall_time_s: float = 0.0
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
    doc = require_fields(_load_json(path), ("instances", "solvers", "seeds"), path)
    for key in ("instances", "solvers", "seeds"):
        if not isinstance(doc[key], list):
            raise DataFormatError(f"{path}: field {key!r} must be a list, got {doc[key]!r}")
    policy = doc.get("penalty_policy", "estimate")
    explicit = policy if isinstance(policy, dict) else {}
    base = Path(path).parent  # joined to an absolute path, gives that path
    external = doc.get("external_results")
    limit = doc.get("time_limit_s")
    if external is not None and not isinstance(external, str):
        raise DataFormatError(f"{path}: field 'external_results' must be a path, got {external!r}")
    return BenchPlan(
        instances=tuple(str(base / e) if isinstance(e, str) else e for e in doc["instances"]),
        solvers=tuple(doc["solvers"]),
        seeds=tuple(int_field({"seeds": s}, "seeds", path) for s in doc["seeds"]),
        penalty_policy=policy.get("policy", "explicit") if isinstance(policy, dict) else policy,
        explicit_lambda1=number_field(explicit, "lambda1", f"{path}: penalty_policy", 0.0),
        explicit_lambda2=number_field(explicit, "lambda2", f"{path}: penalty_policy", 0.0),
        time_limit_s=None if limit is None else number_field(doc, "time_limit_s", path),
        external_results=None if external is None else str(base / external),
        grid_repeats=int_field(doc, "grid_repeats", path, 5),
    )


def _instance_from_entry(entry) -> tuple[str, PortfolioInstance]:
    """(id, instance) of a plan entry: an instance file path or a synthetic block."""
    if isinstance(entry, str):
        return Path(entry).stem, load_instance(entry)
    source = f"instance entry {entry!r}"
    synth = require_fields(entry, ("synthetic", "n"), source)["synthetic"]
    block = f"{source}, 'synthetic' block"
    require_fields(synth, ("n_assets",), block)
    return_range = {"return_range": (0.0, 200.0), **synth}
    spec_fields = dict(
        n_assets=int_field(synth, "n_assets", block),
        n_factors=int_field(synth, "n_factors", block, 3),
        idiosyncratic_floor=number_field(synth, "idiosyncratic_floor", block, 1.0),
        return_range=tuple(_float_field(return_range, "return_range", (2,), block).tolist()),
        seed=int_field(synth, "seed", block, 0),
    )
    instance_fields = dict(
        n=int_field(entry, "n", source),
        r_star=number_field(entry, "r_star", source, 0.0),
        return_mode=entry.get("return_mode", "none"),
    )
    try:
        spec = SyntheticSpec(**spec_fields)
        instance = PortfolioInstance(universe=generate_synthetic(spec), **instance_fields)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{source}: {exc}") from exc
    default_id = f"syn{spec.n_assets}n{instance.n}s{spec.seed}"
    return str(entry.get("id", default_id)), instance


def _solver_entry(entry) -> tuple[str, str, dict]:
    """Returns (display name, solver type, options)."""
    if isinstance(entry, str):
        return entry, entry, {}
    source = f"solver entry {entry!r}"
    name = require_fields(entry, ("name",), source)["name"]
    options = require_fields(entry.get("options", {}), (), f"{source}, 'options'")
    return str(entry.get("id", name)), name, dict(options)


def _resolve_penalties(plan: BenchPlan, instance: PortfolioInstance, grid_solver) -> PenaltyParams:
    if plan.penalty_policy == "explicit":
        return PenaltyParams(1.0, plan.explicit_lambda1, plan.explicit_lambda2)
    est = estimate_lambdas(instance)
    if plan.penalty_policy == "estimate":
        return PenaltyParams(1.0, est.lambda1_hat, est.lambda2_hat)
    return grid_search(
        instance,
        grid_solver,
        default_grid(est.lambda1_hat),
        default_grid(est.lambda2_hat),
        repeats=plan.grid_repeats,
        seeds=list(plan.seeds[: plan.grid_repeats]),
    )[0]


def run_benchmark(plan: BenchPlan, no_timing: bool = False) -> BenchReport:
    """Execute the full (instance, solver, seed) matrix plus oracle rows.

    Individual run failures, and penalty resolution or a QUBO build that
    fails for an instance, are recorded in their rows (with NaN lambdas when
    the penalties could not be resolved); the matrix always completes.
    """
    instances = [_instance_from_entry(entry) for entry in plan.instances]
    entries = [_solver_entry(entry) for entry in plan.solvers]
    limit = {} if plan.time_limit_s is None else {"time_limit_s": plan.time_limit_s}
    solvers = [(display, make_solver(kind, {**limit, **opts})) for display, kind, opts in entries]
    # the grid policy searches with the first solver, without the time limit
    grid_solver = make_solver(*entries[0][1:]) if plan.penalty_policy == "grid" else None
    external_rows = load_external_results(plan.external_results) if plan.external_results else []
    rows: list[BenchRow] = []
    summaries: list[InstanceSummary] = []
    for inst_id, instance in instances:
        params = q = layout = build_error = None
        try:
            params = _resolve_penalties(plan, instance, grid_solver)
            q, layout = build_qubo(instance, params)
        except ValueError as exc:
            build_error = str(exc)
        template = BenchRow(
            instance=inst_id,
            n_assets=instance.n_assets,
            n=instance.n,
            r_star=instance.r_star,
            qubo_dim=0 if q is None else q.dim,
            lambda1=math.nan if params is None else params.lambda1,
            lambda2=math.nan if params is None else params.lambda2,
        )
        inst_rows: list[BenchRow] = []
        for display, solver in solvers:
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
                            wall_time_s=result.wall_time_s,
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
                        wall_time_s=oracle.provenance.get("wall_time_s", 0.0),
                        optimal=True,
                    )
                )
            except InfeasibleInstanceError:
                pass
        inst_rows.extend(r for r in external_rows if r.instance == inst_id)
        summaries.append(_summarize(inst_id, inst_rows))
        best = summaries[-1].best_risk  # not None where a row is feasible
        for r in inst_rows:
            gap = None
            if r.feasible and not math.isnan(r.risk):
                gap = (r.risk - best) / best * 100.0 if best != 0 else 0.0
            wall_time_s = 0.0 if no_timing else r.wall_time_s
            rows.append(replace(r, gap_percent=gap, wall_time_s=wall_time_s))
    rows.sort(key=_row_sort_key)
    return BenchReport(rows=tuple(rows), summaries=tuple(summaries))


def _summarize(inst_id: str, inst_rows: list[BenchRow]) -> InstanceSummary:
    """Best-known feasible risk of one instance, the first row in order that
    reaches it, and whether an optimal (oracle) row proves it."""
    feasible = [r for r in inst_rows if r.feasible and not math.isnan(r.risk)]
    best = min(feasible, key=lambda r: r.risk, default=None)
    return InstanceSummary(
        instance=inst_id,
        best_risk=None if best is None else best.risk,
        best_solver=None if best is None else best.solver,
        proven_optimal=best is not None and any(r.optimal for r in inst_rows),
        external=best is not None and best.external,
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


def _optional(write, read):
    """(write, read) of a cell that is blank for None."""
    return lambda v: "" if v is None else write(v), lambda c: read(c) if c else None


_OPTIMAL, _EXTERNAL = "*", "(ext)"  # solver-cell markers of oracle and sidecar rows
_BOOLS = {"true": True, "false": False}


def _solver_cell(row: BenchRow) -> str:
    return row.solver + (_OPTIMAL if row.optimal else "") + (_EXTERNAL if row.external else "")


def _read_solver(cell: str) -> dict:
    """Name and markers of a solver cell; one that ends in "(ext)" is not optimal."""
    name = cell.rstrip(_OPTIMAL).removesuffix(_EXTERNAL)
    return dict(solver=name, optimal=cell.endswith(_OPTIMAL), external=cell.endswith(_EXTERNAL))


class _Column(NamedTuple):
    """A report CSV column: its header, the cell of a row, the BenchRow fields
    of a cell (a ValueError if it does not parse) and, for a sidecar row, the
    cell where the sidecar gives none (None: the sidecar must have the
    column) and the format of the sidecar's own cell (None: not read)."""

    name: str
    write: Callable[[BenchRow], str]
    read: Callable[[str], dict]
    external: str | None
    sidecar: str | None = None


def _col(name, field, write, read, *external) -> _Column:
    return _Column(name, lambda r: write(getattr(r, field)), lambda c: {field: read(c)}, *external)


_COLUMNS = (
    #    header         BenchRow field  formatter, parser        external  sidecar
    _col("instance",    "instance",     str, str,                None,     "{}"),
    _col("N",           "n_assets",     str, int,                "0"),
    _col("n",           "n",            str, int,                "0"),
    _col("r_star",      "r_star",       _fmt, float,             "0",      "{}"),
    _col("qubo_dim",    "qubo_dim",     str, int,                "0"),
    _col("lambda1",     "lambda1",      _fmt, float,             "0"),
    _col("lambda2",     "lambda2",      _fmt, float,             "0"),
    _Column("solver",                   _solver_cell, _read_solver, None, "{}" + _EXTERNAL),
    _col("seed",        "seed",         *_optional(str, int),    ""),
    _col("energy",      "energy",       _fmt, float,             "nan",    "{}"),
    _col("risk",        "risk",         _fmt, float,             None,     "{}"),
    _col("return",      "ret",          _fmt, float,             "nan",    "{}"),
    _col("feasible",    "feasible",     lambda v: str(v).lower(), _BOOLS.__getitem__, "true"),
    _col("gap_percent", "gap_percent",  *_optional(_fmt, float), ""),
    _col("wall_time_s", "wall_time_s",  _fmt, float,             "0"),
)
CSV_COLUMNS = [column.name for column in _COLUMNS]


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
    # csv quotes only the lineterminator's line ends, and a bare \r read back ends a line
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in ([column.write(row) for column in _COLUMNS] for row in report.rows):
        (quote_all if any("\r" in cell for cell in cells) else writer).writerow(cells)
    return buf.getvalue()


def _render_markdown(report: BenchReport) -> str:
    solvers = [s for s in dict.fromkeys(r.solver for r in report.rows) if s != ORACLE_SOLVER_NAME]
    header = ["instance", "N", "n", "R*", "Size(Q)"] + solvers + ["best"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    summary_by_id = {s.instance: s for s in report.summaries}
    for inst_id in dict.fromkeys(r.instance for r in report.rows):
        inst_rows = [r for r in report.rows if r.instance == inst_id]
        meta = next((r for r in inst_rows if not r.external), None)  # None: external rows only
        cells = [inst_id] + (
            ["-"] * 4
            if meta is None
            else [str(meta.n_assets), str(meta.n), f"{meta.r_star:g}", str(meta.qubo_dim)]
        )
        for solver in solvers:
            risks = [r.risk for r in inst_rows if r.solver == solver and r.feasible]
            risks = [risk for risk in risks if not math.isnan(risk)]
            cells.append(f"{min(risks):.6g}" if risks else "-")
        summary = summary_by_id[inst_id]
        marker = _OPTIMAL if summary.proven_optimal else (_EXTERNAL if summary.external else "")
        cells.append("-" if summary.best_risk is None else f"{summary.best_risk:.6g}{marker}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _read_csv(path) -> tuple[list[str] | None, list[tuple[str, list[str]]]]:
    """A CSV file's header (None if empty) and its nonblank records, each
    with the "path:line" where it ends; a DataFormatError names a record
    whose cell count differs from the header's, or one that csv rejects."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            for cells in filter(None, reader):
                where = f"{path}:{reader.line_num}"
                if len(cells) != len(header):
                    raise DataFormatError(f"{where}: {len(cells)} cells, expected {len(header)}")
                records.append((where, cells))
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    return header, records


def _parse_row(where: str, cells: list[str]) -> BenchRow:
    """The BenchRow of a record's report cells, in ``_COLUMNS`` order."""
    fields = {}
    for c, cell in zip(_COLUMNS, cells):
        try:
            fields.update(c.read(cell))
        except (KeyError, ValueError):
            raise DataFormatError(f"{where}: column {c.name!r}: cannot read {cell!r}") from None
    return BenchRow(**fields)


def parse_report_csv(path) -> BenchReport:
    """Rebuild a BenchReport from a CSV produced by :func:`render_report`."""
    header, records = _read_csv(path)
    if header != CSV_COLUMNS:
        raise DataFormatError(f"{path}: unexpected report columns {header}")
    rows = [_parse_row(*record) for record in records]
    if not rows:
        raise DataFormatError(f"{path}: report has no rows")
    instances = dict.fromkeys(r.instance for r in rows)
    summaries = tuple(_summarize(i, [r for r in rows if r.instance == i]) for i in instances)
    return BenchReport(rows=tuple(rows), summaries=summaries)


def load_external_results(path) -> list[BenchRow]:
    """The rows of a sidecar CSV of externally produced results, marked
    external, with the columns and defaults that ``_COLUMNS`` gives it."""
    header, records = _read_csv(path)
    index = {name: i for i, name in enumerate(header or ())}
    missing = [c.name for c in _COLUMNS if c.external is None and c.name not in index]
    if missing:
        raise DataFormatError(f"{path}: external results need column(s) {', '.join(missing)}")

    def report_cells(cells):
        for c in _COLUMNS:
            cell = cells[index[c.name]] if c.sidecar and c.name in index else ""
            yield c.sidecar.format(cell) if cell or c.external is None else c.external

    return [_parse_row(where, list(report_cells(cells))) for where, cells in records]
