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
    _load_json,
    generate_synthetic,
    load_instance,
    require_fields,
)
from .model import PortfolioInstance, read_counts, read_numbers, whole_number
from .solvers import (
    SUBSET_ENUMERATION_GUARD,
    InfeasibleInstanceError,
    make_solver,
    solve_exhaustive_subsets,
)
from .tuning import PENALTY_POLICIES, BenchRow, resolve_penalties, seeded_runs, solved_row

ORACLE_SOLVER_NAME = "oracle"


@dataclass(frozen=True)
class InstanceSummary:
    instance: str
    best_risk: float | None
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
    explicit_lambda1: float | None = None  # None: not given
    explicit_lambda2: float | None = None
    time_limit_s: float | None = None
    external_results: str | None = None
    grid_repeats: int = 5

    def __post_init__(self):
        if not self.instances or not self.solvers or not self.seeds:
            raise ValueError("plan needs nonempty instances, solvers and seeds")
        seeds = tuple(whole_number(s, 0, "BenchPlan: a seed in field 'seeds'") for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:  # two runs of one seed would give two identical rows
            raise ValueError(f"seeds must be distinct, got {repeated[0]} more than once")
        if self.penalty_policy not in PENALTY_POLICIES:
            raise ValueError(f"unknown penalty policy {self.penalty_policy!r}")
        read_counts(self, grid_repeats=1)
        read_numbers(self, explicit_lambda1="non-negative", explicit_lambda2="non-negative")
        read_numbers(self, time_limit_s="positive")


def load_plan(path) -> BenchPlan:
    optional = ("penalty_policy", "time_limit_s", "external_results", "grid_repeats")
    doc = require_fields(_load_json(path), ("instances", "solvers", "seeds"), path, optional)
    for key in ("instances", "solvers", "seeds"):
        if not isinstance(doc[key], list):
            raise DataFormatError(f"{path}: field {key!r} must be a list, got {doc[key]!r}")
    base = Path(path).parent  # joined to an absolute path, gives that path
    given = {key: doc[key] for key in ("time_limit_s", "grid_repeats") if key in doc}
    if "penalty_policy" in doc:
        given.update(_penalty_fields(doc["penalty_policy"], path))
    external = doc.get("external_results")
    if external is not None:
        if not isinstance(external, str):
            message = f"field 'external_results' must be a path, got {external!r}"
            raise DataFormatError(f"{path}: {message}")
        given["external_results"] = str(base / external)
    try:
        return BenchPlan(
            instances=tuple(str(base / e) if isinstance(e, str) else e for e in doc["instances"]),
            solvers=tuple(doc["solvers"]),
            seeds=tuple(doc["seeds"]),
            **given,
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _penalty_fields(policy, path) -> dict:
    """The BenchPlan fields of a plan's ``penalty_policy``: a policy name, or
    an object of ``policy`` (default explicit) and the lambdas it gives."""
    where = f"{path}: penalty_policy"
    policy = policy if isinstance(policy, dict) else {"policy": policy}
    require_fields(policy, (), where, ("policy", "lambda1", "lambda2"))
    given = {f"explicit_{k}": policy[k] for k in ("lambda1", "lambda2") if k in policy}
    if None in given.values():  # a BenchPlan reads a lambda of None as one not given
        raise DataFormatError(f"{where}: a lambda must be a number, got None")
    return {"penalty_policy": policy.get("policy", "explicit"), **given}


def _instance_from_entry(entry) -> tuple[str, PortfolioInstance]:
    """(id, instance) of a plan entry: an instance file path or a synthetic block."""
    source = f"instance entry {entry!r}"
    if isinstance(entry, str):
        return _entry_id(Path(entry).stem, source), load_instance(entry)
    require_fields(entry, ("synthetic", "n"), source, ("r_star", "return_mode", "id"))
    block = f"{source}, 'synthetic' block"
    synth = require_fields(
        entry["synthetic"], ("n_assets",), block, ("n_factors", "return_range", "seed")
    )
    pair = synth.get("return_range")
    if "return_range" in synth and not (isinstance(pair, list) and len(pair) == 2):
        raise DataFormatError(f"{block}: field 'return_range' must be a list of 2, got {pair!r}")
    given = {key: entry[key] for key in ("n", "r_star", "return_mode") if key in entry}
    try:
        spec = SyntheticSpec(**synth)
        instance = PortfolioInstance(universe=generate_synthetic(spec), **given)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from exc
    default_id = f"syn{spec.n_assets}n{instance.n}s{spec.seed}"
    return _entry_id(str(entry.get("id", default_id)), source), instance


def _solver_entry(entry) -> tuple[str, str, dict]:
    """Returns (display name, solver type, options). The display name is
    the report's solver cell, so one that reads as the oracle or ends in a
    marker that cell can carry is rejected."""
    source = f"solver entry {entry!r}"
    if isinstance(entry, str):
        ident, name, options = entry, entry, {}
    else:
        name = require_fields(entry, ("name",), source, ("options", "id"))["name"]
        options = require_fields(entry.get("options", {}), (), f"{source}, 'options'")
        ident = str(entry.get("id", name))
    ident = _entry_id(ident, source)
    if ident == ORACLE_SOLVER_NAME or ident.endswith((_OPTIMAL, _EXTERNAL)):
        raise DataFormatError(
            f"{source}: id {ident!r} would read as a report marker "
            f"(the id {ORACLE_SOLVER_NAME!r}, or one ending in {_OPTIMAL!r} or {_EXTERNAL!r})"
        )
    return ident, name, dict(options)


def _entry_id(ident: str, source: str) -> str:
    """`ident` as the id of the plan entry `source`; the report holds it as
    UTF-8 text, so an id that is not (such as a lone surrogate) is rejected."""
    try:
        ident.encode()
    except UnicodeEncodeError:
        raise DataFormatError(f"{source}: id {ident!r} is not UTF-8 text") from None
    return ident


def _check_unique_ids(kind: str, ids: list[str], entries) -> None:
    """Reject two plan entries with one id, whose report rows would merge;
    sidecar rows join the instances by id and are not checked."""
    seen = {}
    for ident, entry in zip(ids, entries):
        if ident in seen:
            raise DataFormatError(
                f"{kind} entries {seen[ident]!r} and {entry!r} have the same id {ident!r}"
            )
        seen[ident] = entry


def run_benchmark(plan: BenchPlan, no_timing: bool = False) -> BenchReport:
    """Execute the full (instance, solver, seed) matrix plus oracle rows.

    Individual run failures, and penalty resolution or a QUBO build that
    fails for an instance, are recorded in their rows (with NaN lambdas when
    the penalties could not be resolved); the matrix always completes.
    """
    instances = [_instance_from_entry(entry) for entry in plan.instances]
    entries = [_solver_entry(entry) for entry in plan.solvers]
    _check_unique_ids("instance", [inst_id for inst_id, _ in instances], plan.instances)
    _check_unique_ids("solver", [display for display, _, _ in entries], plan.solvers)
    limit = {} if plan.time_limit_s is None else {"time_limit_s": plan.time_limit_s}
    solvers = [(display, make_solver(kind, {**limit, **opts})) for display, kind, opts in entries]
    # the grid policy searches with the first solver, without the time limit
    grid_solver = make_solver(*entries[0][1:]) if plan.penalty_policy == "grid" else None
    penalty_args = (plan.explicit_lambda1, plan.explicit_lambda2, grid_solver, plan.grid_repeats)
    external_rows = load_external_results(plan.external_results) if plan.external_results else []
    rows: list[BenchRow] = []
    summaries: list[InstanceSummary] = []
    for inst_id, instance in instances:
        try:
            params = resolve_penalties(instance, plan.penalty_policy, *penalty_args)
        except ValueError as exc:
            params = exc
        inst_rows = [row for row, _ in seeded_runs(instance, params, solvers, plan.seeds, inst_id)]
        if math.comb(instance.n_assets, instance.n) <= SUBSET_ENUMERATION_GUARD:
            try:
                oracle = solve_exhaustive_subsets(instance)
                # the instance, dim and penalties of the first run
                marks = dict(solver=ORACLE_SOLVER_NAME, seed=None, optimal=True, error=None)
                row = replace(inst_rows[0], **marks)
                inst_rows.append(solved_row(row, oracle, oracle.provenance["wall_time_s"]))
            except InfeasibleInstanceError:
                pass
        inst_rows.extend(r for r in external_rows if r.instance == inst_id)
        summaries.append(_summarize(inst_id, inst_rows))
        best = summaries[-1].best_risk  # not None where a row is feasible
        for r in inst_rows:
            gap = None
            if r.feasible and not math.isnan(r.risk):
                # in percent of |best|; at a best of 0, 0 at a risk of 0 and infinite above it
                gap = (r.risk - best) / abs(best) * 100.0 if best else math.inf if r.risk else 0.0
            wall_time_s = 0.0 if no_timing else r.wall_time_s
            rows.append(replace(r, gap_percent=gap, wall_time_s=wall_time_s))
    rows.sort(key=_row_sort_key)
    return BenchReport(rows=tuple(rows), summaries=tuple(summaries))


def _summarize(inst_id: str, inst_rows: list[BenchRow]) -> InstanceSummary:
    """Best-known feasible risk of one instance, whether the first row in
    order that reaches it is external, and whether an optimal (oracle) row
    proves it."""
    feasible = [r for r in inst_rows if r.feasible and not math.isnan(r.risk)]
    best = min(feasible, key=lambda r: r.risk, default=None)
    return InstanceSummary(
        instance=inst_id,
        best_risk=None if best is None else best.risk,
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
# the columns of a run's penalties and outcome: the CSV of `sweep` and `tune`
RUN_COLUMNS = ("lambda1", "lambda2", "seed", "energy", "risk", "feasible", "wall_time_s")


def render_report(report: BenchReport, fmt: str = "csv") -> str:
    if not report.rows:
        raise ValueError("report has no rows")
    if fmt == "csv":
        return rows_csv(report.rows)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}; expected csv or markdown")


def rows_csv(rows, names=CSV_COLUMNS) -> str:
    """CSV of `rows` in the report columns that `names` lists, in report order."""
    columns = [column for column in _COLUMNS if column.name in names]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([column.name for column in columns])
    # csv quotes only the lineterminator's line ends, and a bare \r read back ends a line
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in ([column.write(row) for column in columns] for row in rows):
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
