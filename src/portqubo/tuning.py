"""Penalty coefficient estimation and refinement, and the run record.

The cardinality-penalty estimate is the largest benefit any single asset can
contribute near an optimum: max over assets of the sum of that asset's n
smallest covariance entries. The return-penalty estimate divides the average
gap among the n smallest such row sums by the average positive return
difference among the same n assets. Both are starting points for a grid
search, not guarantees.

Every seeded solve, a sweep point, a grid run or a benchmark run, is a
``BenchRow`` made by ``seeded_runs``; ``bench`` renders these rows as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import PortfolioInstance, Solution, return_margin, whole_number
from .qubo import PenaltyParams, build_qubo, decode
from .solvers import SolveResult


PENALTY_POLICIES = ("explicit", "estimate", "grid")


@dataclass(frozen=True)
class BenchRow:
    """One run of a solver on an instance: a benchmark report row, a sweep
    point or a grid run."""

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


def solved_row(row: BenchRow, sol: Solution, wall_time_s: float) -> BenchRow:
    """`row` with the energy, risk, return and feasibility of `sol`, all
    recomputed from its bits by the model."""
    metrics = dict(energy=sol.energy, risk=sol.risk, ret=sol.ret, feasible=sol.feasible)
    return replace(row, **metrics, wall_time_s=wall_time_s)


def seeded_runs(
    instance: PortfolioInstance, params: PenaltyParams | Exception, solvers, seeds, inst_id=""
) -> list[tuple[BenchRow, Solution | None]]:
    """The run of each (name, solver) pair in `solvers` with each seed, in
    that order, on the QUBO of `instance` under `params`, built once: its row
    and its decoded Solution. A failed build or solve, or `params` given as
    the error that resolving them raised, is the error of the rows it leaves
    unsolved, which have no Solution, NaN lambdas without penalties and dim 0
    without a QUBO."""
    resolved = isinstance(params, PenaltyParams)
    lambdas = (params.lambda1, params.lambda2) if resolved else (math.nan, math.nan)
    q, error = None, (None if resolved else str(params))
    if resolved:
        try:
            q, layout = build_qubo(instance, params)
        except Exception as exc:
            error = str(exc)
    dim = 0 if q is None else q.dim
    row = BenchRow(inst_id, instance.n_assets, instance.n, instance.r_star, dim, *lambdas)
    runs = []
    for name, solver in solvers:
        for seed in seeds:
            run, sol = replace(row, solver=name, seed=seed, error=error), None
            if q is not None:
                try:
                    result = solver(q, seed)
                    sol = decode(instance, layout, result.bits, energy=result.energy)
                    run = solved_row(run, sol, result.wall_time_s)
                except Exception as exc:
                    run, sol = replace(run, error=str(exc)), None
            runs.append((run, sol))
    return runs


@dataclass(frozen=True)
class GridCell:
    lambda1: float
    lambda2: float
    feasible: bool
    best_risk: float
    residual: float
    runs: tuple[BenchRow, ...]


def _row_prefix_sums(sigma: np.ndarray, n: int) -> np.ndarray:
    """Per asset, the sum of the n smallest covariance entries of its row
    (diagonal included), bit for bit a plain sort-and-sum from 0: ``cumsum``
    adds left to right where ``sum`` would add pairwise, and ``+ 0.0`` gives
    a zero total the sign of a sum that starts at 0."""
    return np.sort(sigma, axis=1)[:, :n].cumsum(axis=1)[:, -1] + 0.0


def estimate_lambda1(instance: PortfolioInstance) -> float:
    """Cardinality penalty estimate: max over assets of the n-smallest row
    sum, floored at zero."""
    return max(float(_row_prefix_sums(instance.universe.sigma, instance.n).max()), 0.0)


def estimate_lambda2(instance: PortfolioInstance) -> float:
    """Return penalty estimate A1/A2 from the n assets with the smallest
    covariance row sums.

    A1 is the mean consecutive gap of those sorted sums, i.e.
    (max - min)/(n - 1); A2 is the mean strictly positive pairwise return
    difference among the same assets. Returns 0 when return_mode is 'none',
    when n < 2 (where A1 is undefined) or when the selected returns carry no
    spread.
    """
    if instance.return_mode == "none" or instance.n < 2:
        return 0.0
    sums = _row_prefix_sums(instance.universe.sigma, instance.n)
    chosen = np.argsort(sums, kind="stable")[: instance.n]
    s_sel = np.sort(sums[chosen])
    a1 = float((s_sel[-1] - s_sel[0]) / (instance.n - 1))
    mu_sel = instance.universe.mu[chosen]
    pair_diffs = mu_sel[:, None] - mu_sel[None, :]
    positive = pair_diffs[pair_diffs > 0]
    a2 = float(positive.mean()) if positive.size else 0.0
    return a1 / a2 if a2 else 0.0


def lambda_sweep(
    instance: PortfolioInstance,
    solver: Callable[..., SolveResult],
    lambda1_values: list[float],
    base: PenaltyParams = PenaltyParams(),
    seed: int = 0,
) -> list[BenchRow]:
    """Solve the instance once per lambda1 value and record the decoded risk
    and feasibility; every value is checked before the first solve, and
    build and solver failures are recorded, not raised."""
    if not lambda1_values:
        raise ValueError("lambda1_values must be nonempty")
    penalties = [PenaltyParams(base.lambda0, float(l1), base.lambda2) for l1 in lambda1_values]
    return [seeded_runs(instance, params, [("", solver)], [seed])[0][0] for params in penalties]


def _violation(instance: PortfolioInstance, sol: Solution) -> float:
    """|cardinality - n| of `sol` plus the negative part of its return margin."""
    return float(abs(sol.cardinality - instance.n) + max(0.0, -return_margin(instance, sol.ret)))


def default_grid(estimate: float) -> list[float]:
    """Multiplicative grid around an estimate (zero estimate degrades to a
    single zero cell)."""
    if estimate <= 0:
        return [0.0]
    return [estimate * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]


def grid_search(
    instance: PortfolioInstance,
    solver: Callable[..., SolveResult],
    grid1: list[float] | None,
    grid2: list[float] | None,
    repeats: int = 5,
) -> tuple[PenaltyParams, list[GridCell], bool]:
    """Evaluate every (lambda1, lambda2) cell with seeds 0..repeats-1; a grid
    of None is ``default_grid`` around that penalty's estimate.

    Returns (best params, all cells, feasible flag). Best cell is the lowest
    recomputed risk among feasible decoded solutions; ties go to the smaller
    lambda1 + lambda2 and then lexicographically. With no feasible cell, the
    least violation of any run wins and the flag is False: |cardinality - n|
    plus the return's shortfall past its constraint, beyond the tolerance
    under equality (``GridCell.residual``). Every cell's penalties are
    checked before the first solve. A failed run counts as infeasible and
    adds no residual; only when every run fails does the search raise, with
    the first run's message.
    """
    if grid1 is None:
        grid1 = default_grid(estimate_lambda1(instance))
    if grid2 is None:
        grid2 = default_grid(estimate_lambda2(instance))
    if not grid1 or not grid2:
        raise ValueError("grids must be nonempty")
    repeats = whole_number(repeats, 1, "repeats")
    cells = []
    for params in [PenaltyParams(1.0, float(l1), float(l2)) for l1 in grid1 for l2 in grid2]:
        runs = seeded_runs(instance, params, [("", solver)], range(repeats))
        sols = [sol for _, sol in runs if sol is not None]
        risks = [sol.risk for sol in sols if sol.feasible]
        violations = [_violation(instance, sol) for sol in sols]
        cells.append(
            GridCell(
                lambda1=params.lambda1,
                lambda2=params.lambda2,
                feasible=bool(risks),
                best_risk=min(risks, default=float("nan")),
                residual=min(violations, default=float("inf")),
                runs=tuple(row for row, _ in runs),
            )
        )
    if all(run.error is not None for cell in cells for run in cell.runs):
        raise ValueError(cells[0].runs[0].error)
    feasible_cells = [c for c in cells if c.feasible]
    score = (lambda c: c.best_risk) if feasible_cells else (lambda c: c.residual)
    best = min(
        feasible_cells or cells,
        key=lambda c: (score(c), c.lambda1 + c.lambda2, c.lambda1, c.lambda2),
    )
    return PenaltyParams(1.0, best.lambda1, best.lambda2), cells, bool(feasible_cells)


def resolve_penalties(
    instance, policy: str, lambda1=None, lambda2=None, solver=None, repeats: int = 5
) -> PenaltyParams:
    """The penalties a run compiles with. A given lambda is used as it is; a
    missing one is 0 ('explicit'), its ``estimate_lambda1``/``estimate_lambda2``
    value ('estimate') or its value in the best ``grid_search`` cell, a given
    one a one-value grid ('grid')."""
    if policy not in PENALTY_POLICIES:
        raise ValueError(f"unknown penalty policy {policy!r}")
    given = (lambda1, lambda2)
    if policy == "grid" and None in given:
        return grid_search(instance, solver, *[g if g is None else [g] for g in given], repeats)[0]
    if policy == "estimate":
        given = (
            estimate_lambda1(instance) if lambda1 is None else lambda1,
            estimate_lambda2(instance) if lambda2 is None else lambda2,
        )
    return PenaltyParams(1.0, *(0.0 if g is None else g for g in given))

