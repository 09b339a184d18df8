"""Penalty coefficient estimation and refinement.

The cardinality-penalty estimate is the largest benefit any single asset can
contribute near an optimum: max over assets of the sum of that asset's n
smallest covariance entries. The return-penalty estimate divides the average
gap among the n smallest such row sums by the average positive return
difference among the same n assets. Both are starting points for a grid
search, not guarantees.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import PortfolioInstance, check_feasible
from .qubo import PenaltyParams, build_qubo, decode
from .solvers import SolveResult


@dataclass(frozen=True)
class LambdaEstimate:
    lambda1_hat: float
    lambda2_hat: float
    details: dict


@dataclass(frozen=True)
class SweepPoint:
    lambda1: float
    best_risk: float
    feasible: bool
    energy: float = float("nan")
    seed: int | None = None
    wall_time_s: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class GridCell:
    lambda1: float
    lambda2: float
    feasible: bool
    best_risk: float
    residual: float
    runs: tuple


@dataclass(frozen=True)
class GridRun:
    lambda1: float
    lambda2: float
    seed: int
    energy: float
    risk: float
    feasible: bool
    wall_time_s: float


def _row_prefix_sums(sigma: np.ndarray, n: int) -> np.ndarray:
    """Per asset, the sum of the n smallest covariance entries of its row
    (diagonal included). Sequential left-to-right accumulation so the value
    is reproducible by a plain sort-and-sum."""
    return np.array([sum(sorted(row)[:n]) for row in sigma.tolist()])


def _lambda1_from_sums(sums: np.ndarray) -> float:
    return max(float(sums.max()), 0.0)


def _lambda2_from_sums(
    instance: PortfolioInstance, sums: np.ndarray, pairwise_a1: bool = False
) -> float:
    chosen = np.argsort(sums, kind="stable")[: instance.n]
    s_sel = np.sort(sums[chosen])
    if pairwise_a1:
        diffs = np.abs(s_sel[:, None] - s_sel[None, :])
        a1 = float(diffs[np.triu_indices(instance.n, k=1)].mean())
    else:
        a1 = float((s_sel[-1] - s_sel[0]) / (instance.n - 1))
    mu_sel = instance.universe.mu[chosen]
    pair_diffs = mu_sel[:, None] - mu_sel[None, :]
    positive = pair_diffs[pair_diffs > 0]
    if positive.size == 0:
        return 0.0
    a2 = float(positive.mean())
    if a2 == 0.0:
        return 0.0
    return a1 / a2


def estimate_lambda1(instance: PortfolioInstance) -> float:
    """Cardinality penalty estimate: max over assets of the n-smallest row
    sum, floored at zero."""
    return _lambda1_from_sums(_row_prefix_sums(instance.universe.sigma, instance.n))


def estimate_lambda2(instance: PortfolioInstance, pairwise_a1: bool = False) -> float:
    """Return penalty estimate A1/A2 from the n assets with the smallest
    covariance row sums.

    A1 is the mean consecutive gap of those sorted sums, i.e.
    (max - min)/(n - 1); ``pairwise_a1`` switches to the mean absolute
    pairwise difference. A2 is the mean strictly positive pairwise return
    difference among the same assets. Returns 0 when return_mode is 'none' or
    the selected returns carry no spread.
    """
    if instance.return_mode == "none":
        return 0.0
    if instance.n < 2:
        raise ValueError("lambda2 estimation needs n >= 2")
    sums = _row_prefix_sums(instance.universe.sigma, instance.n)
    return _lambda2_from_sums(instance, sums, pairwise_a1)


def estimate_lambdas(instance: PortfolioInstance) -> LambdaEstimate:
    """Both estimates plus the intermediate row sums, computed once. The
    return-penalty estimate is 0 without a return constraint or with n < 2,
    where it is undefined."""
    sums = _row_prefix_sums(instance.universe.sigma, instance.n)
    l2 = (
        _lambda2_from_sums(instance, sums)
        if instance.return_mode != "none" and instance.n >= 2
        else 0.0
    )
    return LambdaEstimate(
        lambda1_hat=_lambda1_from_sums(sums),
        lambda2_hat=l2,
        details={"row_sums": sums.tolist()},
    )


def lambda_sweep(
    instance: PortfolioInstance,
    solver: Callable[..., SolveResult],
    lambda1_values: list[float],
    base: PenaltyParams = PenaltyParams(),
    seed: int = 0,
) -> list[SweepPoint]:
    """Solve the instance once per lambda1 value and record the decoded best
    risk and feasibility; solver failures are recorded, not raised."""
    if not lambda1_values:
        raise ValueError("lambda1_values must be nonempty")
    points = []
    for l1 in lambda1_values:
        params = PenaltyParams(base.lambda0, float(l1), base.lambda2)
        try:
            q, layout = build_qubo(instance, params)
            result = solver(q, seed)
            sol = decode(instance, layout, result.bits, energy=result.energy)
            points.append(
                SweepPoint(
                    lambda1=float(l1),
                    best_risk=sol.risk,
                    feasible=sol.feasible,
                    energy=result.energy,
                    seed=seed,
                    wall_time_s=result.wall_time_s,
                )
            )
        except Exception as exc:
            points.append(
                SweepPoint(
                    lambda1=float(l1),
                    best_risk=float("nan"),
                    feasible=False,
                    seed=seed,
                    error=str(exc),
                )
            )
    return points


def _violation(instance: PortfolioInstance, bits) -> float:
    feas = check_feasible(instance, bits)
    total = abs(feas.cardinality_residual)
    if instance.return_mode == "at_least":
        total += max(0.0, -feas.return_residual)
    elif instance.return_mode == "equality":
        total += abs(feas.return_residual)
    return float(total)


def default_grid(estimate: float) -> list[float]:
    """Multiplicative grid around an estimate (zero estimate degrades to a
    single zero cell)."""
    if estimate <= 0:
        return [0.0]
    return [estimate * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]


def grid_search(
    instance: PortfolioInstance,
    solver: Callable[..., SolveResult],
    grid1: list[float],
    grid2: list[float],
    repeats: int = 5,
    seeds: list[int] | None = None,
) -> tuple[PenaltyParams, list[GridCell], bool]:
    """Evaluate every (lambda1, lambda2) cell with seeded repeats.

    Returns (best params, all cells, feasible flag). Best cell is the lowest
    recomputed risk among feasible decoded solutions; ties go to the smaller
    lambda1 + lambda2 and then lexicographically. With no feasible cell, the
    smallest total constraint violation wins and the flag is False.
    """
    if not grid1 or not grid2:
        raise ValueError("grids must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if seeds is None:
        seeds = list(range(repeats))
    cells = []
    for l1 in grid1:
        for l2 in grid2:
            params = PenaltyParams(1.0, float(l1), float(l2))
            q, layout = build_qubo(instance, params)
            runs = []
            best_risk = float("inf")
            best_violation = float("inf")
            any_feasible = False
            for s in seeds:
                result = solver(q, s)
                sol = decode(instance, layout, result.bits, energy=result.energy)
                runs.append(
                    GridRun(
                        lambda1=float(l1),
                        lambda2=float(l2),
                        seed=s,
                        energy=result.energy,
                        risk=sol.risk,
                        feasible=sol.feasible,
                        wall_time_s=result.wall_time_s,
                    )
                )
                if sol.feasible:
                    any_feasible = True
                    best_risk = min(best_risk, sol.risk)
                best_violation = min(best_violation, _violation(instance, sol.x))
            cells.append(
                GridCell(
                    lambda1=float(l1),
                    lambda2=float(l2),
                    feasible=any_feasible,
                    best_risk=best_risk if any_feasible else float("nan"),
                    residual=best_violation,
                    runs=tuple(runs),
                )
            )
    feasible_cells = [c for c in cells if c.feasible]
    if feasible_cells:
        best = min(
            feasible_cells,
            key=lambda c: (c.best_risk, c.lambda1 + c.lambda2, c.lambda1, c.lambda2),
        )
        return PenaltyParams(1.0, best.lambda1, best.lambda2), cells, True
    best = min(cells, key=lambda c: (c.residual, c.lambda1 + c.lambda2, c.lambda1, c.lambda2))
    return PenaltyParams(1.0, best.lambda1, best.lambda2), cells, False


def _runs_csv(runs) -> str:
    """CSV of (lambda1, lambda2, seed, energy, risk, feasible, wall_time_s)
    tuples, the columns shared by sweep and grid results."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda1", "lambda2", "seed", "energy", "risk", "feasible", "wall_time_s"])
    for l1, l2, seed, energy, risk, feasible, wall in runs:
        writer.writerow(
            [
                f"{l1:.17g}",
                f"{l2:.17g}",
                seed if seed is not None else "",
                f"{energy:.17g}",
                f"{risk:.17g}",
                str(feasible).lower(),
                f"{wall:.17g}",
            ]
        )
    return buf.getvalue()


def sweep_csv(points: list[SweepPoint], lambda2: float = 0.0) -> str:
    """CSV export with columns shared by sweep and grid results."""
    return _runs_csv(
        (p.lambda1, lambda2, p.seed, p.energy, p.best_risk, p.feasible, p.wall_time_s)
        for p in points
    )


def grid_csv(cells: list[GridCell]) -> str:
    """CSV export of every seeded run of every grid cell."""
    return _runs_csv(
        (r.lambda1, r.lambda2, r.seed, r.energy, r.risk, r.feasible, r.wall_time_s)
        for cell in cells
        for r in cell.runs
    )
