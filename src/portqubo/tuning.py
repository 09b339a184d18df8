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

from .model import PortfolioInstance, Solution, check_feasible
from .qubo import PenaltyParams, build_qubo, decode
from .solvers import SolveResult


PENALTY_POLICIES = ("explicit", "estimate", "grid")


@dataclass(frozen=True)
class LambdaEstimate:
    lambda1_hat: float
    lambda2_hat: float
    details: dict


@dataclass(frozen=True)
class SweepPoint:
    """One seeded solve at (lambda1, lambda2): a sweep point or a grid run."""

    lambda1: float
    best_risk: float
    feasible: bool
    energy: float = float("nan")
    seed: int | None = None
    wall_time_s: float = 0.0
    error: str | None = None
    lambda2: float = 0.0


@dataclass(frozen=True)
class GridCell:
    lambda1: float
    lambda2: float
    feasible: bool
    best_risk: float
    residual: float
    runs: tuple[SweepPoint, ...]


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


def _solve_at(instance, solver, params, q, layout, seed) -> tuple[SweepPoint, Solution]:
    """One seeded solve of ``q``, the QUBO built for ``params``, decoded."""
    result = solver(q, seed)
    sol = decode(instance, layout, result.bits, energy=result.energy)
    point = SweepPoint(
        params.lambda1, sol.risk, sol.feasible, result.energy, seed, result.wall_time_s,
        lambda2=params.lambda2,
    )
    return point, sol


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
            points.append(_solve_at(instance, solver, params, q, layout, seed)[0])
        except Exception as exc:
            points.append(
                SweepPoint(
                    params.lambda1, float("nan"), False,
                    seed=seed, error=str(exc), lambda2=params.lambda2,
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
    grid1: list[float] | None,
    grid2: list[float] | None,
    repeats: int = 5,
) -> tuple[PenaltyParams, list[GridCell], bool]:
    """Evaluate every (lambda1, lambda2) cell with seeds 0..repeats-1; a grid
    of None is ``default_grid`` around that penalty's ``estimate_lambdas`` value.

    Returns (best params, all cells, feasible flag). Best cell is the lowest
    recomputed risk among feasible decoded solutions; ties go to the smaller
    lambda1 + lambda2 and then lexicographically. With no feasible cell, the
    smallest total constraint violation wins and the flag is False.
    """
    if grid1 is None or grid2 is None:
        est = estimate_lambdas(instance)
        grid1 = default_grid(est.lambda1_hat) if grid1 is None else grid1
        grid2 = default_grid(est.lambda2_hat) if grid2 is None else grid2
    if not grid1 or not grid2:
        raise ValueError("grids must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    cells = []
    for l1 in grid1:
        for l2 in grid2:
            params = PenaltyParams(1.0, float(l1), float(l2))
            q, layout = build_qubo(instance, params)
            solved = [_solve_at(instance, solver, params, q, layout, s) for s in range(repeats)]
            risks = [sol.risk for _, sol in solved if sol.feasible]
            violations = [_violation(instance, sol.x) for _, sol in solved]
            cells.append(
                GridCell(
                    lambda1=params.lambda1,
                    lambda2=params.lambda2,
                    feasible=bool(risks),
                    best_risk=min(risks, default=float("nan")),
                    residual=min(violations, default=float("inf")),
                    runs=tuple(point for point, _ in solved),
                )
            )
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
    missing one is 0 ('explicit'), its ``estimate_lambdas`` value ('estimate') or its
    value in the best ``grid_search`` cell, a given one a one-value grid ('grid')."""
    if policy not in PENALTY_POLICIES:
        raise ValueError(f"unknown penalty policy {policy!r}")
    given = (lambda1, lambda2)
    if policy == "grid" and None in given:
        return grid_search(instance, solver, *[g if g is None else [g] for g in given], repeats)[0]
    est = estimate_lambdas(instance) if policy == "estimate" and None in given else None
    missing = (0.0, 0.0) if est is None else (est.lambda1_hat, est.lambda2_hat)
    return PenaltyParams(1.0, *(m if g is None else g for g, m in zip(given, missing)))


def runs_csv(points: list[SweepPoint]) -> str:
    """CSV export of seeded solves: a sweep's points or every grid cell's runs."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda1", "lambda2", "seed", "energy", "risk", "feasible", "wall_time_s"])
    for p in points:
        writer.writerow(
            [
                f"{p.lambda1:.17g}",
                f"{p.lambda2:.17g}",
                p.seed if p.seed is not None else "",
                f"{p.energy:.17g}",
                f"{p.best_risk:.17g}",
                str(p.feasible).lower(),
                f"{p.wall_time_s:.17g}",
            ]
        )
    return buf.getvalue()
