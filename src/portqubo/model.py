"""Constrained portfolio-selection problem: minimum-risk selection of exactly
``n`` assets out of ``N``, optionally subject to a target-return constraint.

Risk is the quadratic form x'Sx over the covariance matrix, return is the dot
product mu'x. Everything here is encoding- and solver-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

RETURN_MODES = ("none", "at_least", "equality")

EQUALITY_RETURN_TOL = 1e-9


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


def _as_bits(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ContractViolation(f"bit vector must be 1-D, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ContractViolation("bit vector entries must be 0 or 1")
    return arr.astype(np.float64)


@dataclass(frozen=True)
class AssetUniverse:
    """A set of assets with expected returns (percent over the horizon) and a
    covariance matrix of period returns (percent squared)."""

    symbols: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        mu = np.array(self.mu, dtype=np.float64)
        sigma = np.array(self.sigma, dtype=np.float64)
        n = len(symbols)
        if n < 1:
            raise ValueError("universe needs at least one asset")
        if mu.shape != (n,):
            raise ValueError(f"mu has shape {mu.shape}, expected ({n},)")
        if sigma.shape != (n, n):
            raise ValueError(f"sigma has shape {sigma.shape}, expected ({n}, {n})")
        if len(set(symbols)) != n:
            duplicates = sorted({s for s in symbols if symbols.count(s) > 1})
            raise ValueError(f"symbols has duplicates: {', '.join(duplicates)}")
        if not np.isfinite(mu).all():
            raise ValueError("mu has non-finite entries")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma has non-finite entries")
        if np.abs(sigma - sigma.T).max() > 1e-9:
            raise ValueError("sigma is not symmetric within 1e-9")
        eigvals = np.linalg.eigvalsh(sigma)
        if eigvals[0] < -1e-6 * max(eigvals[-1], 0.0):
            raise ValueError(
                f"sigma is not positive semidefinite: min eigenvalue {eigvals[0]:g}"
            )
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_assets(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class PortfolioInstance:
    """A selection problem over a universe: pick exactly ``n`` assets, with an
    optional return target ``r_star`` interpreted per ``return_mode``."""

    universe: AssetUniverse
    n: int
    r_star: float = 0.0
    return_mode: str = "none"

    def __post_init__(self):
        if self.return_mode not in RETURN_MODES:
            raise ValueError(
                f"return_mode must be one of {RETURN_MODES}, got {self.return_mode!r}"
            )
        if not 1 <= self.n <= self.universe.n_assets:
            raise ValueError(
                f"n must be in [1, {self.universe.n_assets}], got {self.n}"
            )
        r_star = float(self.r_star)
        if not math.isfinite(r_star):
            raise ValueError(f"r_star must be finite, got {r_star}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "r_star", r_star)

    @property
    def n_assets(self) -> int:
        return self.universe.n_assets


@dataclass(frozen=True)
class Feasibility:
    cardinality_ok: bool
    return_ok: bool
    cardinality_residual: int
    return_residual: float

    @property
    def ok(self) -> bool:
        return self.cardinality_ok and self.return_ok


@dataclass(frozen=True)
class Solution:
    """A decoded bit assignment with all metrics recomputed from the instance.

    ``energy`` is the QUBO energy when the solution came from an encoding,
    otherwise it equals ``risk``.
    """

    x: tuple[int, ...]
    risk: float
    ret: float
    cardinality: int
    feasible: bool
    energy: float
    provenance: dict[str, Any] = field(default_factory=dict)


def portfolio_risk(sigma, x) -> float:
    """Quadratic-form risk x'Sx of the selection ``x``."""
    # C-contiguous copy so the accumulation order is layout-independent
    # (a transposed view of a symmetric matrix must give the same value)
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    bits = _as_bits(x)
    if sigma.shape != (bits.size, bits.size):
        raise ContractViolation(
            f"sigma shape {sigma.shape} does not match bit vector length {bits.size}"
        )
    return float(bits @ (sigma @ bits))


def portfolio_return(mu, x) -> float:
    """Total expected return mu'x of the selection ``x``."""
    mu = np.asarray(mu, dtype=np.float64)
    bits = _as_bits(x)
    if mu.shape != (bits.size,):
        raise ContractViolation(
            f"mu length {mu.size} does not match bit vector length {bits.size}"
        )
    return float(mu @ bits)


def check_feasible(instance: PortfolioInstance, x) -> Feasibility:
    """Evaluate both constraints of ``instance`` on the bit vector ``x``."""
    bits = _as_bits(x)
    if bits.size != instance.n_assets:
        raise ContractViolation(
            f"bit vector length {bits.size} does not match N={instance.n_assets}"
        )
    cardinality = int(round(bits.sum()))
    ret = float(instance.universe.mu @ bits)
    card_ok = cardinality == instance.n
    if instance.return_mode == "none":
        ret_ok = True
    elif instance.return_mode == "at_least":
        ret_ok = ret >= instance.r_star
    else:
        ret_ok = abs(ret - instance.r_star) <= EQUALITY_RETURN_TOL
    return Feasibility(
        cardinality_ok=card_ok,
        return_ok=ret_ok,
        cardinality_residual=cardinality - instance.n,
        return_residual=ret - instance.r_star,
    )


def solution_from_bits(
    instance: PortfolioInstance,
    x,
    energy: float | None = None,
    **provenance: Any,
) -> Solution:
    """Build a Solution with risk/return/feasibility recomputed from ``x``."""
    bits = _as_bits(x)
    if bits.size != instance.n_assets:
        raise ContractViolation(
            f"bit vector length {bits.size} does not match N={instance.n_assets}"
        )
    risk = portfolio_risk(instance.universe.sigma, bits)
    ret = portfolio_return(instance.universe.mu, bits)
    feas = check_feasible(instance, bits)
    return Solution(
        x=tuple(int(b) for b in bits),
        risk=risk,
        ret=ret,
        cardinality=int(round(bits.sum())),
        feasible=feas.ok,
        energy=risk if energy is None else float(energy),
        provenance=dict(provenance),
    )
