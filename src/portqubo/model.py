"""Constrained portfolio-selection problem: minimum-risk selection of exactly
``n`` assets out of ``N``, optionally subject to a target-return constraint.

Risk is the quadratic form x'Sx over the covariance matrix, return is the dot
product mu'x. Everything here is encoding- and solver-agnostic.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

RETURN_MODES = ("none", "at_least", "equality")

EQUALITY_RETURN_TOL = 1e-9


class ContractViolation(ValueError):
    """An operation was called with arguments that break its contract."""


def is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def whole_number(value, least: int, name: str) -> int:
    """``value`` as an int: a real number, not a bool, with no fractional
    part and of at least ``least``, so ``2.0`` is 2; a ValueError "<name>
    must be a whole number of at least <least>, got <value>" otherwise."""
    whole = is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())
    if not whole or value < least:
        raise ValueError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)


def finite_number(value, sign: str, name: str) -> float:
    """``value`` as a float: a finite real number, not a bool, that is above
    0 for ``sign`` "positive" and at least 0 for "non-negative" (any sign
    for ""); a ValueError "<name> must be a [<sign>] finite number, got
    <value>" otherwise. An int too large for a float is not finite."""
    finite = is_real(value) and abs(value) <= sys.float_info.max
    if not finite or (sign == "positive" and value <= 0) or (sign == "non-negative" and value < 0):
        rule = f"a {sign} finite number" if sign else "a finite number"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _read_fields(record, rule, bounds: dict) -> None:
    """Set each field of the dataclass ``record`` named in ``bounds`` to
    ``rule(value, bound, "<Type>: field '<name>'")``; a field whose default
    is None may be None."""
    defaults = {f.name: f.default for f in fields(record)}
    for name, bound in bounds.items():
        value = getattr(record, name)
        if value is not None or defaults[name] is not None:
            checked = rule(value, bound, f"{type(record).__name__}: field {name!r}")
            object.__setattr__(record, name, checked)


def read_counts(record, **least: int) -> None:
    """Read each named field of ``record`` as a ``whole_number`` of at least
    the given bound, as in ``read_counts(config, sweeps=1, seed=0)``."""
    _read_fields(record, whole_number, least)


def read_numbers(record, **sign: str) -> None:
    """Read each named field of ``record`` as a ``finite_number`` of the
    given sign, as in ``read_numbers(params, lambda0="positive")``."""
    _read_fields(record, finite_number, sign)


# the largest N at which a Cholesky factor proves the eigenvalue rule holds
_CHOLESKY_MAX_N = 4096


def _has_cholesky(sigma: np.ndarray) -> bool:
    """Whether a Cholesky factorization of ``sigma`` runs to completion, a
    cheaper test that accepts only matrices the eigenvalue rule accepts.

    Both this and ``eigvalsh`` read the lower triangle. A Cholesky that runs
    to completion gives R'R = S + dS with |dS| <= g |R'||R| and
    g = (N + 1) u / (1 - (N + 1) u), u = eps / 2, so S + dS is positive
    semidefinite and lambda_min(S) >= -||dS||_2, where ||dS||_2 is at most
    about N (N + 1) u ||S||_2 and ||S||_2 = lambda_max(S) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 10.1). ``eigvalsh``
    is backward stable: its eigenvalues are within a modest multiple of
    N eps ||S||_2 of the true ones. At N <= 4096, N (N + 1) eps is below
    4e-9, so the computed lambda_min is far above -1e-6 lambda_max, and the
    rule would have accepted S. A failed factorization proves nothing; the
    caller then applies the rule."""
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return False
    return True


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
        sigma = np.array(self.sigma, dtype=np.float64, order="C")
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
        if n > _CHOLESKY_MAX_N or not _has_cholesky(sigma):
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
    """A selection problem over a universe: pick exactly ``n`` assets, with a
    return target ``r_star`` interpreted per ``return_mode``: required under
    at_least and equality, 0.0 when not given under none."""

    universe: AssetUniverse
    n: int
    r_star: float | None = None
    return_mode: str = "none"

    def __post_init__(self):
        if self.return_mode not in RETURN_MODES:
            raise ValueError(
                f"return_mode must be one of {RETURN_MODES}, got {self.return_mode!r}"
            )
        if self.r_star is None:  # not given: a target only the return modes need
            if self.return_mode != "none":
                raise ValueError(
                    "PortfolioInstance: field 'r_star' must be a finite number, got no "
                    f"value (return_mode {self.return_mode!r} needs a return target)"
                )
            object.__setattr__(self, "r_star", 0.0)
        read_counts(self, n=1)
        if self.n > self.universe.n_assets:
            raise ValueError(f"n must be in [1, {self.universe.n_assets}], got {self.n}")
        read_numbers(self, r_star="")

    @property
    def n_assets(self) -> int:
        return self.universe.n_assets


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


def portfolio_risks(sigma, rows: np.ndarray) -> np.ndarray:
    """The risk x'(Sx) of each 0/1 float64 row x of ``rows``, each row its own
    (N, N) by (N, 1) and (1, N) by (N, 1) products, which sum as the 1-D
    ``x @ (sigma @ x)`` does. The order of those sums follows the layout of
    ``sigma``, so the last bits of a risk hold for a C-ordered ``sigma``, the
    layout `AssetUniverse` stores."""
    return np.matmul(rows[:, None, :], np.matmul(sigma, rows[:, :, None]))[:, 0, 0]


def portfolio_returns(mu, rows: np.ndarray) -> np.ndarray:
    """The return mu'x of each 0/1 float64 row x of ``rows``, each row its own
    (1, N) by (N,) product, which sums as the 1-D ``mu @ x`` does."""
    return np.matmul(rows[:, None, :], mu)[:, 0]


def return_margin(instance: PortfolioInstance, returns) -> np.ndarray | float:
    """Slack of the return constraint at each of ``returns``, >= 0 exactly
    where it holds: always under none (+inf), where ``returns >= r_star``
    under at_least and ``|returns - r_star| <= tol`` under equality, as a
    float difference is 0 only between equal floats."""
    if instance.return_mode == "none":
        return np.full(np.shape(returns), np.inf)
    if instance.return_mode == "at_least":
        return returns - instance.r_star
    return EQUALITY_RETURN_TOL - np.abs(returns - instance.r_star)


def bit_vector(x, length: int, what: str) -> np.ndarray:
    """``x`` as a new 1-D float64 array of ``length`` 0s and 1s; a
    ContractViolation "bit vector shape <shape> does not match <what>
    <length>" or "bit vector entries must be 0 or 1" otherwise."""
    bits = np.asarray(x)
    if bits.shape != (length,):
        raise ContractViolation(f"bit vector shape {bits.shape} does not match {what} {length}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ContractViolation("bit vector entries must be 0 or 1")
    return bits.astype(np.float64)


def solution_from_bits(
    instance: PortfolioInstance,
    x,
    energy: float | None = None,
    **provenance: Any,
) -> Solution:
    """Build a Solution with risk/return/feasibility recomputed from ``x``,
    its bits checked and its return summed once."""
    bits = bit_vector(x, instance.n_assets, "asset count")
    ret = float(portfolio_returns(instance.universe.mu, bits[None])[0])
    risk = float(portfolio_risks(instance.universe.sigma, bits[None])[0])
    cardinality = int(round(bits.sum()))
    return Solution(
        x=tuple(int(b) for b in bits),
        risk=risk,
        ret=ret,
        cardinality=cardinality,
        feasible=cardinality == instance.n and bool(return_margin(instance, ret) >= 0),
        energy=risk if energy is None else float(energy),
        provenance=dict(provenance),
    )
