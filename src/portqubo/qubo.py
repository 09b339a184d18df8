"""QUBO compilation of portfolio instances, QUBO<->Ising conversion, energy
evaluation, solution decoding, and the chain-strength diagnostic bound.

The equality encoding penalizes both constraints quadratically:

    lambda0 * x'Sx + lambda1 * (sum x - n)^2 + lambda2 * (mu'x - R)^2

The inequality encoding appends slack bits y_k with power-of-two weights so a
return surplus can cancel inside the squared residual:

    ... + lambda2 * (mu'x - R - sum_k w_k y_k)^2
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import parse_or_none
from .model import (
    ContractViolation,
    PortfolioInstance,
    Solution,
    abs_sum,
    bit_vector,
    check_magnitude,
    read_numbers,
    return_margin,
    solution_from_bits,
)


@dataclass(frozen=True)
class PenaltyParams:
    """Weights tying the risk objective to the two constraint penalties."""

    lambda0: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        read_numbers(self, lambda0="positive", lambda1="non-negative", lambda2="non-negative")
        for name in ("lambda1", "lambda2"):
            # -0.0 -> +0.0: a zero penalty is no penalty
            object.__setattr__(self, name, getattr(self, name) + 0.0)


@dataclass(frozen=True)
class VariableLayout:
    """Split of the QUBO variables into asset bits and slack bits."""

    n_assets: int
    slack_weights: tuple[int, ...] = ()

    @property
    def n_slack(self) -> int:
        return len(self.slack_weights)

    @property
    def dim(self) -> int:
        return self.n_assets + self.n_slack


MAX_QUBO_DIM = 8192
"""Largest dim a QuboMatrix accepts; its dense array then takes 512 MiB."""


def _check_dim(dim: int) -> None:
    """Checks dim against MAX_QUBO_DIM so a file header cannot ask for more
    memory than the bound allows."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim > MAX_QUBO_DIM:
        raise ValueError(f"QUBO dim {dim} exceeds the bound MAX_QUBO_DIM = {MAX_QUBO_DIM}")


def _zero_upper(dim: int) -> np.ndarray:
    _check_dim(dim)
    return np.zeros((dim, dim))


@dataclass(frozen=True, init=False, eq=False)
class QuboMatrix:
    """Upper-triangular QUBO matrix (diagonal included) with a constant offset.

    ``upper`` is a read-only dim x dim float64 array, zero below the
    diagonal. The constructor takes the coefficients as a dict keyed by
    integer (i, j) with i <= j and rejects any that is not finite, as it
    does a non-finite offset. Every reader, ``build_qubo`` and the
    constructor also reject a QUBO whose sum of |coefficient| plus |offset|
    exceeds ``model.MAX_MAGNITUDE``, so no energy, flip gain or SA
    temperature estimate overflows. ``coeffs`` gives the nonzero ones back in
    row-major order. The offset carries the constant terms dropped from the
    quadratic expansion so energies stay comparable across encodings.
    """

    dim: int
    upper: np.ndarray
    offset: float

    def __init__(
        self, dim: int, coeffs: dict[tuple[int, int], float], offset: float = 0.0
    ):
        upper = _zero_upper(dim)
        for (i, j), v in coeffs.items():
            i, j = operator.index(i), operator.index(j)
            if not (0 <= i <= j < dim):
                raise ValueError(_index_error(i, j, dim))
            upper[i, j] = float(v)
        self._set(upper, offset)

    @classmethod
    def _from_upper(cls, upper: np.ndarray, offset: float) -> QuboMatrix:
        q = cls.__new__(cls)
        q._set(upper, offset)
        return q

    def _set(self, upper: np.ndarray, offset: float) -> None:
        offset = float(offset)
        if not math.isfinite(offset):
            raise ValueError(f"QUBO offset must be finite, got {offset}")
        magnitude = abs(offset) + abs_sum(upper)
        if not math.isfinite(magnitude) and not np.isfinite(upper).all():
            i, j = np.argwhere(~np.isfinite(upper))[0].tolist()
            raise ValueError(f"QUBO coefficient ({i}, {j}) must be finite, got {upper[i, j]}")
        check_magnitude("QUBO |coefficient| sum plus |offset|", magnitude)
        upper += 0.0  # -0.0 -> +0.0: a zero coefficient is no coefficient
        upper.setflags(write=False)
        object.__setattr__(self, "dim", upper.shape[0])
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def coeffs(self) -> dict[tuple[int, int], float]:
        """The nonzero coefficients keyed by (i, j), in row-major order."""
        rows, cols = np.nonzero(self.upper)
        keys = zip(rows.tolist(), cols.tolist())
        return dict(zip(keys, self.upper[rows, cols].tolist()))

    def to_symmetric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal vector, symmetric zero-diagonal coupling matrix)."""
        strict = np.triu(self.upper, 1)
        return self.upper.diagonal().copy(), strict + strict.T


@dataclass(frozen=True, init=False, eq=False)
class IsingModel:
    """Spin formulation of a QUBO: linear fields ``h`` and strictly upper
    couplings ``J``, a read-only vector and a read-only dim x dim float64
    array, zero on and below the diagonal.

    Only ``to_ising`` makes one, from a QuboMatrix, whose magnitude rule
    bounds sum|h| + sum|J| + |offset| by ``model.MAX_MAGNITUDE``, so no
    field, coupling or spin energy overflows; calling the class raises a
    TypeError.
    """

    dim: int
    h: np.ndarray
    J: np.ndarray
    offset: float

    def __init__(self, *args, **kwargs):
        raise TypeError("an IsingModel is made only by to_ising")


def slack_count(mu) -> int:
    """Number of slack bits K = floor(log2(sum mu)) for the inequality encoding."""
    total = float(np.sum(np.asarray(mu, dtype=np.float64)))
    if total <= 0:
        raise ValueError("slack encoding requires positive total return")
    if total == math.inf:
        raise ValueError("slack encoding requires a finite total return, got inf")
    if total < 2:
        return 0
    # total = m * 2^e with 0.5 <= m < 1, so floor(log2 total) = e - 1 exactly
    return math.frexp(total)[1] - 1


def _risk(instance: PortfolioInstance, lambda0: float, dim: int) -> np.ndarray:
    """lambda0*x'Sx over the first n_assets of dim variables, as an
    upper-triangular array."""
    sigma = instance.universe.sigma
    n_assets = instance.n_assets
    upper = _zero_upper(dim)
    upper[:n_assets, :n_assets] = np.triu(lambda0 * (sigma + sigma.T), 1)
    assets = np.arange(n_assets)
    upper[assets, assets] = lambda0 * sigma.diagonal()
    return upper


def _add_squared_linear(upper: np.ndarray, a: np.ndarray, constant: float, weight: float) -> float:
    """Adds weight*(a'z + constant)^2 over binary z; returns the constant term.

    Only variables with a nonzero coefficient in ``a`` get a term, rounded as
    weight*(a_i*a_i + 2c*a_i) on the diagonal and (2*weight*a_i)*a_j above
    it. `build_qubo` adds the cardinality term and then the return term after
    the risk term: this order fixes the bits of every coefficient, and so of
    every QUBO file."""
    if weight == 0.0:
        return 0.0
    nz = np.flatnonzero(a)
    a = a[nz]
    upper[nz, nz] += weight * (a * a + 2.0 * constant * a)
    upper[np.ix_(nz, nz)] += np.triu(np.outer(2.0 * weight * a, a), 1)
    return weight * constant * constant


def build_qubo(
    instance: PortfolioInstance, params: PenaltyParams
) -> tuple[QuboMatrix, VariableLayout]:
    """Compile the instance. A return constraint is the penalty
    lambda2*(a'z - R)^2 with a = mu: exact equality, or for 'at_least' with
    slack bits of weights 2^0..2^(K-1) appended to z and negated in a."""
    mu = instance.universe.mu
    weights = ()
    if instance.return_mode == "none" and params.lambda2 > 0:
        raise ValueError("lambda2 > 0 is meaningless when return_mode is 'none'")
    if instance.return_mode == "at_least":
        # the surplus of selecting every asset
        max_surplus = return_margin(instance, float(mu.sum()))
        if max_surplus <= 0:
            raise ValueError("return target exceeds total available return")
        weights = tuple(2**p for p in range(slack_count(mu)))
        representable = sum(weights)
        if max_surplus > representable:
            warnings.warn(
                f"slack bits represent surpluses up to {representable:g}; the maximum "
                f"feasible surplus {max_surplus:g} exceeds that, so the return "
                "residual is only bounded, not exactly cancelable",
                stacklevel=2,
            )
    layout = VariableLayout(instance.n_assets, weights)
    with np.errstate(over="ignore", invalid="ignore"):  # the QuboMatrix names a non-finite value
        upper = _risk(instance, params.lambda0, layout.dim)
        offset = _add_squared_linear(upper, np.ones(instance.n_assets), -instance.n, params.lambda1)
        a = np.append(mu, [-float(w) for w in weights])
        offset += _add_squared_linear(upper, a, -instance.r_star, params.lambda2)
    return QuboMatrix._from_upper(upper, offset), layout


def qubo_energy(q: QuboMatrix, x) -> float:
    """offset + sum of Q_ij x_i x_j (diagonal terms use x_i since x_i^2 = x_i)."""
    chosen = np.flatnonzero(bit_vector(x, q.dim, "QUBO dim"))
    return float(q.offset + q.upper[np.ix_(chosen, chosen)].sum())


def to_ising(q: QuboMatrix) -> IsingModel:
    """Exact energy-preserving conversion under the spin map s = 2x - 1."""
    diag = q.upper.diagonal()
    quarter = np.triu(q.upper, 1) / 4.0
    h = diag / 2.0 + quarter.sum(axis=1) + quarter.sum(axis=0)
    offset = float(q.offset + diag.sum() / 2.0 + quarter.sum())
    quarter += 0.0  # -0.0 -> +0.0, after the sums: a zero coupling is no coupling
    h.setflags(write=False)
    quarter.setflags(write=False)
    m = IsingModel.__new__(IsingModel)
    for name, value in (("dim", q.dim), ("h", h), ("J", quarter), ("offset", offset)):
        object.__setattr__(m, name, value)
    return m


def ising_energy(m: IsingModel, s) -> float:
    """offset + h's + s'Js over spin assignments."""
    spins = np.asarray(s, dtype=np.float64)
    if spins.shape != (m.dim,):
        raise ContractViolation(f"spin vector shape {spins.shape} does not match Ising dim {m.dim}")
    if not ((spins == -1) | (spins == 1)).all():
        raise ContractViolation("spin entries must be -1 or +1")
    return float(m.offset + m.h @ spins + spins @ (m.J @ spins))


def chain_strength_bound(q: QuboMatrix) -> float:
    """Sum of absolute coefficient values; a sufficient chain-strength bound."""
    # a sequential Python sum in row-major order, so the value is the plain
    # sum of the coefficient view's absolute values
    return float(sum(np.abs(q.upper[q.upper != 0]).tolist()))


def decode(
    instance: PortfolioInstance,
    layout: VariableLayout,
    bits,
    energy: float | None = None,
) -> Solution:
    """Split QUBO bits into asset and slack parts and rebuild all metrics."""
    arr = bit_vector(bits, layout.dim, "layout dim")
    x, y = arr[: layout.n_assets], arr[layout.n_assets :]
    if not layout.n_slack:
        return solution_from_bits(instance, x, energy=energy)
    surplus = float(np.dot(y, layout.slack_weights))
    return solution_from_bits(
        instance, x, energy=energy, slack_surplus=surplus, slack_bits=tuple(int(b) for b in y)
    )


# lines formatted per write: bounds the field list `write_qubo` builds
_QUBO_WRITE_BLOCK_ELEMENTS = 1 << 16


def write_qubo(q: QuboMatrix, path) -> None:
    """Write the text QUBO format: `p qubo <dim> <nnz> <offset>`, then one
    `i j value` line per nonzero coefficient in row-major order, each number
    printed with 17 significant digits so that reading it back is exact."""
    block = max(1, _QUBO_WRITE_BLOCK_ELEMENTS // q.dim)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"p qubo {q.dim} {np.count_nonzero(q.upper)} {q.offset:.17g}\n")
        for start in range(0, q.dim, block):
            rows, cols = np.nonzero(q.upper[start : start + block])
            rows += start
            fields = [0] * (3 * rows.size)
            fields[0::3] = rows.tolist()
            fields[1::3] = cols.tolist()
            fields[2::3] = q.upper[rows, cols].tolist()
            fh.write(("%d %d %.17g\n" * rows.size) % tuple(fields))


def _token_error(tokens, converters, names) -> str | None:
    """The message for the first token that its converter rejects, if any."""
    for token, convert, name in zip(tokens, converters, names):
        try:
            convert(token)
        except ValueError:
            return f"{name} {token!r} is not {'an integer' if convert is int else 'a number'}"
    return None


def _index_error(i: int, j: int, dim: int) -> str:
    if 0 <= i < dim and 0 <= j < dim:
        return f"coefficient index ({i}, {j}) is below the diagonal"
    return f"coefficient index ({i}, {j}) out of range for dim {dim}"


def _problem_line(path, lineno: int, parts: list[str]) -> tuple[int, int, float]:
    """(dim, nnz, offset) of a `p qubo <dim> <nnz> <offset>` line."""
    message = _token_error(parts[2:], (int, int, float), ("dim", "nnz", "offset"))
    if message is None:
        dim, nnz, offset = int(parts[2]), int(parts[3]), float(parts[4])
        if not math.isfinite(offset):
            message = f"offset {parts[4]} is not finite"
        else:
            try:
                _check_dim(dim)
                return dim, nnz, offset
            except ValueError as exc:
                message = str(exc)
    raise ValueError(f"{path}:{lineno}: {message}")


_COEFFICIENT_LINE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_qubo(path) -> QuboMatrix:
    """Read the text QUBO format written by :func:`write_qubo`: lines that
    are blank or start with `c` are skipped, one `p qubo <dim> <nnz>
    <offset>` line comes before exactly nnz `i j value` lines, with
    0 <= i <= j < dim, no `i j` pair twice and only finite numbers, whose
    magnitudes with the offset's sum to at most `model.MAX_MAGNITUDE`. Any
    other file raises a ValueError naming `path:line` of its first fault in
    file order (only a missing problem line or a sum above the bound names
    no line).

    A well-formed file is parsed by numpy's C tokenizer; the line reader,
    the plain reference that names faults, reads any other file."""
    q = parse_or_none(_read_qubo_numpy, path)
    return q if q is not None else _read_qubo_lines(path)


def _read_qubo_numpy(path) -> QuboMatrix | None:
    """The QUBO of a well-formed file, or None (a non-finite value raises in
    the QuboMatrix). The body goes to numpy with no comment character and
    integer indices, so a comment line, a `#` in a token or an index such
    as `1.0` after the problem line is left to the line reader."""
    with open(path) as fh:
        for raw in iter(fh.readline, ""):
            parts = raw.split()
            if parts and parts[0][0] != "c":
                break
        else:
            return None
        if len(parts) != 5 or parts[:2] != ["p", "qubo"]:
            return None
        dim, nnz, offset = _problem_line(path, 0, parts)  # the line reader names a fault
        body = np.loadtxt(fh, dtype=_COEFFICIENT_LINE, comments=None, ndmin=1)
    i, j, v = body["i"], body["j"], body["v"]
    if v.size != nnz or ((i < 0) | (i > j) | (j >= dim)).any():
        return None
    keys = np.sort(i * dim + j)  # np.unique is far slower on these keys
    if (keys[1:] == keys[:-1]).any():
        return None
    upper = np.zeros((dim, dim))
    upper[i, j] = v
    return QuboMatrix._from_upper(upper, offset)


def _read_qubo_lines(path) -> QuboMatrix:
    """The QUBO of a file read line by line, raising a ValueError that names
    `path:line` of its first fault; each coefficient line is checked as it
    is read: its tokens, its index, a repeated pair, a non-finite value."""
    dim = None
    coeffs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "c":
                continue
            if parts[0] == "p":
                if len(parts) != 5 or parts[1] != "qubo":
                    message = f"malformed problem line {raw.strip()!r}"
                elif dim is not None:
                    message = "second problem line"
                else:
                    dim, nnz, offset = _problem_line(path, lineno, parts)
                    problem_lineno = lineno
                    continue
            elif dim is None:
                message = "coefficient before problem line"
            elif len(parts) != 3:
                message = f"malformed coefficient line {raw.strip()!r}"
            else:
                try:
                    i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError:
                    names = ("row index", "column index", "value")
                    message = _token_error(parts, (int, int, float), names)
                else:
                    if not 0 <= i <= j < dim:
                        message = _index_error(i, j, dim)
                    elif (i, j) in coeffs:
                        message = f"duplicate coefficient {i} {j}"
                    elif not math.isfinite(v):
                        message = f"coefficient {i} {j} is not finite: {v}"
                    else:
                        coeffs[i, j] = v
                        continue
            raise ValueError(f"{path}:{lineno}: {message}")
    if dim is None:
        raise ValueError(f"{path}: no problem line found")
    if len(coeffs) != nnz:
        raise ValueError(
            f"{path}:{problem_lineno}: problem line declares {nnz} coefficients, "
            f"file has {len(coeffs)}"
        )
    try:
        return QuboMatrix(dim, coeffs, offset)
    except ValueError as exc:  # the magnitude rule: a fault of no one line
        raise ValueError(f"{path}: {exc}") from None
