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
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import parse_or_none
from .model import (
    ContractViolation,
    PortfolioInstance,
    Solution,
    solution_from_bits,
)


@dataclass(frozen=True)
class PenaltyParams:
    """Weights tying the risk objective to the two constraint penalties."""

    lambda0: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "lambda2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.lambda0 > 0:
            raise ValueError("lambda0 must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")


@dataclass(frozen=True)
class VariableLayout:
    """Split of the QUBO variables into asset bits and slack bits."""

    n_assets: int
    n_slack: int
    slack_weights: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.slack_weights) != self.n_slack:
            raise ValueError("slack_weights length must equal n_slack")

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
    does a non-finite offset; ``coeffs`` gives the nonzero ones back in
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
        if not np.isfinite(upper).all():
            i, j = np.argwhere(~np.isfinite(upper))[0].tolist()
            raise ValueError(f"QUBO coefficient ({i}, {j}) must be finite, got {upper[i, j]}")
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

    def to_dense(self) -> np.ndarray:
        """Dense upper-triangular matrix (diagonal included), offset excluded."""
        return self.upper.copy()

    def to_symmetric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal vector, symmetric zero-diagonal coupling matrix)."""
        strict = np.triu(self.upper, 1)
        return self.upper.diagonal().copy(), strict + strict.T


@dataclass(frozen=True, init=False, eq=False)
class IsingModel:
    """Spin formulation: linear fields ``h`` and strictly upper couplings.

    ``J`` is a read-only dim x dim float64 array, zero on and below the
    diagonal, and ``h`` a read-only vector. The constructor takes the
    couplings as a dict keyed by integer (i, j) with i < j and rejects a
    field, coupling or offset that is not finite; ``j`` gives the nonzero
    ones back as such a dict, in row-major order, built once on first access.
    """

    dim: int
    h: np.ndarray
    J: np.ndarray
    offset: float

    def __init__(
        self, dim: int, h, j: dict[tuple[int, int], float], offset: float = 0.0
    ):
        couplings = _zero_upper(dim)
        for (a, b), v in j.items():
            a, b = operator.index(a), operator.index(b)
            if not (0 <= a < b < dim):
                raise ValueError(f"coupling index ({a}, {b}) must satisfy 0 <= i < j < dim")
            couplings[a, b] = float(v)
        self._set(dim, h, couplings, offset)

    @classmethod
    def _from_arrays(cls, h: np.ndarray, couplings: np.ndarray, offset: float) -> IsingModel:
        m = cls.__new__(cls)
        m._set(len(h), h, couplings, offset)
        return m

    def _set(self, dim: int, h, couplings: np.ndarray, offset: float) -> None:
        h = np.array(h, dtype=np.float64)
        if h.shape != (dim,):
            raise ValueError(f"h has shape {h.shape}, expected ({dim},)")
        offset = float(offset)
        if not math.isfinite(offset):
            raise ValueError(f"Ising offset must be finite, got {offset}")
        if not np.isfinite(h).all():
            i = int(np.flatnonzero(~np.isfinite(h))[0])
            raise ValueError(f"Ising field h[{i}] must be finite, got {h[i]}")
        if not np.isfinite(couplings).all():
            a, b = np.argwhere(~np.isfinite(couplings))[0].tolist()
            raise ValueError(f"Ising coupling ({a}, {b}) must be finite, got {couplings[a, b]}")
        couplings += 0.0  # -0.0 -> +0.0: a zero coupling is no coupling
        h.setflags(write=False)
        couplings.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", couplings)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def j(self) -> dict[tuple[int, int], float]:
        """The nonzero couplings keyed by (i, j), in row-major order."""
        rows, cols = np.nonzero(self.J)
        return dict(zip(zip(rows.tolist(), cols.tolist()), self.J[rows, cols].tolist()))


def slack_count(mu) -> int:
    """Number of slack bits K = floor(log2(sum mu)) for the inequality encoding."""
    total = float(np.sum(np.asarray(mu, dtype=np.float64)))
    if total <= 0:
        raise ValueError("slack encoding requires positive total return")
    if total < 2:
        return 0
    k = int(math.floor(math.log2(total)))
    # guard against log2 rounding at exact powers of two
    while 2.0 ** (k + 1) <= total:
        k += 1
    while 2.0**k > total:
        k -= 1
    return k


def _risk_and_cardinality(
    instance: PortfolioInstance, params: PenaltyParams, dim: int
) -> tuple[np.ndarray, float]:
    """lambda0*x'Sx + lambda1*(sum x - n)^2 over the first n_assets of dim
    variables: the upper-triangular array and the constant term."""
    sigma = instance.universe.sigma
    n_assets = instance.n_assets
    l0, l1 = params.lambda0, params.lambda1
    upper = _zero_upper(dim)
    upper[:n_assets, :n_assets] = np.triu(l0 * (sigma + sigma.T) + 2.0 * l1, 1)
    assets = np.arange(n_assets)
    upper[assets, assets] = l0 * sigma.diagonal() + l1 * (1.0 - 2.0 * instance.n)
    return upper, l1 * instance.n * instance.n


def _add_squared_linear(upper: np.ndarray, a: np.ndarray, constant: float, weight: float) -> float:
    """Adds weight*(a'z + constant)^2 over binary z; returns the constant term.

    Only variables with a nonzero coefficient in ``a`` get a term, rounded as
    weight*(a_i*a_i + 2c*a_i) on the diagonal and (2*weight*a_i)*a_j above
    it, and added after the risk and cardinality terms: this order fixes the
    bits of every coefficient, and so of every QUBO file."""
    if weight == 0.0:
        return 0.0
    nz = np.flatnonzero(a)
    a = a[nz]
    upper[nz, nz] += weight * (a * a + 2.0 * constant * a)
    upper[np.ix_(nz, nz)] += np.triu(np.outer(2.0 * weight * a, a), 1)
    return weight * constant * constant


def build_qubo_equality(
    instance: PortfolioInstance, params: PenaltyParams
) -> tuple[QuboMatrix, VariableLayout]:
    """Compile with the return constraint (if any) as an exact equality penalty."""
    if instance.return_mode == "at_least":
        raise ValueError("at_least instances need the slack encoding; use build_qubo_inequality")
    if instance.return_mode == "none" and params.lambda2 > 0:
        raise ValueError("lambda2 > 0 is meaningless when return_mode is 'none'")
    upper, offset = _risk_and_cardinality(instance, params, instance.n_assets)
    if instance.return_mode == "equality":
        offset += _add_squared_linear(
            upper, np.array(instance.universe.mu), -instance.r_star, params.lambda2
        )
    layout = VariableLayout(n_assets=instance.n_assets, n_slack=0)
    return QuboMatrix._from_upper(upper, offset), layout


def build_qubo_inequality(
    instance: PortfolioInstance,
    params: PenaltyParams,
    literal_weights: bool = False,
) -> tuple[QuboMatrix, VariableLayout]:
    """Compile an at-least-return instance with power-of-two slack bits.

    ``literal_weights`` switches the slack weights from 2^0..2^(K-1) to
    2^1..2^K for comparison; the latter cannot cancel odd surpluses.
    """
    if instance.return_mode != "at_least":
        raise ValueError("slack encoding applies only to return_mode 'at_least'")
    mu = np.array(instance.universe.mu)
    total_mu = float(mu.sum())
    if total_mu <= instance.r_star:
        raise ValueError("return target exceeds total available return")
    k = slack_count(mu)
    if literal_weights:
        weights = tuple(2**p for p in range(1, k + 1))
    else:
        weights = tuple(2**p for p in range(k))
    max_surplus = total_mu - instance.r_star
    representable = sum(weights)
    if max_surplus > representable:
        warnings.warn(
            f"slack bits represent surpluses up to {representable}; the maximum "
            f"feasible surplus {max_surplus:g} exceeds that, so the return "
            "residual is only bounded, not exactly cancelable",
            stacklevel=2,
        )
    n_assets = instance.n_assets
    dim = n_assets + k
    upper, offset = _risk_and_cardinality(instance, params, dim)
    a = np.zeros(dim)
    a[:n_assets] = mu
    a[n_assets:] = [-w for w in weights]
    offset += _add_squared_linear(upper, a, -instance.r_star, params.lambda2)
    layout = VariableLayout(n_assets=n_assets, n_slack=k, slack_weights=weights)
    return QuboMatrix._from_upper(upper, offset), layout


def build_qubo(
    instance: PortfolioInstance, params: PenaltyParams, **kwargs
) -> tuple[QuboMatrix, VariableLayout]:
    """Dispatch to the equality or slack encoding based on return_mode."""
    if instance.return_mode == "at_least":
        return build_qubo_inequality(instance, params, **kwargs)
    return build_qubo_equality(instance, params)


def qubo_energy(q: QuboMatrix, x) -> float:
    """offset + sum of Q_ij x_i x_j (diagonal terms use x_i since x_i^2 = x_i)."""
    bits = np.asarray(x)
    if bits.shape != (q.dim,):
        raise ContractViolation(
            f"bit vector length {bits.size} does not match QUBO dim {q.dim}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ContractViolation("bit vector entries must be 0 or 1")
    chosen = np.flatnonzero(bits)
    return float(q.offset + q.upper[np.ix_(chosen, chosen)].sum())


def to_ising(q: QuboMatrix) -> IsingModel:
    """Exact energy-preserving conversion under the spin map s = 2x - 1."""
    diag = q.upper.diagonal()
    quarter = np.triu(q.upper, 1) / 4.0
    h = diag / 2.0 + quarter.sum(axis=1) + quarter.sum(axis=0)
    offset = q.offset + diag.sum() / 2.0 + quarter.sum()
    return IsingModel._from_arrays(h, quarter, offset)


def ising_energy(m: IsingModel, s) -> float:
    """offset + h's + s'Js over spin assignments."""
    spins = np.asarray(s, dtype=np.float64)
    if spins.shape != (m.dim,):
        raise ContractViolation(
            f"spin vector length {spins.size} does not match Ising dim {m.dim}"
        )
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
    **provenance,
) -> Solution:
    """Split QUBO bits into asset and slack parts and rebuild all metrics."""
    arr = np.asarray(bits)
    if arr.shape != (layout.dim,):
        raise ContractViolation(
            f"bit vector length {arr.size} does not match layout dim {layout.dim}"
        )
    x = arr[: layout.n_assets]
    y = arr[layout.n_assets :]
    surplus = float(np.dot(y, layout.slack_weights)) if layout.n_slack else 0.0
    notes = dict(provenance)
    if layout.n_slack:
        notes["slack_surplus"] = surplus
        notes["slack_bits"] = tuple(int(b) for b in y)
    return solution_from_bits(instance, x, energy=energy, **notes)


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


def _check_coefficients(path, dim: int, rows: array, cols: array, values: array, lines: array):
    """The parsed coefficient lines as arrays (i, j, value), after raising for
    the first of them, in file order, whose index is out of range or below
    the diagonal, whose `i j` pair an earlier line has, or whose value is not
    finite (checked in that order within a line)."""
    line = np.frombuffer(lines, dtype=np.int64)
    n = line.size
    # `rows` has one more entry when the line after the last parsed one had
    # a row index but a column index beyond int64
    i = np.frombuffer(rows, dtype=np.int64)[:n]
    j = np.frombuffer(cols, dtype=np.int64)[:n]
    v = np.frombuffer(values, dtype=np.float64)
    invalid = (i < 0) | (i > j) | (j >= dim)
    stop = int(invalid.argmax()) if invalid.any() else n
    # lines before the first bad index, whose keys cannot overflow
    _, firsts = np.unique(i[:stop] * dim + j[:stop], return_index=True)
    repeated = np.ones(stop, dtype=bool)
    repeated[firsts] = False
    flagged = repeated | ~np.isfinite(v[:stop])
    k = int(flagged.argmax()) if flagged.any() else stop
    if k < n:
        a, b = int(i[k]), int(j[k])
        if k == stop:
            message = _index_error(a, b, dim)
        elif repeated[k]:
            message = f"duplicate coefficient {a} {b}"
        else:
            message = f"coefficient {a} {b} is not finite: {float(v[k])}"
        raise ValueError(f"{path}:{line[k]}: {message}")
    return i, j, v


_COEFFICIENT_LINE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_qubo(path) -> QuboMatrix:
    """Read the text QUBO format written by :func:`write_qubo`: lines that
    are blank or start with `c` are skipped, one `p qubo <dim> <nnz>
    <offset>` line comes before exactly nnz `i j value` lines, with
    0 <= i <= j < dim, no `i j` pair twice and only finite numbers. Any
    other file raises a ValueError naming `path:line` of its first fault in
    file order (only a missing problem line names no line).

    A well-formed file is parsed by numpy's C tokenizer; any other file is
    read again line by line to name its first fault."""
    parsed = parse_or_none(_read_qubo_numpy, path)
    dim, offset, i, j, v = parsed if parsed is not None else _read_qubo_lines(path)
    upper = np.zeros((dim, dim))
    upper[i, j] = v
    return QuboMatrix._from_upper(upper, offset)


def _read_qubo_numpy(path):
    """(dim, offset, i, j, values) of a well-formed QUBO file, or None. The
    body goes to numpy with no comment character and integer indices, so a
    comment line, a `#` in a token or an index such as `1.0` after the
    problem line is left to the line reader."""
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
    if v.size != nnz or not np.isfinite(v).all() or ((i < 0) | (i > j) | (j >= dim)).any():
        return None
    keys = np.sort(i * dim + j)  # np.unique is far slower on these keys
    if (keys[1:] == keys[:-1]).any():
        return None
    return dim, offset, i, j, v


def _read_qubo_lines(path):
    """(dim, offset, i, j, values) of a QUBO file read line by line, raising
    a ValueError that names `path:line` of its first fault in file order."""
    dim = None
    rows, cols, values, lines = array("q"), array("q"), array("d"), array("q")
    error = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "c":
                continue
            if parts[0] == "p":
                if len(parts) != 5 or parts[1] != "qubo":
                    error = lineno, f"malformed problem line {raw.strip()!r}"
                    break
                if dim is not None:
                    error = lineno, "second problem line"
                    break
                dim, nnz, offset = _problem_line(path, lineno, parts)
                problem_lineno = lineno
                continue
            if dim is None:
                raise ValueError(f"{path}:{lineno}: coefficient before problem line")
            if len(parts) != 3:
                error = lineno, f"malformed coefficient line {raw.strip()!r}"
                break
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
                rows.append(i)
                cols.append(j)
            except (ValueError, OverflowError):
                error = lineno, _token_error(
                    parts, (int, int, float), ("row index", "column index", "value")
                ) or _index_error(int(parts[0]), int(parts[1]), dim)
                break
            values.append(v)
            lines.append(lineno)
    # an error on a parsed line comes before the one that ended the loop
    if dim is not None:
        i, j, v = _check_coefficients(path, dim, rows, cols, values, lines)
    if error is not None:
        raise ValueError(f"{path}:{error[0]}: {error[1]}")
    if dim is None:
        raise ValueError(f"{path}: no problem line found")
    if v.size != nnz:
        raise ValueError(
            f"{path}:{problem_lineno}: problem line declares {nnz} coefficients, "
            f"file has {v.size}"
        )
    return dim, offset, i, j, v
