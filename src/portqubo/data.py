"""Universe construction: historical price CSV ingestion, synthetic factor
universes, and JSON (de)serialization of instances.

Prices CSV layout: header ``date,SYM1,SYM2,...``, one row per period. Returns
are simple percent returns per period; the horizon return is the total
percent change from first to last price.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import AssetUniverse, PortfolioInstance, finite_number, read_counts


class DataFormatError(ValueError):
    """Raised for malformed price or instance files."""


@dataclass(frozen=True)
class PricePanel:
    dates: tuple[str, ...]
    symbols: tuple[str, ...]
    prices: np.ndarray  # periods x assets, strictly positive

    def __post_init__(self):
        prices = np.array(self.prices, dtype=np.float64)
        if prices.shape != (len(self.dates), len(self.symbols)):
            raise DataFormatError(
                f"price matrix shape {prices.shape} does not match "
                f"{len(self.dates)} periods x {len(self.symbols)} symbols"
            )
        if len(self.dates) < 2:
            raise DataFormatError("price panel needs at least 2 periods")
        if not (prices > 0).all():
            raise DataFormatError("nonpositive price in panel")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "symbols", tuple(self.symbols))


@dataclass(frozen=True)
class SyntheticSpec:
    n_assets: int
    n_factors: int = 3
    return_range: tuple[float, float] = (0.0, 200.0)
    seed: int = 0

    def __post_init__(self):
        read_counts(self, n_assets=1, n_factors=1, seed=0)
        if self.n_factors > self.n_assets:
            rule = f"must be at most n_assets = {self.n_assets}, got {self.n_factors}"
            raise ValueError(f"SyntheticSpec: field 'n_factors' {rule}")
        bound = "SyntheticSpec: a bound of field 'return_range'"
        low, high = (finite_number(v, "", bound) for v in self.return_range)
        # numpy's uniform draws only where high - low is a finite float
        if not 0 < high - low < math.inf:
            raise ValueError(
                "SyntheticSpec: field 'return_range' must have low < high and a finite "
                f"high - low, got {(low, high)}"
            )
        object.__setattr__(self, "return_range", (low, high))


def parse_or_none(parse, *args):
    """``parse(*args)``, or None where it raises a ValueError or warns.

    For a reader's fast path, whose every rejection leaves the fault to be
    named by a slower line-by-line reader; warnings are errors here because
    numpy 1.x only warns where numpy 2 rejects, such as ``1.0`` read into an
    integer column."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(*args)
        except (ValueError, Warning):
            return None


def load_prices_csv(path) -> PricePanel:
    """Parse a prices CSV; every data problem is a distinct named error.

    A well-formed file is parsed by numpy's C tokenizer; any other file is
    read again line by line to name its first fault."""
    panel = parse_or_none(_load_prices_numpy, path)
    return panel if panel is not None else _load_prices_lines(path)


def _load_prices_numpy(path) -> PricePanel | None:
    """The panel of a well-formed prices CSV, or None. A file that quotes a
    cell, holds a NUL or a line longer than the csv module's field limit is
    left to the csv module, so that only files it reads alike are parsed
    here."""
    with open(path) as fh:  # lines end at \n, \r\n and \r, as csv rows do
        text = fh.read()
    lines = text.split("\n")
    if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    symbols = [s.strip() for s in lines[0].split(",")[1:]]
    if not symbols or not all(symbols) or len(set(symbols)) < len(symbols):
        return None
    dates, cells = [], []
    for line in lines[1:]:
        if line:
            date, _, rest = line.partition(",")
            dates.append(date.strip())
            cells.append(rest)
    prices = np.loadtxt(cells, delimiter=",", comments=None, ndmin=2)
    if not np.isfinite(prices).all():
        return None
    # raises for fewer than 2 rows, a price <= 0 or a shape other than dates
    # x symbols, as when numpy skips a `rest` that is blank
    return PricePanel(dates=tuple(dates), symbols=tuple(symbols), prices=prices)


def _load_prices_lines(path) -> PricePanel:
    """Parse a prices CSV row by row with the csv module, raising a
    DataFormatError for the first fault in file order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataFormatError(f"{path}: header must name at least one symbol")
        symbols = [s.strip() for s in header[1:]]
        seen = set()
        for column, sym in enumerate(symbols, start=2):
            if not sym:
                raise DataFormatError(f"{path}: empty symbol name in header column {column}")
            if sym in seen:
                raise DataFormatError(f"{path}: duplicate symbol {sym!r}")
            seen.add(sym)
        dates = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: ragged row with {len(row)} fields, expected {len(header)}"
                )
            dates.append(row[0].strip())
            values = []
            for sym, cell in zip(symbols, row[1:]):
                cell = cell.strip()
                if not cell:
                    raise DataFormatError(f"{path}:{lineno}: missing price for {sym!r}")
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: unparseable price {cell!r} for {sym!r}"
                    ) from None
                if not value > 0 or not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}:{lineno}: nonpositive price {value:g} for {sym!r}"
                    )
                values.append(value)
            rows.append(values)
        if len(rows) < 2:
            raise DataFormatError(f"{path}: fewer than 2 price periods")
    return PricePanel(dates=tuple(dates), symbols=tuple(symbols), prices=np.array(rows))


def compute_stats(panel: PricePanel, log_returns: bool = False) -> AssetUniverse:
    """Horizon return vector (percent) and sample covariance of the per-period
    percent returns (divisor T-1)."""
    if len(panel.dates) < 3:
        raise DataFormatError("need at least 3 periods to estimate a covariance")
    prices = panel.prices
    # the AssetUniverse names a non-finite or too large mu or sigma
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if log_returns:
            period = np.log(prices[1:] / prices[:-1]) * 100.0
            mu = np.log(prices[-1] / prices[0]) * 100.0
        else:
            period = (prices[1:] - prices[:-1]) / prices[:-1] * 100.0
            mu = (prices[-1] - prices[0]) / prices[0] * 100.0
        sigma = np.atleast_2d(np.cov(period, rowvar=False, ddof=1))
        sigma = (sigma + sigma.T) / 2.0  # exact symmetry despite fp accumulation
    return AssetUniverse(symbols=panel.symbols, mu=mu, sigma=sigma)


def generate_synthetic(spec: SyntheticSpec) -> AssetUniverse:
    """Factor-model covariance F F' + D with D >= 1, so the result is
    strictly positive definite; fully determined by the seed."""
    rng = np.random.default_rng(spec.seed)
    factors = rng.standard_normal((spec.n_assets, spec.n_factors))
    idio = 1.0 + rng.random(spec.n_assets)
    sigma = factors @ factors.T + np.diag(idio)
    sigma = (sigma + sigma.T) / 2.0
    low, high = spec.return_range
    mu = rng.uniform(low, high, size=spec.n_assets)
    symbols = tuple(f"SYN{i:03d}" for i in range(spec.n_assets))
    return AssetUniverse(symbols=symbols, mu=mu, sigma=sigma)


def _universe_to_dict(universe: AssetUniverse) -> dict:
    """The universe's JSON document; sigma stays an array, which
    ``_write_json`` writes as its row-major list."""
    return {
        "symbols": list(universe.symbols),
        "mu": universe.mu.tolist(),
        "sigma": universe.sigma,
    }


def _load_json(path) -> dict:
    """The JSON object in the file at ``path``; a DataFormatError naming the
    path for invalid JSON or a top-level value that is not an object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    return require_fields(doc, (), path)


def require_fields(doc, keys, source, optional=None) -> dict:
    """``doc`` after checking that it is a JSON object holding every key in
    ``keys`` and, when ``optional`` is given, no key outside ``keys`` and
    ``optional``; a DataFormatError naming ``source`` otherwise."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise DataFormatError(f"{source}: missing field {key!r}")
    unknown = [] if optional is None else [k for k in doc if k not in (*keys, *optional)]
    if unknown:
        raise DataFormatError(f"{source}: unknown key(s) {', '.join(map(repr, unknown))}")
    return doc


def _float_field(doc: dict, key: str, shape: tuple, source) -> np.ndarray:
    """Field ``key`` as a float64 array of ``shape``, given nested or, for a
    matrix, as a flat list in row-major order."""
    try:
        value = np.array(doc[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{source}: field {key!r}: {exc}") from None
    if value.ndim not in (1, len(shape)) or value.size != math.prod(shape):
        raise DataFormatError(f"{source}: field {key!r} has shape {value.shape}, expected {shape}")
    return value.reshape(shape)


def _universe_from_dict(doc: dict, source) -> AssetUniverse:
    symbols = require_fields(doc, ("symbols", "mu"), source)["symbols"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise DataFormatError(f"{source}: field 'symbols' must be a list of strings")
    n = len(symbols)
    mu = _float_field(doc, "mu", (n,), source)
    if "sigma" in doc:
        sigma = _float_field(doc, "sigma", (n, n), source)
    elif "sd" in doc and "correlation" in doc:
        sd = _float_field(doc, "sd", (n,), source)
        sigma = _float_field(doc, "correlation", (n, n), source) * np.outer(sd, sd)
    else:
        raise DataFormatError(
            f"{source}: missing field 'sigma' (or the 'sd' + 'correlation' pair)"
        )
    try:
        return AssetUniverse(symbols=tuple(symbols), mu=mu, sigma=sigma)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from exc


_JSON_ITEM_SEPARATOR = ",\n    "  # between the items of a list indented by json.dump


def _write_json(doc: dict, path) -> None:
    """Write a dict with str keys whose values are scalars, lists of scalars
    or square float64 arrays to ``path``, byte for byte as
    ``json.dump(doc, fh, indent=2)`` plus a newline, an array written as its
    ``flatten().tolist()``. ``json.dump`` always runs the pure-Python encoder;
    this encodes each list with the C encoder, separated as the indent
    separates its items, and each array a row at a time, so it never holds
    the whole document as one string."""
    with open(path, "w", newline="\n") as fh:
        sep = "{\n  "
        for key, value in doc.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            sep = ",\n  "
            if isinstance(value, np.ndarray):
                _write_matrix(fh, value)
            elif not isinstance(value, list):
                fh.write(json.dumps(value))
            elif not value:
                fh.write("[]")
            else:
                items = json.dumps(value, separators=(_JSON_ITEM_SEPARATOR, ": "))[1:-1]
                fh.write(f"[\n    {items}\n  ]")
        fh.write("\n}\n" if doc else "{}\n")


def _write_matrix(fh, m: np.ndarray) -> None:
    """Write the square float64 array ``m`` of finite entries as
    ``_write_json`` writes the list ``m.flatten().tolist()``, one row at a
    time. The C encoder writes a finite float as ``float.__repr__`` does.

    When ``m`` is bitwise symmetric (compared as int64, so 0.0 and -0.0 stay
    apart), each entry on or above the diagonal is formatted once and its
    text reused for the mirrored entry: the texts of row i right of the
    diagonal wait in ``below[j]`` until row j, about N^2 / 4 texts at most.
    Any other ``m`` is formatted entry by entry."""
    n = len(m)
    if not n:
        fh.write("[]")
        return
    as_int = m.view(np.int64)
    below = [[] for _ in range(n)] if np.array_equal(as_int, as_int.T) else None
    fh.write("[\n    ")
    for i in range(n):
        if i:
            fh.write(_JSON_ITEM_SEPARATOR)
        if below is None:
            texts = list(map(float.__repr__, m[i].tolist()))
        else:
            upper = list(map(float.__repr__, m[i, i:].tolist()))
            texts, below[i] = below[i], None
            texts += upper
            for column, text in zip(below[i + 1 :], upper[1:]):
                column.append(text)
        fh.write(_JSON_ITEM_SEPARATOR.join(texts))
    fh.write("\n  ]")


def save_universe(universe: AssetUniverse, path) -> None:
    _write_json(_universe_to_dict(universe), path)


def load_universe(path) -> AssetUniverse:
    return _universe_from_dict(_load_json(path), path)


def save_instance(instance: PortfolioInstance, path) -> None:
    doc = _universe_to_dict(instance.universe)
    doc.update(
        {
            "n": instance.n,
            "r_star": instance.r_star,
            "return_mode": instance.return_mode,
        }
    )
    _write_json(doc, path)


def load_instance(path) -> PortfolioInstance:
    doc = require_fields(_load_json(path), ("n", "return_mode"), path)
    universe = _universe_from_dict(doc, path)
    given = {key: doc[key] for key in ("n", "r_star", "return_mode") if key in doc}
    try:
        return PortfolioInstance(universe=universe, **given)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def scale_returns(universe: AssetUniverse, factor: float) -> AssetUniverse:
    """Rescale mu by a positive factor (covariance untouched); used to shrink
    the slack-bit count of the inequality encoding."""
    factor = finite_number(factor, "positive", "scale factor")
    with np.errstate(over="ignore"):  # the AssetUniverse names a non-finite mu
        mu = universe.mu * factor
    return AssetUniverse(symbols=universe.symbols, mu=mu, sigma=universe.sigma)
