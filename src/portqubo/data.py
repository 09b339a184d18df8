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

from .model import RETURN_MODES, AssetUniverse, PortfolioInstance


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
    idiosyncratic_floor: float = 1.0
    return_range: tuple[float, float] = (0.0, 200.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_assets < 1:
            raise ValueError("n_assets must be positive")
        if not 1 <= self.n_factors <= self.n_assets:
            raise ValueError("n_factors must be in [1, n_assets]")
        if self.idiosyncratic_floor <= 0:
            raise ValueError("idiosyncratic_floor must be positive")
        low, high = self.return_range
        if not low < high:
            raise ValueError("return_range must satisfy low < high")


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
    if log_returns:
        period = np.log(prices[1:] / prices[:-1]) * 100.0
        mu = np.log(prices[-1] / prices[0]) * 100.0
    else:
        period = (prices[1:] - prices[:-1]) / prices[:-1] * 100.0
        mu = (prices[-1] - prices[0]) / prices[0] * 100.0
    sigma = np.cov(period, rowvar=False, ddof=1)
    sigma = np.atleast_2d(sigma)
    sigma = (sigma + sigma.T) / 2.0  # exact symmetry despite fp accumulation
    return AssetUniverse(symbols=panel.symbols, mu=mu, sigma=sigma)


def generate_synthetic(spec: SyntheticSpec) -> AssetUniverse:
    """Factor-model covariance F F' + D with D >= idiosyncratic_floor, so the
    result is strictly positive definite; fully determined by the seed."""
    rng = np.random.default_rng(spec.seed)
    factors = rng.standard_normal((spec.n_assets, spec.n_factors))
    idio = spec.idiosyncratic_floor * (1.0 + rng.random(spec.n_assets))
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


def _universe_from_dict(doc: dict, source: str) -> AssetUniverse:
    for key in ("symbols", "mu"):
        if key not in doc:
            raise DataFormatError(f"{source}: missing field {key!r}")
    symbols = doc["symbols"]
    mu = np.array(doc["mu"], dtype=np.float64)
    n = len(symbols)
    if "sigma" in doc:
        sigma = np.array(doc["sigma"], dtype=np.float64).reshape(n, n)
    elif "sd" in doc and "correlation" in doc:
        sd = np.array(doc["sd"], dtype=np.float64)
        rho = np.array(doc["correlation"], dtype=np.float64).reshape(n, n)
        sigma = rho * np.outer(sd, sd)
    else:
        raise DataFormatError(
            f"{source}: missing field 'sigma' (or the 'sd' + 'correlation' pair)"
        )
    try:
        return AssetUniverse(symbols=tuple(symbols), mu=mu, sigma=sigma)
    except ValueError as exc:
        raise DataFormatError(f"{source}: {exc}") from exc


_JSON_CHUNK = 1024
_JSON_ITEM_SEPARATOR = ",\n    "  # between the items of a list indented by json.dump


def _write_json(doc: dict, path) -> None:
    """Write a dict with str keys whose values are scalars, lists of scalars
    or square float64 arrays to ``path``, byte for byte as
    ``json.dump(doc, fh, indent=2)`` plus a newline, an array written as its
    ``flatten().tolist()``. ``json.dump`` always runs the pure-Python encoder;
    this encodes each list in chunks of ``_JSON_CHUNK`` items with the C
    encoder, separated as the indent separates them, each array a row at a
    time, and never holds the whole document as one string."""
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
                fh.write("[\n    ")
                for start in range(0, len(value), _JSON_CHUNK):
                    if start:
                        fh.write(_JSON_ITEM_SEPARATOR)
                    chunk = value[start : start + _JSON_CHUNK]
                    fh.write(json.dumps(chunk, separators=(_JSON_ITEM_SEPARATOR, ": "))[1:-1])
                fh.write("\n  ]")
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
    with open(path) as fh:
        doc = json.load(fh)
    return _universe_from_dict(doc, str(path))


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
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("n", "return_mode"):
        if key not in doc:
            raise DataFormatError(f"{path}: missing field {key!r}")
    if doc["return_mode"] not in RETURN_MODES:
        raise DataFormatError(
            f"{path}: return_mode must be one of {RETURN_MODES}, got {doc['return_mode']!r}"
        )
    if doc["return_mode"] != "none" and "r_star" not in doc:
        raise DataFormatError(f"{path}: missing field 'r_star'")
    universe = _universe_from_dict(doc, str(path))
    try:
        return PortfolioInstance(
            universe=universe,
            n=int(doc["n"]),
            r_star=float(doc.get("r_star", 0.0)),
            return_mode=doc["return_mode"],
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def scale_returns(universe: AssetUniverse, factor: float) -> AssetUniverse:
    """Rescale mu by a positive factor (covariance untouched); used to shrink
    the slack-bit count of the inequality encoding."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return AssetUniverse(
        symbols=universe.symbols,
        mu=universe.mu * factor,
        sigma=universe.sigma,
    )
