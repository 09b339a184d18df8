"""The numpy parse of prices CSVs and QUBO files against the line readers
kept to name faults: on valid files, and on files with a token or a line
deleted, duplicated or corrupted, the public reader returns the same bits
as the line reader or raises the same exception with the same message."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portqubo import PenaltyParams, build_qubo, load_prices_csv, read_qubo, write_qubo
from portqubo import data as data_mod
from portqubo import qubo as qubo_mod
from portqubo.qubo import QuboMatrix

from conftest import random_instance, random_qubo

# what a corruption puts in place of a token; the spellings the two parsers
# might read differently
_REPLACEMENTS = [
    "", "x", "#", "c", "1.0", "1e0", "1_0", "+1", "-1", "-0", "nan", "inf", "1e999",
    "１", "99999999999999999999", '"1"', "1\x00",
]
# ... or appends to it: another spelling of the same number, which numpy must
# not read where the line reader rejects it, and other characters
_RESPELLINGS = [".0", "e0", "_0", "\xa0"]
_SUFFIXES = ["#", "#5", "\x00", ",", " x"]


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the differential compares any exception by type and message
        return type(exc), str(exc)


@st.composite
def _mutated(draw, lines: list[list[str]]) -> list[list[str]]:
    """``lines`` (token lists) with one line or token deleted, duplicated or
    corrupted, or unchanged."""
    kind = draw(st.sampled_from(["none", "line", "token", "token", "token"]))
    action = draw(st.sampled_from(["delete", "duplicate", "corrupt", "corrupt"]))
    lines = [list(line) for line in lines]
    if kind == "none" or not lines:
        return lines
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        if action == "delete":
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, list(lines[k]))
        else:
            lines[k] = [draw(st.sampled_from(_REPLACEMENTS))]
        return lines
    if not lines[k]:
        return lines
    last = len(lines[k]) - 1
    # often the last token: only there does a `#` leave the line's field count as it was
    t = draw(st.integers(0, last) | st.just(last))
    token = lines[k][t]
    if action == "delete":
        del lines[k][t]
    elif action == "duplicate":
        lines[k].insert(t, token)
    else:
        lines[k][t] = draw(
            st.sampled_from(_REPLACEMENTS)
            | st.sampled_from(_RESPELLINGS).map(token.__add__)
            | st.sampled_from(_SUFFIXES).map(token.__add__)
        )
    return lines


def _number(draw, value: float) -> str:
    spell = draw(st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:+.6f}".format]))
    return spell(value)


@st.composite
def qubo_files(draw) -> str:
    dim = draw(st.integers(1, 6))
    keys = [(i, j) for i in range(dim) for j in range(i, dim)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))  # in any order
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    body = [[str(i), str(j), _number(draw, draw(finite))] for i, j in chosen]
    lines = [["p", "qubo", str(dim), str(len(body)), _number(draw, draw(finite))], *body]
    if draw(st.booleans()):
        lines.insert(0, ["c", "a", "comment"])
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), [])
    lines = draw(_mutated(lines))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(sep.join(line) + end for line in lines)


@st.composite
def price_files(draw) -> str:
    symbols = draw(st.lists(st.sampled_from(["AAA", "BB", "C", "D1", "E_2"]), min_size=1, unique=True))
    n_rows = draw(st.integers(2, 6))
    positive = st.floats(min_value=1e-3, max_value=1e300)
    rows = [[f"d{t}", *(_number(draw, draw(positive)) for _ in symbols)] for t in range(n_rows)]
    lines = [["date", *symbols], *rows]
    if draw(st.integers(0, 5)) == 0:  # an empty header cell, which names no symbol
        lines[0][draw(st.integers(1, len(symbols)))] = draw(st.sampled_from(["", " "]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), [])
    lines = draw(_mutated(lines))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    quote = draw(st.sampled_from(["", "", '"']))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    cells = (",".join(f"{quote}{pad}{cell}{pad}{quote}" for cell in line) for line in lines)
    return "".join(line + end for line in cells)


def _read_qubo_by_lines(path) -> QuboMatrix:
    dim, offset, i, j, v = qubo_mod._read_qubo_lines(path)
    upper = np.zeros((dim, dim))
    upper[i, j] = v
    return QuboMatrix._from_upper(upper, offset)


def _write(tmp_path_factory, text: str, name: str):
    path = tmp_path_factory.mktemp("readers") / name
    path.write_bytes(text.encode())
    return path


class TestReadQuboMatchesLineReader:
    @given(text=qubo_files())
    @example(text="p qubo 2 1 0\n1.0 1 2\n")  # a float index
    @example(text="p qubo 2 1 0\n0 1 2#5\n")  # a comment character inside a token
    @example(text="p qubo 2 2 0\n0 1 2\n1 1 3 4\n")  # a ragged line
    @example(text="p qubo 2 1 0\n0 1 2\n# 1 1 3\n")  # a line a comment character hides
    @settings(max_examples=500, deadline=None)
    def test_same_bits_or_same_error(self, tmp_path_factory, text):
        path = _write(tmp_path_factory, text, "f.qubo")
        got, want = _outcome(read_qubo, path), _outcome(_read_qubo_by_lines, path)
        if isinstance(want, QuboMatrix):
            assert isinstance(got, QuboMatrix), got
            assert np.array_equal(_bits(got.upper), _bits(want.upper))
            assert _bits(got.offset) == _bits(want.offset)
        else:
            assert got == want

    def test_written_files_take_the_numpy_parse(self, tmp_path, rng):
        inst = random_instance(rng, 30, mode="equality")
        qs = [random_qubo(rng, 12, density=0.4), build_qubo(inst, PenaltyParams(1.0, 2.0, 0.5))[0]]
        for k, q in enumerate(qs):
            path = tmp_path / f"{k}.qubo"
            write_qubo(q, path)
            assert data_mod.parse_or_none(qubo_mod._read_qubo_numpy, path) is not None
            assert np.array_equal(_bits(read_qubo(path).upper), _bits(q.upper))


class TestLoadPricesMatchesLineReader:
    @given(text=price_files())
    @example(text="date,A\nd1,1\nd2,3,4\n")  # a row with an extra cell
    @example(text="date,A\nd1,1\nd2,3#4\n")  # a comment character inside a cell
    @example(text="date,A\nd1,1\n#d2,3\nd3,4\n")  # a row a comment character hides
    @example(text='date,A\n"d1",1\n"d2",2\n')  # quoted dates
    @example(text="date,,B\nd1,1,2\nd2,1,2\n")  # an empty symbol name
    @settings(max_examples=500, deadline=None)
    def test_same_bits_or_same_error(self, tmp_path_factory, text):
        path = _write(tmp_path_factory, text, "prices.csv")
        got, want = _outcome(load_prices_csv, path), _outcome(data_mod._load_prices_lines, path)
        if isinstance(want, data_mod.PricePanel):
            assert isinstance(got, data_mod.PricePanel), got
            assert (got.dates, got.symbols) == (want.dates, want.symbols)
            assert got.prices.shape == want.prices.shape
            assert np.array_equal(_bits(got.prices), _bits(want.prices))
        else:
            assert got == want

    def test_padded_crlf_file_with_blank_lines_takes_the_numpy_parse(self, tmp_path, rng):
        prices = rng.uniform(1.0, 200.0, (30, 8))
        lines = ["date, " + ", ".join(f"S{k}" for k in range(8))]
        for t, row in enumerate(prices.tolist()):
            lines.append(f"t{t} ," + ",".join(f" {p!r} " for p in row))
        path = tmp_path / "prices.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        panel = data_mod.parse_or_none(data_mod._load_prices_numpy, path)
        assert panel is not None
        assert np.array_equal(_bits(panel.prices), _bits(prices))
        assert panel.dates == tuple(f"t{t}" for t in range(30))
