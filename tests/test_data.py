import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    DataFormatError,
    PortfolioInstance,
    PricePanel,
    SyntheticSpec,
    compute_stats,
    generate_synthetic,
    load_instance,
    load_prices_csv,
    load_universe,
    save_instance,
    save_universe,
)
from portqubo import data as data_mod
from portqubo.data import scale_returns

from conftest import reference_write_json


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPrices:
    def test_minimal_valid_panel(self, tmp_path):
        panel = load_prices_csv(_write(tmp_path, "date,AAA\n2020-Q1,100\n2020-Q2,100\n"))
        assert panel.symbols == ("AAA",)
        assert len(panel.dates) == 2

    def test_nonpositive_price(self, tmp_path):
        path = _write(tmp_path, "date,AAA\n2020-Q1,100\n2020-Q2,0\n")
        with pytest.raises(DataFormatError, match="nonpositive price"):
            load_prices_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "date,AAA,BBB\n2020-Q1,100,200\n2020-Q2,100\n")
        with pytest.raises(DataFormatError, match="ragged row"):
            load_prices_csv(path)

    def test_duplicate_symbol(self, tmp_path):
        path = _write(tmp_path, "date,AAA,AAA\n2020-Q1,1,2\n2020-Q2,1,2\n")
        with pytest.raises(DataFormatError, match="duplicate symbol"):
            load_prices_csv(path)

    def test_too_few_periods(self, tmp_path):
        path = _write(tmp_path, "date,AAA\n2020-Q1,100\n")
        with pytest.raises(DataFormatError, match="fewer than 2"):
            load_prices_csv(path)

    def test_missing_value(self, tmp_path):
        path = _write(tmp_path, "date,AAA,BBB\n2020-Q1,1,2\n2020-Q2,1,\n")
        with pytest.raises(DataFormatError, match="missing price"):
            load_prices_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,AAA\nd1,100\nd2,abc\n", r"prices\.csv:3: unparseable price 'abc' for 'AAA'"),
            ("date,AAA\nd1,nan\nd2,100\n", r"prices\.csv:2: nonpositive price nan for 'AAA'"),
            ("date,AAA\nd1,100\nd2,inf\n", r"prices\.csv:3: nonpositive price inf for 'AAA'"),
            ("", r"prices\.csv: empty file"),
            ("date\nd1\nd2\n", r"prices\.csv: header must name at least one symbol"),
            ("date,AAA\nd1,100\n   \nd2,100\n", r"prices\.csv:3: ragged row with 1 fields, expected"),
            ("date,,B\nd1,1,2\nd2,1,2\n", r"prices\.csv: empty symbol name in header column 2"),
            ("date,A, \nd1,1,2\nd2,1,2\n", r"prices\.csv: empty symbol name in header column 3"),
            ('date," ",B\nd1,1,2\nd2,1,2\n', r"prices\.csv: empty symbol name in header column 2"),
            ("date,\nd1,1\nd2,1\n", r"prices\.csv: empty symbol name in header column 2"),
        ],
    )
    def test_named_errors(self, tmp_path, text, message):
        with pytest.raises(DataFormatError, match=message):
            load_prices_csv(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "text",
        [
            'date,"AAA",BBB\n"d1",100,"2.5"\nd2,"101",3\n',  # quoted cells
            "date,AAA,BBB\r\nd1,100,2.5\r\nd2,101,3\r\n",  # CRLF line ends
            "date,AAA,BBB\n\nd1,100,2.5\n\n\nd2,101,3\n\n",  # blank lines
            "date , AAA ,\tBBB\nd1 , 100 ,2.5 \n d2,\t101\t, 3\n",  # spaces around cells
        ],
    )
    def test_accepted_layouts(self, tmp_path, text):
        panel = load_prices_csv(_write(tmp_path, text))
        assert panel.symbols == ("AAA", "BBB")
        assert panel.dates == ("d1", "d2")
        assert panel.prices.tolist() == [[100.0, 2.5], [101.0, 3.0]]

    def test_large_generated_panel(self, tmp_path, rng):
        periods, assets = 21, 225
        header = "date," + ",".join(f"S{i:03d}" for i in range(assets))
        rows = [header]
        prices = rng.uniform(50, 150, (periods, assets))
        for t in range(periods):
            rows.append(f"p{t}," + ",".join(f"{v:.4f}" for v in prices[t]))
        panel = load_prices_csv(_write(tmp_path, "\n".join(rows) + "\n"))
        assert len(panel.dates) == 21
        assert len(panel.symbols) == 225


class TestComputeStats:
    def test_constant_prices(self):
        panel = PricePanel(("a", "b", "c"), ("X", "Y"), np.full((3, 2), 50.0))
        universe = compute_stats(panel)
        assert universe.mu.tolist() == [0.0, 0.0]
        assert np.all(universe.sigma == 0.0)

    def test_doubling_price_is_100_percent(self):
        panel = PricePanel(("a", "b", "c"), ("X",), np.array([[100.0], [150.0], [200.0]]))
        universe = compute_stats(panel)
        assert universe.mu[0] == pytest.approx(100.0)

    def test_identical_series_are_perfectly_correlated(self):
        prices = np.array([[100.0, 100.0], [110.0, 110.0], [99.0, 99.0], [120.0, 120.0]])
        universe = compute_stats(PricePanel(("a", "b", "c", "d"), ("X", "Y"), prices))
        assert universe.sigma[0, 1] == pytest.approx(universe.sigma[0, 0])

    def test_needs_three_periods(self):
        panel = PricePanel(("a", "b"), ("X",), np.array([[1.0], [2.0]]))
        with pytest.raises(DataFormatError, match="at least 3"):
            compute_stats(panel)

    def test_scale_equivariance(self, rng):
        prices = rng.uniform(50, 150, (10, 4))
        base = compute_stats(PricePanel(tuple("abcdefghij"), ("A", "B", "C", "D"), prices))
        scaled_prices = prices.copy()
        scaled_prices[:, 2] *= 7.5
        scaled = compute_stats(
            PricePanel(tuple("abcdefghij"), ("A", "B", "C", "D"), scaled_prices)
        )
        assert scaled.mu == pytest.approx(base.mu, rel=1e-12)
        assert scaled.sigma == pytest.approx(base.sigma, rel=1e-9)

    def test_log_return_mode(self):
        panel = PricePanel(("a", "b", "c"), ("X",), np.array([[100.0], [150.0], [200.0]]))
        universe = compute_stats(panel, log_returns=True)
        assert universe.mu[0] == pytest.approx(np.log(2.0) * 100)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_assets=10, n_factors=3, seed=99)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.symbols == b.symbols
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma, b.sigma)

    def test_positive_definite_with_floor(self, rng):
        # the idiosyncratic variances are at least 1
        for seed in range(5):
            spec = SyntheticSpec(n_assets=12, n_factors=2, seed=seed)
            universe = generate_synthetic(spec)
            eigmin = np.linalg.eigvalsh(universe.sigma)[0]
            assert eigmin >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("seed", {"seed": -1}),
            ("seed", {"seed": 1.5}),
            ("seed", {"seed": None}),
            ("n_factors", {"n_factors": 2.5}),
            ("n_assets", {"n_assets": True}),
        ],
    )
    def test_spec_reads_counts_and_seed(self, field, fields):
        with pytest.raises(ValueError, match=rf"^SyntheticSpec: field '{field}' must be"):
            SyntheticSpec(**{"n_assets": 5, **fields})

    def test_spec_whole_number_counts_read_as_ints(self):
        spec = SyntheticSpec(n_assets=5.0, n_factors=np.int64(2), seed=3.0)
        assert (spec.n_assets, spec.n_factors, spec.seed) == (5, 2, 3)
        assert {type(v) for v in (spec.n_assets, spec.n_factors, spec.seed)} == {int}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_assets=5, n_factors=0)
        with pytest.raises(
            ValueError, match=r"^SyntheticSpec: field 'n_factors' must be at most n_assets = 5, got 6$"
        ):
            SyntheticSpec(n_assets=5, n_factors=6)
        with pytest.raises(ValueError):
            SyntheticSpec(n_assets=5, return_range=(3.0, 1.0))

    def test_returns_within_range(self):
        universe = generate_synthetic(
            SyntheticSpec(n_assets=30, return_range=(10.0, 20.0), seed=1)
        )
        assert universe.mu.min() >= 10.0
        assert universe.mu.max() <= 20.0


class TestInstanceIo:
    def _instance(self, seed=5):
        universe = generate_synthetic(SyntheticSpec(n_assets=6, seed=seed))
        return PortfolioInstance(universe, n=2, r_star=100.0, return_mode="at_least")

    def test_round_trip_bit_identical(self, tmp_path):
        inst = self._instance()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.universe.symbols == inst.universe.symbols
        assert np.array_equal(back.universe.mu, inst.universe.mu)
        assert np.array_equal(back.universe.sigma, inst.universe.sigma)
        assert (back.n, back.r_star, back.return_mode) == (
            inst.n,
            inst.r_star,
            inst.return_mode,
        )

    def test_missing_n_named(self, tmp_path):
        inst = self._instance()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        del doc["n"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="'n'"):
            load_instance(path)

    def test_sd_correlation_variant(self, tmp_path):
        sd = [2.0, 3.0]
        rho = [[1.0, 0.5], [0.5, 1.0]]
        doc = {
            "symbols": ["A", "B"],
            "mu": [10.0, 20.0],
            "sd": sd,
            "correlation": [v for row in rho for v in row],
            "n": 1,
            "r_star": 0.0,
            "return_mode": "none",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path)
        expected = np.array([[4.0, 3.0], [3.0, 9.0]])
        assert np.array_equal(inst.universe.sigma, expected)

    def test_universe_round_trip(self, tmp_path):
        universe = generate_synthetic(SyntheticSpec(n_assets=4, seed=3))
        path = tmp_path / "u.json"
        save_universe(universe, path)
        back = load_universe(path)
        assert np.array_equal(back.sigma, universe.sigma)
        assert np.array_equal(back.mu, universe.mu)

    def test_invalid_mode_named(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"symbols": ["A"], "mu": [1.0], "sigma": [1.0],
                                    "n": 1, "return_mode": "sometimes"}))
        with pytest.raises(DataFormatError, match="return_mode"):
            load_instance(path)


class TestJsonInputFaults:
    """Every malformed universe or instance file raises a DataFormatError
    that names the path (and the field, where one is at fault)."""

    @pytest.mark.parametrize("loader", [load_universe, load_instance])
    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"u"', "null"])
    def test_non_object_json_names_the_path(self, tmp_path, loader, text):
        path = _write(tmp_path, text, "doc.json")
        with pytest.raises(DataFormatError, match=r"doc\.json: .*JSON object"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_universe, load_instance])
    def test_invalid_json_names_the_path(self, tmp_path, loader):
        path = _write(tmp_path, '{"symbols": [', "doc.json")
        with pytest.raises(DataFormatError, match=r"doc\.json: invalid JSON"):
            loader(path)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"sigma": [1.0, 0.0, 1.0]}, "sigma"),
            ({"sigma": [[1.0, 0.0], [0.0]]}, "sigma"),
            ({"mu": ["x", 2.0]}, "mu"),
            ({"mu": [1.0]}, "mu"),
            ({"mu": {"A": 1.0}}, "mu"),
            ({"symbols": "AB"}, "symbols"),
            ({"symbols": ["A", 2]}, "symbols"),
            ({"sd": [1.0], "correlation": [1.0, 0.0, 0.0, 1.0]}, "sd"),
            ({"sd": [1.0, 1.0], "correlation": [1.0, 0.0, 1.0]}, "correlation"),
        ],
    )
    @pytest.mark.parametrize("loader", [load_universe, load_instance])
    def test_malformed_universe_field_names_path_and_field(self, tmp_path, loader, fields, field):
        doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "n": 1, "return_mode": "none"}
        if "sd" not in fields:
            doc["sigma"] = [1.0, 0.0, 0.0, 1.0]
        doc.update(fields)
        path = _write(tmp_path, json.dumps(doc), "doc.json")
        with pytest.raises(DataFormatError, match=rf"doc\.json: .*\b{field}\b"):
            loader(path)

    def test_nested_or_flat_matrices_accepted(self, tmp_path):
        doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [[4.0, 1.0], [1.0, 9.0]]}
        nested = load_universe(_write(tmp_path, json.dumps(doc), "nested.json"))
        doc["sigma"] = [4.0, 1.0, 1.0, 9.0]
        flat = load_universe(_write(tmp_path, json.dumps(doc), "flat.json"))
        assert nested.sigma.tolist() == flat.sigma.tolist() == [[4.0, 1.0], [1.0, 9.0]]

    @pytest.mark.parametrize("n", [1.7, True, "1", None, float("inf")])
    def test_n_that_is_not_a_whole_number_names_path_and_field(self, tmp_path, n):
        doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0],
               "n": n, "return_mode": "none"}
        path = _write(tmp_path, json.dumps(doc), "doc.json")
        message = r"doc\.json: PortfolioInstance: field 'n' must be a whole number of at least 1"
        with pytest.raises(DataFormatError, match=message):
            load_instance(path)

    def test_whole_float_n_loads_as_int(self, tmp_path):
        doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0],
               "n": 2.0, "return_mode": "none"}
        inst = load_instance(_write(tmp_path, json.dumps(doc), "doc.json"))
        assert inst.n == 2 and type(inst.n) is int

    @pytest.mark.parametrize(
        "r_star", [True, "1.5", None, [1.5], 10**400], ids=["bool", "str", "null", "list", "huge-int"]
    )
    def test_r_star_that_is_not_a_number_names_path_and_field(self, tmp_path, r_star):
        # a bool or a numeric string loaded as 1.0 or 1.5; an int beyond the
        # float range raised an OverflowError
        doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0],
               "n": 1, "r_star": r_star, "return_mode": "at_least"}
        path = _write(tmp_path, json.dumps(doc), "doc.json")
        message = r"doc\.json: PortfolioInstance: field 'r_star' must be a finite number"
        with pytest.raises(DataFormatError, match=message):
            load_instance(path)

    def test_non_integer_n_names_the_path(self, tmp_path):
        doc = {"symbols": ["A"], "mu": [1.0], "sigma": [1.0], "n": [1], "return_mode": "none"}
        path = _write(tmp_path, json.dumps(doc), "doc.json")
        with pytest.raises(DataFormatError, match=r"doc\.json: "):
            load_instance(path)


def test_scale_returns():
    universe = AssetUniverse(("A", "B"), [10.0, 20.0], np.eye(2))
    scaled = scale_returns(universe, 0.1)
    assert scaled.mu.tolist() == [1.0, 2.0]
    assert np.array_equal(scaled.sigma, universe.sigma)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"scale factor must be a positive finite number, got {bad}"):
            scale_returns(universe, bad)


_TRICKY_TEXT = st.sampled_from(['"', ",", "\n", "\\", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "a, \"b\"\n"])
_TRICKY_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e17, -1e17, 1e16, 0.1])
_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _TRICKY_FLOATS,
    st.integers(),
    st.text(),
    _TRICKY_TEXT,
    st.booleans(),
    st.none(),
)
_JSON_DOCS = st.dictionaries(
    st.one_of(st.text(max_size=8), _TRICKY_TEXT),
    st.one_of(_SCALARS, st.lists(_SCALARS, max_size=12)),
    max_size=6,
)


def _sigma_doc(universe: AssetUniverse) -> dict:
    return {
        "symbols": list(universe.symbols),
        "mu": universe.mu.tolist(),
        "sigma": universe.sigma.flatten().tolist(),
    }


def _one_ulp_off() -> np.ndarray:
    sigma = generate_synthetic(SyntheticSpec(n_assets=7, seed=2)).sigma.copy()
    sigma[4, 1] = np.nextafter(sigma[4, 1], np.inf)  # symmetric within 1e-9, not bitwise
    return sigma


def _signed_zero_pair() -> np.ndarray:
    sigma = np.diag([2.0, 3.0, 4.0])
    sigma[0, 2] = sigma[2, 0] = 0.5
    sigma[0, 1], sigma[1, 0] = 0.0, -0.0  # equal as floats, not as bits
    return sigma


def _sd_correlation_universe(tmp_path) -> AssetUniverse:
    rng = np.random.default_rng(8)
    rho = np.corrcoef(rng.standard_normal((5, 40)))
    path = tmp_path / "sd.json"
    path.write_text(json.dumps({
        "symbols": [f"S{i}" for i in range(5)],
        "mu": rng.uniform(0, 10, 5).tolist(),
        "sd": rng.uniform(0.5, 3, 5).tolist(),
        "correlation": rho.flatten().tolist(),
    }))
    return load_universe(path)


_SIGMAS = {
    "symmetric": lambda tmp_path: generate_synthetic(SyntheticSpec(n_assets=9, seed=1)).sigma,
    "one-ulp-off": lambda tmp_path: _one_ulp_off(),
    "signed-zero-pair": lambda tmp_path: _signed_zero_pair(),
    "one-asset": lambda tmp_path: np.array([[2.5]]),
    "sd-correlation": lambda tmp_path: _sd_correlation_universe(tmp_path).sigma,
}


@st.composite
def _square_matrices(draw) -> np.ndarray:
    """Square matrices that are bitwise symmetric, symmetric but for one
    entry (1 ulp off, or 0.0 against -0.0), or arbitrary."""
    n = draw(st.integers(0, 6))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _TRICKY_FLOATS)
    m = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)), dtype=np.float64).reshape(n, n)
    shape = draw(st.sampled_from(["symmetric", "symmetric", "one-off", "arbitrary"]))
    if shape != "arbitrary":
        lower = np.tril_indices(n, -1)
        m[lower] = m.T[lower]
    if shape == "one-off" and n > 1:
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(0, i - 1))
        m[i, j] = -m[i, j] if m[i, j] == 0 else np.nextafter(m[i, j], 0.0)  # stays finite
    return m


class TestJsonWriter:
    """The C-encoder writer, and square arrays written a row at a time with
    mirrored texts reused, against json.dump(indent=2)."""

    @given(doc=_JSON_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dump(self, tmp_path_factory, doc):
        d = tmp_path_factory.mktemp("json")
        data_mod._write_json(doc, d / "written.json")
        reference_write_json(doc, d / "reference.json")
        assert (d / "written.json").read_bytes() == (d / "reference.json").read_bytes()

    @pytest.mark.parametrize("n_assets", [1, 32, 33, 46])
    def test_instance_and_universe_files_equal_json_dump(self, tmp_path, n_assets):
        # one entry, and 32 to 46 rows of mirrored texts
        symbols = [f'{i} "q", caf\u00e9\n' for i in range(n_assets)]
        spec = SyntheticSpec(n_assets=n_assets, n_factors=1, seed=n_assets)
        synthetic = generate_synthetic(spec)
        mu = synthetic.mu.copy()
        mu[0] = -0.0
        universe = AssetUniverse(tuple(symbols), mu, synthetic.sigma)
        inst = PortfolioInstance(universe, n=1, r_star=1e17, return_mode="at_least")
        doc = {
            "symbols": symbols,
            "mu": universe.mu.tolist(),
            "sigma": universe.sigma.flatten().tolist(),
        }
        save_universe(universe, tmp_path / "universe.json")
        reference_write_json(doc, tmp_path / "universe.ref.json")
        doc.update({"n": 1, "r_star": 1e17, "return_mode": "at_least"})
        save_instance(inst, tmp_path / "instance.json")
        reference_write_json(doc, tmp_path / "instance.ref.json")
        for name in ("universe", "instance"):
            written = (tmp_path / f"{name}.json").read_bytes()
            assert written == (tmp_path / f"{name}.ref.json").read_bytes()
        assert b'"mu": [\n    -0.0' in written

    @given(m=_square_matrices())
    @settings(max_examples=200, deadline=None)
    def test_square_arrays_equal_json_dump_of_flattened_list(self, tmp_path_factory, m):
        d = tmp_path_factory.mktemp("matrix")
        data_mod._write_json({"sigma": m, "n": 1}, d / "array.json")
        reference_write_json({"sigma": m.flatten().tolist(), "n": 1}, d / "reference.json")
        assert (d / "array.json").read_bytes() == (d / "reference.json").read_bytes()

    @pytest.mark.parametrize("kind", list(_SIGMAS))
    def test_sigma_kinds_in_universe_and_instance_files(self, tmp_path, kind):
        sigma = _SIGMAS[kind](tmp_path)
        n = len(sigma)
        universe = AssetUniverse(tuple(f"A{i}" for i in range(n)), np.linspace(-1.0, 5.0, n), sigma)
        assert np.array_equal(universe.sigma.view(np.int64), sigma.view(np.int64))
        inst = PortfolioInstance(universe, n=1, r_star=0.5, return_mode="equality")
        doc = _sigma_doc(universe)
        save_universe(universe, tmp_path / "universe.json")
        reference_write_json(doc, tmp_path / "universe.ref.json")
        doc.update({"n": 1, "r_star": 0.5, "return_mode": "equality"})
        save_instance(inst, tmp_path / "instance.json")
        reference_write_json(doc, tmp_path / "instance.ref.json")
        for name in ("universe", "instance"):
            assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"{name}.ref.json").read_bytes()

    def test_save_universe_peak_memory_at_400_assets(self, tmp_path):
        universe = generate_synthetic(SyntheticSpec(n_assets=400, seed=1))

        def peak(write) -> int:
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # sigma as one list of N^2 Python floats through the list writer:
        # how save_universe wrote it before rows were formatted alone
        as_list = peak(lambda: data_mod._write_json(_sigma_doc(universe), tmp_path / "list.json"))
        by_rows = peak(lambda: save_universe(universe, tmp_path / "rows.json"))
        assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "list.json").read_bytes()
        assert by_rows <= 1.1 * as_list
