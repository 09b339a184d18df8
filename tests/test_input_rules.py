"""The three input rules that `model.py` writes once, applied at every entry
point that takes their input: `bit_vector` (a 1-D vector of the expected
length holding only 0s and 1s), the `r_star` presence rule of
`PortfolioInstance` (a return target is required under at_least and
equality, and reads 0.0 when not given under none) and the instance
magnitude rule (N (sum |sigma| + sum |mu|) of a universe of N assets and
|r_star| at most `MAX_INSTANCE_MAGNITUDE`, so that no sum overflows)."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from portqubo import (
    AnnealConfig,
    AssetUniverse,
    BenchPlan,
    ContractViolation,
    DataFormatError,
    FlipEvaluator,
    GaConfig,
    InfeasibleInstanceError,
    PenaltyParams,
    PortfolioInstance,
    TabuConfig,
    build_qubo,
    decode,
    estimate_lambda1,
    estimate_lambda2,
    load_instance,
    load_universe,
    make_solver,
    qubo_energy,
    resolve_penalties,
    run_benchmark,
    save_universe,
    solution_from_bits,
    solve_exhaustive_subsets,
    solve_ga,
    solve_sa,
    solve_tabu,
)
from portqubo.model import RETURN_MODES
from portqubo.cli import cli_main

from conftest import ReferenceFlipEvaluator, naive_qubo_energy, naive_return, naive_risk

# mu 1, 2, 3 with n = 2 and r_star = 3 under at_least: 3 asset bits and
# 2 slack bits of weights 1 and 2, which cancel every feasible surplus
_UNIVERSE = AssetUniverse(("A", "B", "C"), [1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
_INSTANCE = PortfolioInstance(_UNIVERSE, n=2, r_star=3.0, return_mode="at_least")
_Q, _LAYOUT = build_qubo(_INSTANCE, PenaltyParams(1.0, 1.0, 1.0))


def _reset(q, bits):
    FlipEvaluator(q).reset(bits)


# (entry point, its call on a bit vector, the length it expects, its name for it)
_BIT_ENTRIES = {
    "solution_from_bits": (lambda bits: solution_from_bits(_INSTANCE, bits), 3, "asset count"),
    "qubo_energy": (lambda bits: qubo_energy(_Q, bits), 5, "QUBO dim"),
    "decode": (lambda bits: decode(_INSTANCE, _LAYOUT, bits), 5, "layout dim"),
    "FlipEvaluator": (lambda bits: FlipEvaluator(_Q, bits), 5, "QUBO dim"),
    "FlipEvaluator.reset": (lambda bits: _reset(_Q, bits), 5, "QUBO dim"),
}


def test_every_entry_point_expects_the_layout_it_names():
    assert (_LAYOUT.n_assets, _LAYOUT.n_slack, _Q.dim) == (3, 2, 5)


@pytest.mark.parametrize("entry", _BIT_ENTRIES)
@pytest.mark.parametrize("value", [2, 0.5, float("nan")], ids=["two", "half", "nan"])
@pytest.mark.parametrize("position", ["first", "last"])
def test_a_bit_that_is_not_0_or_1_is_rejected(entry, value, position):
    # under decode the first bit is an asset bit and the last a slack bit
    call, length, _ = _BIT_ENTRIES[entry]
    bits = [0.0] * length
    bits[0 if position == "first" else -1] = value
    with pytest.raises(ContractViolation, match=r"^bit vector entries must be 0 or 1$"):
        call(bits)


@pytest.mark.parametrize("entry", _BIT_ENTRIES)
@pytest.mark.parametrize(
    "shape", [lambda n: (n - 1,), lambda n: (n + 1,), lambda n: (1, n), lambda n: ()],
    ids=["short", "long", "2-D", "0-D"],
)
def test_a_vector_of_the_wrong_shape_is_rejected(entry, shape):
    call, length, what = _BIT_ENTRIES[entry]
    bits = np.zeros(shape(length))
    message = rf"^bit vector shape {re.escape(str(bits.shape))} does not match {what} {length}$"
    with pytest.raises(ContractViolation, match=message):
        call(bits)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=5, max_size=5), st.sampled_from([list, np.array]))
def test_every_entry_point_accepts_a_0_1_vector_and_agrees_with_the_references(bits, kind):
    x, y = bits[:3], bits[3:]
    sol = solution_from_bits(_INSTANCE, kind(x))
    assert sol.x == tuple(x) and sol.cardinality == sum(x)
    assert sol.risk == pytest.approx(naive_risk(_UNIVERSE.sigma, x), rel=1e-12)
    assert sol.ret == pytest.approx(naive_return(_UNIVERSE.mu, x), rel=1e-12)
    energy = naive_qubo_energy(_Q, bits)
    assert qubo_energy(_Q, kind(bits)) == pytest.approx(energy, rel=1e-12, abs=1e-12)
    decoded = decode(_INSTANCE, _LAYOUT, kind(bits))
    assert decoded.x == sol.x and decoded.risk == sol.risk
    assert decoded.provenance == {
        "slack_surplus": naive_return(_LAYOUT.slack_weights, y), "slack_bits": tuple(y)
    }
    state = FlipEvaluator(_Q, kind(bits))
    assert state.bits() == tuple(bits)
    assert state.energy == pytest.approx(energy, rel=1e-12, abs=1e-12)
    state.reset(kind(bits[::-1]))
    assert state.bits() == tuple(bits[::-1])
    assert state.energy == pytest.approx(naive_qubo_energy(_Q, bits[::-1]), rel=1e-12, abs=1e-12)


def test_a_checked_vector_is_the_evaluators_own():
    bits = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    state = ReferenceFlipEvaluator(_Q, bits)
    state.flip(1)
    assert bits.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]


def _missing_target(mode: str) -> str:
    return (
        r"PortfolioInstance: field 'r_star' must be a finite number, got no value "
        rf"\(return_mode '{mode}' needs a return target\)$"
    )


def _from_record(tmp_path, mode):
    return PortfolioInstance(_UNIVERSE, n=2, return_mode=mode).r_star


def _from_instance_file(tmp_path, mode):
    doc = {"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0],
           "n": 1, "return_mode": mode}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return load_instance(path).r_star


def _from_plan_entry(tmp_path, mode):
    entry = {"synthetic": {"n_assets": 4, "seed": 1}, "n": 2, "return_mode": mode}
    plan = BenchPlan(instances=(entry,), solvers=("exact",), seeds=(0,),
                     penalty_policy="explicit", explicit_lambda1=1.0, explicit_lambda2=0.0)
    return {row.r_star for row in run_benchmark(plan, no_timing=True).rows}.pop()


def _from_cli(command):
    def run(tmp_path, mode):
        out = tmp_path / "out.json"
        if command == "synth":
            args = ["synth", "--assets", "4"]
        else:
            save_universe(_UNIVERSE, tmp_path / "universe.json")
            args = ["make-instance", str(tmp_path / "universe.json")]
        code = cli_main([*args, "--n", "2", "--mode", mode, "-o", str(out)])
        if code:
            raise ValueError(f"exit {code}")
        return load_instance(out).r_star

    return run


_TARGET_ENTRIES = {
    "PortfolioInstance": (_from_record, ValueError, "^"),
    "load_instance": (_from_instance_file, DataFormatError, r"inst\.json: "),
    "plan entry": (_from_plan_entry, DataFormatError, r"^instance entry \{.*\}: "),
    "portqubo synth": (_from_cli("synth"), None, "^error: "),
    "portqubo make-instance": (_from_cli("make-instance"), None, "^error: "),
}


@pytest.mark.parametrize("entry", _TARGET_ENTRIES)
@pytest.mark.parametrize("mode", ["at_least", "equality"])
def test_a_missing_return_target_is_rejected(tmp_path, capsys, entry, mode):
    read, error, prefix = _TARGET_ENTRIES[entry]
    if error is None:  # a command: exit 2 and the message on stderr
        with pytest.raises(ValueError, match="^exit 2$"):
            read(tmp_path, mode)
        assert re.search(prefix + _missing_target(mode), capsys.readouterr().err.rstrip("\n"))
    else:
        with pytest.raises(error, match=prefix + _missing_target(mode)):
            read(tmp_path, mode)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("entry", _TARGET_ENTRIES)
def test_a_missing_return_target_reads_zero_under_none(tmp_path, entry):
    r_star = _TARGET_ENTRIES[entry][0](tmp_path, "none")
    assert r_star == 0.0 and type(r_star) is float


def _over_bound(what: str, value: str) -> str:
    return (
        rf"{re.escape(what)} is {re.escape(value)}, above MAX_INSTANCE_MAGNITUDE = 2\^1016 "
        r"\(about 7\.02e305\): sums could overflow$"
    )


_UNIVERSE_SUM = "universe N (sum |sigma| + sum |mu|)"

# (kind, input, message) of each probe: a universe's (mu, sigma), a return
# target over _UNIVERSE, a synthetic return range, or the prices of ingest
_MAGNITUDE_PROBES = {
    # overflowed the subset oracle's return sums
    "mu difference": (
        "universe", ([1e308, -1e308, 1e308, 0.0, 0.0, 0.0], np.eye(6)), _over_bound(_UNIVERSE_SUM, "inf")
    ),
    # overflowed the sum of estimate_lambda2's return differences
    "mu differences summed": (
        "universe", ([1e308, 0.0, 0.0, 0.0, 0.0, 0.0], np.eye(6)), _over_bound(_UNIVERSE_SUM, "inf")
    ),
    # overflowed estimate_lambda1, solution_from_bits and the subset oracle
    "sigma": ("universe", ([1.0, 2.0, 3.0], np.full((3, 3), 1e308)), _over_bound(_UNIVERSE_SUM, "inf")),
    # within the bound without its factor N, and overflowed estimate_lambda2 at n = 512
    "N assets": (
        "universe", (np.resize([2.0**1007, -(2.0**1007)], 512), np.eye(512)),
        _over_bound(_UNIVERSE_SUM, "inf"),
    ),
    "r_star": ("r_star", 1e307, _over_bound("PortfolioInstance: |r_star|", "1e+307")),
    "return_range": ("synthetic", [0, 1e308], _over_bound(_UNIVERSE_SUM, "inf")),
    # a period return of 2e153: a finite variance of 2e306
    "prices": ("prices", "d0,1\nd1,2e151\nd2,1\n", _over_bound(_UNIVERSE_SUM, "2e+306")),
    # a period return of 1e302 %: its variance overflows
    "prices overflowing": ("prices", "d0,1e-300\nd1,1e300\nd2,1\n", "sigma has non-finite entries$"),
}


def _instance_doc(kind, value) -> dict:
    """An instance file's fields: the probe's universe, or _UNIVERSE with the
    probe's return target."""
    if kind == "universe":
        mu, sigma = value
        return {"symbols": [f"A{i}" for i in range(len(mu))], "mu": list(mu),
                "sigma": np.asarray(sigma).ravel().tolist(), "n": 1, "return_mode": "none"}
    return {"symbols": list(_UNIVERSE.symbols), "mu": _UNIVERSE.mu.tolist(),
            "sigma": _UNIVERSE.sigma.ravel().tolist(), "n": 1, "r_star": value,
            "return_mode": "at_least"}


def _write_doc(tmp_path, kind, value):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_doc(kind, value)))
    return path


def _magnitude_record(tmp_path, kind, value):
    doc = _instance_doc(kind, value)
    sigma = np.reshape(doc["sigma"], (len(doc["mu"]),) * 2)
    universe = AssetUniverse(doc["symbols"], doc["mu"], sigma)
    return PortfolioInstance(universe, 1, doc.get("r_star"), doc["return_mode"])


def _run_plan_entry(entry):
    return run_benchmark(BenchPlan(instances=(entry,), solvers=("exact",), seeds=(0,)))


def _magnitude_plan_inline(tmp_path, kind, value):
    if kind == "r_star":
        entry = {"synthetic": {"n_assets": 4}, "n": 2, "r_star": value, "return_mode": "at_least"}
    else:
        entry = {"synthetic": {"n_assets": 4, "return_range": value}, "n": 2}
    return _run_plan_entry(entry)


def _magnitude_cli(command):
    def run(tmp_path, kind, value):
        if command == "ingest":
            (tmp_path / "prices.csv").write_text("date,A\n" + value)
            args = ["ingest", str(tmp_path / "prices.csv")]
        elif command == "build":
            args = ["build", str(_write_doc(tmp_path, kind, value)), "--estimate"]
        else:
            source = (["synth", "--assets", "4"] if command == "synth"
                      else ["make-instance", str(_write_doc(tmp_path, kind, value))])
            target = ["--mode", "at_least", "--r-star", str(value)] if kind == "r_star" else []
            args = [*source, "--n", "1", *target]
        code = cli_main([*args, "-o", str(tmp_path / "out.json")])
        if code:
            raise ValueError(f"exit {code}")

    return run


_FILE = r"inst\.json: "
_ENTRY = r"^instance entry \{.*\}: "

# (entry point, its call on a probe, the source it names before the message
# for each probe kind it takes, its error; None for a command)
_MAGNITUDE_ENTRIES = {
    "AssetUniverse": (_magnitude_record, {"universe": "^"}, ValueError),
    "PortfolioInstance": (_magnitude_record, {"r_star": "^"}, ValueError),
    "load_universe": (lambda tmp_path, *probe: load_universe(_write_doc(tmp_path, *probe)),
                      {"universe": _FILE}, DataFormatError),
    "load_instance": (lambda tmp_path, *probe: load_instance(_write_doc(tmp_path, *probe)),
                      {"universe": _FILE, "r_star": _FILE}, DataFormatError),
    "plan entry (file)": (lambda tmp_path, *probe: _run_plan_entry(str(_write_doc(tmp_path, *probe))),
                          {"universe": _FILE, "r_star": _FILE}, DataFormatError),
    "plan entry (inline)": (_magnitude_plan_inline, {"synthetic": _ENTRY, "r_star": _ENTRY},
                            DataFormatError),
    "portqubo synth": (_magnitude_cli("synth"), {"r_star": "^error: "}, None),
    "portqubo make-instance": (_magnitude_cli("make-instance"),
                               {"universe": "^error: .*" + _FILE, "r_star": "^error: "}, None),
    "portqubo build --estimate": (_magnitude_cli("build"),
                                  {"universe": "^error: .*" + _FILE, "r_star": "^error: .*" + _FILE},
                                  None),
    "portqubo ingest": (_magnitude_cli("ingest"), {"prices": "^error: "}, None),
}

_MAGNITUDE_ROWS = [
    (entry, probe)
    for entry, (_, sources, _) in _MAGNITUDE_ENTRIES.items()
    for probe, (kind, _, _) in _MAGNITUDE_PROBES.items()
    if kind in sources
]


@pytest.mark.parametrize(("entry", "probe"), _MAGNITUDE_ROWS)
def test_an_input_whose_sums_could_overflow_is_named(tmp_path, capsys, entry, probe):
    call, sources, error = _MAGNITUDE_ENTRIES[entry]
    kind, value, message = _MAGNITUDE_PROBES[probe]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:  # a command: exit 2 and the message on stderr
            with pytest.raises(ValueError, match="^exit 2$"):
                call(tmp_path, kind, value)
            assert re.search(sources[kind] + message, capsys.readouterr().err.rstrip("\n"))
        else:
            with pytest.raises(error, match=sources[kind] + message):
                call(tmp_path, kind, value)
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "out.json").exists()


def test_every_magnitude_entry_and_probe_has_a_row():
    # a misspelt kind would drop its rows silently
    assert {entry for entry, _ in _MAGNITUDE_ROWS} == set(_MAGNITUDE_ENTRIES)
    assert {probe for _, probe in _MAGNITUDE_ROWS} == set(_MAGNITUDE_PROBES)


def _largest_accepted(make) -> float:
    """The largest float t >= 1 for which ``make(t)`` raises no ValueError,
    bisecting the bit patterns of the floats from 1 to inf, which order as
    the floats do; ``make(1.0)`` must not raise."""
    lo, hi = np.array([1.0, math.inf]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            make(float(np.array(mid).view(np.float64)))
            lo = mid
        except ValueError:
            hi = mid
    return float(np.array(lo).view(np.float64))


@st.composite
def _shapes(draw):
    """(mu, sigma, scaled, n, return_mode, target, penalties, bits): returns
    and a positive semidefinite sigma = diag(d) + vv' of moderate entries,
    which part the bound scales up ("mu", "sigma" or "both"), and an
    instance's fields, its target "zero", "low" or "high"."""
    size = draw(st.integers(1, 6))
    entries = st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)
    mu, v = draw(entries), draw(entries)
    d = draw(st.lists(st.floats(0, 1e3), min_size=size, max_size=size))
    return (
        np.array(mu), np.diag(d) + np.outer(v, v),
        draw(st.sampled_from(["mu", "sigma", "both"])), draw(st.integers(1, size)),
        draw(st.sampled_from(RETURN_MODES)), draw(st.sampled_from(["zero", "low", "high"])),
        draw(st.sampled_from(["estimate", "unit"])),
        draw(st.lists(st.sampled_from([0, 1]), min_size=size, max_size=size)),
    )


def _accepts(make) -> bool:
    try:
        make(1.0)
    except ValueError:
        return False
    return True


def _instance_at_the_bound(shape) -> PortfolioInstance:
    """The shape's instance with the part it names scaled by the largest
    factor the universe rule accepts, and a target 0 or -+ the largest
    magnitude the instance rule accepts."""
    mu, sigma, scaled, n, mode, target, *_ = shape
    symbols = [f"A{i}" for i in range(len(mu))]

    def universe(t):
        with np.errstate(over="ignore", invalid="ignore"):  # the universe names an inf
            return AssetUniverse(symbols, mu * t if scaled != "sigma" else mu,
                                 sigma * t if scaled != "mu" else sigma)

    assume(_accepts(universe))
    at_bound = universe(_largest_accepted(universe))
    r_star = 0.0
    if target != "zero":
        r_star = _largest_accepted(lambda t: PortfolioInstance(at_bound, n, t, mode))
        r_star = -r_star if target == "low" else r_star
    return PortfolioInstance(at_bound, n, r_star, mode)


# the largest returns the rule allows over 512 assets: estimate_lambda2 sums
# the 65,536 positive differences of all of them
_N_ASSETS_AT_THE_BOUND = (
    np.resize([1.0, -1.0], 512), np.eye(512), "mu", 512, "at_least", "low", "estimate", [1] * 512
)


@settings(max_examples=60, deadline=None)
@given(_shapes())
@example(_N_ASSETS_AT_THE_BOUND)
def test_sums_stay_finite_at_the_magnitude_bound(shape):
    instance = _instance_at_the_bound(shape)
    *_, penalties, bits = shape
    n_assets = instance.n_assets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", UserWarning)  # build_qubo's slack-bit warning
        assert math.isfinite(estimate_lambda1(instance))
        # A1 / A2 is a quotient, which no magnitude bound keeps finite; the
        # estimate names one that overflows
        try:
            lambda2 = estimate_lambda2(instance)
            assert math.isfinite(lambda2) and lambda2 >= 0.0
        except ValueError as exc:
            assert str(exc).startswith("lambda2 estimate A1/A2 = ")
        for x in (bits, [1] * n_assets):
            sol = solution_from_bits(instance, x)
            assert math.isfinite(sol.risk) and math.isfinite(sol.ret)
        try:
            best = solve_exhaustive_subsets(instance)
            assert best.feasible and math.isfinite(best.risk)
        except InfeasibleInstanceError:
            pass
        try:
            if penalties == "estimate":
                params = resolve_penalties(instance, "estimate")
            else:
                params = PenaltyParams(1.0, 1.0, 0.0 if instance.return_mode == "none" else 1.0)
            q, layout = build_qubo(instance, params)
        except ValueError:  # a rule that build_qubo or PenaltyParams names
            return
        results = [
            solve_sa(q, AnnealConfig(sweeps=2, restarts=1)),
            solve_tabu(q, TabuConfig(max_iterations=4, restarts=1)),
            solve_ga(q, GaConfig(population=4, generations=2)),
        ]
        if q.dim <= 12:
            results.append(make_solver("exact")(q, 0))
        for result in results:
            sol = decode(instance, layout, result.bits, energy=result.energy)
            assert all(map(math.isfinite, (result.energy, sol.risk, sol.ret)))
