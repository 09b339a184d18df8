"""The two input rules that `model.py` writes once, applied at every entry
point that takes their input: `bit_vector` (a 1-D vector of the expected
length holding only 0s and 1s) and the `r_star` presence rule of
`PortfolioInstance` (a return target is required under at_least and
equality, and reads 0.0 when not given under none)."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    BenchPlan,
    ContractViolation,
    DataFormatError,
    FlipEvaluator,
    PenaltyParams,
    PortfolioInstance,
    build_qubo,
    decode,
    load_instance,
    qubo_energy,
    run_benchmark,
    save_universe,
    solution_from_bits,
)
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

