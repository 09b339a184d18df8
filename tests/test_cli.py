import csv
import json

import numpy as np
import pytest

from portqubo import (
    AssetUniverse,
    PenaltyParams,
    PortfolioInstance,
    QuboMatrix,
    SolveResult,
    SyntheticSpec,
    build_qubo,
    decode,
    generate_synthetic,
    grid_search,
    load_instance,
    make_solver,
    read_qubo,
    save_instance,
    save_universe,
    solution_from_bits,
    write_qubo,
)
from portqubo import cli as cli_mod
from portqubo import solvers as solvers_mod
from portqubo import tuning as tuning_mod
from portqubo.cli import cli_main

from conftest import overflowing_lambda2_instance, straddling_instance


@pytest.fixture
def diag_instance(tmp_path):
    universe = AssetUniverse(("A", "B", "C"), [1.0, 1.0, 1.0], np.diag([1.0, 2.0, 3.0]))
    inst = PortfolioInstance(universe, n=1)
    path = tmp_path / "diag.json"
    save_instance(inst, path)
    return path


@pytest.fixture
def synth_instance(tmp_path):
    rng = np.random.default_rng(7)
    factors = np.abs(rng.standard_normal((16, 8)))
    sigma = factors.T @ factors / 16 + 0.1 * np.eye(8)
    mu = rng.uniform(1.0, 3.0, 8)
    universe = AssetUniverse(tuple(f"S{i}" for i in range(8)), mu, sigma)
    inst = PortfolioInstance(universe, n=3)
    path = tmp_path / "synth.json"
    save_instance(inst, path)
    return path


def test_no_arguments_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_solve_exact_diag_example(diag_instance, capsys):
    assert cli_main(["solve", str(diag_instance), "--solver", "exact"]) == 0
    out = capsys.readouterr().out
    assert "x=[1, 0, 0]" in out
    assert "risk=1" in out


@pytest.mark.parametrize("mode", ["at_least", "equality"])
@pytest.mark.parametrize("meets", [True, False])
def test_solve_exact_on_a_return_boundary_answers_a_feasible_subset(tmp_path, mode, meets, capsys):
    # the least-risk subset meets the target by the model's sum and not by
    # the sum over its assets, or the other way round
    rng = np.random.default_rng(5)
    inst, x = straddling_instance(rng, mode)
    while solution_from_bits(inst, x).feasible != meets:
        inst, x = straddling_instance(rng, mode)
    save_instance(inst, tmp_path / "boundary.json")
    code = cli_main(["solve", str(tmp_path / "boundary.json"), "--solver", "exact"])
    captured = capsys.readouterr()
    if code == 3:
        # no other subset meets an equality target
        assert not meets and captured.err.startswith("infeasible:")
    else:
        assert code == 0
        out = captured.out.splitlines()
        assert out[1].endswith(" feasible=True")
        assert (out[0] == f"x={x.tolist()}") == meets


def test_missing_file_is_data_error(capsys):
    assert cli_main(["solve", "no-such-file.json", "--solver", "exact"]) == 2


def test_infeasible_instance_exit_code(tmp_path, capsys):
    universe = AssetUniverse(("A", "B"), [1.0, 1.0], np.eye(2))
    inst = PortfolioInstance(universe, n=2, r_star=10.0, return_mode="at_least")
    path = tmp_path / "inf.json"
    save_instance(inst, path)
    assert cli_main(["solve", str(path), "--solver", "exact"]) == 3


def test_non_finite_r_star_is_data_error(diag_instance, tmp_path, capsys):
    doc = json.loads(diag_instance.read_text())
    doc.update(return_mode="at_least", r_star=float("nan"))
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert cli_main(["solve", str(path), "--solver", "exact"]) == 2
    assert "r_star" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body", ["p qubo 2 2 nan\n0 0 1\n0 1 1\n", "p qubo 2 2 0\n0 0 nan\n0 1 inf\n"]
)
def test_non_finite_qubo_file_is_data_error(tmp_path, capsys, body):
    path = tmp_path / "that.qubo"
    path.write_text(body)
    assert cli_main(["solve", str(path), "--solver", "tabu"]) == 2
    assert "that.qubo:" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["sa", "tabu", "ga"])
@pytest.mark.parametrize(
    "body",
    [
        "p qubo 2 3 0\n0 0 1e308\n0 1 1e308\n1 1 1e308\n",
        "p qubo 3 3 0\n0 0 1e308\n1 1 1e308\n2 2 -1\n",
    ],
)
def test_qubo_file_whose_energies_overflow_is_data_error(tmp_path, capsys, solver, body):
    # finite coefficients whose magnitudes sum to inf, so SA's temperature
    # estimate, and energies and gains in general, could overflow
    path = tmp_path / "huge.qubo"
    path.write_text(body)
    assert cli_main(["solve", str(path), "--solver", solver]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: QUBO |coefficient| sum plus |offset| is inf, above "
        "MAX_QUBO_MAGNITUDE = 2^1016 (about 7.02e305): energies could overflow\n"
    )


@pytest.mark.parametrize(
    "body, message",
    [
        ("p qubo 2 1 0\n0 x 1.5\n", "bad.qubo:2: column index 'x' is not an integer"),
        ("p qubo 2 1 0\n0 5 1.5\n", "bad.qubo:2: coefficient index (0, 5) out of range"),
        ("p qubo 2 1 0\n1 0 1.5\n", "bad.qubo:2: coefficient index (1, 0) is below"),
        ("p qubo two 1 0\n0 1 1.5\n", "bad.qubo:1: dim 'two' is not an integer"),
    ],
)
def test_malformed_qubo_file_is_data_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.qubo"
    path.write_text(body)
    assert cli_main(["solve", str(path), "--solver", "tabu"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lambda1", "--lambda2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_penalty_is_data_error(synth_instance, capsys, flag, value):
    assert cli_main(["solve", str(synth_instance), "--solver", "sa", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"PenaltyParams: field '{flag[2:]}' must be a non-negative finite number, got {value}" in err


def test_ingest_make_instance_flow(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "date,AAA,BBB\n2020-Q1,100,200\n2020-Q2,110,190\n2020-Q3,120,210\n"
    )
    universe_path = tmp_path / "universe.json"
    assert cli_main(["ingest", str(prices), "-o", str(universe_path)]) == 0
    inst_path = tmp_path / "inst.json"
    assert (
        cli_main(
            ["make-instance", str(universe_path), "--n", "1", "-o", str(inst_path)]
        )
        == 0
    )
    doc = json.loads(inst_path.read_text())
    assert doc["n"] == 1


def test_synth_build_solve_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert (
        cli_main(
            ["synth", "--assets", "8", "--seed", "3", "--n", "3", "-o", str(inst_path)]
        )
        == 0
    )
    qubo_path = tmp_path / "q.qubo"
    assert (
        cli_main(["build", str(inst_path), "--estimate", "-o", str(qubo_path)]) == 0
    )
    out = capsys.readouterr().out
    assert "estimated lambda1=" in out
    q = read_qubo(qubo_path)
    assert q.dim == 8
    assert cli_main(["solve", str(qubo_path), "--solver", "exact"]) == 0
    out = capsys.readouterr().out
    assert "energy=" in out


def test_solve_sa_on_instance(synth_instance, capsys):
    code = cli_main(
        [
            "solve", str(synth_instance),
            "--solver", "sa",
            "--lambda1", "50",
            "--lambda2", "0",
            "--restarts", "2",
        ]
    )
    assert code == 0
    assert "feasible=True" in capsys.readouterr().out


def test_sweep_writes_csv(synth_instance, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep",
            str(synth_instance),
            "--lambda1-from", "0",
            "--lambda1-to", "50",
            "--points", "5",
            "-o", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("lambda1,")
    assert len(lines) == 6


def test_sweep_reports_failed_points_and_exits_2(tmp_path, capsys):
    universe = generate_synthetic(SyntheticSpec(n_assets=30, seed=2))
    path = tmp_path / "big.json"
    save_instance(PortfolioInstance(universe, n=3), path)
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", str(path), "--lambda1-from", "0", "--lambda1-to", "1", "--points", "3"]
    assert cli_main(argv + ["-o", str(out_path)]) == 2
    guard = "dim 30 exceeds the brute-force guard 24"
    assert capsys.readouterr().err.splitlines() == [
        f"error: lambda1=0: {guard}",
        f"error: lambda1=0.5: {guard}",
        f"error: lambda1=1: {guard}",
    ]
    rows = out_path.read_text().splitlines()[1:]
    assert [row.split(",")[4:6] for row in rows] == [["nan", "false"]] * 3


def test_sweep_rows_carry_lambda2(synth_instance, tmp_path, capsys):
    inst = load_instance(synth_instance)
    r_star = float(np.sort(inst.universe.mu)[-3:].sum())
    path = tmp_path / "equality.json"
    save_instance(PortfolioInstance(inst.universe, n=3, r_star=r_star, return_mode="equality"), path)
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", str(path), "--lambda1-from", "0", "--lambda1-to", "50", "--points", "4"]
    assert cli_main(argv + ["--lambda2", "3", "-o", str(out_path)]) == 0
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 4
    assert [row["lambda2"] for row in rows] == ["3"] * 4


def test_tune_output_is_the_cells_runs_in_order(synth_instance, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    argv = ["tune", str(synth_instance), "--solver", "exact", "--repeats", "2"]
    assert cli_main(argv + ["--grid1", "0", "20", "--grid2", "0", "-o", str(grid_path)]) == 0
    _, cells, _ = grid_search(
        load_instance(synth_instance), make_solver("exact"), [0.0, 20.0], [0.0], repeats=2
    )
    rows = [line.split(",") for line in grid_path.read_text().splitlines()[1:]]
    assert [row[:6] for row in rows] == [
        [f"{r.lambda1:.17g}", f"{r.lambda2:.17g}", str(r.seed), f"{r.energy:.17g}",
         f"{r.risk:.17g}", str(r.feasible).lower()]
        for cell in cells
        for r in cell.runs
    ]


def test_tune_records_failed_runs_writes_the_grid_and_exits_2(synth_instance, tmp_path, capsys):
    # a lambda1 of 1e308 gives an infinite QUBO offset: its cell fails to build
    grid_path = tmp_path / "grid.csv"
    argv = ["tune", str(synth_instance), "--solver", "tabu", "--repeats", "2"]
    assert cli_main(argv + ["--grid1", "10", "1e308", "--grid2", "0", "-o", str(grid_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "best lambda1=10 lambda2=0 feasible=True\n"
    message = "QUBO offset must be finite, got inf"
    assert err.splitlines() == [
        f"error: lambda1=1e+308 lambda2=0 seed {seed}: {message}" for seed in (0, 1)
    ]
    rows = [line.split(",") for line in grid_path.read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        ["10", "0", "0"], ["10", "0", "1"],
        ["1e+308", "0", "0"], ["1e+308", "0", "1"],
    ]
    assert [row[4:6] for row in rows[2:]] == [["nan", "false"]] * 2


def test_tune_and_report_flow(synth_instance, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    code = cli_main(
        [
            "tune", str(synth_instance),
            "--solver", "exact",
            "--repeats", "1",
            "-o", str(grid_path),
        ]
    )
    assert code == 0
    assert "best lambda1=" in capsys.readouterr().out

    plan = {
        "instances": [
            {"synthetic": {"n_assets": 8, "seed": 4}, "n": 3, "return_mode": "none",
             "id": "cli-bench"}
        ],
        "solvers": [{"name": "sa", "options": {"sweeps": 50, "restarts": 2}}],
        "seeds": [0, 1],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    report_path = tmp_path / "report.csv"
    assert cli_main(["bench", str(plan_path), "--no-timing", "-o", str(report_path)]) == 0
    md_path = tmp_path / "report.md"
    assert cli_main(["report", str(report_path), "--format", "markdown", "-o", str(md_path)]) == 0
    assert md_path.read_text().startswith("| instance |")


def _plan_text(**overrides) -> str:
    plan = {
        "instances": [{"synthetic": {"n_assets": 6, "seed": 1}, "n": 2, "id": "p"}],
        "solvers": [{"name": "sa", "options": {"sweeps": 20, "restarts": 1}}],
        "seeds": [0],
    }
    plan.update(overrides)
    return json.dumps(plan)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{path}", "--solver", "exact"],
        ["make-instance", "{path}", "--n", "1", "-o", "{out}"],
        ["bench", "{path}"],
    ],
)
@pytest.mark.parametrize("text", ["5", "[1]", "{"])
def test_non_object_or_invalid_json_is_data_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [a.format(path=path, out=tmp_path / "out.json") for a in argv]
    assert cli_main(argv) == 2
    assert f"{path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 1.0]}, "sigma"),
        ({"symbols": ["A", "B"], "mu": ["x", 2.0], "sigma": [1.0, 0.0, 0.0, 1.0]}, "mu"),
        ({"symbols": "AB", "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0]}, "symbols"),
    ],
)
def test_malformed_universe_is_data_error(tmp_path, capsys, doc, field):
    path = tmp_path / "universe.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["make-instance", str(path), "--n", "1", "-o", str(tmp_path / "i.json")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and field in err


@pytest.mark.parametrize("factor", ["nan", "inf", "0"])
def test_make_instance_names_a_bad_scale_factor(tmp_path, capsys, factor):
    path = tmp_path / "universe.json"
    path.write_text(json.dumps({"symbols": ["A", "B"], "mu": [1.0, 2.0], "sigma": [1.0, 0.0, 0.0, 1.0]}))
    argv = ["make-instance", str(path), "--n", "1", "--scale-mu", factor, "-o", str(tmp_path / "i.json")]
    assert cli_main(argv) == 2
    assert "scale factor must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"instances": [{"synthetic": {"seed": 1}, "n": 2}]}, "missing field 'n_assets'"),
        ({"instances": [{"synthetic": {"n_assets": 6}}]}, "missing field 'n'"),
        ({"solvers": [{"options": {"sweeps": 20}}]}, "missing field 'name'"),
        ({"solvers": [{"name": "sa", "options": {"sweep": 20}}]}, "solver 'sa' has no option 'sweep'"),
        ({"solvers": [{"name": "exact", "options": {"sweeps": 20}}]}, "solver 'exact' has no option"),
    ],
)
def test_malformed_plan_entry_is_data_error(tmp_path, capsys, overrides, message):
    path = tmp_path / "plan.json"
    path.write_text(_plan_text(**overrides))
    assert cli_main(["bench", str(path), "--no-timing"]) == 2
    assert message in capsys.readouterr().err


_SYNTH = {"n_assets": 6, "seed": 1}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"instances": 5}, "field 'instances'"),
        ({"seeds": 5}, "field 'seeds'"),
        ({"seeds": ["a"]}, "field 'seeds'"),
        ({"instances": [{"synthetic": {**_SYNTH, "return_range": 5}, "n": 2}]}, "'return_range'"),
        ({"instances": [{"synthetic": _SYNTH, "n": [2]}]}, "field 'n'"),
        ({"instances": [{"synthetic": _SYNTH, "n": 1.7}]}, "field 'n'"),
        ({"instances": [{"synthetic": {**_SYNTH, "n_assets": 6.5}, "n": 2}]}, "field 'n_assets'"),
        ({"solvers": [{"name": "sa", "options": [1]}]}, "'options'"),
    ],
)
def test_plan_field_of_wrong_type_is_data_error(tmp_path, capsys, overrides, message):
    path = tmp_path / "plan.json"
    path.write_text(_plan_text(**overrides))
    assert cli_main(["bench", str(path), "--no-timing"]) == 2  # no exception leaves cli_main
    err = capsys.readouterr().err
    assert message in err
    assert str(path) in err or "entry" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"synthetic": _SYNTH, "n": 9}, "n must be in [1, 6], got 9"),
        ({"synthetic": _SYNTH, "n": 2, "return_mode": "most"}, "return_mode must be one of"),
        ({"synthetic": {**_SYNTH, "n_assets": 0}, "n": 2},
         "SyntheticSpec: field 'n_assets' must be a whole number of at least 1, got 0"),
        ({"synthetic": {**_SYNTH, "return_range": [0, 1e309]}, "n": 2},
         "SyntheticSpec: a bound of field 'return_range' must be a finite number, got inf\n"),
        ({"synthetic": {**_SYNTH, "return_range": ["0", "10"]}, "n": 2},
         "SyntheticSpec: a bound of field 'return_range' must be a finite number, got '0'\n"),
        # finite bounds, but numpy's uniform cannot draw over high - low = inf
        ({"synthetic": {**_SYNTH, "return_range": [-1e308, 1e308]}, "n": 2},
         "SyntheticSpec: field 'return_range' must have low < high and a finite high - low, "
         "got (-1e+308, 1e+308)\n"),
        # a universe whose returns the instance magnitude rule rejects
        ({"synthetic": {**_SYNTH, "return_range": [0, 1e308]}, "n": 2},
         "universe N (sum |sigma| + sum |mu|) is "),
    ],
)
def test_plan_entry_the_model_rejects_is_named(tmp_path, capsys, entry, message):
    path = tmp_path / "plan.json"
    path.write_text(_plan_text(instances=[entry]))
    assert cli_main(["bench", str(path), "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert f"error: instance entry {entry!r}: " in err and message in err


def test_failed_runs_are_reported_and_exit_2(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(
        _plan_text(
            instances=[{"synthetic": {"n_assets": 30, "seed": 1}, "n": 3, "id": "big"}],
            solvers=["exact", {"name": "sa", "options": {"sweeps": 5, "restarts": 1}}],
            seeds=[0, 1],
        )
    )
    out = tmp_path / "report.csv"
    assert cli_main(["bench", str(path), "--no-timing", "-o", str(out)]) == 2
    guard = "dim 30 exceeds the brute-force guard 24"
    assert capsys.readouterr().err.splitlines() == [
        f"error: big/exact/seed 0: {guard}",
        f"error: big/exact/seed 1: {guard}",
    ]
    rows = out.read_text().splitlines()
    # the whole report is still written: header, 2 exact, 2 sa and the oracle row
    assert len(rows) == 6
    assert rows[1].startswith("big,30,3,0,30,") and rows[1].endswith(",exact,0,nan,nan,nan,false,,0")


def test_solver_error_on_a_qubo_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "big.qubo"
    write_qubo(QuboMatrix(30, {(0, 29): 1.0}), path)
    assert cli_main(["solve", str(path), "--solver", "exact"]) == 2  # nothing raised
    assert "dim 30 exceeds the brute-force guard 24" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, entries",
    [
        (
            {"instances": [{"synthetic": _SYNTH, "n": 2, "id": "x"},
                           {"synthetic": _SYNTH, "n": 3, "id": "x"}]},
            "instance entries {'synthetic': {'n_assets': 6, 'seed': 1}, 'n': 2, 'id': 'x'} and "
            "{'synthetic': {'n_assets': 6, 'seed': 1}, 'n': 3, 'id': 'x'} have the same id 'x'",
        ),
        (
            {"solvers": ["sa", {"name": "sa", "options": {"sweeps": 5}}]},
            "solver entries 'sa' and {'name': 'sa', 'options': {'sweeps': 5}} have the same id 'sa'",
        ),
        (
            {"solvers": [{"name": "sa", "id": "sa*"}]},
            "solver entry {'name': 'sa', 'id': 'sa*'}: id 'sa*' would read as a report marker "
            "(the id 'oracle', or one ending in '*' or '(ext)')",
        ),
        (
            {"solvers": ["sa", {"name": "tabu", "id": "oracle"}]},
            "solver entry {'name': 'tabu', 'id': 'oracle'}: id 'oracle' would read as a report "
            "marker (the id 'oracle', or one ending in '*' or '(ext)')",
        ),
        (
            {"solvers": [{"name": "sa", "id": "cplex(ext)"}]},
            "solver entry {'name': 'sa', 'id': 'cplex(ext)'}: id 'cplex(ext)' would read as a "
            "report marker (the id 'oracle', or one ending in '*' or '(ext)')",
        ),
        (
            {"instances": [{"synthetic": _SYNTH, "n": 2, "id": "\ud800"}]},
            "instance entry {'synthetic': {'n_assets': 6, 'seed': 1}, 'n': 2, 'id': '\\ud800'}: "
            "id '\\ud800' is not UTF-8 text",
        ),
    ],
)
def test_plan_ids_that_would_break_the_report_are_data_errors(
    tmp_path, capsys, overrides, entries
):
    path = tmp_path / "plan.json"
    path.write_text(_plan_text(**overrides))
    out = tmp_path / "report.csv"
    assert cli_main(["bench", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {entries}\n"
    assert not out.exists()


def test_fractional_n_in_instance_file_is_data_error(diag_instance, capsys):
    doc = json.loads(diag_instance.read_text())
    doc["n"] = 1.7
    diag_instance.write_text(json.dumps(doc))
    assert cli_main(["solve", str(diag_instance), "--solver", "exact"]) == 2
    message = "PortfolioInstance: field 'n' must be a whole number of at least 1, got 1.7"
    assert f"{diag_instance}: {message}" in capsys.readouterr().err


def test_sidecar_next_to_its_plan(tmp_path, capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "ext.csv").write_text("instance,solver,risk\np,cplex,0.25\n")
    (sub / "plan.json").write_text(_plan_text(external_results="ext.csv"))
    out = tmp_path / "report.csv"
    assert cli_main(["bench", str(sub / "plan.json"), "--no-timing", "-o", str(out)]) == 0
    assert "\np,0,0,0,0,0,0,cplex(ext),,nan,0.25,nan,true," in out.read_text()


@pytest.mark.parametrize(
    "text, message",
    [
        ("instance,solver,return\np,cplex,5\n", "risk"),
        ("instance,solver,risk\np,cplex\n", "ext.csv:2:"),
        ("instance,solver,risk\np,cplex,low\n", "ext.csv:2: column 'risk'"),
    ],
)
def test_sidecar_fault_is_data_error(tmp_path, capsys, text, message):
    (tmp_path / "ext.csv").write_text(text)
    path = tmp_path / "plan.json"
    path.write_text(_plan_text(external_results="ext.csv"))
    assert cli_main(["bench", str(path), "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert message in err and str(tmp_path / "ext.csv") in err


@pytest.fixture
def bench_report(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(_plan_text())
    report = tmp_path / "report.csv"
    assert cli_main(["bench", str(plan), "--no-timing", "-o", str(report)]) == 0
    return report


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda line: line.split(",", 1)[0], ":2: 1 cells, expected 15"),
        (lambda line: line.replace(",true,", ",x,").replace(",false,", ",x,"), ":2: column 'feasible'"),
        (lambda line: ",".join(line.split(",")[:10] + ["low"] + line.split(",")[11:]),
         ":2: column 'risk'"),
    ],
)
def test_malformed_report_is_data_error(bench_report, capsys, mutate, message):
    header, first, *rest = bench_report.read_text().split("\n")
    bench_report.write_text("\n".join([header, mutate(first), *rest]))
    capsys.readouterr()
    assert cli_main(["report", str(bench_report), "--format", "markdown"]) == 2
    assert f"{bench_report}{message}" in capsys.readouterr().err


def test_markdown_report_of_external_only_instance(tmp_path, capsys):
    path = tmp_path / "report.csv"
    path.write_text(
        "instance,N,n,r_star,qubo_dim,lambda1,lambda2,solver,seed,energy,risk,return,"
        "feasible,gap_percent,wall_time_s\nx,0,0,0,0,0,0,cplex(ext),,nan,0.5,nan,true,0,0\n"
    )
    assert cli_main(["report", str(path), "--format", "markdown"]) == 0
    assert "| x | - | - | - | - | 0.5 | 0.5(ext) |" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--restarts"],
        ["tune", "--repeats"],
        ["sweep", "--lambda1-from", "0", "--lambda1-to", "1", "--points"],
    ],
)
@pytest.mark.parametrize("value, shown", [("0", "0"), ("-2", "'-2'"), ("x", "'x'")])
def test_count_flag_below_one_is_usage_error(tmp_path, capsys, argv, value, shown):
    command, *options = argv
    missing = tmp_path / "missing.json"  # a usage error is raised before any file is read
    assert cli_main([command, str(missing), *options, value]) == 1
    err = capsys.readouterr().err
    assert f"error: argument {options[-1]}: must be a whole number of at least 1, got {shown}\n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x.json", "--solver", "ga", "--lambda1", "5"],
        ["solve", "x.json", "--solver", "exact"],
        ["synth", "--assets", "8", "--n", "3", "-o", "x.json"],
        ["sweep", "x.json", "--lambda1-from", "0", "--lambda1-to", "1"],
    ],
)
@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_seed_flag_below_zero_is_usage_error(tmp_path, capsys, argv, value):
    # a usage error is raised before any file is read or written
    argv = [str(tmp_path / a) if a == "x.json" else a for a in argv]
    assert cli_main([*argv, "--seed", value]) == 1
    err = capsys.readouterr().err
    assert f"error: argument --seed: must be a whole number of at least 0, got {value!r}" in err
    assert not list(tmp_path.iterdir())


def test_build_overflow_is_named_without_a_warning(synth_instance, tmp_path, capsys):
    # the penalty terms overflow; the QUBO names the fault and numpy warns of nothing
    assert cli_main(["build", str(synth_instance), "--lambda1", "1e308", "-o", str(tmp_path / "q")]) == 2
    assert capsys.readouterr().err == "error: QUBO offset must be finite, got inf\n"


_OVER_BOUND = (
    "universe N (sum |sigma| + sum |mu|) is inf, above MAX_INSTANCE_MAGNITUDE = 2^1016 "
    "(about 7.02e305): sums could overflow"
)


@pytest.fixture
def huge_mu_instance(tmp_path):
    """An at_least instance file whose returns sum to inf - inf in the return
    penalty, above the instance magnitude rule, so no record can write it."""
    doc = {
        "symbols": list("ABCDEF"),
        "mu": [1e308, -1e308, 1e308, 0.0, 0.0, 0.0],
        "sigma": np.eye(6).ravel().tolist(),
        "n": 2,
        "r_star": 1.0,
        "return_mode": "at_least",
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


def test_return_penalty_nan_is_named_without_a_numpy_warning(huge_mu_instance, tmp_path, capsys):
    # the instance rule names the returns before a build sums them
    argv = ["build", str(huge_mu_instance), "--lambda1", "1", "--lambda2", "1", "-o", str(tmp_path / "q")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"error: {huge_mu_instance}: {_OVER_BOUND}\n"
    assert not (tmp_path / "q").exists()


def test_return_difference_overflow_in_the_estimate_is_named(huge_mu_instance, tmp_path, capsys):
    # the estimate read 0 and dropped the return penalty after a numpy warning
    argv = ["build", str(huge_mu_instance), "--estimate", "-o", str(tmp_path / "q")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"error: {huge_mu_instance}: {_OVER_BOUND}\n"
    assert not (tmp_path / "q").exists()


def test_scaled_mu_overflow_is_named_without_a_numpy_warning(huge_mu_instance, tmp_path, capsys):
    # an in-bound universe whose mu * 1e307 overflows before any record sees it
    universe = AssetUniverse(("A", "B"), [100.0, 1.0], np.eye(2))
    save_universe(universe, tmp_path / "universe.json")
    scaled = tmp_path / "scaled.json"
    for path, err in [
        (tmp_path / "universe.json", "error: mu has non-finite entries\n"),
        (huge_mu_instance, f"error: {huge_mu_instance}: {_OVER_BOUND}\n"),
    ]:
        argv = ["make-instance", str(path), "--n", "1", "--scale-mu", "1e307", "-o", str(scaled)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == err
        assert not scaled.exists()


@pytest.fixture
def at_least_instance(synth_instance, tmp_path):
    """The synth instance with a return target, so both penalties have an estimate."""
    path = tmp_path / "at_least.json"
    universe = load_instance(synth_instance).universe
    save_instance(PortfolioInstance(universe, n=3, r_star=5.0, return_mode="at_least"), path)
    return path


def _bench_lambdas(tmp_path, instance_path, policy, **plan) -> dict:
    """The lambda1 and lambda2 cells of a one-instance bench plan's rows."""
    path, out = tmp_path / "plan.json", tmp_path / "report.csv"
    path.write_text(_plan_text(instances=[str(instance_path)], penalty_policy=policy, **plan))
    assert cli_main(["bench", str(path), "--no-timing", "-o", str(out)]) == 0
    rows = csv.DictReader(out.read_text().splitlines())
    cells = {(row["lambda1"], row["lambda2"]) for row in rows}
    assert len(cells) == 1
    return dict(zip(("lambda1", "lambda2"), cells.pop()))


_GIVEN = [{}, {"lambda1": 7.5}, {"lambda2": 0.25}, {"lambda1": 7.5, "lambda2": 0.25}]


@pytest.mark.parametrize(
    "policy, given",
    # explicit with no lambda is no build call: no flag at all means estimate
    [("estimate", g) for g in _GIVEN] + [("explicit", g) for g in _GIVEN[1:]],
)
def test_build_and_bench_resolve_penalties_alike(
    at_least_instance, tmp_path, capsys, policy, given
):
    flags = [f"--{key}={value}" for key, value in given.items()]
    flags += ["--estimate"] if policy == "estimate" else []
    out = tmp_path / "q.qubo"
    assert cli_main(["build", str(at_least_instance), "-o", str(out), *flags]) == 0
    *estimated, wrote = capsys.readouterr().out.splitlines()
    assert wrote.startswith(f"wrote {out}: ")
    built = dict(cell.split("=") for cell in wrote.split()[-2:])
    resolved = f"lambda1={built['lambda1']} lambda2={built['lambda2']}"
    assert estimated == ([f"estimated {resolved}"] if policy == "estimate" else [])
    assert all(built[key] == f"{value:.17g}" for key, value in given.items())
    assert _bench_lambdas(tmp_path, at_least_instance, {"policy": policy, **given}) == built


def test_build_with_lambda_of_negative_zero_writes_zero(synth_instance, tmp_path, capsys):
    # the offset lambda1*n*n was -0.0, written as -0 and printed as lambda1=-0
    out = tmp_path / "q.qubo"
    assert cli_main(["build", str(synth_instance), "--lambda1", "-0", "-o", str(out)]) == 0
    assert capsys.readouterr().out.split()[-2:] == ["lambda1=0", "lambda2=0"]
    dim, _, offset = out.read_text().splitlines()[0].split()[2:]
    assert (dim, offset) == ("8", "0")


@pytest.mark.parametrize("given", [{}, {"lambda2": 0.25}])
def test_bench_grid_policy_picks_what_tune_picks(at_least_instance, tmp_path, capsys, given):
    grid2 = ["--grid2", str(given["lambda2"])] if given else []
    argv = ["tune", str(at_least_instance), "--solver", "exact", "--repeats", "2", *grid2]
    assert cli_main(argv) == 0
    (best,) = capsys.readouterr().out.splitlines()
    policy = {"policy": "grid", **given}
    picked = _bench_lambdas(tmp_path, at_least_instance, policy, solvers=["exact"], grid_repeats=2)
    assert best == f"best lambda1={picked['lambda1']} lambda2={picked['lambda2']} feasible=True"


@pytest.mark.parametrize(
    "target, solver, unused, flags, named",
    [
        (target, solver, unused, flags, named)
        for target, solver, unused in [
            ("q.qubo", "sa", "a .qubo target"),
            ("q.qubo", "exact", "a .qubo target"),
            ("inst.json", "exact", "--solver exact"),
        ]
        for flags, named in [
            (["--lambda1", "50"], "--lambda1"),
            (["--lambda2", "5"], "--lambda2"),
            (["--estimate"], "--estimate"),
            (["--lambda1", "50", "--estimate"], "--lambda1 or --estimate"),
        ]
    ]
    + [
        # one enumeration gives every seed the same answer
        (target, "exact", "--solver exact", ["--restarts", restarts], "--restarts above 1")
        for target in ("q.qubo", "inst.json")
        for restarts in ("2", "4")
    ],
)
def test_solve_penalty_flag_without_effect_is_usage_error(
    tmp_path, capsys, target, solver, unused, flags, named
):
    missing = tmp_path / target  # a usage error is raised before any file is read
    assert cli_main(["solve", str(missing), "--solver", solver, *flags]) == 1
    assert f"error: solve with {unused} takes no {named}\n" in capsys.readouterr().err


def test_solve_with_both_lambdas_prints_what_it_did(at_least_instance, capsys):
    # the solve-large workload's call, pinned to its output before flags were checked
    argv = ["solve", str(at_least_instance), "--solver", "sa", "--lambda1", "50", "--lambda2", "5"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == (
        "x=[1, 1, 0, 0, 1, 0, 0, 0]\n"
        "risk=3.5326238198717892 return=6.1314202406641574 energy=3.6189802181362865 feasible=True\n"
    )


@pytest.mark.parametrize("solver", ["sa", "tabu"])
@pytest.mark.parametrize("target", ["inst.json", "q.qubo"])
def test_solve_with_restarts_prints_the_least_energy_run(tmp_path, capsys, solver, target):
    instance = PortfolioInstance(generate_synthetic(SyntheticSpec(n_assets=24, seed=6)), n=8)
    q, layout = build_qubo(instance, PenaltyParams(1.0, 50.0, 0.0))
    runs = [make_solver(solver)(q, seed) for seed in (5, 6, 7)]
    best = min(runs, key=lambda r: r.energy)
    # seed 5 does not find the least energy, so the output shows which run won
    assert best.bits != runs[0].bits
    path = tmp_path / target
    if target.endswith(".qubo"):
        write_qubo(q, path)
        flags, code = [], 0
        want = f"bits={''.join(map(str, best.bits))}\nenergy={best.energy:.17g}\n"
    else:
        save_instance(instance, path)
        flags = ["--lambda1", "50", "--lambda2", "0"]
        sol = decode(instance, layout, best.bits, energy=best.energy)
        code = 0 if sol.feasible else 3
        want = (
            f"x={list(sol.x)}\nrisk={sol.risk:.17g} return={sol.ret:.17g} "
            f"energy={sol.energy:.17g} feasible={sol.feasible}\n"
        )
    argv = ["solve", str(path), "--solver", solver, "--seed", "5", "--restarts", "3", *flags]
    assert cli_main(argv) == code
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("target", ["inst.json", "q.qubo"])
def test_solve_with_restarts_gives_a_tie_to_the_first_seed(tmp_path, monkeypatch, capsys, target):
    # every assignment of a zero QUBO, or of a zero-risk instance at lambda1 0,
    # has energy 0: each seed answers a different one
    answers = {5: (0, 1, 0), 6: (1, 0, 0), 7: (0, 0, 1)}

    def solve_tabu(q, config, deadline):
        return SolveResult(answers[config.seed], 0.0, 1, 0.0)

    monkeypatch.setattr(solvers_mod, "solve_tabu", solve_tabu)
    path = tmp_path / target
    if target.endswith(".qubo"):
        write_qubo(QuboMatrix(3, {}), path)
        flags, want = [], "bits=010\nenergy=0\n"
    else:
        universe = AssetUniverse(("A", "B", "C"), [0.0] * 3, np.zeros((3, 3)))
        save_instance(PortfolioInstance(universe, n=1), path)
        flags = ["--lambda1", "0"]
        want = "x=[0, 1, 0]\nrisk=0 return=0 energy=0 feasible=True\n"
    argv = ["solve", str(path), "--solver", "tabu", "--seed", "5", "--restarts", "3", *flags]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == want


def test_solve_with_restarts_builds_the_qubo_once(synth_instance, monkeypatch, capsys):
    built = []

    def counting(instance, params):
        built.append(params)
        return build_qubo(instance, params)

    for module in (cli_mod, tuning_mod):
        monkeypatch.setattr(module, "build_qubo", counting)
    argv = ["solve", str(synth_instance), "--solver", "tabu", "--lambda1", "50", "--restarts", "3"]
    assert cli_main(argv) == 0
    assert built == [PenaltyParams(1.0, 50.0, 0.0)]


def test_solve_build_failure_under_restarts_is_one_error(synth_instance, capsys):
    argv = ["solve", str(synth_instance), "--solver", "sa", "--lambda1", "1e308", "--restarts", "3"]
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", "error: QUBO offset must be finite, got inf\n")


@pytest.mark.parametrize(
    "argv, errors",
    [
        (["solve", "{inst}", "--lambda1", "50", "--restarts", "2"], ["RuntimeError"]),
        (["sweep", "{inst}", "--lambda1-from", "0", "--lambda1-to", "1", "--points", "2",
          "--seed", "1", "-o", "{out}"],
         ["lambda1=0: RuntimeError", "lambda1=1: RuntimeError"]),
        (["tune", "{inst}", "--grid1", "1", "--grid2", "0", "--repeats", "2", "-o", "{out}"],
         ["lambda1=1 lambda2=0 seed 1: RuntimeError"]),
        (["bench", "{plan}", "--no-timing", "-o", "{out}"], ["synth/tabu/seed 1: RuntimeError"]),
    ],
    ids=["solve", "sweep", "tune", "bench"],
)
def test_a_run_that_raises_without_a_message_fails_by_its_type(
    synth_instance, tmp_path, monkeypatch, capsys, argv, errors
):
    # seed 1's tabu run raises an exception whose message is empty: bench
    # counted it as a success, and the other commands printed `error: ...: `
    def solve_tabu(q, config, deadline, _original=solvers_mod.solve_tabu):
        if config.seed == 1:
            raise RuntimeError()
        return _original(q, config, deadline=deadline)

    monkeypatch.setattr(solvers_mod, "solve_tabu", solve_tabu)
    plan = tmp_path / "plan.json"
    plan.write_text(_plan_text(instances=[str(synth_instance)], solvers=["tabu"], seeds=[0, 1]))
    paths = {"inst": synth_instance, "plan": plan, "out": tmp_path / "out.csv"}
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "bench":
        argv += ["--solver", "tabu"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {e}" for e in errors]


def test_overflowing_lambda2_estimate_is_named(tmp_path, capsys):
    # build printed `PenaltyParams: field 'lambda2' ... got inf`, a lambda never given
    path = tmp_path / "flat.json"
    save_instance(overflowing_lambda2_instance(), path)
    message = "error: lambda2 estimate A1/A2 = 1.0000000000000001e+300/1e-10 is not finite\n"
    for argv in (
        ["build", str(path), "--estimate", "-o", str(tmp_path / "q.qubo")],
        ["tune", str(path), "--solver", "exact", "--grid1", "1"],
    ):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "q.qubo").exists()
