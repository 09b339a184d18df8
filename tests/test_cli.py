import json

import numpy as np
import pytest

from portqubo import (
    PortfolioInstance,
    SyntheticSpec,
    generate_synthetic,
    read_qubo,
    save_instance,
)
from portqubo.cli import cli_main


@pytest.fixture
def diag_instance(tmp_path):
    from portqubo import AssetUniverse

    universe = AssetUniverse(("A", "B", "C"), [1.0, 1.0, 1.0], np.diag([1.0, 2.0, 3.0]))
    inst = PortfolioInstance(universe, n=1)
    path = tmp_path / "diag.json"
    save_instance(inst, path)
    return path


@pytest.fixture
def synth_instance(tmp_path):
    from portqubo import AssetUniverse

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


def test_missing_file_is_data_error(capsys):
    assert cli_main(["solve", "no-such-file.json", "--solver", "exact"]) == 2


def test_infeasible_instance_exit_code(tmp_path, capsys):
    from portqubo import AssetUniverse

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
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


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
        ({"synthetic": {**_SYNTH, "n_assets": 0}, "n": 2}, "n_assets must be positive"),
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


def test_fractional_n_in_instance_file_is_data_error(diag_instance, capsys):
    doc = json.loads(diag_instance.read_text())
    doc["n"] = 1.7
    diag_instance.write_text(json.dumps(doc))
    assert cli_main(["solve", str(diag_instance), "--solver", "exact"]) == 2
    assert f"{diag_instance}: field 'n'" in capsys.readouterr().err


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
