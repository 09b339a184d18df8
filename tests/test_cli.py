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
