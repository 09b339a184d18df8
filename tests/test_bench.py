import json
import math

import pytest

from portqubo import load_plan, parse_report_csv, render_report, run_benchmark
from portqubo.bench import BenchPlan, ORACLE_SOLVER_NAME
from portqubo.solvers import SUBSET_ENUMERATION_GUARD


def _plan(**overrides):
    base = dict(
        instances=(
            {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "return_mode": "none",
             "id": "tiny"},
        ),
        solvers=({"name": "sa", "options": {"sweeps": 50, "restarts": 2}},),
        seeds=(0,),
        penalty_policy="estimate",
    )
    base.update(overrides)
    return BenchPlan(**base)


def _matrix_plan():
    return _plan(
        instances=(
            {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "return_mode": "none",
             "id": "a"},
            {"synthetic": {"n_assets": 8, "seed": 2}, "n": 2, "return_mode": "none",
             "id": "b"},
        ),
        solvers=(
            {"name": "sa", "id": "sa", "options": {"sweeps": 50, "restarts": 2}},
            {"name": "tabu", "id": "tabu", "options": {"max_iterations": 100, "restarts": 2}},
        ),
        seeds=(0, 1),
    )


class TestRunBenchmark:
    def test_single_cell_row_count(self):
        report = run_benchmark(_plan())
        # one solver row plus the oracle row (C(8,3) is tiny)
        assert len(report.rows) == 2
        assert report.rows[-1].solver == ORACLE_SOLVER_NAME
        assert report.rows[-1].optimal
        assert len(report.summaries) == 1

    def test_matrix_row_count(self):
        report = run_benchmark(_matrix_plan())
        oracle_rows = [r for r in report.rows if r.solver == ORACLE_SOLVER_NAME]
        assert len(report.rows) == 2 * 2 * 2 + len(oracle_rows)
        assert len(oracle_rows) == 2

    def test_gaps_nonnegative_and_oracle_unbeaten(self):
        report = run_benchmark(_matrix_plan())
        for row in report.rows:
            if row.feasible:
                assert row.gap_percent is not None and row.gap_percent >= -1e-12
        for summary in report.summaries:
            oracle = next(
                r
                for r in report.rows
                if r.instance == summary.instance and r.solver == ORACLE_SOLVER_NAME
            )
            for row in report.rows:
                if row.instance == summary.instance and row.feasible:
                    assert row.risk >= oracle.risk - 1e-9

    def test_exactly_one_zero_gap_value(self):
        report = run_benchmark(_matrix_plan())
        for summary in report.summaries:
            zero_gaps = [
                r
                for r in report.rows
                if r.instance == summary.instance
                and r.feasible
                and r.gap_percent is not None
                and r.gap_percent == 0.0
            ]
            assert zero_gaps  # ties may share the zero gap

    def test_no_timing_zeroes_wall_time(self):
        report = run_benchmark(_matrix_plan(), no_timing=True)
        assert all(r.wall_time_s == 0.0 for r in report.rows)

    def test_deterministic_with_no_timing(self):
        a = render_report(run_benchmark(_matrix_plan(), no_timing=True), "csv")
        b = render_report(run_benchmark(_matrix_plan(), no_timing=True), "csv")
        assert a == b

    def test_explicit_penalty_policy(self):
        plan = _plan(penalty_policy="explicit", explicit_lambda1=42.0)
        report = run_benchmark(plan)
        assert all(r.lambda1 == 42.0 for r in report.rows)

    def test_failed_run_recorded_in_row(self):
        plan = _plan(
            solvers=({"name": "exact", "id": "exact"},),
            instances=(
                # dim 30 exceeds the brute-force guard -> per-row error
                {"synthetic": {"n_assets": 30, "seed": 3}, "n": 4,
                 "return_mode": "none", "id": "too-big"},
            ),
        )
        report = run_benchmark(plan)
        failed = [r for r in report.rows if r.error]
        assert len(failed) == 1
        assert math.isnan(failed[0].energy)
        # the oracle row is still present and feasible
        assert any(r.solver == ORACLE_SOLVER_NAME for r in report.rows)

    def test_failed_build_recorded_and_matrix_continues(self):
        # an explicit lambda2 cannot build a QUBO for a return_mode 'none' instance
        plan = _plan(
            penalty_policy="explicit",
            explicit_lambda1=5.0,
            explicit_lambda2=1.0,
            instances=(
                {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "return_mode": "none",
                 "id": "a-unbuildable"},
                {"synthetic": {"n_assets": 8, "seed": 2}, "n": 3, "return_mode": "at_least",
                 "r_star": 10.0, "id": "b-buildable"},
            ),
            solvers=(
                {"name": "sa", "id": "sa", "options": {"sweeps": 20, "restarts": 1}},
                {"name": "tabu", "id": "tabu", "options": {"max_iterations": 20}},
            ),
            seeds=(0, 1),
        )
        report = run_benchmark(plan)
        failed = [r for r in report.rows if r.instance == "a-unbuildable" and r.error]
        assert sorted((r.solver, r.seed) for r in failed) == [
            ("sa", 0), ("sa", 1), ("tabu", 0), ("tabu", 1)
        ]
        assert all("lambda2" in r.error and math.isnan(r.energy) for r in failed)
        assert any(
            r.instance == "a-unbuildable" and r.solver == ORACLE_SOLVER_NAME and r.optimal
            for r in report.rows
        )
        ok = [r for r in report.rows if r.instance == "b-buildable"]
        assert len(ok) == 2 * 2 + 1 and not any(r.error for r in ok)
        assert [s.instance for s in report.summaries] == ["a-unbuildable", "b-buildable"]

    def test_oracle_row_up_to_subset_enumeration_guard(self):
        # C(25, 8) = 1,081,575 subsets: above 10**6, within the oracle's guard
        assert 10**6 < math.comb(25, 8) <= SUBSET_ENUMERATION_GUARD
        plan = _plan(
            instances=(
                {"synthetic": {"n_assets": 25, "seed": 4}, "n": 8, "return_mode": "none",
                 "id": "c25-8"},
            ),
            solvers=({"name": "sa", "options": {"sweeps": 5, "restarts": 1}},),
        )
        report = run_benchmark(plan)
        oracle = [r for r in report.rows if r.solver == ORACLE_SOLVER_NAME]
        assert len(oracle) == 1 and oracle[0].optimal
        assert report.summaries[0].proven_optimal


class TestRenderReport:
    def test_csv_layout(self):
        report = run_benchmark(_plan(), no_timing=True)
        text = render_report(report, "csv")
        lines = text.split("\n")
        assert lines[0] == (
            "instance,N,n,r_star,qubo_dim,lambda1,lambda2,solver,seed,"
            "energy,risk,return,feasible,gap_percent,wall_time_s"
        )
        assert text.endswith("\n") and "\r" not in text

    def test_markdown_layout(self):
        report = run_benchmark(_matrix_plan(), no_timing=True)
        text = render_report(report, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| instance | N | n | R* | Size(Q) |")
        assert lines[0].rstrip().endswith("best |")
        # proven-optimal best is starred
        assert "*" in lines[2]

    def test_unknown_format(self):
        report = run_benchmark(_plan())
        with pytest.raises(ValueError, match="format"):
            render_report(report, "pdf")

    def test_empty_report_rejected(self):
        from portqubo.bench import BenchReport

        with pytest.raises(ValueError, match="no rows"):
            render_report(BenchReport(rows=(), summaries=()), "csv")

    def test_csv_round_trip(self, tmp_path):
        report = run_benchmark(_matrix_plan(), no_timing=True)
        text = render_report(report, "csv")
        path = tmp_path / "report.csv"
        path.write_text(text)
        back = parse_report_csv(path)
        assert render_report(back, "csv") == text


class TestPlanIo:
    def test_load_plan(self, tmp_path):
        doc = {
            "instances": [
                {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "return_mode": "none"}
            ],
            "solvers": ["sa"],
            "seeds": [0, 1],
            "penalty_policy": "estimate",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        plan = load_plan(path)
        assert plan.seeds == (0, 1)

    def test_relative_instance_paths_resolve(self, tmp_path):
        from portqubo import PortfolioInstance, SyntheticSpec, generate_synthetic, save_instance

        inst = PortfolioInstance(
            generate_synthetic(SyntheticSpec(n_assets=6, seed=2)), n=2
        )
        save_instance(inst, tmp_path / "inst.json")
        doc = {"instances": ["inst.json"], "solvers": ["sa"], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        plan = load_plan(plan_path)
        assert plan.instances[0] == str(tmp_path / "inst.json")

    def test_explicit_policy_dict(self, tmp_path):
        doc = {
            "instances": [
                {"synthetic": {"n_assets": 6, "seed": 1}, "n": 2, "return_mode": "none"}
            ],
            "solvers": ["sa"],
            "seeds": [0],
            "penalty_policy": {"policy": "explicit", "lambda1": 5.0, "lambda2": 0.5},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        plan = load_plan(path)
        assert plan.penalty_policy == "explicit"
        assert plan.explicit_lambda1 == 5.0

    def test_missing_field(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"instances": [], "solvers": ["sa"]}))
        from portqubo import DataFormatError

        with pytest.raises(DataFormatError, match="seeds"):
            load_plan(path)


class TestExternalResults:
    def test_sidecar_rows_marked_external(self, tmp_path):
        sidecar = tmp_path / "external.csv"
        sidecar.write_text("instance,solver,risk,return\ntiny,localsolver,0.0001,5\n")
        plan = _plan(external_results=str(sidecar))
        report = run_benchmark(plan, no_timing=True)
        ext = [r for r in report.rows if r.external]
        assert len(ext) == 1
        assert ext[0].solver == "localsolver"
        summary = report.summaries[0]
        assert summary.external
        assert summary.best_risk == 0.0001
