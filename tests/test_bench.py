import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    DataFormatError,
    PortfolioInstance,
    SyntheticSpec,
    generate_synthetic,
    grid_search,
    load_plan,
    make_solver,
    parse_report_csv,
    render_report,
    run_benchmark,
    save_instance,
    solution_from_bits,
    solve_exhaustive_subsets,
)
from portqubo import bench as bench_mod
from portqubo import tuning as tuning_mod
from portqubo.bench import BenchPlan, BenchReport, BenchRow, ORACLE_SOLVER_NAME
from portqubo.solvers import SUBSET_ENUMERATION_GUARD

from conftest import overflowing_lambda2_instance, straddling_instance


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

    def test_exact_past_the_time_limit_recorded_in_row(self):
        plan = _plan(
            solvers=({"name": "exact"},),
            instances=({"synthetic": {"n_assets": 20, "seed": 3}, "n": 4, "id": "dim20"},),
            time_limit_s=1e-6,
        )
        rows = run_benchmark(plan).rows
        (failed,) = [r for r in rows if r.error]
        assert failed.solver == "exact" and math.isnan(failed.energy)
        assert failed.error.startswith("exact: time_limit_s = 1e-06 s passed with 0 of ")
        assert [r.solver for r in rows if not r.error] == [ORACLE_SOLVER_NAME]

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
        with pytest.warns(UserWarning, match="slack bits"):  # b-buildable's slack is short
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

    def test_failed_grid_penalties_recorded_and_matrix_continues(self):
        # the grid policy's search builds QUBOs, so an at_least target above
        # the total return fails while the penalties are resolved
        plan = _plan(
            penalty_policy="grid",
            grid_repeats=1,
            instances=(
                {"synthetic": {"n_assets": 8, "seed": 2}, "n": 3, "return_mode": "at_least",
                 "r_star": 1e9, "id": "a-unreachable"},
                {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "return_mode": "none",
                 "id": "b-reachable"},
            ),
            solvers=({"name": "tabu", "id": "tabu", "options": {"max_iterations": 20}},),
            seeds=(0, 1),
        )
        report = run_benchmark(plan)
        failed = [r for r in report.rows if r.instance == "a-unreachable"]
        assert [(r.solver, r.seed) for r in failed] == [("tabu", 0), ("tabu", 1)]
        assert all("exceeds total available return" in r.error for r in failed)
        assert all(math.isnan(r.lambda1) and math.isnan(r.lambda2) for r in failed)
        ok = [r for r in report.rows if r.instance == "b-reachable"]
        assert len(ok) == 2 + 1 and not any(r.error for r in ok)
        assert [s.instance for s in report.summaries] == ["a-unreachable", "b-reachable"]

    def test_overflowing_lambda2_estimate_recorded_and_matrix_continues(self, tmp_path):
        path = tmp_path / "a-flat.json"
        save_instance(overflowing_lambda2_instance(), path)
        plan = _plan(
            instances=(str(path), {"synthetic": {"n_assets": 8, "seed": 1}, "n": 3, "id": "b"}),
            seeds=(0, 1),
        )
        report = run_benchmark(plan)
        failed = [r for r in report.rows if r.instance == "a-flat" and r.solver == "sa"]
        assert [r.seed for r in failed] == [0, 1]
        assert all(r.error.startswith("lambda2 estimate A1/A2 = ") for r in failed)
        assert all(math.isnan(r.lambda1) and math.isnan(r.lambda2) for r in failed)
        ok = [r for r in report.rows if r.instance == "b"]
        assert len(ok) == 2 + 1 and not any(r.error for r in ok)

    @pytest.mark.parametrize("policy", ["estimate", "grid"])
    def test_penalty_policy_estimates_once_per_instance(self, monkeypatch, policy):
        estimated = []

        def counting(instance, _original=tuning_mod.estimate_lambda1):
            estimated.append(instance)
            return _original(instance)

        monkeypatch.setattr(tuning_mod, "estimate_lambda1", counting)
        plan = _matrix_plan()
        run_benchmark(replace(plan, penalty_policy=policy, grid_repeats=1, solvers=plan.solvers[1:]))
        assert [inst.n for inst in estimated] == [3, 2]

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

    def test_oracle_row_on_a_return_boundary_is_decided_by_the_model(self, tmp_path):
        # one instance whose least-risk subset the model accepts, one where it rejects it
        rng = np.random.default_rng(3)
        instances = {}
        while len(instances) < 2:
            inst, x = straddling_instance(rng, "at_least")
            instances.setdefault(solution_from_bits(inst, x).feasible, inst)
        paths = {}
        for meets, inst in instances.items():
            paths[meets] = tmp_path / f"meets-{meets}.json"
            save_instance(inst, paths[meets])
        plan = _plan(instances=tuple(map(str, paths.values())), solvers=("tabu", "sa"), seeds=(0, 1))
        report = run_benchmark(plan, no_timing=True)
        for meets, inst in instances.items():
            rows = [r for r in report.rows if r.instance == paths[meets].stem]
            (row,) = [r for r in rows if r.solver == ORACLE_SOLVER_NAME]
            oracle = solve_exhaustive_subsets(inst)
            assert row.feasible == solution_from_bits(inst, oracle.x).feasible
            assert (row.risk, row.ret, row.energy) == (oracle.risk, oracle.ret, oracle.risk)
            assert all(r.risk >= row.risk for r in rows if r.feasible)


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

    @pytest.mark.parametrize("text", ["5", "[]", "not json"])
    def test_non_object_or_invalid_plan_names_the_path(self, tmp_path, text):
        from portqubo import DataFormatError

        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=r"plan\.json: "):
            load_plan(path)


class TestPlanEntryFaults:
    """A plan entry with a missing field raises a DataFormatError naming the
    entry and the field, instead of a bare KeyError."""

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"synthetic": {"seed": 1}, "n": 3}, "missing field 'n_assets'"),
            ({"synthetic": {"n_assets": 8, "seed": 1}}, "missing field 'n'"),
            ({"synthetic": 8, "n": 3}, "expected a JSON object"),
        ],
    )
    def test_instance_entry(self, entry, message):
        from portqubo import DataFormatError

        with pytest.raises(DataFormatError, match=rf"instance entry .*: {message}"):
            run_benchmark(_plan(instances=(entry,)))

    @pytest.mark.parametrize("entry", [{"id": "fast", "options": {"sweeps": 5}}, 5])
    def test_solver_entry(self, entry):
        from portqubo import DataFormatError

        with pytest.raises(DataFormatError, match=r"solver entry .*"):
            run_benchmark(_plan(solvers=(entry,)))

    @pytest.mark.parametrize(
        "solver", [{"name": "sa", "options": {"sweep": 5}}, {"name": "exact", "options": {"seed": 1}}]
    )
    def test_bad_solver_option_stops_the_plan(self, solver):
        with pytest.raises(ValueError, match=r"solver '(sa|exact)' .*'(sweep|seed)'"):
            run_benchmark(_plan(solvers=(solver,)))

    @pytest.mark.parametrize(
        "name, option, value",
        [
            ("sa", "schedule", "linear"),
            ("sa", "beta_initial", 0.1),
            ("sa", "beta_final", 5.0),
            ("ga", "crossover_rate", 0.5),
            ("ga", "mutation_rate", 0.1),
            ("ga", "tournament_size", 2),
            ("ga", "elitism_count", 1),
            ("tabu", "tenure", 3),
        ],
    )
    def test_fixed_operator_setting_is_not_an_option(self, name, option, value):
        # the SA schedule, the GA operators and the tabu tenure are fixed
        # rules, not options
        message = f"solver '{name}' has no option '{option}'"
        with pytest.raises(ValueError, match=message):
            make_solver(name, {option: value})
        with pytest.raises(ValueError, match=message):
            run_benchmark(_plan(solvers=({"name": name, "options": {option: value}},)))


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


    def test_gap_above_a_best_of_zero_is_infinite(self, tmp_path):
        # two riskless assets: the oracle picks them, at a risk of 0
        universe = AssetUniverse(("A", "B", "C"), [1.0, 1.0, 1.0], np.diag([0.0, 0.0, 1.0]))
        path = tmp_path / "zero.json"
        save_instance(PortfolioInstance(universe, n=2), path)
        sidecar = tmp_path / "external.csv"
        sidecar.write_text("instance,solver,risk\nzero,cplex,0.5\nzero,gurobi,0\n")
        plan = _plan(instances=(str(path),), external_results=str(sidecar))
        gaps = {r.solver: r.gap_percent for r in run_benchmark(plan, no_timing=True).rows}
        assert (gaps["oracle"], gaps["gurobi"], gaps["cplex"]) == (0.0, 0.0, math.inf)

    def test_gap_above_a_negative_best_is_positive(self, tmp_path):
        # the PSD rule's tolerance admits this sigma, whose one pair has x'Sx about -2e-7
        a = -1.0 - 1e-7
        universe = AssetUniverse(("A", "B"), [1.0, 1.0], [[1.0, a], [a, 1.0]])
        path = tmp_path / "neg.json"
        save_instance(PortfolioInstance(universe, n=2), path)
        sidecar = tmp_path / "external.csv"
        sidecar.write_text("instance,solver,risk\nneg,cplex,1\n")
        report = run_benchmark(_plan(instances=(str(path),), external_results=str(sidecar)))
        rows = {r.solver: r for r in report.rows}
        best = rows["oracle"].risk
        assert best < 0 and report.summaries[0].best_risk == best
        assert rows["cplex"].gap_percent == (1.0 - best) / -best * 100.0 > 0


@pytest.mark.parametrize("solver", ["sa", "tabu", "ga"])
def test_grid_runs_are_the_bench_rows_of_their_penalties(tmp_path, solver):
    # one record and one solve step: a grid cell's runs are, seed by seed,
    # the rows that an explicit-penalty plan gives for the same penalties
    universe = generate_synthetic(SyntheticSpec(n_assets=7, seed=3))
    instance = PortfolioInstance(universe, 3, float(np.sort(universe.mu)[-4:].mean() * 3), "at_least")
    path = tmp_path / "i.json"
    save_instance(instance, path)
    l1, l2 = tuning_mod.estimate_lambda1(instance), tuning_mod.estimate_lambda2(instance)
    _, (cell,), _ = grid_search(instance, make_solver(solver), [l1], [l2], repeats=3)
    plan = _plan(
        instances=(str(path),), solvers=(solver,), seeds=(0, 1, 2),
        penalty_policy="explicit", explicit_lambda1=l1, explicit_lambda2=l2,
    )
    report = run_benchmark(plan, no_timing=True)
    bench_runs = [r for r in report.rows if r.solver == solver]
    grid_runs = [replace(r, wall_time_s=0.0) for r in cell.runs]
    columns = bench_mod.RUN_COLUMNS
    assert bench_mod.rows_csv(grid_runs, columns) == bench_mod.rows_csv(bench_runs, columns)
    assert [r.seed for r in grid_runs] == [0, 1, 2]

# names with the cells a CSV writer must quote: commas, quotes and line ends
_NAMES = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\n\r*'), max_size=8)
_INTS = st.integers(-(2**63), 2**63)
_FLOATS = st.floats()  # NaN, +-inf and -0.0 included


@st.composite
def _report_rows(draw) -> BenchRow:
    return BenchRow(
        instance=draw(_NAMES),
        n_assets=draw(_INTS),
        n=draw(_INTS),
        r_star=draw(_FLOATS),
        qubo_dim=draw(_INTS),
        lambda1=draw(_FLOATS),
        lambda2=draw(_FLOATS),
        # a name that ends in a marker would read back as marked
        solver=draw(_NAMES.filter(lambda s: not s.endswith(("*", "(ext)")))),
        seed=draw(st.none() | _INTS),
        energy=draw(_FLOATS),
        risk=draw(_FLOATS),
        ret=draw(_FLOATS),
        feasible=draw(st.booleans()),
        wall_time_s=draw(_FLOATS),
        gap_percent=draw(st.none() | _FLOATS),
        optimal=draw(st.booleans()),
        external=draw(st.booleans()),
    )


class TestReportCsvRoundTrip:
    @given(rows=st.lists(_report_rows(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_render_of_parse_is_byte_identical(self, tmp_path_factory, rows):
        text = render_report(BenchReport(rows=tuple(rows), summaries=()), "csv")
        path = tmp_path_factory.mktemp("report") / "report.csv"
        path.write_bytes(text.encode())
        assert render_report(parse_report_csv(path), "csv") == text


def _write_plan(tmp_path, **overrides):
    doc = {
        "instances": [{"synthetic": {"n_assets": 6, "seed": 1}, "n": 2, "id": "p"}],
        "solvers": [{"name": "sa", "options": {"sweeps": 20, "restarts": 1}}],
        "seeds": [0],
    }
    doc.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    return path


_SYNTH = {"n_assets": 6, "seed": 1}
_SEED = r"plan\.json: BenchPlan: a seed in field 'seeds' must be a whole number of at least 0, got "
_REPEATS = r"plan\.json: BenchPlan: field 'grid_repeats' must be a whole number of at least 1, got "
_LIMIT = r"plan\.json: BenchPlan: field 'time_limit_s' must be a positive finite number, got "


class TestPlanFieldTypes:
    """A plan field of the wrong type raises a DataFormatError naming the
    plan or the entry, and the field; no count is truncated."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"instances": 5}, r"plan\.json: field 'instances'"),
            ({"solvers": "sa"}, r"plan\.json: field 'solvers'"),
            ({"seeds": 5}, r"plan\.json: field 'seeds'"),
            ({"seeds": ["a"]}, _SEED + "'a'$"),
            ({"seeds": [1.5]}, _SEED + "1.5$"),
            ({"seeds": [-1, 0]}, _SEED + "-1$"),
            ({"grid_repeats": "5"}, _REPEATS + "'5'$"),
            ({"grid_repeats": 0}, _REPEATS + "0$"),
            ({"grid_repeats": -1}, _REPEATS + "-1$"),
            ({"time_limit_s": "x"}, _LIMIT + "'x'$"),
            ({"time_limit_s": math.nan}, _LIMIT + "nan$"),
            ({"time_limit_s": -1}, _LIMIT + "-1$"),
            ({"time_limit_s": 0}, _LIMIT + "0$"),
            ({"time_limit_s": math.inf}, _LIMIT + "inf$"),
            ({"external_results": 5}, r"plan\.json: field 'external_results'"),
            ({"penalty_policy": {"lambda1": [1]}},
             r"plan\.json: BenchPlan: field 'explicit_lambda1' must be a non-negative finite number, got \[1\]$"),
            ({"penalty_policy": {"lambda2": -1}},
             r"plan\.json: BenchPlan: field 'explicit_lambda2' must be a non-negative finite number, got -1$"),
            ({"penalty_policy": "foo"}, r"plan\.json: unknown penalty policy 'foo'$"),
            ({"penalty_policy": 5}, r"plan\.json: unknown penalty policy 5$"),
            ({"penalty_policy": {"policy": 5}}, r"plan\.json: unknown penalty policy 5$"),
            ({"penalty_policy": {"policy": "explicit", "lamda1": 50}},
             r"plan\.json: penalty_policy: unknown key\(s\) 'lamda1'$"),
            ({"penalty_polcy": "explicit"}, r"plan\.json: unknown key\(s\) 'penalty_polcy'$"),
            ({"seeds": [0, 1, 0]}, r"plan\.json: seeds must be distinct, got 0 more than once$"),
        ],
    )
    def test_plan_field(self, tmp_path, overrides, message):
        with pytest.raises(DataFormatError, match=message):
            load_plan(_write_plan(tmp_path, **overrides))

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"synthetic": {**_SYNTH, "return_range": 5}, "n": 2}, "return_range"),
            ({"synthetic": {**_SYNTH, "return_range": [0, "x"]}, "n": 2}, "return_range"),
            ({"synthetic": _SYNTH, "n": [2]}, "n"),
            ({"synthetic": _SYNTH, "n": 1.7}, "n"),
            ({"synthetic": _SYNTH, "n": True}, "n"),
            ({"synthetic": _SYNTH, "n": 2, "r_star": [1]}, "r_star"),
            ({"synthetic": {"n_assets": 6.5}, "n": 2}, "n_assets"),
            ({"synthetic": {**_SYNTH, "n_factors": 2.5}, "n": 2}, "n_factors"),
            ({"synthetic": {**_SYNTH, "seed": 1.5}, "n": 2}, "seed"),
        ],
    )
    def test_instance_entry_field(self, tmp_path, entry, field):
        plan = load_plan(_write_plan(tmp_path, instances=[entry]))
        with pytest.raises(DataFormatError, match=rf"instance entry .*\b{field}\b"):
            run_benchmark(plan)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"instances": [{"synthetic": _SYNTH, "n": 2, "retrun_mode": "at_least"}]},
             r"instance entry .*\}: unknown key\(s\) 'retrun_mode'$"),
            ({"instances": [{"synthetic": {"n_assets": 6, "sed": 5}, "n": 2}]},
             r"instance entry .*, 'synthetic' block: unknown key\(s\) 'sed'$"),
            # the idiosyncratic variance floor is 1, not a key
            ({"instances": [{"synthetic": {**_SYNTH, "idiosyncratic_floor": 1.0}, "n": 2}]},
             r"instance entry .*, 'synthetic' block: unknown key\(s\) 'idiosyncratic_floor'$"),
            ({"solvers": [{"name": "sa", "option": {"sweeps": 5}}]},
             r"solver entry .*: unknown key\(s\) 'option'$"),
        ],
    )
    def test_unknown_entry_key(self, tmp_path, overrides, message):
        plan = load_plan(_write_plan(tmp_path, **overrides))
        with pytest.raises(DataFormatError, match=message):
            run_benchmark(plan)

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            *[("seeds", s, "a seed in field 'seeds' must be a whole number of at least 0")
              for s in (-1, 1.5, True, "0")],
            *[("grid_repeats", r, "field 'grid_repeats' must be a whole number of at least 1")
              for r in (0, -1)],
            # checked when the plan is built, not first when it runs
            *[("time_limit_s", t, "field 'time_limit_s' must be a positive finite number")
              for t in (-1, 0, math.nan, math.inf, "1", True)],
            *[(k, v, f"field '{k}' must be a non-negative finite number")
              for k in ("explicit_lambda1", "explicit_lambda2") for v in ("5", -1, math.inf, True)],
        ],
    )
    def test_field_of_a_plan_built_in_code(self, name, value, rule):
        fields = {name: (0, value) if name == "seeds" else value}
        with pytest.raises(ValueError, match=rf"^BenchPlan: {rule}, got {re.escape(repr(value))}$"):
            _plan(**fields)

    def test_seeds_of_a_plan_built_in_code_are_distinct(self):
        with pytest.raises(ValueError, match=r"^seeds must be distinct, got 3 more than once$"):
            _plan(seeds=(3, 1, 3))

    def test_whole_number_counts_accepted(self, tmp_path):
        entry = {"synthetic": {"n_assets": 6.0, "seed": 1.0}, "n": 2.0, "id": "p"}
        plan = load_plan(_write_plan(tmp_path, instances=[entry], seeds=[0.0]))
        report = run_benchmark(plan, no_timing=True)
        assert plan.seeds == (0,) and report.rows[0].n == 2

    @pytest.mark.parametrize("options", [[1], 5, "sweeps"])
    def test_solver_options_not_an_object(self, tmp_path, options):
        plan = load_plan(_write_plan(tmp_path, solvers=[{"name": "sa", "options": options}]))
        with pytest.raises(DataFormatError, match=r"solver entry .*'options'"):
            run_benchmark(plan)


_A = {"synthetic": {"n_assets": 6, "seed": 1}, "n": 2}
_B = {"synthetic": {"n_assets": 6, "seed": 2}, "n": 2}


def _tiny_instance():
    return PortfolioInstance(generate_synthetic(SyntheticSpec(n_assets=6, seed=2)), n=2)


class TestEntriesReadFirst:
    """Every instance and solver entry is read before the first solve, and
    two entries with one id, or an id that is not UTF-8 text, stop the plan."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = bench_mod.make_solver

        def counting(kind, options=None):
            solver = real(kind, options)
            return lambda q, seed: calls.append(seed) or solver(q, seed)

        monkeypatch.setattr(bench_mod, "make_solver", counting)
        return calls

    def test_bad_second_instance_runs_nothing(self, solves):
        good = {"synthetic": {"n_assets": 6, "seed": 1}, "n": 2, "id": "a"}
        bad = {"synthetic": {"seed": 2}, "n": 2, "id": "b"}
        with pytest.raises(DataFormatError, match="missing field 'n_assets'"):
            run_benchmark(_plan(instances=(good, bad), seeds=(0, 1, 2)))
        assert solves == []

    def test_bad_second_solver_runs_nothing(self, solves):
        solvers = ({"name": "sa", "options": {"sweeps": 5}}, {"options": {}})
        with pytest.raises(DataFormatError, match="missing field 'name'"):
            run_benchmark(_plan(solvers=solvers))
        assert solves == []

    @pytest.mark.parametrize(
        "first, second, ident",
        [
            ({**_A, "id": "x"}, {**_B, "id": "x"}, "x"),
            (_A, {**_B, "id": "syn6n2s1"}, "syn6n2s1"),  # the default id of _A
        ],
    )
    def test_duplicate_instance_ids_run_nothing(self, solves, first, second, ident):
        with pytest.raises(DataFormatError) as info:
            run_benchmark(_plan(instances=(first, second)))
        assert str(info.value) == (
            f"instance entries {first!r} and {second!r} have the same id {ident!r}"
        )
        assert solves == []

    def test_instance_files_with_one_stem_run_nothing(self, tmp_path, solves):
        paths = [str(tmp_path / d / "inst.json") for d in ("a", "b")]
        for path in paths:
            (tmp_path / path).parent.mkdir()
            save_instance(_tiny_instance(), path)
        with pytest.raises(DataFormatError, match="have the same id 'inst'") as info:
            run_benchmark(_plan(instances=tuple(paths)))
        assert f"{paths[0]!r} and {paths[1]!r}" in str(info.value)
        assert solves == []

    @pytest.mark.parametrize(
        "first, second, ident",
        [
            ("sa", {"name": "sa", "options": {"sweeps": 5}}, "sa"),
            ({"name": "sa", "id": "x"}, {"name": "tabu", "id": "x"}, "x"),
        ],
    )
    def test_duplicate_solver_ids_run_nothing(self, solves, first, second, ident):
        with pytest.raises(DataFormatError) as info:
            run_benchmark(_plan(solvers=(first, second)))
        assert str(info.value) == (
            f"solver entries {first!r} and {second!r} have the same id {ident!r}"
        )
        assert solves == []

    @pytest.mark.parametrize(
        "kind, entry",
        [
            ("instance", {**_A, "id": "\ud800"}),
            ("solver", "\ud800"),
            ("solver", {"name": "sa", "id": "\ud800"}),
            ("solver", {"name": "\ud800"}),
        ],
    )
    def test_id_that_is_not_utf8_runs_nothing(self, solves, kind, entry):
        with pytest.raises(DataFormatError) as info:
            run_benchmark(_plan(**{f"{kind}s": (entry,)}))
        assert str(info.value) == f"{kind} entry {entry!r}: id '\\ud800' is not UTF-8 text"
        assert solves == []

    # "\udc80" names the file byte 0x80, which opens; "\ud800" opens no file
    @pytest.mark.parametrize("stem", ["\udc80", "\ud800"])
    def test_path_stem_that_is_not_utf8_runs_nothing(self, tmp_path, solves, stem):
        path = str(tmp_path / f"{stem}.json")
        if stem == "\udc80":
            save_instance(_tiny_instance(), path)
        with pytest.raises(DataFormatError) as info:
            run_benchmark(_plan(instances=(path,)))
        assert str(info.value) == f"instance entry {path!r}: id {stem!r} is not UTF-8 text"
        assert solves == []

    def test_grid_policy_searches_with_the_first_solver(self, solves):
        plan = _plan(penalty_policy="grid", grid_repeats=1, seeds=(7,))
        report = run_benchmark(plan, no_timing=True)
        assert not any(r.error for r in report.rows)
        assert set(solves) == {0, 7}  # the grid's seed 0, the matrix's seed 7

    def test_grid_cells_run_seeds_0_to_grid_repeats(self, tmp_path, solves):
        universe, path = _tiny_instance().universe, str(tmp_path / "i.json")
        instance = PortfolioInstance(universe, 2, universe.mu.max(), return_mode="at_least")
        save_instance(instance, path)
        plan = _plan(instances=(path,), penalty_policy="grid", grid_repeats=3, seeds=(7,))
        run_benchmark(plan, no_timing=True)
        grids = [
            tuning_mod.default_grid(estimate(instance))
            for estimate in (tuning_mod.estimate_lambda1, tuning_mod.estimate_lambda2)
        ]
        cells = len(grids[0]) * len(grids[1])
        assert cells > 1 and solves == [0, 1, 2] * cells + [7]


class TestExternalResultFaults:
    def test_sidecar_resolves_against_the_plan_directory(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "ext.csv").write_text("instance,solver,risk\np,cplex,0.5\n")
        plan = load_plan(_write_plan(sub, external_results="ext.csv"))
        assert plan.external_results == str(sub / "ext.csv")
        report = run_benchmark(plan, no_timing=True)
        assert [r.solver for r in report.rows if r.external] == ["cplex"]

    def test_defaults_of_optional_columns(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("solver,risk,instance,return,N\ncplex*,0.5,p,,9\n")
        (row,) = bench_mod.load_external_results(path)
        assert (row.instance, row.solver, row.risk, row.r_star) == ("p", "cplex*", 0.5, 0.0)
        assert math.isnan(row.ret) and math.isnan(row.energy) and row.n_assets == 0
        assert row.external and row.feasible and not row.optimal and row.seed is None

    @pytest.mark.parametrize(
        "text, message",
        [
            ("instance,solver,return\np,cplex,5\n", r"ext\.csv: .*\brisk\b"),
            ("", r"ext\.csv: .*\binstance, solver, risk\b"),
            ("instance,solver,risk\np,cplex\n", r"ext\.csv:2: 2 cells, expected 3"),
            ("instance,solver,risk\np,cplex,low\n", r"ext\.csv:2: column 'risk'"),
            ("instance,solver,risk,energy\np,cplex,1,x\n", r"ext\.csv:2: column 'energy'"),
        ],
    )
    def test_sidecar_fault_names_the_path(self, tmp_path, text, message):
        path = tmp_path / "ext.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            bench_mod.load_external_results(path)


class TestReportFaults:
    @pytest.fixture
    def report_text(self):
        return render_report(run_benchmark(_plan(), no_timing=True), "csv")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda line: line.rsplit(",", 1)[0], r"report\.csv:2: 14 cells, expected 15"),
            (lambda line: line + ",1", r"report\.csv:2: 16 cells, expected 15"),
            (lambda line: line.replace(",sa,", ",sa,x", 1), r"report\.csv:2: column 'seed'"),
            (lambda line: line.replace(",true,", ",yes,", 1).replace(",false,", ",no,", 1),
             r"report\.csv:2: column 'feasible'"),
        ],
    )
    def test_malformed_row_names_path_line_and_column(self, tmp_path, report_text, mutate, message):
        header, first, *rest = report_text.split("\n")
        path = tmp_path / "report.csv"
        path.write_text("\n".join([header, mutate(first), *rest]))
        with pytest.raises(DataFormatError, match=message):
            parse_report_csv(path)

    def test_markdown_of_an_external_only_instance(self, tmp_path):
        path = tmp_path / "report.csv"
        row = "x,0,0,0,0,0,0,cplex(ext),,nan,0.5,nan,true,0,0"
        path.write_text(",".join(bench_mod.CSV_COLUMNS) + "\n" + row + "\n")
        lines = render_report(parse_report_csv(path), "markdown").splitlines()
        assert lines[0] == "| instance | N | n | R* | Size(Q) | cplex | best |"
        assert lines[2] == "| x | - | - | - | - | 0.5 | 0.5(ext) |"
