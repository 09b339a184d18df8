import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    PenaltyParams,
    PortfolioInstance,
    estimate_lambda1,
    estimate_lambda2,
    grid_search,
    lambda_sweep,
)
from portqubo.model import EQUALITY_RETURN_TOL
from portqubo.qubo import build_qubo, decode
from portqubo.solvers import make_solver
from portqubo.bench import RUN_COLUMNS, rows_csv
from portqubo.tuning import _row_prefix_sums, default_grid, resolve_penalties

from conftest import random_instance


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _oracle_lambda1(sigma, n):
    """Independent sort-and-sum estimate."""
    best = 0.0
    for row in sigma:
        best = max(best, sum(sorted(row)[:n]))
    return best


def _sort_and_sum(row, n):
    """The n smallest entries added left to right from 0, as Python's sum
    adds floats (before 3.12 made it compensated)."""
    total = 0
    for value in sorted(row)[:n]:
        total += value
    return total


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_row_prefix_sums_bitwise_equal_to_sort_and_sum(data):
    """Ties, signed zeros and all-zero prefixes give the same bits."""
    width = data.draw(st.integers(1, 24))
    entry = st.sampled_from([0.0, -0.0]) if data.draw(st.booleans()) else _ENTRY
    row = st.lists(entry, min_size=width, max_size=width)
    sigma = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
    n = data.draw(st.integers(1, width))
    expected = np.array([_sort_and_sum(r, n) for r in sigma.tolist()], dtype=np.float64)
    assert np.array_equal(_row_prefix_sums(sigma, n).view(np.int64), expected.view(np.int64))


class TestEstimateLambda1:
    def test_identity_sigma(self):
        inst = PortfolioInstance(_universe([1, 1, 1], np.eye(3)), n=1)
        assert estimate_lambda1(inst) == 0.0

    def test_three_asset_example(self):
        sigma = [[4, 1, 2], [1, 9, 3], [2, 3, 16]]
        inst = PortfolioInstance(_universe([1, 2, 3], sigma), n=2)
        assert estimate_lambda1(inst) == 5.0

    def test_matches_independent_oracle(self, rng):
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 12)))
            expected = _oracle_lambda1(inst.universe.sigma.tolist(), inst.n)
            assert estimate_lambda1(inst) == max(expected, 0.0)

    def test_monotone_in_n_for_nonnegative_sigma(self, rng):
        sigma = np.abs(rng.standard_normal((8, 8)))
        sigma = (sigma + sigma.T) / 2 + 8 * np.eye(8)
        mu = rng.uniform(1, 5, 8)
        values = [
            estimate_lambda1(PortfolioInstance(_universe(mu, sigma), n=n))
            for n in range(1, 9)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_positively_homogeneous(self, rng):
        inst = random_instance(rng, 7)
        scaled = PortfolioInstance(
            _universe(inst.universe.mu, 3.5 * inst.universe.sigma),
            n=inst.n,
        )
        assert estimate_lambda1(scaled) == pytest.approx(
            3.5 * estimate_lambda1(inst), rel=1e-12
        )


class TestEstimateLambda2:
    def test_equal_returns_give_zero(self):
        inst = PortfolioInstance(
            _universe([2.0, 2.0, 2.0], np.eye(3)),
            n=2,
            r_star=3.0,
            return_mode="at_least",
        )
        assert estimate_lambda2(inst) == 0.0

    def test_mode_none_gives_zero(self):
        inst = PortfolioInstance(_universe([1.0, 2.0], np.eye(2)), n=2)
        assert estimate_lambda2(inst) == 0.0

    def test_hand_traced_example(self):
        # row sums of 2 smallest entries: 3, 4, 5; the two chosen assets have
        # mu 1 and 3, so A1 = (4-3)/1 = 1 and A2 = 2
        sigma = [[4, 1, 2], [1, 9, 3], [2, 3, 16]]
        inst = PortfolioInstance(
            _universe([1.0, 3.0, 10.0], sigma),
            n=2,
            r_star=2.0,
            return_mode="at_least",
        )
        assert estimate_lambda2(inst) == pytest.approx(0.5)

    def test_zero_below_two_assets(self):
        # A1 divides by n - 1, so the estimate is undefined and reads 0
        for mode in ("equality", "at_least"):
            inst = PortfolioInstance(
                _universe([1.0, 2.0], np.eye(2)), n=1, r_star=1.0, return_mode=mode
            )
            assert estimate_lambda2(inst) == 0.0

    def test_invariant_under_return_shift(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 8, mode="at_least")
            if inst.n < 2:
                continue
            shifted = PortfolioInstance(
                _universe(inst.universe.mu + 37.5, inst.universe.sigma),
                n=inst.n,
                r_star=inst.r_star,
                return_mode="at_least",
            )
            base = estimate_lambda2(inst)
            assert estimate_lambda2(shifted) == pytest.approx(base, rel=1e-12, abs=1e-15)


def _sweep_instance(seed=7):
    # nonnegative covariances so the lambda1 estimate is strictly positive
    rng = np.random.default_rng(seed)
    f = np.abs(rng.standard_normal((12, 4)))
    sigma = f @ f.T + np.diag(rng.uniform(1, 2, 12))
    mu = rng.uniform(1, 3, 12)
    return PortfolioInstance(_universe(mu, (sigma + sigma.T) / 2), n=3)


class TestLambdaSweep:
    def test_zero_lambda_gives_empty_portfolio(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        points = lambda_sweep(inst, solver, [0.0])
        assert points[0].risk == 0.0
        assert not points[0].feasible

    def test_threshold_shape(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        l1_hat = estimate_lambda1(inst)
        values = np.linspace(0, 10 * l1_hat, 8).tolist()
        points = lambda_sweep(inst, solver, values)
        assert not points[0].feasible
        feasibility = [p.feasible for p in points]
        # once feasible, stays feasible; feasible risk is constant
        first = feasibility.index(True)
        assert all(feasibility[first:])
        risks = {round(p.risk, 9) for p in points if p.feasible}
        assert len(risks) == 1

    def test_large_penalty_matches_subset_oracle(self):
        from portqubo import solve_exhaustive_subsets

        inst = _sweep_instance()
        solver = make_solver("exact")
        l1_hat = estimate_lambda1(inst)
        points = lambda_sweep(inst, solver, [100 * l1_hat])
        oracle = solve_exhaustive_subsets(inst)
        assert points[0].feasible
        assert points[0].risk == pytest.approx(oracle.risk, rel=1e-9)

    def test_solver_failure_is_recorded(self):
        inst = _sweep_instance()

        def broken(q, seed):
            raise RuntimeError("boom")

        points = lambda_sweep(inst, broken, [0.0, 1.0])
        assert len(points) == 2
        assert all(p.error == "boom" for p in points)

    @pytest.mark.parametrize("name, options", [("exact", None), ("sa", {"sweeps": 5})])
    def test_negative_seed_gives_error_rows(self, name, options):
        points = lambda_sweep(_sweep_instance(), make_solver(name, options), [0.0, 1.0], seed=-1)
        assert [p.seed for p in points] == [-1, -1]
        assert all(re.search(r"\bseed\b.* must be a whole number of at least 0, got -1$", p.error) for p in points)

    def test_every_value_checked_before_the_first_solve(self):
        calls = []

        def counting(q, seed, _exact=make_solver("exact")):
            calls.append(seed)
            return _exact(q, seed)

        message = r"^PenaltyParams: field 'lambda1' must be a non-negative finite number, got -1\.0$"
        with pytest.raises(ValueError, match=message):
            lambda_sweep(_sweep_instance(), counting, [1.0, 0.0, -1.0])
        assert calls == []

    def test_output_order_matches_input(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        values = [5.0, 1.0, 3.0]
        points = lambda_sweep(inst, solver, values)
        assert [p.lambda1 for p in points] == values

    def test_csv_export(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        text = rows_csv(lambda_sweep(inst, solver, [0.0, 1.0]), RUN_COLUMNS)
        lines = text.splitlines()
        assert lines[0] == "lambda1,lambda2,seed,energy,risk,feasible,wall_time_s"
        assert len(lines) == 3


class TestGridSearch:
    def test_single_cell(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        l1 = 10 * estimate_lambda1(inst)
        best, cells, feasible = grid_search(inst, solver, [l1], [0.0], repeats=1)
        assert best.lambda1 == l1
        assert len(cells) == 1
        assert feasible

    @pytest.mark.parametrize("repeats", [0, 1.5, True, "2"])
    def test_repeats_not_a_whole_number_of_at_least_one_rejected(self, repeats):
        message = rf"^repeats must be a whole number of at least 1, got {re.escape(repr(repeats))}$"
        with pytest.raises(ValueError, match=message):
            grid_search(_sweep_instance(), make_solver("exact"), [1.0], [0.0], repeats=repeats)

    def test_prefers_feasible_cell(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        l1 = 10 * estimate_lambda1(inst)
        best, cells, feasible = grid_search(inst, solver, [0.0, l1], [0.0], repeats=1)
        assert feasible
        assert best.lambda1 == l1

    def test_no_feasible_cell_returns_smallest_violation(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        best, cells, feasible = grid_search(inst, solver, [0.0], [0.0], repeats=1)
        assert not feasible
        assert best.lambda1 == 0.0

    @pytest.mark.parametrize(
        "mode, shortfall",
        [
            ("equality", lambda ret, r_star: max(0.0, abs(ret - r_star) - EQUALITY_RETURN_TOL)),
            ("at_least", lambda ret, r_star: max(0.0, r_star - ret)),
        ],
        ids=["equality", "at_least"],
    )
    def test_residual_is_the_violation_of_the_decoded_runs(self, mode, shortfall):
        """Without a feasible cell, a cell's residual is the least over its
        runs of |cardinality - n| plus the return's shortfall past its
        constraint: beyond the tolerance under equality, below r_star under
        at_least. The target, all but 1 of the total return, is out of reach
        of 3 assets, and within the slack of at_least."""
        universe = _sweep_instance().universe
        inst = PortfolioInstance(universe, n=3, r_star=float(universe.mu.sum()) - 1.0, return_mode=mode)
        solver = make_solver("exact")
        l1 = estimate_lambda1(inst)
        _, cells, feasible = grid_search(inst, solver, [0.0, l1, 4 * l1], [0.0, 1.0], repeats=1)
        assert not feasible
        for cell in cells:
            q, layout = build_qubo(inst, PenaltyParams(1.0, cell.lambda1, cell.lambda2))
            sol = decode(inst, layout, solver(q, 0).bits)
            assert cell.residual == abs(sum(sol.x) - inst.n) + shortfall(sol.ret, inst.r_star)
        assert len({cell.residual for cell in cells}) > 1

    def test_deterministic(self):
        inst = _sweep_instance()
        solver = make_solver("sa", {"sweeps": 20, "restarts": 2})
        l1 = estimate_lambda1(inst)
        runs = [
            grid_search(inst, solver, [l1, 4 * l1], [0.0], repeats=2) for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]

        def stable(cells):
            return [
                (c.lambda1, c.lambda2, c.feasible, c.best_risk, c.residual)
                + tuple((r.seed, r.energy, r.risk, r.feasible) for r in c.runs)
                for c in cells
            ]

        assert stable(runs[0][1]) == stable(runs[1][1])

    def test_none_grid_is_default_grid_around_estimate(self):
        universe = _sweep_instance().universe
        r_star = float(universe.mu[:3].sum())
        inst = PortfolioInstance(universe, n=3, r_star=r_star, return_mode="equality")
        solver = make_solver("sa", {"sweeps": 20, "restarts": 1})
        grid1 = default_grid(estimate_lambda1(inst))
        grid2 = default_grid(estimate_lambda2(inst))
        assert len(grid1) > 1 and len(grid2) > 1

        def stable(search):
            best, cells, feasible = search
            return best, feasible, [
                (c.lambda1, c.lambda2, c.feasible, c.residual)
                + tuple((r.seed, r.energy, r.risk, r.feasible) for r in c.runs)
                for c in cells
            ]

        assert stable(grid_search(inst, solver, None, None, repeats=2)) == stable(
            grid_search(inst, solver, grid1, grid2, repeats=2)
        )
        assert stable(grid_search(inst, solver, [1.0], None, repeats=1)) == stable(
            grid_search(inst, solver, [1.0], grid2, repeats=1)
        )

    def test_runs_record_their_cell(self):
        inst = _sweep_instance()
        _, cells, _ = grid_search(inst, make_solver("exact"), [0.0, 5.0, 50.0], [0.0], repeats=2)
        assert any(cell.feasible for cell in cells) and not all(cell.feasible for cell in cells)
        for cell in cells:
            assert [(r.lambda1, r.lambda2, r.seed) for r in cell.runs] == [
                (cell.lambda1, cell.lambda2, 0),
                (cell.lambda1, cell.lambda2, 1),
            ]
            feasible = [r.risk for r in cell.runs if r.feasible]
            assert cell.feasible == bool(feasible)
            if feasible:
                assert cell.best_risk == min(feasible)

    def test_every_cell_checked_before_the_first_solve(self):
        calls = []

        def counting(q, seed, _exact=make_solver("exact")):
            calls.append(seed)
            return _exact(q, seed)

        message = r"^PenaltyParams: field 'lambda2' must be a non-negative finite number, got -1\.0$"
        with pytest.raises(ValueError, match=message):
            grid_search(_sweep_instance(), counting, [1.0, 2.0], [0.0, -1.0], repeats=2)
        assert calls == []

    def test_failed_cell_is_recorded_and_the_best_of_the_others_wins(self):
        # the solver fails on both runs of the middle cell, which would
        # otherwise win the tie at the best feasible risk by its smaller lambda1
        inst = _sweep_instance()
        l1 = estimate_lambda1(inst)
        exact = make_solver("exact")
        calls = []

        def flaky(q, seed):
            calls.append(seed)
            if 3 <= len(calls) <= 4:
                raise RuntimeError(f"boom {seed}")
            return exact(q, seed)

        best, cells, feasible = grid_search(inst, flaky, [0.0, 10 * l1, 20 * l1], [0.0], repeats=2)
        failed = cells[1]
        assert [(r.seed, r.error, r.feasible) for r in failed.runs] == [
            (0, "boom 0", False), (1, "boom 1", False)
        ]
        assert all(math.isnan(r.energy) and math.isnan(r.risk) for r in failed.runs)
        assert not failed.feasible and math.isnan(failed.best_risk)
        assert failed.residual == math.inf
        assert feasible and cells[2].feasible
        assert best == PenaltyParams(1.0, 20 * l1, 0.0)
        reference = grid_search(inst, exact, [0.0, 20 * l1], [0.0], repeats=2)[1]

        def outcomes(cell):
            return [(r.lambda1, r.seed, r.energy, r.risk, r.feasible) for r in cell.runs]

        assert [outcomes(c) for c in (cells[0], cells[2])] == [outcomes(c) for c in reference]

    def test_every_run_failed_raises_the_first_message(self):
        calls = []

        def broken(q, seed):
            calls.append(seed)
            raise ValueError(f"failed call {len(calls)}")

        with pytest.raises(ValueError, match=r"^failed call 1$"):
            grid_search(_sweep_instance(), broken, [0.0, 1.0], [0.0], repeats=2)

    def test_rejects_empty_grid(self):
        inst = _sweep_instance()
        with pytest.raises(ValueError):
            grid_search(inst, make_solver("exact"), [], [0.0])


class TestResolvePenalties:
    """A given lambda is used as it is; a missing one comes from the policy."""

    @staticmethod
    def _instance():
        universe = _sweep_instance().universe
        r_star = float(universe.mu[:3].sum())
        return PortfolioInstance(universe, n=3, r_star=r_star, return_mode="at_least")

    @pytest.mark.parametrize("lambda1", [None, 3.0])
    @pytest.mark.parametrize("lambda2", [None, 0.5])
    def test_explicit_and_estimate(self, lambda1, lambda2):
        inst = self._instance()
        l1_hat, l2_hat = estimate_lambda1(inst), estimate_lambda2(inst)
        assert l1_hat > 0 and l2_hat > 0
        assert resolve_penalties(inst, "explicit", lambda1, lambda2) == PenaltyParams(
            1.0, 0.0 if lambda1 is None else lambda1, 0.0 if lambda2 is None else lambda2
        )
        assert resolve_penalties(inst, "estimate", lambda1, lambda2) == PenaltyParams(
            1.0,
            l1_hat if lambda1 is None else lambda1,
            l2_hat if lambda2 is None else lambda2,
        )

    def test_grid_searches_the_missing_axis(self):
        inst = self._instance()
        solver = make_solver("exact")
        with pytest.warns(UserWarning, match="slack bits"):  # the at_least slack is short
            assert resolve_penalties(inst, "grid", None, 0.5, solver, 2) == (
                grid_search(inst, solver, None, [0.5], repeats=2)[0]
            )
            assert resolve_penalties(inst, "grid", 3.0, None, solver, 1) == (
                grid_search(inst, solver, [3.0], None, repeats=1)[0]
            )

    def test_grid_with_both_given_solves_nothing(self):
        def no_solver(q, seed):
            raise AssertionError("solved")

        params = resolve_penalties(self._instance(), "grid", 3.0, 0.5, no_solver)
        assert params == PenaltyParams(1.0, 3.0, 0.5)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown penalty policy 'grid2'"):
            resolve_penalties(self._instance(), "grid2", 3.0, 0.5)


def test_default_grid():
    assert default_grid(0.0) == [0.0]
    assert default_grid(4.0) == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
