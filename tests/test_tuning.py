import numpy as np
import pytest

from portqubo import (
    AssetUniverse,
    PenaltyParams,
    PortfolioInstance,
    estimate_lambda1,
    estimate_lambda2,
    estimate_lambdas,
    grid_search,
    lambda_sweep,
)
from portqubo.solvers import make_solver
from portqubo.tuning import default_grid, sweep_csv

from conftest import random_instance


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _oracle_lambda1(sigma, n):
    """Independent sort-and-sum estimate."""
    best = 0.0
    for row in sigma:
        best = max(best, sum(sorted(row)[:n]))
    return best


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

    def test_requires_two_assets(self):
        inst = PortfolioInstance(
            _universe([1.0, 2.0], np.eye(2)), n=1, r_star=1.0, return_mode="at_least"
        )
        with pytest.raises(ValueError, match="n >= 2"):
            estimate_lambda2(inst)

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

    def test_pairwise_a1_option(self):
        sigma = [[4, 1, 2], [1, 9, 3], [2, 3, 16]]
        inst = PortfolioInstance(
            _universe([1.0, 3.0, 10.0], sigma),
            n=2,
            r_star=2.0,
            return_mode="at_least",
        )
        # with n=2 the consecutive-gap and pairwise readings coincide
        assert estimate_lambda2(inst, pairwise_a1=True) == estimate_lambda2(inst)

    def test_estimate_lambdas_bundle(self, rng):
        inst = random_instance(rng, 6, mode="at_least")
        est = estimate_lambdas(inst)
        assert est.lambda1_hat == estimate_lambda1(inst)
        assert len(est.details["row_sums"]) == 6

    @pytest.mark.parametrize("mode", ["none", "equality", "at_least"])
    def test_estimate_lambdas_equals_single_estimates(self, rng, mode):
        for _ in range(10):
            inst = random_instance(rng, 7, mode=mode)
            est = estimate_lambdas(inst)
            assert est.lambda1_hat == estimate_lambda1(inst)
            if mode == "none" or inst.n < 2:
                assert est.lambda2_hat == 0.0
            else:
                assert est.lambda2_hat == estimate_lambda2(inst)


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
        assert points[0].best_risk == 0.0
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
        risks = {round(p.best_risk, 9) for p in points if p.feasible}
        assert len(risks) == 1

    def test_large_penalty_matches_subset_oracle(self):
        from portqubo import solve_exhaustive_subsets

        inst = _sweep_instance()
        solver = make_solver("exact")
        l1_hat = estimate_lambda1(inst)
        points = lambda_sweep(inst, solver, [100 * l1_hat])
        oracle = solve_exhaustive_subsets(inst)
        assert points[0].feasible
        assert points[0].best_risk == pytest.approx(oracle.risk, rel=1e-9)

    def test_solver_failure_is_recorded(self):
        inst = _sweep_instance()

        def broken(q, seed):
            raise RuntimeError("boom")

        points = lambda_sweep(inst, broken, [0.0, 1.0])
        assert len(points) == 2
        assert all(p.error == "boom" for p in points)

    def test_output_order_matches_input(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        values = [5.0, 1.0, 3.0]
        points = lambda_sweep(inst, solver, values)
        assert [p.lambda1 for p in points] == values

    def test_csv_export(self):
        inst = _sweep_instance()
        solver = make_solver("exact")
        text = sweep_csv(lambda_sweep(inst, solver, [0.0, 1.0]))
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

    def test_rejects_empty_grid(self):
        inst = _sweep_instance()
        with pytest.raises(ValueError):
            grid_search(inst, make_solver("exact"), [], [0.0])


def test_default_grid():
    assert default_grid(0.0) == [0.0]
    assert default_grid(4.0) == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
