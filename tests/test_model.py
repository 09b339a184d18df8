import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    ContractViolation,
    PortfolioInstance,
    check_feasible,
    portfolio_return,
    portfolio_risk,
    solution_from_bits,
)
from portqubo.model import RETURN_MODES, portfolio_returns, portfolio_risks

from conftest import naive_risk, random_instance, random_psd, straddling_instance


def test_risk_empty_portfolio():
    assert portfolio_risk([[1, 0], [0, 2]], [0, 0]) == 0.0


def test_risk_diagonal():
    assert portfolio_risk([[1, 0], [0, 2]], [1, 1]) == 3.0


def test_risk_with_covariance():
    assert portfolio_risk([[4, 1], [1, 9]], [1, 1]) == 15.0


def test_risk_dimension_mismatch():
    with pytest.raises(ContractViolation):
        portfolio_risk([[1, 0], [0, 2]], [1, 0, 1])


def test_risk_rejects_non_bits():
    with pytest.raises(ContractViolation):
        portfolio_risk([[1.0]], [2])


@pytest.mark.parametrize("bad", [0.5, 2, -1, float("nan"), float("inf")])
def test_bit_checks_reject_non_bits(bad):
    for check in (
        lambda x: portfolio_risk(np.eye(2), x),
        lambda x: portfolio_return([1.0, 2.0], x),
    ):
        with pytest.raises(ContractViolation, match="0 or 1"):
            check([1, bad])
    assert portfolio_risk(np.eye(2), [True, False]) == 1.0


def test_return_examples():
    assert portfolio_return([5, 7], [0, 0]) == 0.0
    assert portfolio_return([5, 7], [1, 1]) == 12.0
    with pytest.raises(ContractViolation):
        portfolio_return([5, 7], [1])


def test_return_average_per_asset_scale():
    # 20 selected assets totalling 3100 percent clears a 3000 target,
    # i.e. an average per-asset return of 155 percent
    mu = np.full(20, 155.0)
    x = np.ones(20)
    assert portfolio_return(mu, x) == pytest.approx(3100.0)
    assert portfolio_return(mu, x) >= 3000.0


def test_batched_returns_are_the_1d_products_bit_for_bit(rng):
    # check_feasible and portfolio_return take their sum from portfolio_returns,
    # so a reported return moves only if these bits differ
    for n_assets in [*range(1, 48), *range(48, 201, 8)]:
        mu = rng.uniform(-1e3, 1e3, n_assets) * 10.0 ** rng.integers(-3, 4, n_assets)
        rows = rng.integers(0, 2, (64, n_assets)).astype(np.float64)
        expected = np.array([float(mu @ row) for row in rows])
        assert np.array_equal(portfolio_returns(mu, rows).view(np.uint64), expected.view(np.uint64))
        singles = np.array([portfolio_return(mu, row) for row in rows])
        assert np.array_equal(singles.view(np.uint64), expected.view(np.uint64))


def test_batched_risks_are_the_1d_products_bit_for_bit(rng):
    # portfolio_risk and the subset oracle's rescoring take their sum from
    # portfolio_risks, so a reported risk moves only if these bits differ
    for n_assets in [*range(1, 48), *range(48, 201, 8)]:
        f = rng.standard_normal((n_assets, n_assets)) * 10.0 ** rng.integers(-3, 4)
        sigma = f @ f.T
        rows = rng.integers(0, 2, (64, n_assets)).astype(np.float64)
        expected = np.array([float(row @ (sigma @ row)) for row in rows])
        assert np.array_equal(portfolio_risks(sigma, rows).view(np.uint64), expected.view(np.uint64))
        singles = np.array([portfolio_risk(sigma, row) for row in rows])
        assert np.array_equal(singles.view(np.uint64), expected.view(np.uint64))


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(RETURN_MODES), straddling=st.booleans())
@settings(max_examples=200, deadline=None)
def test_solution_from_bits_agrees_with_the_single_metrics(seed, mode, straddling):
    """One pass gives bit for bit the risk, return and feasibility of the
    one-metric functions, on random bits, random n-subsets and, on a
    straddling instance, the x whose return sits on the target."""
    rng = np.random.default_rng(seed)
    xs = []
    if straddling and mode != "none":
        instance, x = straddling_instance(rng, mode)
        xs.append(x)
    else:
        instance = random_instance(rng, int(rng.integers(1, 40)), mode)
    subset = np.zeros(instance.n_assets, dtype=np.int64)
    subset[rng.choice(instance.n_assets, instance.n, replace=False)] = 1
    xs += [subset, rng.integers(0, 2, instance.n_assets)]
    for x in xs:
        sol = solution_from_bits(instance, x)
        assert sol.risk.hex() == portfolio_risk(instance.universe.sigma, x).hex()
        assert sol.ret.hex() == portfolio_return(instance.universe.mu, x).hex()
        assert sol.cardinality == int(x.sum())
        assert sol.feasible == check_feasible(instance, x).ok


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def test_check_feasible_mode_none():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    feas = check_feasible(inst, [1, 0])
    assert feas.cardinality_ok and feas.return_ok
    assert feas.cardinality_residual == 0


def test_check_feasible_at_least():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=10, return_mode="at_least"
    )
    feas = check_feasible(inst, [1, 1])
    assert feas.cardinality_ok and feas.return_ok
    assert feas.cardinality_residual == 0
    assert feas.return_residual == 2.0


def test_check_feasible_at_least_violated():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=13, return_mode="at_least"
    )
    feas = check_feasible(inst, [1, 1])
    assert feas.cardinality_ok and not feas.return_ok
    assert feas.return_residual == -1.0


def test_check_feasible_equality_tolerance():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=12, return_mode="equality"
    )
    assert check_feasible(inst, [1, 1]).return_ok
    inst2 = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=12.001, return_mode="equality"
    )
    assert not check_feasible(inst2, [1, 1]).return_ok


def test_check_feasible_is_pure():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    first = check_feasible(inst, [1, 0])
    second = check_feasible(inst, [1, 0])
    assert first == second


def test_universe_rejects_asymmetric_sigma():
    with pytest.raises(ValueError, match="symmetric"):
        _universe([1, 2], [[1, 0.5], [0.2, 1]])


def test_universe_rejects_indefinite_sigma():
    with pytest.raises(ValueError, match="semidefinite"):
        _universe([1, 2], [[1, 2], [2, 1]])


def test_universe_accepts_near_singular():
    # rank-deficient sample covariances must load
    sigma = np.outer([1.0, 2.0], [1.0, 2.0])
    u = _universe([1, 2], sigma)
    assert u.n_assets == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_universe_rejects_non_finite_mu(bad):
    with pytest.raises(ValueError, match="mu"):
        _universe([1.0, bad], np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_universe_rejects_non_finite_sigma(bad):
    # a NaN passes both the symmetry and the eigenvalue comparison
    sigma = np.eye(2)
    sigma[1, 1] = bad
    with pytest.raises(ValueError, match="sigma"):
        _universe([1.0, 2.0], sigma)


def test_universe_rejects_duplicate_symbols():
    with pytest.raises(ValueError, match="symbols.*AAA"):
        AssetUniverse(("AAA", "BBB", "AAA"), [1.0, 2.0, 3.0], np.eye(3))


def test_instance_validates_n():
    with pytest.raises(ValueError):
        PortfolioInstance(_universe([1, 2], np.eye(2)), n=3)
    with pytest.raises(ValueError):
        PortfolioInstance(_universe([1, 2], np.eye(2)), n=0)


def test_instance_validates_mode():
    with pytest.raises(ValueError):
        PortfolioInstance(_universe([1, 2], np.eye(2)), n=1, return_mode="exactly")


def test_risk_matches_naive_double_loop(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        sigma = random_psd(rng, n)
        x = rng.integers(0, 2, n)
        fast = portfolio_risk(sigma, x)
        slow = naive_risk(sigma.tolist(), x.tolist())
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)
        assert fast >= -1e-9


def test_risk_transpose_symmetry(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        sigma = random_psd(rng, n)
        x = rng.integers(0, 2, n)
        assert portfolio_risk(sigma, x) == portfolio_risk(sigma.T, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_non_finite_r_star(bad):
    with pytest.raises(ValueError, match="r_star"):
        PortfolioInstance(_universe([1.0, 2.0], np.eye(2)), n=1, r_star=bad, return_mode="at_least")


@pytest.mark.parametrize("n", [2, np.int64(2), 2.0, np.float64(2.0)])
def test_instance_accepts_whole_n(n):
    inst = PortfolioInstance(_universe([1.0, 2.0, 3.0], np.eye(3)), n=n)
    assert inst.n == 2 and type(inst.n) is int


@pytest.mark.parametrize("bad", ["1.5", True, np.bool_(True), None, [1.0]])
def test_instance_rejects_r_star_that_is_not_a_real_number(bad):
    with pytest.raises(ValueError, match="r_star must be a real number"):
        PortfolioInstance(_universe([1.0, 2.0], np.eye(2)), n=1, r_star=bad, return_mode="at_least")


@pytest.mark.parametrize("bad", [2.5, True, np.bool_(True), "2", np.nan, np.inf, None])
def test_instance_rejects_n_that_is_not_whole(bad):
    with pytest.raises(ValueError, match="n must be a whole number"):
        PortfolioInstance(_universe([1.0, 2.0, 3.0], np.eye(3)), n=bad)
