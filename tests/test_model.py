import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    ContractViolation,
    PortfolioInstance,
    solution_from_bits,
    solve_exhaustive_subsets,
)
from portqubo.model import RETURN_MODES, finite_number, portfolio_returns, portfolio_risks
from portqubo.model import MAX_MAGNITUDE, abs_sum
from portqubo.model import whole_number

from conftest import (
    naive_return,
    naive_risk,
    random_instance,
    random_psd,
    reference_meets_return,
    reference_psd_error,
    straddling_instance,
)


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _solution(sigma, x, mu=None):
    """solution_from_bits of ``x`` over a universe with covariance ``sigma``
    and returns ``mu`` (zeros by default), n = 1, no return target."""
    mu = np.zeros(len(sigma)) if mu is None else mu
    return solution_from_bits(PortfolioInstance(_universe(mu, sigma), n=1), x)


def test_risk_empty_portfolio():
    assert _solution([[1, 0], [0, 2]], [0, 0]).risk == 0.0


def test_risk_diagonal():
    assert _solution([[1, 0], [0, 2]], [1, 1]).risk == 3.0


def test_risk_with_covariance():
    assert _solution([[4, 1], [1, 9]], [1, 1]).risk == 15.0


def test_risk_dimension_mismatch():
    with pytest.raises(ContractViolation):
        _solution([[1, 0], [0, 2]], [1, 0, 1])


def test_risk_rejects_non_bits():
    with pytest.raises(ContractViolation):
        _solution([[1.0]], [2])


@pytest.mark.parametrize("bad", [0.5, 2, -1, float("nan"), float("inf")])
def test_bit_checks_reject_non_bits(bad):
    with pytest.raises(ContractViolation, match="0 or 1"):
        _solution(np.eye(2), [1, bad], mu=[1.0, 2.0])
    assert _solution(np.eye(2), [True, False]).risk == 1.0


def test_return_examples():
    assert _solution(np.eye(2), [0, 0], mu=[5, 7]).ret == 0.0
    assert _solution(np.eye(2), [1, 1], mu=[5, 7]).ret == 12.0
    with pytest.raises(ContractViolation):
        _solution(np.eye(2), [1], mu=[5, 7])


def test_return_average_per_asset_scale():
    # 20 selected assets totalling 3100 percent clears a 3000 target,
    # i.e. an average per-asset return of 155 percent
    inst = PortfolioInstance(_universe(np.full(20, 155.0), np.eye(20)), 20, 3000.0, "at_least")
    sol = solution_from_bits(inst, np.ones(20))
    assert sol.ret == pytest.approx(3100.0)
    assert sol.feasible


def test_batched_returns_are_the_1d_products_bit_for_bit(rng):
    # solution_from_bits takes its return from portfolio_returns, so a
    # reported return moves only if these bits differ
    for n_assets in [*range(1, 48), *range(48, 201, 8)]:
        mu = rng.uniform(-1e3, 1e3, n_assets) * 10.0 ** rng.integers(-3, 4, n_assets)
        rows = rng.integers(0, 2, (64, n_assets)).astype(np.float64)
        expected = np.array([float(mu @ row) for row in rows])
        assert np.array_equal(portfolio_returns(mu, rows).view(np.uint64), expected.view(np.uint64))


def test_batched_risks_are_the_1d_products_bit_for_bit(rng):
    # solution_from_bits and the subset oracle's rescoring take their risk
    # from portfolio_risks, so a reported risk moves only if these bits differ
    for n_assets in [*range(1, 48), *range(48, 201, 8)]:
        f = rng.standard_normal((n_assets, n_assets)) * 10.0 ** rng.integers(-3, 4)
        sigma = f @ f.T
        rows = rng.integers(0, 2, (64, n_assets)).astype(np.float64)
        expected = np.array([float(row @ (sigma @ row)) for row in rows])
        assert np.array_equal(portfolio_risks(sigma, rows).view(np.uint64), expected.view(np.uint64))


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(RETURN_MODES), straddling=st.booleans())
@settings(max_examples=200, deadline=None)
def test_solution_from_bits_agrees_with_independent_sums(seed, mode, straddling):
    """One pass gives bit for bit the batched risk and return sums the subset
    oracle rescores with, within 1e-9 the plain-loop sums, and the written-out
    cardinality and return rule applied to its return, on random bits, random
    n-subsets and, on a straddling instance, the x whose return sits on the
    target."""
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
    sigma, mu = instance.universe.sigma, instance.universe.mu
    for x in xs:
        sol = solution_from_bits(instance, x)
        row = x.astype(np.float64)[None]
        assert sol.risk.hex() == float(portfolio_risks(sigma, row)[0]).hex()
        assert sol.ret.hex() == float(portfolio_returns(mu, row)[0]).hex()
        assert sol.risk == pytest.approx(naive_risk(sigma.tolist(), x.tolist()), rel=1e-9, abs=1e-9)
        assert sol.ret == pytest.approx(naive_return(mu.tolist(), x.tolist()), rel=1e-9, abs=1e-9)
        assert sol.cardinality == int(x.sum())
        meets = sol.cardinality == instance.n and bool(reference_meets_return(instance, sol.ret))
        assert sol.feasible == meets


def test_solution_mode_none():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    sol = solution_from_bits(inst, [1, 0])
    assert sol.feasible
    assert sol.cardinality - inst.n == 0


def test_solution_at_least():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=10, return_mode="at_least"
    )
    sol = solution_from_bits(inst, [1, 1])
    assert sol.feasible
    assert sol.cardinality - inst.n == 0
    assert sol.ret - inst.r_star == 2.0


def test_solution_at_least_violated():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=13, return_mode="at_least"
    )
    sol = solution_from_bits(inst, [1, 1])
    assert sol.cardinality == inst.n and not sol.feasible
    assert sol.ret - inst.r_star == -1.0


def test_solution_equality_tolerance():
    inst = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=12, return_mode="equality"
    )
    assert solution_from_bits(inst, [1, 1]).feasible
    inst2 = PortfolioInstance(
        _universe([5, 7], np.eye(2)), n=2, r_star=12.001, return_mode="equality"
    )
    assert not solution_from_bits(inst2, [1, 1]).feasible


def test_solution_is_pure():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    first = solution_from_bits(inst, [1, 0])
    second = solution_from_bits(inst, [1, 0])
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


@given(
    n=st.integers(2, 40),
    ratio=st.sampled_from([-2e-6, -1e-6 * (1 + 1e-3), -1e-6 * (1 - 1e-3), -1e-9, 0.0, 1e-12, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_psd_check_accepts_what_the_eigenvalue_rule_accepts(n, ratio, seed):
    # Q diag(lambda) Q' with lambda_min / lambda_max = ratio; the Cholesky
    # shortcut must not change which matrices load, nor the message
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(max(ratio, 0.0), 1.0, n)
    lam[:2] = ratio, 1.0
    sigma = (q * lam) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    expected = reference_psd_error(sigma)
    if expected is None:
        assert _universe(np.zeros(n), sigma).n_assets == n
    else:
        with pytest.raises(ValueError) as err:
            _universe(np.zeros(n), sigma)
        assert str(err.value) == expected


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
        fast = _solution(sigma, x).risk
        slow = naive_risk(sigma.tolist(), x.tolist())
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)
        assert fast >= -1e-9


def test_risk_does_not_depend_on_the_layout_sigma_is_given_in(rng):
    # a universe built from sigma.T, a Fortran-ordered view of the same
    # symmetric matrix, stores it C-ordered, so its risks and its oracle
    # answer are bit for bit those of the universe built from sigma
    for n_assets in range(5, 61):
        sigma = random_psd(rng, n_assets) * 10.0 ** rng.integers(-3, 4)
        mu = rng.uniform(-1.0, 3.0, n_assets)
        n = int(rng.integers(1, 3))
        by_row, by_column = (PortfolioInstance(_universe(mu, s), n) for s in (sigma, sigma.T))
        for x in rng.integers(0, 2, (100, n_assets)):
            assert solution_from_bits(by_row, x).risk.hex() == solution_from_bits(by_column, x).risk.hex()
        assert solve_exhaustive_subsets(by_row).x == solve_exhaustive_subsets(by_column).x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_non_finite_r_star(bad):
    with pytest.raises(ValueError, match="r_star"):
        PortfolioInstance(_universe([1.0, 2.0], np.eye(2)), n=1, r_star=bad, return_mode="at_least")


@pytest.mark.parametrize(
    ("mu", "sigma"),
    [
        ([1.0], [[0.0]]),
        ([0.0], [[1.0]]),
        ([0.25, -0.25], np.zeros((2, 2))),
        ([0.0, 0.0], np.full((2, 2), 0.125)),
    ],
    ids=["mu", "sigma", "mu of 2 assets", "sigma of 2 assets"],
)
def test_magnitude_rule_accepts_its_bound_and_names_the_sum_above_it(mu, sigma):
    # N (sum |sigma| + sum |mu|) of exactly 2^1016, then of the float above it
    bound = MAX_MAGNITUDE
    assert bound == 2.0**1016
    universe = _universe(np.multiply(mu, bound), np.multiply(sigma, bound))
    above = np.nextafter(bound, np.inf)
    message = (
        r" is 7\.02224e\+305, above MAX_MAGNITUDE = 2\^1016 \(about 7\.02e305\): "
        "sums could overflow$"
    )
    with pytest.raises(ValueError, match=r"^universe N \(sum \|sigma\| \+ sum \|mu\|\)" + message):
        _universe(np.multiply(mu, above), np.multiply(sigma, above))
    for r_star in (bound, -bound):
        assert PortfolioInstance(universe, 1, r_star, "at_least").r_star == r_star
    with pytest.raises(ValueError, match=r"^PortfolioInstance: \|r_star\|" + message):
        PortfolioInstance(universe, 1, -above, "at_least")


def test_abs_sum_is_the_sum_of_magnitudes_block_by_block(rng):
    # 300 x 300 entries take two blocks of rows, 10^5 entries of a vector two blocks
    for a in (rng.standard_normal((300, 300)), rng.standard_normal(10**5), -np.eye(3)):
        assert abs_sum(a) == pytest.approx(float(np.abs(a).sum()), rel=1e-12)
    assert abs_sum(np.full((2, 2), 1e308)) == np.inf  # and no numpy warning


@pytest.mark.parametrize("n", [2, np.int64(2), 2.0, np.float64(2.0)])
def test_instance_accepts_whole_n(n):
    inst = PortfolioInstance(_universe([1.0, 2.0, 3.0], np.eye(3)), n=n)
    assert inst.n == 2 and type(inst.n) is int


@pytest.mark.parametrize("bad", ["1.5", True, np.bool_(True), None, [1.0]])
def test_instance_rejects_r_star_that_is_not_a_real_number(bad):
    with pytest.raises(ValueError, match="^PortfolioInstance: field 'r_star' must be a finite number, got "):
        PortfolioInstance(_universe([1.0, 2.0], np.eye(2)), n=1, r_star=bad, return_mode="at_least")


@pytest.mark.parametrize("bad", [2.5, True, np.bool_(True), "2", np.nan, np.inf, None, 0, -1])
def test_instance_rejects_n_that_is_not_whole(bad):
    message = "^PortfolioInstance: field 'n' must be a whole number of at least 1, got "
    with pytest.raises(ValueError, match=message):
        PortfolioInstance(_universe([1.0, 2.0, 3.0], np.eye(3)), n=bad)


class TestNumberRules:
    @pytest.mark.parametrize(
        "value, expected", [(3, 3), (3.0, 3), (np.int64(3), 3), (np.float64(3.0), 3), (2**70, 2**70)]
    )
    def test_whole_number_reads_an_int(self, value, expected):
        got = whole_number(value, 0, "k")
        assert got == expected and type(got) is int

    @pytest.mark.parametrize(
        "value", [1.5, True, False, np.bool_(True), "3", None, [3], np.inf, np.float64(np.inf), np.nan, -1]
    )
    def test_whole_number_rejects_everything_else(self, value):
        message = rf"^k must be a whole number of at least 0, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            whole_number(value, 0, "k")

    @pytest.mark.parametrize(
        "value, sign, expected",
        [(2, "", 2.0), (-1.5, "", -1.5), (0, "non-negative", 0.0), (np.float64(0.5), "positive", 0.5)],
    )
    def test_finite_number_reads_a_float(self, value, sign, expected):
        got = finite_number(value, sign, "k")
        assert got == expected and type(got) is float

    @pytest.mark.parametrize(
        "value, sign",
        [
            *[(v, "") for v in (True, "1.5", None, [1.0], {}, np.nan, np.inf, -np.inf, 10**400)],
            (-1e-300, "non-negative"),
            (0, "positive"),
            (-0.0, "positive"),
        ],
    )
    def test_finite_number_rejects_everything_else(self, value, sign):
        rule = f"a {sign} finite number" if sign else "a finite number"
        with pytest.raises(ValueError, match=rf"^k must be {rule}, got {re.escape(repr(value))}$"):
            finite_number(value, sign, "k")
