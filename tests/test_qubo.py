import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AssetUniverse,
    ContractViolation,
    IsingModel,
    PenaltyParams,
    PortfolioInstance,
    QuboMatrix,
    build_qubo,
    build_qubo_equality,
    build_qubo_inequality,
    chain_strength_bound,
    check_feasible,
    decode,
    ising_energy,
    qubo_energy,
    read_qubo,
    slack_count,
    to_ising,
    write_qubo,
)
from portqubo import qubo as qubo_mod
from portqubo.qubo import MAX_QUBO_DIM, VariableLayout

from conftest import (
    naive_qubo_energy,
    random_instance,
    random_qubo,
    reference_build_qubo,
    reference_write_qubo,
)


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def penalty_energy(instance, params, layout, bits):
    """Reference energy: objective plus squared constraint residuals."""
    x = bits[: layout.n_assets]
    y = bits[layout.n_assets :]
    feas = check_feasible(instance, x)
    risk = float(np.array(x) @ instance.universe.sigma @ np.array(x))
    energy = params.lambda0 * risk + params.lambda1 * feas.cardinality_residual**2
    if instance.return_mode == "equality":
        energy += params.lambda2 * feas.return_residual**2
    elif instance.return_mode == "at_least":
        surplus = sum(w * b for w, b in zip(layout.slack_weights, y))
        energy += params.lambda2 * (feas.return_residual - surplus) ** 2
    return energy


def assert_encoding_identity(instance, params, q, layout):
    for bits in itertools.product((0, 1), repeat=q.dim):
        expected = penalty_energy(instance, params, layout, bits)
        got = qubo_energy(q, bits)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestSlackCount:
    def test_sum_one(self):
        assert slack_count([1]) == 0

    def test_sum_eight(self):
        assert slack_count([2, 3, 3]) == 3

    def test_below_two(self):
        assert slack_count([0.5, 0.4]) == 0

    def test_powers_of_two_edges(self):
        assert slack_count([1024.0]) == 10
        assert slack_count([1023.0]) == 9
        assert slack_count([2047.0]) == 10

    def test_nonpositive_total(self):
        with pytest.raises(ValueError, match="positive total return"):
            slack_count([-1.0, 0.5])


class TestBuildEquality:
    def test_two_asset_example(self):
        inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
        q, layout = build_qubo_equality(inst, PenaltyParams(1, 2, 0))
        assert q.coeffs == {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 4.0}
        assert q.offset == 2.0
        energies = {
            bits: qubo_energy(q, bits) for bits in itertools.product((0, 1), repeat=2)
        }
        assert energies == {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 4}
        assert layout.n_slack == 0

    def test_penalty_free_is_folded_sigma(self):
        sigma = np.array([[4.0, 1.0], [1.0, 9.0]])
        inst = PortfolioInstance(_universe([5, 7], sigma), n=1)
        q, _ = build_qubo_equality(inst, PenaltyParams(1, 0, 0))
        assert q.coeffs == {(0, 0): 4.0, (1, 1): 9.0, (0, 1): 2.0}
        assert q.offset == 0.0

    def test_feasible_point_has_pure_risk_energy(self):
        inst = PortfolioInstance(_universe([1, 1, 1], np.eye(3)), n=3)
        q, _ = build_qubo_equality(inst, PenaltyParams(1, 1, 0))
        assert qubo_energy(q, [1, 1, 1]) == pytest.approx(3.0)

    def test_equality_mode_full_enumeration(self, rng):
        inst = random_instance(rng, 5, mode="equality")
        params = PenaltyParams(1.0, 2.5, 1.5)
        q, layout = build_qubo_equality(inst, params)
        assert_encoding_identity(inst, params, q, layout)

    def test_rejects_lambda2_when_mode_none(self):
        inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
        with pytest.raises(ValueError, match="lambda2"):
            build_qubo_equality(inst, PenaltyParams(1, 1, 1))

    def test_rejects_at_least_mode(self):
        inst = PortfolioInstance(
            _universe([5, 7], np.eye(2)), n=1, r_star=3, return_mode="at_least"
        )
        with pytest.raises(ValueError, match="slack"):
            build_qubo_equality(inst, PenaltyParams(1, 1, 0))


class TestBuildInequality:
    def test_single_asset_example(self):
        inst = PortfolioInstance(
            _universe([3.0], [[2.0]]), n=1, r_star=1.0, return_mode="at_least"
        )
        params = PenaltyParams(1, 0, 1)
        with pytest.warns(UserWarning, match="surplus"):
            q, layout = build_qubo_inequality(inst, params)
        assert layout.n_slack == 1
        assert layout.slack_weights == (1,)
        # x=1, y=1: residual 3 - 1 - 1 = 1, energy = risk 2 + 1
        assert qubo_energy(q, [1, 1]) == pytest.approx(3.0)
        assert_encoding_identity(inst, params, q, layout)

    def test_zero_lambda2_decouples_slack(self):
        inst = PortfolioInstance(
            _universe([5.0, 7.0], np.eye(2)), n=1, r_star=3.0, return_mode="at_least"
        )
        with pytest.warns(UserWarning, match="surplus"):
            q_ineq, layout = build_qubo_inequality(inst, PenaltyParams(1, 2, 0))
        inst_none = PortfolioInstance(_universe([5.0, 7.0], np.eye(2)), n=1)
        q_eq, _ = build_qubo_equality(inst_none, PenaltyParams(1, 2, 0))
        assert layout.n_slack == slack_count([5.0, 7.0])
        assert q_ineq.dim == q_eq.dim + layout.n_slack
        # slack bits carry no coefficients, so only the asset block remains
        assert q_ineq.coeffs == q_eq.coeffs

    def test_dimension_accounting(self, rng):
        # total return in [1024, 2048) gives K=10 slack bits
        mu = rng.uniform(10, 30, 50)
        mu *= 1500.0 / mu.sum()
        sigma = np.diag(rng.uniform(1, 5, 50))
        inst = PortfolioInstance(
            _universe(mu, sigma), n=10, r_star=500.0, return_mode="at_least"
        )
        q, layout = build_qubo_inequality(inst, PenaltyParams(1, 1, 0.1))
        assert layout.n_slack == 10
        assert q.dim == 60

    def test_target_exceeding_total_return(self):
        inst = PortfolioInstance(
            _universe([1.0, 1.0], np.eye(2)), n=2, r_star=5.0, return_mode="at_least"
        )
        with pytest.raises(ValueError, match="exceeds total available return"):
            build_qubo_inequality(inst, PenaltyParams(1, 1, 1))

    def test_quantization_warning(self):
        # max surplus 15 - 1 = 14 exceeds representable 2^3 - 1 = 7
        inst = PortfolioInstance(
            _universe([7.0, 8.0], np.eye(2)), n=1, r_star=1.0, return_mode="at_least"
        )
        with pytest.warns(UserWarning, match="surplus"):
            build_qubo_inequality(inst, PenaltyParams(1, 1, 1))

    def test_literal_weights_variant(self):
        inst = PortfolioInstance(
            _universe([3.0, 4.0], np.eye(2)), n=1, r_star=2.0, return_mode="at_least"
        )
        q, layout = build_qubo_inequality(
            inst, PenaltyParams(1, 0, 1), literal_weights=True
        )
        assert layout.slack_weights == (2, 4)

    def test_random_enumeration(self, rng):
        import warnings

        for _ in range(5):
            inst = random_instance(rng, 6, mode="at_least")
            params = PenaltyParams(1.0, float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quantization bound is fine here
                q, layout = build_qubo_inequality(inst, params)
            assert_encoding_identity(inst, params, q, layout)


class TestQuboEnergy:
    def test_zero_matrix_returns_offset(self):
        q = QuboMatrix(dim=3, coeffs={}, offset=1.5)
        assert qubo_energy(q, [1, 0, 1]) == 1.5

    def test_direct_summation(self):
        q = QuboMatrix(dim=2, coeffs={(0, 0): 1, (0, 1): 2, (1, 1): 3})
        assert qubo_energy(q, [1, 1]) == 6.0

    def test_dimension_mismatch(self):
        q = QuboMatrix(dim=2, coeffs={(0, 0): 1})
        with pytest.raises(ContractViolation):
            qubo_energy(q, [1, 0, 0])

    def test_matches_naive_on_random(self, rng):
        for _ in range(20):
            q = random_qubo(rng, int(rng.integers(1, 10)))
            bits = rng.integers(0, 2, q.dim).tolist()
            assert qubo_energy(q, bits) == pytest.approx(
                naive_qubo_energy(q, bits), rel=1e-12
            )


class TestIsing:
    def test_single_variable(self):
        q = QuboMatrix(dim=1, coeffs={(0, 0): 2.0})
        m = to_ising(q)
        assert m.h.tolist() == [1.0]
        assert m.offset == 1.0
        assert ising_energy(m, [-1]) == 0.0
        assert ising_energy(m, [1]) == 2.0

    def test_zero_qubo_preserves_offset(self):
        q = QuboMatrix(dim=2, coeffs={}, offset=3.25)
        m = to_ising(q)
        assert m.h.tolist() == [0.0, 0.0]
        assert m.j == {}
        assert m.offset == 3.25

    def test_two_variable_bijection(self):
        inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
        q, _ = build_qubo_equality(inst, PenaltyParams(1, 2, 0))
        m = to_ising(q)
        energies = sorted(
            ising_energy(m, [2 * a - 1, 2 * b - 1]) for a in (0, 1) for b in (0, 1)
        )
        assert energies == [1, 1, 2, 4]

    def test_round_trip_random(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 13))
            q = random_qubo(rng, dim)
            m = to_ising(q)
            for bits in itertools.product((0, 1), repeat=dim):
                qe = qubo_energy(q, bits)
                ie = ising_energy(m, [2 * b - 1 for b in bits])
                assert abs(ie - qe) <= 1e-9 * (1 + abs(qe))

    def test_energy_rejects_non_spins(self):
        m = IsingModel(dim=1, h=[1.0], j={})
        with pytest.raises(ContractViolation):
            ising_energy(m, [0])

    @pytest.mark.parametrize("bad", [0, 0.5, 2, float("nan")])
    def test_energy_checks_reject_non_values(self, bad):
        q = QuboMatrix(dim=2, coeffs={(0, 1): 1.0})
        with pytest.raises(ContractViolation, match="-1 or \\+1"):
            ising_energy(to_ising(q), [1, bad])
        if bad != 0:
            with pytest.raises(ContractViolation, match="0 or 1"):
                qubo_energy(q, [1, bad])

    def test_couplings_are_a_read_only_strict_upper_array(self, rng):
        q = random_qubo(rng, 9, density=0.5)
        m = to_ising(q)
        assert np.array_equal(m.J, np.triu(q.upper, 1) / 4.0)
        assert not m.J.flags.writeable and not m.h.flags.writeable
        with pytest.raises(ValueError):
            m.J[0, 1] = 1.0

    def test_coupling_dict_view_is_row_major_and_computed_once(self, rng):
        q = random_qubo(rng, 9, density=0.5)
        m = to_ising(q)
        quarter = np.triu(q.upper, 1) / 4.0
        expected = {
            (a, b): float(quarter[a, b])
            for a in range(q.dim)
            for b in range(a + 1, q.dim)
            if quarter[a, b] != 0.0
        }
        assert m.j == expected
        assert list(m.j) == sorted(m.j)
        assert m.j is m.j

    def test_dict_constructor(self):
        m = IsingModel(dim=3, h=[1.0, 0.0, -1.0], j={(0, 2): 2.0, (1, 2): 0.0}, offset=0.5)
        assert m.J.tolist() == [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert m.j == {(0, 2): 2.0}
        assert ising_energy(m, [1, 1, 1]) == 0.5 + 0.0 + 2.0
        for key in ((1, 0), (1, 1), (0, 3), (-1, 2)):
            with pytest.raises(ValueError, match="0 <= i < j < dim"):
                IsingModel(dim=3, h=[0.0] * 3, j={key: 1.0})
        with pytest.raises(ValueError, match="shape"):
            IsingModel(dim=3, h=[0.0] * 2, j={})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_constructor_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match=r"field h\[1\] must be finite"):
            IsingModel(dim=3, h=[0.0, value, 1.0], j={(0, 1): value})
        with pytest.raises(ValueError, match=r"coupling \(1, 2\) must be finite"):
            IsingModel(dim=3, h=[0.0] * 3, j={(0, 1): 1.0, (1, 2): value})
        with pytest.raises(ValueError, match="offset must be finite"):
            IsingModel(dim=3, h=[0.0] * 3, j={}, offset=value)


class TestChainStrengthBound:
    def test_zero_matrix(self):
        assert chain_strength_bound(QuboMatrix(dim=2, coeffs={})) == 0.0

    def test_sum_of_absolutes(self):
        q = QuboMatrix(dim=2, coeffs={(0, 0): -1, (1, 1): -1, (0, 1): 4})
        assert chain_strength_bound(q) == 6.0

    def test_folded_sigma(self):
        inst = PortfolioInstance(_universe([1, 1], [[4.0, 1.0], [1.0, 9.0]]), n=1)
        q, _ = build_qubo_equality(inst, PenaltyParams(1, 0, 0))
        assert chain_strength_bound(q) == 15.0

    def test_dominates_max_and_homogeneous(self, rng):
        for _ in range(20):
            q = random_qubo(rng, int(rng.integers(2, 12)))
            bound = chain_strength_bound(q)
            assert bound >= max(abs(v) for v in q.coeffs.values())
            scaled = QuboMatrix(
                dim=q.dim,
                coeffs={k: -3.0 * v for k, v in q.coeffs.items()},
                offset=q.offset,
            )
            assert chain_strength_bound(scaled) == pytest.approx(3.0 * bound, rel=1e-12)


class TestDecode:
    def test_identity_split(self):
        inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
        layout = VariableLayout(n_assets=2, n_slack=0)
        sol = decode(inst, layout, [1, 0])
        assert sol.x == (1, 0)
        assert sol.feasible

    def test_slack_surplus_recorded(self):
        inst = PortfolioInstance(
            _universe([3.0], [[2.0]]), n=1, r_star=1.0, return_mode="at_least"
        )
        layout = VariableLayout(n_assets=1, n_slack=1, slack_weights=(1,))
        sol = decode(inst, layout, [1, 1])
        assert sol.x == (1,)
        assert sol.provenance["slack_surplus"] == 1.0

    def test_round_trip_preserves_asset_prefix(self, rng):
        inst = random_instance(rng, 6, mode="at_least")
        q, layout = build_qubo_inequality(inst, PenaltyParams(1, 1, 1))
        for _ in range(20):
            bits = rng.integers(0, 2, layout.dim).tolist()
            sol = decode(inst, layout, bits)
            assert list(sol.x) == bits[: layout.n_assets]

    def test_length_mismatch(self):
        inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
        layout = VariableLayout(n_assets=2, n_slack=0)
        with pytest.raises(ContractViolation):
            decode(inst, layout, [1, 0, 1])


class TestQuboFile:
    def test_round_trip_exact(self, tmp_path, rng):
        for k in range(5):
            q = random_qubo(rng, int(rng.integers(1, 15)))
            path = tmp_path / f"q{k}.qubo"
            write_qubo(q, path)
            back = read_qubo(path)
            assert back.dim == q.dim
            assert back.offset == q.offset
            assert back.coeffs == q.coeffs

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.qubo"
        path.write_text("c a comment\np qubo 2 1 0.5\nc another\n0 1 -2\n")
        q = read_qubo(path)
        assert q.dim == 2
        assert q.coeffs == {(0, 1): -2.0}
        assert q.offset == 0.5

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.qubo"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="before problem line"):
            read_qubo(path)

    @pytest.mark.parametrize("nnz", [1, 3])
    def test_nnz_mismatch_rejected(self, tmp_path, nnz):
        path = tmp_path / "nnz.qubo"
        path.write_text(f"c header\np qubo 2 {nnz} 0\n0 0 1\n0 1 -2\n")
        with pytest.raises(ValueError, match=rf"nnz\.qubo:2: .*declares {nnz} .* has 2"):
            read_qubo(path)

    def test_duplicate_coefficient_rejected(self, tmp_path):
        path = tmp_path / "dup.qubo"
        path.write_text("p qubo 2 2 0\n0 1 -2\n0 1 3\n")
        with pytest.raises(ValueError, match=r"dup\.qubo:3: duplicate coefficient 0 1"):
            read_qubo(path)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("p qubo 2 2 nan\n0 0 1\n0 1 1\n", r"nonfinite\.qubo:1: offset nan"),
            ("p qubo 2 2 0\n0 0 nan\n0 1 1\n", r"nonfinite\.qubo:2: coefficient 0 0"),
            ("p qubo 2 2 0\n0 0 1\n0 1 inf\n", r"nonfinite\.qubo:3: coefficient 0 1"),
            ("p qubo 2 1 0\n1 1 -inf\n", r"nonfinite\.qubo:2: coefficient 1 1"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, body, where):
        path = tmp_path / "nonfinite.qubo"
        path.write_text(body)
        with pytest.raises(ValueError, match=where + ".*not finite"):
            read_qubo(path)

    def test_second_problem_line_rejected(self, tmp_path):
        path = tmp_path / "two.qubo"
        path.write_text("p qubo 2 1 0\n0 1 1\np qubo 5 1 3\n")
        with pytest.raises(ValueError, match=r"two\.qubo:3: second problem line"):
            read_qubo(path)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("p qubo 2 1 0\n0 x 1.5\n", ":2: column index 'x' is not an integer"),
            ("p qubo 2 1 0\n1.0 1 1.5\n", ":2: row index '1.0' is not an integer"),
            ("p qubo 2 1 0\n0 1 abc\n", ":2: value 'abc' is not a number"),
            ("p qubo x 1 0\n", ":1: dim 'x' is not an integer"),
            ("p qubo 2 1.5 0\n", ":1: nnz '1.5' is not an integer"),
            ("p qubo 2 1 zero\n", ":1: offset 'zero' is not a number"),
            ("p qubo 0 0 0\n", ":1: dim must be positive"),
            ("p qubo -3 0 0\n", ":1: dim must be positive"),
            ("p qubo 2 1 0\n0 5 1.5\n", r":2: coefficient index \(0, 5\) out of range for dim 2"),
            ("p qubo 2 1 0\n-1 1 1.5\n", r":2: coefficient index \(-1, 1\) out of range"),
            ("p qubo 2 1 0\n2 2 1.5\n", r":2: coefficient index \(2, 2\) out of range"),
            ("p qubo 2 1 0\n1 0 1.5\n", r":2: coefficient index \(1, 0\) is below the diagonal"),
            # indices beyond int64 cannot be stored; they are out of range
            ("p qubo 2 1 0\n0 99999999999999999999 1\n", r":2: coefficient index \(0, 9+\) out"),
            ("p qubo 2 1 0\n-99999999999999999999 0 1\n", r":2: coefficient index \(-9+, 0\) out"),
        ],
    )
    def test_bad_token_index_or_dim_names_the_line(self, tmp_path, body, where):
        path = tmp_path / "bad.qubo"
        path.write_text(body)
        with pytest.raises(ValueError, match=r"bad\.qubo" + where):
            read_qubo(path)

    @pytest.mark.parametrize(
        "body, where",
        [
            # a fault found by the whole-file checks on an earlier line wins
            ("p qubo 2 3 0\n0 1 1\n0 1 2\n0 x 1\n", ":3: duplicate coefficient 0 1"),
            ("p qubo 2 3 0\n0 x 1\n0 1 1\n0 1 2\n", ":2: column index 'x'"),
            ("p qubo 2 2 0\n0 0 nan\n0 5 1\n", ":2: coefficient 0 0 is not finite: nan"),
            ("p qubo 2 3 0\n0 5 1\n0 1 1\n0 1 1\n", r":2: coefficient index \(0, 5\)"),
            ("p qubo 2 3 0\n0 1 1\n0 1 1\n1 0 1\n", ":3: duplicate coefficient 0 1"),
            ("p qubo 2 3 0\n0 1 1\n0 1 1\np qubo 2 0 0\n", ":3: duplicate coefficient 0 1"),
            ("p qubo 2 2 0\n0 1 inf\n0 1 1\nbad line\n", ":2: coefficient 0 1 is not finite: inf"),
            # within a line: a repeated pair comes before a non-finite value
            ("p qubo 2 2 0\n0 1 1\n0 1 nan\n", ":3: duplicate coefficient 0 1"),
            # every line fault comes before the nnz count of the problem line
            ("p qubo 2 5 0\n0 1 1\n1 0 1\n", r":3: coefficient index \(1, 0\) is below"),
        ],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, body, where):
        path = tmp_path / "order.qubo"
        path.write_text(body)
        with pytest.raises(ValueError, match=r"order\.qubo" + where):
            read_qubo(path)

    def test_zero_and_negative_zero_lines_count_towards_nnz(self, tmp_path):
        path = tmp_path / "zeros.qubo"
        path.write_text("p qubo 2 3 0\n0 0 0\n0 1 -0.0\n1 1 2\n")
        q = read_qubo(path)
        assert q.coeffs == {(1, 1): 2.0}
        assert not np.signbit(q.upper).any()


_EDGE_VALUES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17, -1e17, 1e300, 0.1, -0.0]


class TestQuboFileMatchesReference:
    """The block writer against the per-coefficient f-string writer, and the
    exact round trip through the array reader."""

    @given(
        dim=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        block=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, *_EDGE_VALUES]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_reference_and_round_trip_is_exact(
        self, tmp_path_factory, dim, density, block, seed, offset
    ):
        rng = np.random.default_rng(seed)
        size = dim * (dim + 1) // 2
        # magnitudes over sixty decades, a fifth of them edge values
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
        edge = rng.random(size) < 0.2
        values[edge] = rng.choice(_EDGE_VALUES, edge.sum())
        values[rng.random(size) >= density] = 0.0
        keys = [(i, j) for i in range(dim) for j in range(i, dim)]
        q = QuboMatrix(dim=dim, coeffs=dict(zip(keys, values.tolist())), offset=offset)
        d = tmp_path_factory.mktemp("qubo")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qubo_mod, "_QUBO_WRITE_BLOCK_ELEMENTS", block)  # rows per write
            write_qubo(q, d / "blocks.qubo")
        reference_write_qubo(q, d / "reference.qubo")
        assert (d / "blocks.qubo").read_bytes() == (d / "reference.qubo").read_bytes()
        back = read_qubo(d / "blocks.qubo")
        assert back.dim == q.dim
        assert np.array_equal(back.upper.view(np.int64), q.upper.view(np.int64))
        assert np.float64(back.offset).view(np.int64) == np.float64(q.offset).view(np.int64)

    @pytest.mark.filterwarnings("ignore:slack bits")
    def test_built_qubo_file_equals_reference(self, tmp_path, rng):
        inst = random_instance(rng, 60, mode="at_least", mu_range=(0.0, 40.0))
        q, _ = build_qubo(inst, PenaltyParams(1.0, 3.0, 0.5))
        write_qubo(q, tmp_path / "built.qubo")
        reference_write_qubo(q, tmp_path / "reference.qubo")
        assert (tmp_path / "built.qubo").read_bytes() == (tmp_path / "reference.qubo").read_bytes()
        back = read_qubo(tmp_path / "built.qubo")
        assert np.array_equal(back.upper.view(np.int64), q.upper.view(np.int64))
        assert back.offset == q.offset


class TestPenaltySufficiency:
    def test_doubling_reaches_feasible_argmin(self, rng):
        from portqubo.solvers import solve_qubo_bruteforce

        for _ in range(3):
            inst = random_instance(rng, 7, mode="none")
            l1 = 1.0
            for _ in range(12):
                q, layout = build_qubo(inst, PenaltyParams(1.0, l1, 0.0))
                bits, _ = solve_qubo_bruteforce(q)
                sol = decode(inst, layout, bits)
                if sol.feasible:
                    break
                l1 *= 2.0
            assert sol.feasible

    def test_offset_consistency_equality_mode(self, rng):
        inst = random_instance(rng, 6, mode="none")
        params = PenaltyParams(1.0, 3.0, 0.0)
        q, layout = build_qubo(inst, params)
        bits = [0] * 6
        for i in rng.permutation(6)[: inst.n]:
            bits[i] = 1
        sol = decode(inst, layout, bits)
        assert sol.feasible
        assert qubo_energy(q, bits) == pytest.approx(sol.risk, rel=1e-12, abs=1e-9)


class TestValidation:
    def test_qubo_canonicalization_drops_zeros(self):
        q = QuboMatrix(dim=2, coeffs={(0, 0): 0.0, (0, 1): 1.0})
        assert (0, 0) not in q.coeffs

    def test_qubo_rejects_lower_triangle(self):
        with pytest.raises(ValueError):
            QuboMatrix(dim=2, coeffs={(1, 0): 1.0})

    @pytest.mark.parametrize("key", [(0.5, 1), (0, 1.0), (np.float64(0.0), 1)])
    def test_dict_constructors_reject_non_integer_indices(self, key):
        with pytest.raises(TypeError):
            QuboMatrix(dim=2, coeffs={key: 2.0})
        with pytest.raises(TypeError):
            IsingModel(dim=2, h=[0.0, 0.0], j={key: 2.0})

    def test_dict_constructors_take_numpy_integer_indices(self):
        key = (np.int64(0), np.int32(1))
        assert QuboMatrix(dim=2, coeffs={key: 2.0}).coeffs == {(0, 1): 2.0}
        assert IsingModel(dim=2, h=[0.0, 0.0], j={key: 2.0}).j == {(0, 1): 2.0}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_qubo_rejects_non_finite_coefficient(self, value):
        with pytest.raises(ValueError, match=r"coefficient \(1, 2\) must be finite"):
            QuboMatrix(dim=3, coeffs={(0, 0): 1.0, (1, 2): value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_qubo_rejects_non_finite_offset(self, value):
        with pytest.raises(ValueError, match="offset must be finite"):
            QuboMatrix(dim=2, coeffs={(0, 1): 1.0}, offset=value)

    @pytest.mark.parametrize("name", ["lambda0", "lambda1", "lambda2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_penalty_params_reject_non_finite(self, name, value):
        values = {"lambda0": 1.0, "lambda1": 0.0, "lambda2": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PenaltyParams(**values)

    def test_penalty_params_validation(self):
        with pytest.raises(ValueError):
            PenaltyParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PenaltyParams(1.0, -1.0, 0.0)


class TestBuildMatchesReference:
    """The closed-form array build against the dict-accumulating reference:
    the same bits in every coefficient, the same offset, the same file."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_assets=st.integers(1, 12),
        mode=st.sampled_from(["none", "equality", "at_least"]),
        zero_l1=st.booleans(),
        zero_l2=st.booleans(),
        zero_mu=st.booleans(),
        literal_weights=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_reference(
        self, tmp_path_factory, seed, n_assets, mode, zero_l1, zero_l2, zero_mu, literal_weights
    ):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_assets, mode=mode, mu_range=(0.0, 40.0))
        if zero_mu:
            mu = inst.universe.mu.copy()
            mu[rng.integers(0, n_assets)] = 0.0
            universe = AssetUniverse(inst.universe.symbols, mu, inst.universe.sigma)
            inst = PortfolioInstance(universe, inst.n, inst.r_star, mode)
        if mode == "at_least" and inst.universe.mu.sum() <= max(inst.r_star, 0.0):
            return
        params = PenaltyParams(
            float(rng.uniform(0.1, 4.0)),
            0.0 if zero_l1 else float(rng.uniform(0.0, 50.0)),
            0.0 if zero_l2 or mode == "none" else float(rng.uniform(0.0, 50.0)),
        )
        kwargs = {"literal_weights": literal_weights} if mode == "at_least" else {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # slack quantization warning
            q, layout = build_qubo(inst, params, **kwargs)
            ref, weights = reference_build_qubo(inst, params, literal_weights)
        assert layout.slack_weights == weights
        assert q.dim == ref.dim
        assert np.array_equal(q.to_dense().view(np.int64), ref.to_dense().view(np.int64))
        assert q.offset == ref.offset
        d = tmp_path_factory.mktemp("qubo")
        write_qubo(q, d / "built.qubo")
        write_qubo(ref, d / "ref.qubo")
        assert (d / "built.qubo").read_bytes() == (d / "ref.qubo").read_bytes()

    @pytest.mark.filterwarnings("ignore:slack bits")
    def test_coefficient_view_is_row_major_and_computed_once(self, rng):
        inst = random_instance(rng, 5, mode="at_least")
        q, _ = build_qubo_inequality(inst, PenaltyParams(1, 1, 1))
        assert list(q.coeffs) == sorted(q.coeffs)
        assert q.coeffs is q.coeffs


class TestDimBound:
    def test_constructor_rejects_dim_above_bound(self):
        with pytest.raises(ValueError, match=rf"{MAX_QUBO_DIM + 1}.*{MAX_QUBO_DIM}"):
            QuboMatrix(dim=MAX_QUBO_DIM + 1, coeffs={})

    def test_read_qubo_rejects_dim_above_bound(self, tmp_path):
        path = tmp_path / "huge.qubo"
        path.write_text("p qubo 100000 0 0\n")
        with pytest.raises(ValueError, match=rf"100000.*{MAX_QUBO_DIM}"):
            read_qubo(path)
