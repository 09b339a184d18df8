
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portqubo import (
    AnnealConfig,
    AssetUniverse,
    FlipEvaluator,
    GaConfig,
    InfeasibleInstanceError,
    PenaltyParams,
    PortfolioInstance,
    QuboMatrix,
    TabuConfig,
    build_qubo_equality,
    make_solver,
    qubo_energy,
    run_restarts,
    solve_exhaustive_subsets,
    solve_ga,
    solve_qubo_bruteforce,
    solve_sa,
    solve_tabu,
)

from conftest import naive_bruteforce, random_qubo, reference_sa, reference_tabu


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _example_qubo():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    q, _ = build_qubo_equality(inst, PenaltyParams(1, 2, 0))
    return q


class TestExhaustiveSubsets:
    def test_diagonal_example(self):
        inst = PortfolioInstance(_universe([1, 1, 1], np.diag([1.0, 2.0, 3.0])), n=1)
        sol = solve_exhaustive_subsets(inst)
        assert sol.x == (1, 0, 0)
        assert sol.risk == 1.0

    def test_forced_selection(self):
        inst = PortfolioInstance(_universe([1, 1, 1], np.eye(3)), n=3)
        sol = solve_exhaustive_subsets(inst)
        assert sol.x == (1, 1, 1)

    def test_infeasible_return_target(self):
        inst = PortfolioInstance(
            _universe([1, 1, 1], np.eye(3)), n=2, r_star=5.0, return_mode="at_least"
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_exhaustive_subsets(inst)

    def test_combinatorial_guard(self):
        sigma = np.eye(60)
        inst = PortfolioInstance(_universe(np.ones(60), sigma), n=30)
        with pytest.raises(ValueError, match="guard"):
            solve_exhaustive_subsets(inst)

    def test_lexicographic_tie_break(self):
        # assets 0 and 2 tie on risk; (0,0,1) is the lex-smaller bit vector
        inst = PortfolioInstance(_universe([1, 1, 1], np.diag([1.0, 2.0, 1.0])), n=1)
        sol = solve_exhaustive_subsets(inst)
        assert sol.x == (0, 0, 1)


class TestBruteforce:
    def test_zero_qubo(self):
        q = QuboMatrix(dim=3, coeffs={}, offset=1.5)
        bits, energy = solve_qubo_bruteforce(q)
        assert bits == (0, 0, 0)
        assert energy == 1.5

    def test_degenerate_lexicographic_winner(self):
        bits, energy = solve_qubo_bruteforce(_example_qubo())
        assert bits == (0, 1)
        assert energy == 1.0

    def test_matches_independent_enumerator(self, rng):
        for _ in range(10):
            q = random_qubo(rng, 10, density=0.7)
            fast_bits, fast_energy = solve_qubo_bruteforce(q)
            slow_bits, slow_energy = naive_bruteforce(q)
            assert fast_bits == slow_bits
            assert fast_energy == pytest.approx(slow_energy, rel=1e-12, abs=1e-12)

    def test_dim_guard(self):
        q = QuboMatrix(dim=25, coeffs={(0, 0): 1.0})
        with pytest.raises(ValueError, match="guard"):
            solve_qubo_bruteforce(q)


class TestFlipEvaluator:
    def test_incremental_matches_scratch(self, rng):
        q = random_qubo(rng, 50)
        state = FlipEvaluator(q)
        for _ in range(1000):
            i = int(rng.integers(0, q.dim))
            state.flip(i)
        scratch = qubo_energy(q, state.bits())
        assert state.energy == pytest.approx(scratch, rel=1e-9)

    def test_gain_predicts_flip(self, rng):
        q = random_qubo(rng, 12)
        state = FlipEvaluator(q, rng.integers(0, 2, 12))
        for i in range(12):
            predicted = state.energy + state.gain(i)
            state.flip(i)
            assert state.energy == pytest.approx(predicted, rel=1e-12)


class TestSimulatedAnnealing:
    def test_deterministic(self, rng):
        q = random_qubo(rng, 12)
        config = AnnealConfig(sweeps=100, restarts=3, seed=42)
        a = solve_sa(q, config)
        b = solve_sa(q, config)
        assert a.bits == b.bits
        assert a.energy == b.energy
        assert a.energy_trace == b.energy_trace
        assert a.evaluations == b.evaluations

    def test_finds_example_ground_state(self):
        result = solve_sa(_example_qubo(), AnnealConfig(sweeps=50, restarts=3, seed=0))
        assert result.energy == 1.0

    def test_trace_monotone(self, rng):
        q = random_qubo(rng, 14)
        result = solve_sa(q, AnnealConfig(sweeps=200, restarts=2, seed=9))
        energies = [e for _, e in result.energy_trace]
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_reported_energy_recomputable(self, rng):
        q = random_qubo(rng, 14)
        result = solve_sa(q, AnnealConfig(sweeps=200, restarts=2, seed=5))
        assert result.energy == pytest.approx(qubo_energy(q, result.bits), rel=1e-9)

    def test_ground_state_hit_rate(self, rng):
        # shorter budget than default, still expected to be near-perfect
        hits = 0
        trials = 20
        for trial in range(trials):
            q = random_qubo(rng, 16)
            optimum = solve_qubo_bruteforce(q)[1]
            result = solve_sa(q, AnnealConfig(sweeps=300, restarts=4, seed=trial))
            if result.energy <= optimum + 1e-9 * (1 + abs(optimum)):
                hits += 1
        assert hits >= 19

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AnnealConfig(beta_initial=2.0, beta_final=1.0)
        with pytest.raises(ValueError):
            AnnealConfig(schedule="polynomial")

    def test_linear_schedule(self, rng):
        q = random_qubo(rng, 8)
        result = solve_sa(
            q,
            AnnealConfig(
                sweeps=100, restarts=2, seed=1, schedule="linear",
                beta_initial=0.01, beta_final=5.0,
            ),
        )
        assert result.energy == pytest.approx(qubo_energy(q, result.bits), rel=1e-9)


def _outcome(result):
    return result.bits, result.energy, result.evaluations, result.energy_trace


_SA_CONFIGS = (
    AnnealConfig(sweeps=40, restarts=2, seed=5),
    AnnealConfig(sweeps=30, restarts=2, seed=6, schedule="linear"),
    AnnealConfig(sweeps=25, restarts=2, seed=7, beta_initial=0.05, beta_final=3.0),
    AnnealConfig(sweeps=1, restarts=3, seed=8),
)
_TABU_CONFIGS = (
    TabuConfig(seed=5, restarts=3),
    TabuConfig(seed=6, restarts=2, tenure=3, max_iterations=40),
)


@pytest.mark.filterwarnings("ignore:tabu tenure")
class TestMatchesReference:
    """SA and tabu reproduce the plain loops in conftest bit for bit."""

    @pytest.mark.parametrize("density", [1.0, 0.3])
    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 33, 60])
    def test_sa(self, dim, density):
        q = random_qubo(np.random.default_rng(dim), dim, density)
        for config in _SA_CONFIGS:
            assert _outcome(solve_sa(q, config)) == reference_sa(q, config)

    @pytest.mark.parametrize("density", [1.0, 0.3])
    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 33, 60])
    def test_tabu(self, dim, density):
        q = random_qubo(np.random.default_rng(dim), dim, density)
        for config in _TABU_CONFIGS:
            assert _outcome(solve_tabu(q, config)) == reference_tabu(q, config)

    @given(
        dim=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_problems(self, dim, density, seed):
        q = random_qubo(np.random.default_rng(seed), dim, density)
        sa_config = AnnealConfig(sweeps=20, restarts=2, seed=seed)
        tabu_config = TabuConfig(seed=seed, restarts=2, max_iterations=30)
        assert _outcome(solve_sa(q, sa_config)) == reference_sa(q, sa_config)
        assert _outcome(solve_tabu(q, tabu_config)) == reference_tabu(q, tabu_config)


class TestTabu:
    def test_deterministic(self, rng):
        q = random_qubo(rng, 12)
        config = TabuConfig(seed=3, restarts=2, max_iterations=100)
        a = solve_tabu(q, config)
        b = solve_tabu(q, config)
        assert a.bits == b.bits and a.energy == b.energy

    def test_dominates_all_zeros(self, rng):
        # all-zeros is one restart's start, and best-ever only improves
        for _ in range(10):
            q = random_qubo(rng, 10)
            result = solve_tabu(q, TabuConfig(seed=1, max_iterations=50))
            assert result.energy <= qubo_energy(q, [0] * q.dim) + 1e-12

    def test_finds_ground_state(self, rng):
        hits = 0
        for trial in range(20):
            q = random_qubo(rng, 14)
            optimum = solve_qubo_bruteforce(q)[1]
            result = solve_tabu(q, TabuConfig(seed=trial))
            if result.energy <= optimum + 1e-9 * (1 + abs(optimum)):
                hits += 1
        assert hits >= 18

    def test_tenure_warning(self, rng):
        q = random_qubo(rng, 5)
        with pytest.warns(UserWarning, match="tenure"):
            solve_tabu(q, TabuConfig(tenure=5, max_iterations=10, restarts=1))

    def test_trace_monotone(self, rng):
        q = random_qubo(rng, 12)
        result = solve_tabu(q, TabuConfig(seed=2))
        energies = [e for _, e in result.energy_trace]
        assert all(a >= b for a, b in zip(energies, energies[1:]))


class TestGa:
    def test_deterministic(self, rng):
        q = random_qubo(rng, 12)
        config = GaConfig(population=20, generations=30, seed=11)
        a = solve_ga(q, config)
        b = solve_ga(q, config)
        assert a.bits == b.bits and a.energy == b.energy

    def test_no_variation_operators_freeze_best(self, rng):
        q = random_qubo(rng, 10)
        config = GaConfig(
            population=10,
            generations=50,
            crossover_rate=0.0,
            mutation_rate=0.0,
            elitism_count=9,
            seed=4,
        )
        result = solve_ga(q, config)
        # best is fixed by the initial population
        assert len(result.energy_trace) == 1

    def test_trace_monotone_and_recomputable(self, rng):
        q = random_qubo(rng, 14)
        result = solve_ga(q, GaConfig(population=30, generations=60, seed=8))
        energies = [e for _, e in result.energy_trace]
        assert all(a >= b for a, b in zip(energies, energies[1:]))
        assert result.energy == pytest.approx(qubo_energy(q, result.bits), rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population=11)
        with pytest.raises(ValueError):
            GaConfig(elitism_count=100, population=100)
        with pytest.raises(ValueError):
            GaConfig(tournament_size=1)


class TestRunRestarts:
    def test_single_seed_matches_direct_call(self, rng):
        q = random_qubo(rng, 10)
        solver = make_solver("sa", {"sweeps": 50, "restarts": 2})
        direct = solver(q, 7)
        wrapped = run_restarts(solver, q, [7])
        assert wrapped.bits == direct.bits
        assert wrapped.energy == direct.energy

    def test_order_independent(self, rng):
        q = random_qubo(rng, 10)
        solver = make_solver("sa", {"sweeps": 50, "restarts": 1})
        a = run_restarts(solver, q, [1, 2, 3])
        b = run_restarts(solver, q, [3, 1, 2])
        assert a.bits == b.bits and a.energy == b.energy and a.seed == b.seed

    def test_best_of_dominates_each_run(self, rng):
        q = random_qubo(rng, 16)
        solver = make_solver("sa", {"sweeps": 100, "restarts": 1})
        seeds = [0, 1, 2, 3, 4]
        best = run_restarts(solver, q, seeds)
        assert len(best.per_seed) == 5
        for run in best.per_seed:
            assert best.energy <= run.energy

    def test_empty_seeds_rejected(self, rng):
        q = random_qubo(rng, 4)
        with pytest.raises(ValueError):
            run_restarts(make_solver("exact"), q, [])


class TestMakeSolver:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("quantum")

    def test_exact_reports_enumeration_count(self, rng):
        q = random_qubo(rng, 6)
        result = make_solver("exact")(q, 0)
        assert result.evaluations == 64
        assert result.energy == pytest.approx(naive_bruteforce(q)[1], rel=1e-12)

    def test_time_limit_option(self, rng):
        q = random_qubo(rng, 12)
        solver = make_solver("sa", {"sweeps": 10000, "restarts": 1, "time_limit_s": 0.01})
        result = solver(q, 0)
        assert result.wall_time_s < 1.0
