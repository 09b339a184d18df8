
import gc
import time
import tracemalloc
import warnings
import weakref

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

from portqubo import solvers as solvers_mod
from portqubo.cli import cli_main
from portqubo.data import SyntheticSpec, generate_synthetic, save_instance
from portqubo.solvers import SOLVER_NAMES

from conftest import (
    naive_bruteforce,
    random_psd,
    random_qubo,
    reference_bruteforce,
    reference_exhaustive_subsets,
    reference_ga,
    reference_sa,
    reference_tabu,
)


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _integer_qubo(rng, dim: int, density: float) -> QuboMatrix:
    """Coefficients in -2..2 at the given density: equal energies are common."""
    values = rng.integers(-2, 3, size=(dim, dim)).astype(np.float64)
    keep = rng.random((dim, dim)) < density
    coeffs = {(i, j): values[i, j] for i in range(dim) for j in range(i, dim) if keep[i, j]}
    return QuboMatrix(dim=dim, coeffs=coeffs, offset=float(rng.integers(-2, 3)))


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


def _oracle_outcome(oracle, inst):
    try:
        return oracle(inst)
    except InfeasibleInstanceError:
        return "infeasible"


class TestExhaustiveSubsetsMatchesReference:
    """The prefix-extension oracle picks the subset that scoring every subset
    directly picks (the gather-based enumerator in conftest)."""

    @given(
        n_assets=st.integers(1, 10),
        distinct=st.integers(1, 10),
        mode=st.sampled_from(["none", "at_least", "equality"]),
        target=st.sampled_from(["sorted", "shuffled", "above", "below"]),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, n_assets, distinct, mode, target, decimals, seed):
        rng = np.random.default_rng(seed)
        distinct = min(distinct, n_assets)
        # repeated assets make exactly tied subsets
        pick = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n_assets - distinct)])
        rng.shuffle(pick)
        sigma = random_psd(rng, distinct)[np.ix_(pick, pick)]
        mu = rng.uniform(-1.0, 3.0, distinct)
        if decimals is not None:
            mu = np.round(mu, decimals)
        mu = mu[pick]
        n = int(rng.integers(1, n_assets + 1))
        r_star = 0.0
        if mode != "none":
            # the return of some subset, summed in either order
            subset = rng.choice(n_assets, n, replace=False)
            r_star = float(mu[np.sort(subset) if target != "shuffled" else subset].sum())
            r_star += {"above": 1e-9, "below": -1e-9}.get(target, 0.0)
        inst = PortfolioInstance(_universe(mu, sigma), n, r_star, mode)
        got = _oracle_outcome(lambda i: solve_exhaustive_subsets(i).x, inst)
        assert got == _oracle_outcome(reference_exhaustive_subsets, inst)

    @pytest.mark.parametrize(
        "n_assets, n, mode",
        [(16, 4, "none"), (18, 5, "none"), (20, 5, "none"), (22, 6, "none"),
         (26, 7, "none"), (20, 5, "at_least")],
    )
    def test_benchmark_sizes(self, n_assets, n, mode):
        universe = generate_synthetic(
            SyntheticSpec(n_assets=n_assets, seed=n_assets * 100 + n, return_range=(0.0, 10.0))
        )
        r_star = 0.6 * float(np.sort(universe.mu)[::-1][:n].sum()) if mode != "none" else 0.0
        inst = PortfolioInstance(universe, n, r_star, mode)
        assert solve_exhaustive_subsets(inst).x == reference_exhaustive_subsets(inst)

    def test_ties_across_blocks(self):
        # every subset ties and C(60, 4) spans many blocks: the smallest bit
        # vector is the lexicographically last subset
        inst = PortfolioInstance(_universe(np.ones(60), 2.0 * np.eye(60)), n=4)
        assert solve_exhaustive_subsets(inst).x == (0,) * 56 + (1,) * 4
        # 15 assets, each twice
        rng = np.random.default_rng(30)
        pick = np.repeat(np.arange(15), 2)
        sigma = random_psd(rng, 15)[np.ix_(pick, pick)]
        mu = np.round(rng.uniform(0.0, 3.0, 15), 1)[pick]
        inst = PortfolioInstance(_universe(mu, sigma), 4, float(mu[[0, 2, 4, 6]].sum()), "at_least")
        assert solve_exhaustive_subsets(inst).x == reference_exhaustive_subsets(inst)

    def test_memory_bounded(self):
        # the all-subsets gather of C(24, 9) = 1.3M subsets peaks at about 908 MB
        universe = generate_synthetic(SyntheticSpec(n_assets=24, seed=9))
        inst = PortfolioInstance(universe, 9)
        tracemalloc.start()
        try:
            solve_exhaustive_subsets(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


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

    @pytest.mark.parametrize("dim", range(1, 21))
    def test_matches_reference(self, dim):
        # dims 17-20 take more than one block; integer coefficients make
        # energy ties, so the lexicographic tie rule is exercised too
        rng = np.random.default_rng(dim)
        problems = [_integer_qubo(rng, dim, density=0.5)]
        if dim <= 16:
            problems.append(random_qubo(rng, dim, density=0.6))
        for q in problems:
            bits, energy = solve_qubo_bruteforce(q)
            ref_bits, ref_energy = reference_bruteforce(q)
            assert bits == ref_bits
            assert np.float64(energy).view(np.int64) == np.float64(ref_energy).view(np.int64)

    def test_tie_made_by_the_offset_breaks_lexicographically(self):
        # -1e-20 + 1.0 rounds to 1.0, so both assignments have energy 1.0
        q = QuboMatrix(dim=1, coeffs={(0, 0): -1e-20}, offset=1.0)
        assert solve_qubo_bruteforce(q) == reference_bruteforce(q) == ((0,), 1.0)

    def test_dim_guard(self):
        q = QuboMatrix(dim=25, coeffs={(0, 0): 1.0})
        with pytest.raises(ValueError, match="guard"):
            solve_qubo_bruteforce(q)


def _int64_bits(value: float):
    return np.float64(value).view(np.int64)


class TestExactSolver:
    """The solver of make_solver("exact") keeps the assignment table of its
    last dim, read-only, for as long as it lives."""

    def test_one_solver_across_dims_matches_reference(self):
        solver = make_solver("exact")
        rng = np.random.default_rng(17)
        # 17 takes three blocks and has no table; 12 and 1 replace the table
        for dim in (16, 12, 16, 17, 1):
            for q in (_integer_qubo(rng, dim, density=0.5), random_qubo(rng, dim, density=0.6)):
                result = solver(q, 3)
                ref_bits, ref_energy = reference_bruteforce(q)
                assert result.bits == ref_bits
                assert _int64_bits(result.energy) == _int64_bits(ref_energy)
                assert (result.evaluations, result.seed) == (1 << dim, 3)
            if dim <= 16:
                assert solver.table.shape == (1 << dim, dim)
            else:
                assert solver.table is None

    def test_table_is_built_once_per_dim(self, rng):
        solver = make_solver("exact")
        solver(random_qubo(rng, 10), 0)
        table = solver.table
        solver(random_qubo(rng, 10), 1)
        assert solver.table is table
        assert np.array_equal(table, solvers_mod.assignment_table(10))

    def test_kept_table_is_read_only(self, rng):
        solver = make_solver("exact")
        solver(random_qubo(rng, 8), 0)
        with pytest.raises(ValueError, match="read-only"):
            solver.table[0, 0] = 1.0

    def test_table_is_released_with_the_solver(self, rng):
        q = random_qubo(rng, 16)
        tracemalloc.start()
        try:
            solver = make_solver("exact")
            solver(q, 0)
            held = tracemalloc.get_traced_memory()[0]
            del solver
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert released >= (1 << 16) * 16 * 8  # the 8 MB table of dim 16

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--lambda1-from", "0", "--lambda1-to", "4", "--points", "5"],
            ["tune", "--solver", "exact", "--grid1", "0", "1", "2", "--grid2", "0", "--repeats", "2"],
        ],
    )
    def test_command_builds_the_table_once(self, tmp_path, monkeypatch, capsys, argv):
        built = []
        assignment_table = solvers_mod.assignment_table

        def counting_table(dim):
            built.append(dim)
            return assignment_table(dim)

        monkeypatch.setattr(solvers_mod, "assignment_table", counting_table)
        path = tmp_path / "instance.json"
        save_instance(PortfolioInstance(generate_synthetic(SyntheticSpec(n_assets=10, seed=4)), 3), path)
        command, *options = argv
        assert cli_main([command, str(path), *options, "-o", str(tmp_path / "out.csv")]) == 0
        assert built == [10]

    def test_table_of_another_dim_is_rejected(self, rng):
        with pytest.raises(ValueError, match="does not fit dim 5"):
            solve_qubo_bruteforce(random_qubo(rng, 5), table=solvers_mod.assignment_table(4))


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

    @given(
        dim=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_tabu_tie_heavy_integer_problems(self, dim, density, seed, data):
        # integer coefficients in -2..2 make equal gains, and equal energies,
        # common; tenures up to dim + 2 reach the every-bit-tabu step
        tenure = data.draw(st.integers(1, dim + 2), label="tenure")
        q = _integer_qubo(np.random.default_rng(seed), dim, density)
        config = TabuConfig(tenure=tenure, seed=seed, restarts=2, max_iterations=2 * dim + 10)
        # the best-ever outcome rarely depends on a single step, so the
        # sequence of flipped bits is compared too
        moves, expected_moves = [], []
        flip = FlipEvaluator.flip

        def recording_flip(state, i):
            moves.append(i)
            return flip(state, i)

        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore")  # tenure >= dim
            patch.setattr(FlipEvaluator, "flip", recording_flip)
            outcome = _outcome(solve_tabu(q, config))
            assert outcome == reference_tabu(q, config, expected_moves)
        assert moves == expected_moves


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


_TABU_SOLVER_OPTIONS = (
    {"max_iterations": 40, "restarts": 3},
    {"max_iterations": 40, "restarts": 1},
    {"max_iterations": 30, "restarts": 2, "tenure": 12},  # tenure >= dim
)


@pytest.mark.filterwarnings("ignore:tabu tenure")
class TestTabuSolver:
    """The solver of make_solver("tabu") runs the seed-independent first
    restart once per QUBO, and every seed's result equals a fresh run."""

    @staticmethod
    def _count_restarts(monkeypatch) -> list:
        """Patches the restart loop; each call appends True when it is a
        first restart (nothing before it), False otherwise."""
        calls = []
        restart = solvers_mod._tabu_restart

        def counting_restart(state, best, *args):
            calls.append(best[0] == float("inf"))
            return restart(state, best, *args)

        monkeypatch.setattr(solvers_mod, "_tabu_restart", counting_restart)
        return calls

    @pytest.mark.parametrize("options", _TABU_SOLVER_OPTIONS)
    def test_one_solver_over_qubos_matches_fresh_runs(self, monkeypatch, options):
        rng = np.random.default_rng(23)
        a, b = random_qubo(rng, 12), _integer_qubo(rng, 12, density=0.6)
        solver = make_solver("tabu", options)
        calls = self._count_restarts(monkeypatch)
        got = [_outcome(solver(q, seed)) for q in (a, b, a) for seed in range(5)]
        monkeypatch.undo()
        want = [
            (q, TabuConfig(seed=seed, **options)) for q in (a, b, a) for seed in range(5)
        ]
        assert got == [reference_tabu(q, config) for q, config in want]
        assert got == [_outcome(solve_tabu(q, config)) for q, config in want]
        # three first restarts, one per change of QUBO, and the later ones
        assert calls.count(True) == 3
        assert calls.count(False) == 15 * (options["restarts"] - 1)

    def test_time_limited_solver_never_reuses(self, rng, monkeypatch):
        q = random_qubo(rng, 12)
        options = {"max_iterations": 40, "restarts": 3}
        solver = make_solver("tabu", {**options, "time_limit_s": 600.0})
        calls = self._count_restarts(monkeypatch)
        got = [_outcome(solver(q, seed)) for seed in range(3)]
        assert calls.count(True) == 3 and solver.qubo is None
        monkeypatch.undo()
        assert got == [reference_tabu(q, TabuConfig(seed=s, **options)) for s in range(3)]

    def test_wall_time_counts_the_shared_restart(self, rng, monkeypatch):
        restart = solvers_mod._tabu_restart

        def slow_first_restart(state, best, *args):
            if best[0] == float("inf"):
                time.sleep(0.05)
            return restart(state, best, *args)

        monkeypatch.setattr(solvers_mod, "_tabu_restart", slow_first_restart)
        solver = make_solver("tabu", {"max_iterations": 5, "restarts": 2})
        q = random_qubo(rng, 8)
        assert all(solver(q, seed).wall_time_s >= 0.05 for seed in range(3))

    def test_kept_qubo_is_released_with_the_solver(self, rng):
        q = random_qubo(rng, 8)
        kept = weakref.ref(q)
        solver = make_solver("tabu", {"max_iterations": 5})
        solver(q, 0)
        del q
        gc.collect()
        assert kept() is solver.qubo
        del solver
        gc.collect()
        assert kept() is None


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

    @given(
        dim=st.integers(1, 16),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        half_population=st.integers(1, 10),
        generations=st.integers(1, 30),
        crossover_rate=st.sampled_from([0.0, 0.5, 1.0]),
        mutation_rate=st.sampled_from([None, 0.0, 0.3]),
        tournament_size=st.integers(2, 4),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_tie_heavy_integer_problems(
        self,
        dim,
        density,
        seed,
        half_population,
        generations,
        crossover_rate,
        mutation_rate,
        tournament_size,
        data,
    ):
        # integer coefficients in -2..2 make many individuals tie with the
        # incumbent; without elitism the best can also drop out and tie later
        population = 2 * half_population
        elitism_count = data.draw(
            st.one_of(st.just(0), st.integers(1, population - 1)), label="elitism_count"
        )
        q = _integer_qubo(np.random.default_rng(seed), dim, density)
        config = GaConfig(
            population=population,
            generations=generations,
            crossover_rate=crossover_rate,
            mutation_rate=mutation_rate,
            tournament_size=tournament_size,
            elitism_count=elitism_count,
            seed=seed,
        )
        assert _outcome(solve_ga(q, config)) == reference_ga(q, config)

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

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @pytest.mark.parametrize("option", ["bogus", "seed"])
    def test_unknown_option_or_seed_rejected_when_made(self, name, option):
        with pytest.raises(ValueError, match=rf"solver '{name}' .*'{option}'"):
            make_solver(name, {option: 1})

    def test_exact_rejects_heuristic_options(self):
        with pytest.raises(ValueError, match="'sweeps'"):
            make_solver("exact", {"sweeps": 5})

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_time_limit_accepted_by_every_solver(self, name, rng):
        q = random_qubo(rng, 10)
        assert make_solver(name, {"time_limit_s": 10.0})(q, 0).energy <= qubo_energy(q, [0] * 10)

    def test_invalid_option_value_rejected_when_made(self):
        with pytest.raises(ValueError, match="sweeps"):
            make_solver("sa", {"sweeps": 0})

    @pytest.mark.parametrize(
        "name, options, solve, config",
        [
            ("sa", {"sweeps": 30, "restarts": 2}, solve_sa, AnnealConfig),
            ("tabu", {"max_iterations": 40, "restarts": 2}, solve_tabu, TabuConfig),
            ("ga", {"population": 10, "generations": 5}, solve_ga, GaConfig),
        ],
    )
    def test_each_seed_runs_the_config_with_that_seed(self, rng, name, options, solve, config):
        q = random_qubo(rng, 10)
        solver = make_solver(name, options)
        for seed in (0, 3):
            got, want = solver(q, seed), solve(q, config(seed=seed, **options))
            assert (got.bits, got.energy, got.seed) == (want.bits, want.energy, seed)

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
