
import collections
import gc
import itertools
import math
import re
import time
import types
import typing
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    build_qubo,
    make_solver,
    qubo_energy,
    solution_from_bits,
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
    ReferenceFlipEvaluator,
    naive_bruteforce,
    naive_qubo_energy,
    random_psd,
    random_qubo,
    reference_bruteforce,
    reference_exhaustive_subsets,
    reference_ga,
    reference_sa,
    reference_tabu,
    straddling_instance,
    traced_peak,
)


def _universe(mu, sigma):
    return AssetUniverse(tuple(f"A{i}" for i in range(len(mu))), mu, sigma)


def _integer_qubo(rng, dim: int, density: float) -> QuboMatrix:
    """Coefficients in -2..2 at the given density: equal energies are common."""
    values = rng.integers(-2, 3, size=(dim, dim)).astype(np.float64)
    keep = rng.random((dim, dim)) < density
    coeffs = {(i, j): values[i, j] for i in range(dim) for j in range(i, dim) if keep[i, j]}
    return QuboMatrix(dim=dim, coeffs=coeffs, offset=float(rng.integers(-2, 3)))


def _near_tie_qubo(rng, dim: int, scale: int, nudge: int) -> QuboMatrix:
    """Integer coefficients in -2^scale..2^scale plus multiples of 2^-40 and
    a nonzero offset, with coefficient (0, 0) set so that the least energies
    with x0 = 0 and with x0 = 1 differ by about `nudge` * 2^-40."""
    values = rng.integers(-(2**scale), 2**scale + 1, size=(dim, dim))
    values = values + rng.integers(-8, 9, size=(dim, dim)) * 2.0**-40
    rest = {(i - 1, j - 1): float(values[i, j]) for i in range(1, dim) for j in range(i, dim)}
    with_x0 = {**rest, **{(i, i): rest[(i, i)] + float(values[0, i + 1]) for i in range(dim - 1)}}
    off = reference_bruteforce(QuboMatrix(dim=dim - 1, coeffs=rest))[1]
    on = reference_bruteforce(QuboMatrix(dim=dim - 1, coeffs=with_x0))[1]
    coeffs = {(i + 1, j + 1): v for (i, j), v in rest.items()}
    coeffs.update({(0, j): float(values[0, j]) for j in range(1, dim)})
    coeffs[(0, 0)] = off - on + nudge * 2.0**-40
    return QuboMatrix(dim=dim, coeffs=coeffs, offset=float(rng.integers(1, 9)) + 0.5)


def _example_qubo():
    inst = PortfolioInstance(_universe([5, 7], np.eye(2)), n=1)
    q, _ = build_qubo(inst, PenaltyParams(1, 2, 0))
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


def _check_random_instance(n_assets, distinct, mode, target, decimals, seed, max_subsets=math.inf):
    """The oracle's answer on a random instance is the reference's and
    is feasible by solution_from_bits; n is drawn among the sizes with C(N, n) <= `max_subsets`."""
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
    sizes = [k for k in range(1, n_assets + 1) if math.comb(n_assets, k) <= max_subsets]
    n = sizes[rng.integers(len(sizes))]
    r_star = 0.0
    if mode != "none":
        # the return of some subset, summed in either order
        subset = rng.choice(n_assets, n, replace=False)
        r_star = float(mu[np.sort(subset) if target != "shuffled" else subset].sum())
        r_star += {"above": 1e-9, "below": -1e-9}.get(target, 0.0)
    inst = PortfolioInstance(_universe(mu, sigma), n, r_star, mode)
    got = _oracle_outcome(lambda i: solve_exhaustive_subsets(i).x, inst)
    assert got == _oracle_outcome(reference_exhaustive_subsets, inst)
    assert got == "infeasible" or solution_from_bits(inst, got).feasible


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
        _check_random_instance(n_assets, distinct, mode, target, decimals, seed)

    @given(
        n_assets=st.integers(16, 30),
        distinct=st.integers(1, 30),
        mode=st.sampled_from(["none", "at_least", "equality"]),
        target=st.sampled_from(["sorted", "shuffled", "above", "below"]),
        decimals=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_larger_instances(self, n_assets, distinct, mode, target, decimals, seed):
        # there `mu[c].sum()` and `mu @ x` differ for about a quarter of subsets
        _check_random_instance(n_assets, distinct, mode, target, decimals, seed, 10**5)

    @pytest.mark.parametrize("mode", ["at_least", "equality"])
    def test_return_sums_that_straddle_the_target(self, mode):
        rng = np.random.default_rng({"at_least": 11, "equality": 12}[mode])
        least_risk_meets = []
        for _ in range(40):
            inst, x = straddling_instance(rng, mode)
            got = _oracle_outcome(lambda i: solve_exhaustive_subsets(i).x, inst)
            assert got == _oracle_outcome(reference_exhaustive_subsets, inst)
            assert got == "infeasible" or solution_from_bits(inst, got).feasible
            least_risk_meets.append(solution_from_bits(inst, x).feasible)
            if least_risk_meets[-1]:
                assert got == tuple(x.tolist())
        # the model's sum falls on either side of the target
        assert any(least_risk_meets) and not all(least_risk_meets)

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

    def test_near_tied_risks_on_the_return_boundary(self):
        # every subset meets the target exactly and is re-tested unless its
        # running-sum risk is above the window of the least so far; diagonal
        # risks a few ulps apart put the winner above that least in its block
        rng = np.random.default_rng(4)
        d = 1.0 + rng.integers(0, 3, 40) * 2.0**-52 * rng.choice([1, 2, 4, 8], 40)
        inst = PortfolioInstance(_universe(np.ones(40), np.diag(d)), 4, 4.0, "at_least")
        assert solve_exhaustive_subsets(inst).x == reference_exhaustive_subsets(inst)

    def test_risks_tied_by_repeated_assets_are_ranked_by_the_model(self):
        # repeated assets tie subsets in exact arithmetic, and their computed
        # risks differ only by rounding; the oracle's row must not lie above
        # the risk solution_from_bits gives another subset, as every report row does
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_assets = int(rng.integers(4, 11))
            distinct = int(rng.integers(2, n_assets + 1))
            pick = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n_assets - distinct)])
            rng.shuffle(pick)
            sigma = random_psd(rng, distinct)[np.ix_(pick, pick)] * 10.0 ** rng.uniform(-3, 3)
            inst = PortfolioInstance(_universe(np.zeros(n_assets), sigma), int(rng.integers(1, n_assets)))
            sol = solve_exhaustive_subsets(inst)
            assert sol.x == reference_exhaustive_subsets(inst)
            risks = [
                solution_from_bits(inst, np.isin(np.arange(n_assets), c)).risk
                for c in itertools.combinations(range(n_assets), inst.n)
            ]
            assert sol.risk == min(risks)

    def test_ties_across_blocks(self):
        # every subset ties and C(60, 4) spans many blocks: the smallest bit
        # vector is the lexicographically last subset
        inst = PortfolioInstance(_universe(np.ones(60), 2.0 * np.eye(60)), n=4)
        assert solve_exhaustive_subsets(inst).x == (0,) * 56 + (1,) * 4
        inst = _tied_pairs_instance()
        assert solve_exhaustive_subsets(inst).x == reference_exhaustive_subsets(inst)

    @pytest.mark.parametrize("block", [16, 128, 1024])
    def test_block_size_does_not_change_the_answer(self, monkeypatch, block):
        # blocks of one or a few prefixes at a time: bit vectors are rebuilt
        # through parent blocks already popped from the stack
        monkeypatch.setattr(solvers_mod, "_SUBSET_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(block)
        instances = [_tied_pairs_instance()]
        for n_assets in (1, 5, 12):
            for n in sorted({1, max(1, n_assets // 2), n_assets}):
                for mode in ("none", "at_least"):
                    mu = rng.uniform(-1.0, 3.0, n_assets)
                    r_star = float(mu[rng.choice(n_assets, n, replace=False)].sum())
                    universe = _universe(mu, random_psd(rng, n_assets))
                    instances.append(PortfolioInstance(universe, n, r_star, mode))
        for mode in ("at_least", "equality"):
            instances += [straddling_instance(rng, mode)[0] for _ in range(4)]
        for inst in instances:
            got = _oracle_outcome(lambda i: solve_exhaustive_subsets(i).x, inst)
            assert got == _oracle_outcome(reference_exhaustive_subsets, inst)
        inst = PortfolioInstance(_universe(np.ones(60), 2.0 * np.eye(60)), n=4)
        assert solve_exhaustive_subsets(inst).x == (0,) * 56 + (1,) * 4

    def test_memory_bounded(self):
        # the all-subsets gather of C(24, 9) = 1.3M subsets took about 908 MB;
        # blocks of 1 << 21 elements with each prefix's asset list took a
        # traced 7.4 MB, and blocks of 1 << 19 linked to their parents 1.8 MB
        universe = generate_synthetic(SyntheticSpec(n_assets=24, seed=9))
        inst = PortfolioInstance(universe, 9)
        assert traced_peak(lambda: solve_exhaustive_subsets(inst)) <= 4 * 2**20


def _tied_pairs_instance():
    """An at_least instance on 15 assets, each twice, so subsets tie."""
    rng = np.random.default_rng(30)
    pick = np.repeat(np.arange(15), 2)
    sigma = random_psd(rng, 15)[np.ix_(pick, pick)]
    mu = np.round(rng.uniform(0.0, 3.0, 15), 1)[pick]
    return PortfolioInstance(_universe(mu, sigma), 4, float(mu[[0, 2, 4, 6]].sum()), "at_least")


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

    @pytest.mark.parametrize("dim", [16, 20, 24])
    def test_memory_bounded(self, rng, dim):
        # a float64 table of every assignment and its energies took 16.5 MiB
        # at dim 16 and 18 MiB at dim 20
        q = random_qubo(rng, dim, density=0.5)
        assert traced_peak(lambda: solve_qubo_bruteforce(q)) <= 2 * 2**20

    @given(
        dim=st.integers(1, 20),
        integer=st.booleans(),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_blocks_match_reference(self, dim, integer, density, seed):
        # integer coefficients make energy ties; the blocks must give the
        # same bits as the reference's blocks
        q = (_integer_qubo if integer else random_qubo)(np.random.default_rng(seed), dim, density)
        ref_bits, ref_energy = reference_bruteforce(q)
        bits, energy = solve_qubo_bruteforce(q)
        # the reference's last block at dim 20 is 16 rows, and OpenBLAS sums
        # so short a product in another order than a long one, so float
        # energies of those rows may differ in the last bits
        assume(integer or dim < 20 or 0 in bits[:16] and 0 in ref_bits[:16])
        assert bits == ref_bits
        assert _int64_bits(energy) == _int64_bits(ref_energy)

    @given(
        dim=st.integers(13, 20),
        scale=st.integers(0, 14),
        nudge=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_screen_keeps_near_tied_blocks(self, dim, scale, nudge, seed):
        # the best assignments with x0 = 0 and x0 = 1 lie in different
        # blocks and nearly tie, so the screen and the block path may round
        # them into opposite orders; a screen without its window then drops
        # the winning block
        q = _near_tie_qubo(np.random.default_rng(seed), dim, scale, nudge)
        ref_bits, ref_energy = reference_bruteforce(q)
        bits, energy = solve_qubo_bruteforce(q)
        # the reference's 16-row last block at dim 20 (see above)
        assume(dim < 20 or 0 in bits[:16] and 0 in ref_bits[:16])
        assert bits == ref_bits
        assert _int64_bits(energy) == _int64_bits(ref_energy)

    @pytest.mark.parametrize("seed, nudge", [(8, 0), (4, 2)])
    def test_screen_window_keeps_the_winning_block(self, seed, nudge):
        # near ties the screen rounds into the wrong order: with a zero
        # window the oracle returns the other block's bits, and for seed 4
        # an energy 2^-38 higher
        q = _near_tie_qubo(np.random.default_rng(seed), 13, 12, nudge)
        ref_bits, ref_energy = reference_bruteforce(q)
        bits, energy = solve_qubo_bruteforce(q)
        assert bits == ref_bits
        assert _int64_bits(energy) == _int64_bits(ref_energy)

    def test_all_zero_qubo_recomputes_every_block(self, monkeypatch):
        kept = []
        screen = solvers_mod._near_minimal_blocks

        def spy(*args):
            blocks = screen(*args)
            kept.append(len(blocks))
            return blocks

        monkeypatch.setattr(solvers_mod, "_near_minimal_blocks", spy)
        q = QuboMatrix(dim=18, coeffs={}, offset=-0.25)
        assert solve_qubo_bruteforce(q) == reference_bruteforce(q) == ((0,) * 18, -0.25)
        assert kept == [64]

    def test_tie_across_blocks_goes_to_the_earlier_block(self):
        # energy x0 (2 |l| - 12) - |l| + 0.5 over the low bits l: the
        # last row of block 0 and the first row of block 1 both reach -11.5
        coeffs = {(0, 0): -12.0}
        for i in range(1, 13):
            coeffs[(i, i)] = -1.0
            coeffs[(0, i)] = 2.0
        q = QuboMatrix(dim=13, coeffs=coeffs, offset=0.5)
        assert qubo_energy(q, (1,) + (0,) * 12) == -11.5
        assert solve_qubo_bruteforce(q) == reference_bruteforce(q) == ((0,) + (1,) * 12, -11.5)

    def test_dim_20_last_row_energy_is_that_of_a_full_block(self):
        # all coefficients negative: the winner is the all-ones row, the last
        # of 2^20. Every block now has 4,096 rows, so its energy is the one a
        # full block gives it. The reference's blocks of 52,428 rows leave it
        # in a last block of 16 rows, whose shorter product OpenBLAS sums in
        # another order: -0x1.0544137c173cdp+10 there, one ulp above
        dim = 20
        rng = np.random.default_rng(2)
        coeffs = {(i, j): -float(rng.uniform(0, 10)) for i in range(dim) for j in range(i, dim)}
        q = QuboMatrix(dim=dim, coeffs=coeffs, offset=float(rng.uniform(-5, 5)))
        bits, energy = solve_qubo_bruteforce(q)
        assert bits == (1,) * dim
        block = solvers_mod._assignment_block(dim, (1 << dim) - 4096, 1 << dim).astype(np.float64)
        full_block = np.add.reduce((block @ q.upper) * block, axis=1) + q.offset
        assert _int64_bits(energy) == _int64_bits(full_block[-1])
        assert energy == float.fromhex("-0x1.0544137c173ccp+10")


def _int64_bits(value: float):
    return np.float64(value).view(np.int64)


class TestExactSolver:
    """The solver of make_solver("exact"): `solve_qubo_bruteforce` with the
    enumeration count attached."""

    def test_one_solver_across_dims_matches_reference(self):
        solver = make_solver("exact")
        rng = np.random.default_rng(17)
        # 17 takes 32 blocks, 12 and below one
        for dim in (16, 12, 16, 17, 1):
            for q in (_integer_qubo(rng, dim, density=0.5), random_qubo(rng, dim, density=0.6)):
                result = solver(q, 3)
                ref_bits, ref_energy = reference_bruteforce(q)
                assert result.bits == ref_bits
                assert _int64_bits(result.energy) == _int64_bits(ref_energy)
                assert result.evaluations == 1 << dim

    def test_solver_calls_the_oracle_bound_at_call_time(self, rng, monkeypatch):
        # perfbench's tracer times the oracle by rebinding this name
        solver = make_solver("exact")
        calls = []

        def oracle(q):
            calls.append(q.dim)
            return (0,) * q.dim, 0.0

        monkeypatch.setattr(solvers_mod, "solve_qubo_bruteforce", oracle)
        assert solver(random_qubo(rng, 4), 3).bits == (0,) * 4
        assert calls == [4]

    def test_sweep_csv_equals_reference_oracle(self, tmp_path, monkeypatch):
        path = tmp_path / "instance.json"
        save_instance(PortfolioInstance(generate_synthetic(SyntheticSpec(n_assets=16, seed=5)), 4), path)
        argv = ["sweep", str(path), "--lambda1-from", "0", "--lambda1-to", "4", "--points", "8"]

        def rows_but_wall_time(out):
            assert cli_main([*argv, "-o", str(out)]) == 0
            return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

        rows = rows_but_wall_time(tmp_path / "oracle.csv")
        monkeypatch.setattr(solvers_mod, "solve_qubo_bruteforce", lambda q: reference_bruteforce(q))
        assert rows_but_wall_time(tmp_path / "reference.csv") == rows
        assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"true", "false"}


class TestFlipEvaluator:
    """The reference step on the shipped state that `reset` builds, against
    the plain-loop energy of `naive_qubo_energy`."""

    def test_incremental_matches_scratch(self, rng):
        q = random_qubo(rng, 50)
        state = ReferenceFlipEvaluator(q)
        for _ in range(1000):
            i = int(rng.integers(0, q.dim))
            state.flip(i)
        scratch = naive_qubo_energy(q, state.bits())
        assert state.energy == pytest.approx(scratch, rel=1e-9)

    def test_gain_predicts_flip(self, rng):
        q = random_qubo(rng, 12)
        state = ReferenceFlipEvaluator(q, rng.integers(0, 2, 12))
        for i in range(12):
            predicted = state.energy + state.all_gains()[i]
            state.flip(i)
            assert state.energy == pytest.approx(predicted, rel=1e-12)
            assert state.energy == pytest.approx(naive_qubo_energy(q, state.bits()), rel=1e-9)

    def test_reset_gives_each_bits_energy_and_gains(self, rng):
        q = random_qubo(rng, 12)
        state = FlipEvaluator(q)
        for bits in [np.zeros(12, dtype=int), *rng.integers(0, 2, size=(5, 12))]:
            state.reset(bits)
            energy = naive_qubo_energy(q, bits.tolist())
            assert state.bits() == tuple(bits.tolist())
            assert state.energy == pytest.approx(energy, rel=1e-12)
            for i in range(12):
                flipped = bits.copy()
                flipped[i] ^= 1
                gain = state._signs[i] * (state.diag[i] + state.fields[i])
                assert energy + gain == pytest.approx(
                    naive_qubo_energy(q, flipped.tolist()), rel=1e-9, abs=1e-9
                )


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

    @pytest.mark.parametrize("offset", [0.0, -1.5])
    @pytest.mark.parametrize("coefficient", [1e-320, 3e-308], ids=["subnormal", "normal"])
    def test_temperatures_stay_finite_near_underflow(self, coefficient, offset):
        # mean |dE| is near `coefficient`, so ln(1e4) / mean |dE| overflows
        c = coefficient
        q = QuboMatrix(2, {(0, 0): c, (0, 1): -c, (1, 1): c}, offset=offset)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, beta_i, beta_f, k = solvers_mod._estimate_betas(q, np.random.default_rng(0))
            betas = solvers_mod._beta_schedule(5, beta_i, beta_f)
            result = solve_sa(q, AnnealConfig(sweeps=5, restarts=2))
        assert k > 0 and state.offset == 0.0
        assert np.isfinite(betas).all() and (betas > 0).all()
        # the scaled run's energies, 0 and 2^k * c, are mapped back to q's units
        assert result.bits == (0, 0) and result.energy == offset
        assert {energy for _, energy in result.energy_trace} <= {offset, c + offset}

    def test_temperatures_stay_finite_when_the_magnitude_rule_caps_the_scale(self):
        # 1e300 on a bit that none of seed 0's 100 sampled flips reads: mean
        # |dE| is subnormal, 2^19 is the most the rule allows, and mean |dE|
        # * 2^19 still overflows ln(1e4) / mean, so the betas are (1, 1e4)
        q = QuboMatrix(400, {(0, 0): 1e300, **{(i, i): 1e-320 for i in range(1, 400)}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, beta_i, beta_f, k = solvers_mod._estimate_betas(q, np.random.default_rng(0))
            result = solve_sa(q, AnnealConfig(sweeps=3, restarts=1))
        assert (beta_i, beta_f, k) == (1.0, 1e4, 19)
        assert state.diag[0] == math.ldexp(1e300, 19) and math.isfinite(result.energy)

    @given(
        dim=st.integers(1, 24),
        density=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(-1022, -1016), st.integers(-1022, 1016)),
        sweeps=st.integers(1, 30),
        restarts=st.integers(1, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_do_not_depend_on_the_qubos_scale(self, dim, density, seed, k, sweeps, restarts):
        # |coefficients| in [1, 2), so each one of q * 2^k is normal for
        # k >= -1022; near that end mean |dE| * 2^k underflows ln(1e4) / mean
        rng = np.random.default_rng(seed)
        coeffs = {
            (i, j): float(rng.choice([-1.0, 1.0]) * rng.uniform(1, 2))
            for i in range(dim) for j in range(i, dim) if rng.random() < density
        }
        # within the magnitude rule: |coefficient| sum * 2^k below 2^1016
        assume(k <= 1016 - math.frexp(math.fsum(map(abs, coeffs.values())))[1])
        scaled = QuboMatrix(dim, {key: math.ldexp(v, k) for key, v in coeffs.items()})
        config = AnnealConfig(sweeps=sweeps, seed=seed, restarts=restarts)
        assert solve_sa(scaled, config).bits == solve_sa(QuboMatrix(dim, coeffs), config).bits

    @pytest.mark.parametrize("deadline", [-1.0, 1.5, 4.5, 5.5, 9.5])
    def test_deadline_cuts_after_a_whole_sweep(self, rng, monkeypatch, deadline):
        # a clock that ticks once per read: SA reads it once at the start and
        # after each sweep and each restart, so these deadlines cut it in
        # the middle of its first, second and third restarts
        q = random_qubo(rng, 9)
        config = AnnealConfig(sweeps=3, restarts=4, seed=4)
        full = solve_sa(q, config)
        clock = types.SimpleNamespace(perf_counter=itertools.count().__next__)
        monkeypatch.setattr(solvers_mod, "time", clock)
        cut = solve_sa(q, config, deadline=deadline)
        assert cut.evaluations % q.dim == 0
        assert q.dim <= cut.evaluations < full.evaluations
        assert all(index <= cut.evaluations for index, _ in cut.energy_trace)
        # the cut run is the full run's first evaluations
        assert cut.energy_trace == [p for p in full.energy_trace if p[0] <= cut.evaluations]
        assert cut.energy == cut.energy_trace[-1][1]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AnnealConfig(sweeps=0)
        with pytest.raises(ValueError):
            AnnealConfig(restarts=0)


def _outcome(result):
    return result.bits, result.energy, result.evaluations, result.energy_trace


_SA_CONFIGS = (
    AnnealConfig(sweeps=40, restarts=2, seed=5),
    AnnealConfig(sweeps=30, restarts=2, seed=6),
    AnnealConfig(sweeps=25, restarts=3, seed=7),
    AnnealConfig(sweeps=1, restarts=3, seed=8),
)
_TABU_CONFIGS = (
    TabuConfig(seed=5, restarts=3),
    TabuConfig(seed=6, restarts=2, max_iterations=40),
)


def _tabu_moves(q, config) -> tuple:
    """(outcome, flipped bits) of `solve_tabu`, and the same pair of
    `reference_tabu`. Each step appends its flipped bit to the restart's
    recency deque, so a deque that records its appends sees every move."""
    moves, expected_moves = [], []

    class RecordingDeque(collections.deque):
        def append(self, i):
            moves.append(i)
            super().append(i)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers_mod, "deque", RecordingDeque)
        outcome = _outcome(solve_tabu(q, config))
    return (outcome, moves), (reference_tabu(q, config, expected_moves), expected_moves)


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
        sweeps=st.integers(1, 6),
        restarts=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_sa_tie_heavy_integer_problems(self, dim, density, seed, sweeps, restarts):
        # integer coefficients in -2..2 make equal energies, and so the
        # tie-break on the best bits, common
        q = _integer_qubo(np.random.default_rng(seed), dim, density)
        config = AnnealConfig(sweeps=sweeps, restarts=restarts, seed=seed)
        assert _outcome(solve_sa(q, config)) == reference_sa(q, config)

    @given(
        dim=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_tabu_tie_heavy_integer_problems(self, dim, density, seed):
        # integer coefficients in -2..2 make equal gains, and equal energies,
        # common; below dim 8 the tenure, 7, reaches the every-bit-tabu step.
        # The best-ever outcome rarely depends on a single step, so the
        # sequence of flipped bits is compared too
        q = _integer_qubo(np.random.default_rng(seed), dim, density)
        config = TabuConfig(seed=seed, restarts=2, max_iterations=2 * dim + 10)
        got, want = _tabu_moves(q, config)
        assert got == want

    def test_tabu_every_bit_tabu_step(self):
        # at dim 3 the tenure, 7, keeps every bit tabu from step 4 on. At
        # steps 4 to 8 no move aspires, so each takes the first least gain,
        # bit 1 and then bit 2, not bit 0, where the blocked gains, all +inf,
        # are least
        q = QuboMatrix(3, {(0, 0): -2.0, (1, 1): 1.0, (2, 2): -1.0, (0, 1): 1.0, (0, 2): 2.0})
        got, want = _tabu_moves(q, TabuConfig(restarts=1, max_iterations=10))
        assert got == want
        assert got[1] == [0, 2, 1, 1, 2, 2, 2, 2, 0, 0]


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

    def test_default_tenure_does_not_warn(self, rng):
        # the tenure, 7, is at least dim 5
        q = random_qubo(rng, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_solver("tabu")(q, 0)

    def test_trace_monotone(self, rng):
        q = random_qubo(rng, 12)
        result = solve_tabu(q, TabuConfig(seed=2))
        energies = [e for _, e in result.energy_trace]
        assert all(a >= b for a, b in zip(energies, energies[1:]))


_SHARED_RESTART_OPTIONS = (
    {"max_iterations": 40, "restarts": 3},
    {"max_iterations": 40, "restarts": 1},
    {"max_iterations": 30, "restarts": 2},
)


class TestTabuSharedFirstRestart:
    """solve_tabu runs the seed-independent first restart once per live QUBO
    and max_iterations, and every seed's result equals a fresh run."""

    @staticmethod
    def _count_first_restarts(monkeypatch) -> list:
        """Patches the restart loop; each first restart (nothing before it)
        appends its max_iterations."""
        calls = []
        restart = solvers_mod._tabu_restart

        def counting_restart(state, best, max_iterations, deadline):
            if best[0] == float("inf"):
                calls.append(max_iterations)
            return restart(state, best, max_iterations, deadline)

        monkeypatch.setattr(solvers_mod, "_tabu_restart", counting_restart)
        return calls

    @pytest.mark.parametrize("options", _SHARED_RESTART_OPTIONS)
    def test_qubos_a_b_a_match_fresh_runs(self, monkeypatch, options):
        rng = np.random.default_rng(23)
        a, b = random_qubo(rng, 12), _integer_qubo(rng, 12, density=0.6)
        calls = self._count_first_restarts(monkeypatch)
        want = [(q, TabuConfig(seed=seed, **options)) for q in (a, b, a) for seed in range(5)]
        got = [_outcome(solve_tabu(q, config)) for q, config in want]
        monkeypatch.undo()
        assert len(calls) == 2  # one per QUBO, A kept while B runs
        assert got == [reference_tabu(q, config) for q, config in want]
        # a copy of the QUBO has no kept restart
        assert got == [
            _outcome(solve_tabu(QuboMatrix(q.dim, q.coeffs, q.offset), config))
            for q, config in want
        ]

    def test_another_max_iterations_recomputes(self, rng, monkeypatch):
        q = random_qubo(rng, 12)
        calls = self._count_first_restarts(monkeypatch)
        configs = [
            TabuConfig(max_iterations=40, restarts=2),
            TabuConfig(max_iterations=30, restarts=2),
            TabuConfig(max_iterations=30, restarts=2, seed=1),
        ]
        got = [_outcome(solve_tabu(q, config)) for config in configs]
        monkeypatch.undo()
        assert calls == [40, 30]
        assert got == [reference_tabu(q, config) for config in configs]

    def test_deadline_never_reads_or_stores(self, rng, monkeypatch):
        q = random_qubo(rng, 12)
        config = TabuConfig(max_iterations=40, restarts=3)
        calls = self._count_first_restarts(monkeypatch)
        far = time.perf_counter() + 600.0
        timed = [_outcome(solve_tabu(q, replace(config, seed=s), far)) for s in range(2)]
        assert len(calls) == 2 and q not in solvers_mod._FIRST_RESTARTS
        solve_tabu(q, config)
        kept = solvers_mod._FIRST_RESTARTS[q]
        timed.append(_outcome(solve_tabu(q, replace(config, seed=2), far)))
        assert len(calls) == 4 and solvers_mod._FIRST_RESTARTS[q] is kept
        monkeypatch.undo()
        assert timed == [reference_tabu(q, replace(config, seed=s)) for s in range(3)]

    def test_wall_time_counts_the_shared_restart(self, rng, monkeypatch):
        restart = solvers_mod._tabu_restart
        slow = []

        def slow_first_restart(state, best, *args):
            if best[0] == float("inf"):
                slow.append(state)
                time.sleep(0.05)
            return restart(state, best, *args)

        monkeypatch.setattr(solvers_mod, "_tabu_restart", slow_first_restart)
        q = random_qubo(rng, 8)
        configs = [TabuConfig(seed=s, max_iterations=5, restarts=2) for s in range(3)]
        walls = [solve_tabu(q, config).wall_time_s for config in configs]
        assert len(slow) == 1 and all(wall >= 0.05 for wall in walls)

    def test_kept_restart_does_not_keep_the_qubo_alive(self, rng):
        q = random_qubo(rng, 8)
        kept = weakref.ref(q)
        solve_tabu(q, TabuConfig(max_iterations=5))
        assert q in solvers_mod._FIRST_RESTARTS
        del q
        gc.collect()
        assert kept() is None


class TestGa:
    def test_deterministic(self, rng):
        q = random_qubo(rng, 12)
        config = GaConfig(population=20, generations=30, seed=11)
        a = solve_ga(q, config)
        b = solve_ga(q, config)
        assert a.bits == b.bits and a.energy == b.energy

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
        half_population=st.integers(2, 10),
        generations=st.integers(1, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_tie_heavy_integer_problems(
        self, dim, density, seed, half_population, generations
    ):
        # integer coefficients in -2..2 make many individuals tie with the
        # incumbent
        q = _integer_qubo(np.random.default_rng(seed), dim, density)
        config = GaConfig(population=2 * half_population, generations=generations, seed=seed)
        assert _outcome(solve_ga(q, config)) == reference_ga(q, config)

    @given(
        dim=st.integers(1, 60),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        half_population=st.integers(2, 20),
        generations=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_real_valued_problems(
        self, dim, density, seed, half_population, generations
    ):
        # real coefficients up to dim 60 and populations up to 40 take the
        # energy product through BLAS kernels of several blockings
        q = random_qubo(np.random.default_rng(seed), dim, density)
        config = GaConfig(population=2 * half_population, generations=generations, seed=seed)
        assert _outcome(solve_ga(q, config)) == reference_ga(q, config)

    @pytest.mark.parametrize(
        "population, rule",
        [(11, "be even"), *[(p, "be a whole number of at least 4") for p in (2, 0, -4)]],
    )
    def test_population_not_even_and_at_least_4_rejected(self, population, rule):
        with pytest.raises(ValueError, match=f"^GaConfig: field 'population' must {rule}, got {population}$"):
            GaConfig(population=population)


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

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    @pytest.mark.parametrize("limit", [math.nan, -1, 0, 0.0, math.inf, True, "1"])
    def test_time_limit_not_positive_finite_rejected(self, name, limit):
        # NaN made no deadline ever pass, and -1 cut SA to one sweep
        with pytest.raises(ValueError, match=r"solver '\w+': field 'time_limit_s'"):
            make_solver(name, {"time_limit_s": limit})

    @pytest.mark.parametrize(
        "name, field",
        [
            ("sa", "sweeps"),
            ("sa", "restarts"),
            ("tabu", "max_iterations"),
            ("tabu", "restarts"),
            ("ga", "population"),
            ("ga", "generations"),
        ],
    )
    @pytest.mark.parametrize("value", [10.5, True, "4"])
    def test_count_not_an_integer_rejected(self, name, field, value):
        with pytest.raises(ValueError, match=rf"field '{field}' must be a whole number of at least "):
            make_solver(name, {field: value})

    def test_readme_names_every_config_count(self):
        # the count list in README "JSON inputs" is each config's int fields
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (listed,) = re.findall(r"a config count \(([^)]*)\)", readme)
        names = re.findall(r"`(\w+)`", listed)
        counts = set()
        for config in (AnnealConfig, TabuConfig, GaConfig):
            hints = typing.get_type_hints(config)
            for f in fields(config):
                if f.name != "seed" and int in (hints[f.name], *typing.get_args(hints[f.name])):
                    counts.add(f.name)
        assert sorted(names) == sorted(counts)

    @pytest.mark.parametrize(
        "config, counts",
        [
            (AnnealConfig, {"sweeps": 30.0, "restarts": 2.0, "seed": 3.0}),
            (TabuConfig, {"max_iterations": 40.0, "restarts": 2.0, "seed": 3.0}),
            (GaConfig, {"population": 10.0, "generations": 5.0, "seed": 3.0}),
        ],
    )
    def test_integral_float_counts_read_as_ints(self, config, counts):
        made = config(**counts)
        assert made == config(**{k: int(v) for k, v in counts.items()})
        assert all(type(getattr(made, k)) is int for k in counts)

    @pytest.mark.parametrize("config", [AnnealConfig, TabuConfig, GaConfig])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
    def test_seed_not_a_non_negative_integer_rejected(self, config, seed):
        # numpy's generators take an integer of at least 0
        message = rf"^{config.__name__}: field 'seed' must be a whole number of at least 0, got "
        with pytest.raises(ValueError, match=message):
            config(seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"])
    def test_exact_seed_not_a_non_negative_integer_rejected(self, rng, seed):
        message = r"^solver 'exact': seed must be a whole number of at least 0, got "
        with pytest.raises(ValueError, match=message):
            make_solver("exact")(random_qubo(rng, 4), seed)
        make_solver("exact")(random_qubo(rng, 4), np.int64(3))

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
            assert (got.bits, got.energy) == (want.bits, want.energy)

    @pytest.mark.parametrize("name", ["sa", "tabu", "ga"])
    def test_solver_calls_the_name_bound_at_call_time(self, rng, monkeypatch, name):
        solver = make_solver(name)
        calls = []
        monkeypatch.setattr(
            solvers_mod, f"solve_{name}", lambda q, config, deadline: calls.append(config.seed)
        )
        solver(random_qubo(rng, 4), 3)
        assert calls == [3]

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
