"""Classical solvers for QUBO problems plus two exact oracles.

Heuristics: simulated annealing (Metropolis single-flip sweeps under a rising
inverse-temperature schedule), tabu search (steepest 1-flip descent with a
recency memory and aspiration), and a generational genetic algorithm.

Oracles: exhaustive n-subset enumeration on the original constrained problem,
and full assignment enumeration on the QUBO. Every solver is deterministic
given its seed.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import EQUALITY_RETURN_TOL, PortfolioInstance, Solution, solution_from_bits
from .qubo import QuboMatrix

SUBSET_ENUMERATION_GUARD = 10**7
BRUTEFORCE_DIM_GUARD = 24
_BRUTEFORCE_BLOCK = 1 << 20


class InfeasibleInstanceError(RuntimeError):
    """No bit assignment satisfies the instance's constraints."""


@dataclass
class SolveResult:
    """Outcome of one solver invocation on a QUBO."""

    bits: tuple[int, ...]
    energy: float
    evaluations: int
    wall_time_s: float
    seed: int | None = None
    energy_trace: list[tuple[int, float]] | None = None
    per_seed: list["SolveResult"] | None = None


@dataclass(frozen=True)
class AnnealConfig:
    sweeps: int = 1000
    beta_initial: float | None = None
    beta_final: float | None = None
    schedule: str = "geometric"
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.sweeps < 1 or self.restarts < 1:
            raise ValueError("sweeps and restarts must be positive")
        if self.schedule not in ("geometric", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if (self.beta_initial is None) != (self.beta_final is None):
            raise ValueError("set both beta_initial and beta_final or neither")
        if self.beta_initial is not None:
            if not 0 < self.beta_initial < self.beta_final:
                raise ValueError("need 0 < beta_initial < beta_final")


@dataclass(frozen=True)
class TabuConfig:
    tenure: int | None = None
    max_iterations: int | None = None
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        if self.tenure is not None and self.tenure < 1:
            raise ValueError("tenure must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # defaults to 1/dim
    tournament_size: int = 3
    elitism_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.population % 2:
            raise ValueError("population must be a positive even integer")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be at least 2")
        if not 0 <= self.elitism_count < self.population:
            raise ValueError("elitism_count must be in [0, population)")


class FlipEvaluator:
    """Incremental energy bookkeeping for single-bit flips.

    Maintains local fields f_i = sum_j W_ij x_j so a flip's energy change and
    the running energy stay O(dim) per move instead of O(dim^2).
    """

    def __init__(self, q: QuboMatrix, bits=None):
        self.diag, self.coupling = q.to_symmetric_parts()
        self.offset = q.offset
        self.dim = q.dim
        if bits is None:
            bits = np.zeros(q.dim)
        self.x = np.asarray(bits, dtype=np.float64).copy()
        self.fields = self.coupling @ self.x
        self.energy = float(
            self.offset + self.diag @ self.x + 0.5 * self.x @ self.fields
        )
        self._signs = np.empty(q.dim)
        self._gains = np.empty(q.dim)

    def gain(self, i: int) -> float:
        """Energy change of flipping bit i."""
        s = 1.0 - 2.0 * self.x.item(i)
        return s * (self.diag.item(i) + self.fields.item(i))

    def all_gains(self) -> np.ndarray:
        """Energy change of flipping each bit, in a buffer the next call reuses."""
        np.multiply(self.x, -2.0, out=self._signs)
        self._signs += 1.0
        np.add(self.diag, self.fields, out=self._gains)
        self._gains *= self._signs
        return self._gains

    def flip(self, i: int) -> float:
        """Apply the flip and return the new energy."""
        s = 1.0 - 2.0 * self.x.item(i)
        self.energy += s * (self.diag.item(i) + self.fields.item(i))
        self.x[i] += s
        _update_fields(self.fields, self.coupling[i], s)
        return self.energy

    def bits(self) -> tuple[int, ...]:
        return tuple(int(b) for b in self.x)


def _update_fields(fields: np.ndarray, row: np.ndarray, s: float) -> None:
    """fields += s * row for s = +-1, in place and bitwise equal to adding the
    product; row i of the symmetric coupling is contiguous, unlike column i."""
    if s > 0.0:
        fields += row
    else:
        fields -= row


def _result(best_x, energy: float, evaluations: int, t0: float, seed: int, trace) -> SolveResult:
    """SolveResult of a heuristic whose best-ever 0/1 assignment is `best_x`
    (None when no energy compared below infinity)."""
    return SolveResult(
        bits=None if best_x is None else tuple(int(b) for b in best_x),
        energy=energy,
        evaluations=evaluations,
        wall_time_s=time.perf_counter() - t0,
        seed=seed,
        energy_trace=trace,
    )


def _estimate_betas(
    d: np.ndarray, w: np.ndarray, rng: np.random.Generator
) -> tuple[float, float]:
    """Betas giving ~0.8 initial and ~1e-4 final acceptance of the mean |dE|,
    from the (diagonal, coupling) pair of `QuboMatrix.to_symmetric_parts`."""
    states = rng.integers(0, 2, size=(100, len(d))).astype(np.float64)
    idx = rng.integers(0, len(d), size=100)
    fields = states @ w
    signs = 1.0 - 2.0 * states[np.arange(100), idx]
    deltas = np.abs(signs * (d[idx] + fields[np.arange(100), idx]))
    mean_delta = float(deltas.mean())
    if mean_delta <= 0:
        return 1.0, 1e4
    return math.log(1 / 0.8) / mean_delta, math.log(1 / 1e-4) / mean_delta


def _beta_schedule(config: AnnealConfig, beta_i: float, beta_f: float) -> np.ndarray:
    if config.sweeps == 1:
        return np.array([beta_f])
    t = np.arange(config.sweeps) / (config.sweeps - 1)
    if config.schedule == "geometric":
        return beta_i * (beta_f / beta_i) ** t
    return beta_i + (beta_f - beta_i) * t


def solve_sa(
    q: QuboMatrix, config: AnnealConfig = AnnealConfig(), deadline: float | None = None
) -> SolveResult:
    """Simulated annealing: randomized single-flip sweeps with Metropolis
    acceptance exp(-beta * dE), best-ever assignment kept across restarts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    diag, coupling = q.to_symmetric_parts()
    if config.beta_initial is None:
        beta_i, beta_f = _estimate_betas(diag, coupling, rng)
    else:
        beta_i, beta_f = config.beta_initial, config.beta_final
    betas = _beta_schedule(config, beta_i, beta_f).tolist()
    dim = q.dim
    d = diag.tolist()
    rows = list(coupling)
    best_energy = math.inf
    best_x: list[float] | None = None
    trace: list[tuple[int, float]] = []
    evaluations = 0
    for _ in range(config.restarts):
        x_arr = rng.integers(0, 2, size=dim).astype(np.float64)
        fields = coupling @ x_arr
        # reads Python floats from the buffer the in-place updates write
        field = memoryview(fields)
        energy = float(q.offset + diag @ x_arr + 0.5 * x_arr @ fields)
        x = x_arr.tolist()
        if energy < best_energy:
            best_energy, best_x = energy, x.copy()
            trace.append((evaluations, best_energy))
        for beta in betas:
            perm = rng.permutation(dim).tolist()
            thresholds = rng.exponential(size=dim).tolist()
            evaluations += dim
            for k, i in enumerate(perm):
                s = 1.0 - 2.0 * x[i]
                gain = s * (d[i] + field[i])
                if gain <= 0.0 or beta * gain < thresholds[k]:
                    x[i] += s
                    energy += gain
                    _update_fields(fields, rows[i], s)
                    if energy < best_energy:
                        best_energy, best_x = energy, x.copy()
                        trace.append((evaluations - dim + k + 1, best_energy))
                    elif energy == best_energy and x < best_x:
                        best_x = x.copy()
            if deadline is not None and time.perf_counter() > deadline:
                break
        if deadline is not None and time.perf_counter() > deadline:
            break
    return _result(best_x, best_energy, evaluations, t0, config.seed, trace)


def solve_tabu(
    q: QuboMatrix, config: TabuConfig = TabuConfig(), deadline: float | None = None
) -> SolveResult:
    """Tabu search: move to the best admissible 1-flip neighbor each step,
    forbidding recently flipped bits for `tenure` steps, with aspiration on
    new best-ever energies. First restart starts from all zeros."""
    t0 = time.perf_counter()
    dim = q.dim
    tenure = config.tenure if config.tenure is not None else max(7, dim // 10)
    if tenure >= dim:
        warnings.warn(f"tabu tenure {tenure} >= dim {dim}; search may stall", stacklevel=2)
    max_iterations = (
        config.max_iterations if config.max_iterations is not None else 50 * dim
    )
    rng = np.random.default_rng(config.seed)
    best_energy = math.inf
    best_x: np.ndarray | None = None
    trace: list[tuple[int, float]] = []
    evaluations = 0
    admissible = np.empty(dim, dtype=bool)
    aspires = np.empty(dim, dtype=bool)
    masked = np.empty(dim)
    for restart in range(config.restarts):
        state = FlipEvaluator(q, None if restart == 0 else rng.integers(0, 2, size=dim))
        if state.energy < best_energy:
            best_energy, best_x = state.energy, state.x.copy()
            trace.append((evaluations, best_energy))
        tabu_until = np.zeros(dim, dtype=np.int64)
        for step in range(1, max_iterations + 1):
            gains = state.all_gains()
            evaluations += dim
            np.less(tabu_until, step, out=admissible)
            np.add(gains, state.energy, out=masked)
            np.less(masked, best_energy, out=aspires)
            admissible |= aspires
            # with no admissible move, every move is a candidate
            masked.fill(np.inf)
            np.copyto(masked, gains, where=admissible if admissible.any() else True)
            i = int(masked.argmin())
            state.flip(i)
            tabu_until[i] = step + tenure
            if state.energy < best_energy:
                best_energy, best_x = state.energy, state.x.copy()
                trace.append((evaluations, best_energy))
            elif state.energy == best_energy and state.x.tolist() < best_x.tolist():
                best_x = state.x.copy()
            if deadline is not None and time.perf_counter() > deadline:
                break
        if deadline is not None and time.perf_counter() > deadline:
            break
    return _result(best_x, best_energy, evaluations, t0, config.seed, trace)


def _population_energies(pop: np.ndarray, upper: np.ndarray, offset: float) -> np.ndarray:
    return ((pop @ upper) * pop).sum(axis=1) + offset


def solve_ga(
    q: QuboMatrix, config: GaConfig = GaConfig(), deadline: float | None = None
) -> SolveResult:
    """Generational GA on the penalized bitstring representation: tournament
    selection, uniform crossover, per-bit mutation, elitism."""
    t0 = time.perf_counter()
    dim = q.dim
    pop_size = config.population
    mutation_rate = (
        config.mutation_rate if config.mutation_rate is not None else 1.0 / dim
    )
    rng = np.random.default_rng(config.seed)
    upper = q.to_dense()
    pop = rng.integers(0, 2, size=(pop_size, dim)).astype(np.float64)
    energies = _population_energies(pop, upper, q.offset)
    evaluations = pop_size
    best_idx = int(np.argmin(energies))
    best_energy = float(energies[best_idx])
    best_bits = tuple(int(b) for b in pop[best_idx])
    trace: list[tuple[int, float]] = [(evaluations, best_energy)]
    half = pop_size // 2
    for _ in range(config.generations):
        elite_order = np.argsort(energies, kind="stable")[: config.elitism_count]
        elites = pop[elite_order].copy()
        contenders = rng.integers(0, pop_size, size=(pop_size, config.tournament_size))
        winners = contenders[
            np.arange(pop_size), np.argmin(energies[contenders], axis=1)
        ]
        parents = pop[winners]
        mothers, fathers = parents[0::2], parents[1::2]
        do_cross = rng.random(half) < config.crossover_rate
        mask = rng.integers(0, 2, size=(half, dim)).astype(bool)
        first = np.where(mask, mothers, fathers)
        second = np.where(mask, fathers, mothers)
        children = np.empty_like(parents)
        children[0::2] = np.where(do_cross[:, None], first, mothers)
        children[1::2] = np.where(do_cross[:, None], second, fathers)
        mutate = rng.random((pop_size, dim)) < mutation_rate
        children = np.where(mutate, 1.0 - children, children)
        if config.elitism_count:
            children[: config.elitism_count] = elites
        pop = children
        energies = _population_energies(pop, upper, q.offset)
        evaluations += pop_size
        gen_best = int(np.argmin(energies))
        if energies[gen_best] < best_energy:
            best_energy = float(energies[gen_best])
            best_bits = tuple(int(b) for b in pop[gen_best])
            trace.append((evaluations, best_energy))
        elif energies[gen_best] == best_energy:
            bits = tuple(int(b) for b in pop[gen_best])
            if bits < best_bits:
                best_bits = bits
        if deadline is not None and time.perf_counter() > deadline:
            break
    return _result(best_bits, best_energy, evaluations, t0, config.seed, trace)


def solve_exhaustive_subsets(instance: PortfolioInstance) -> Solution:
    """Ground-truth oracle: enumerate every n-subset, filter by the return
    constraint, return the minimum-risk feasible selection."""
    n_assets, n = instance.n_assets, instance.n
    count = math.comb(n_assets, n)
    if count > SUBSET_ENUMERATION_GUARD:
        raise ValueError(
            f"C({n_assets}, {n}) = {count} exceeds the enumeration guard "
            f"{SUBSET_ENUMERATION_GUARD}"
        )
    t0 = time.perf_counter()
    sigma = instance.universe.sigma
    mu = instance.universe.mu
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_assets), n)),
        dtype=np.int64,
        count=count * n,
    ).reshape(count, n)
    risks = sigma[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
    returns = mu[combos].sum(axis=1)
    if instance.return_mode == "at_least":
        feasible = returns >= instance.r_star
    elif instance.return_mode == "equality":
        feasible = np.abs(returns - instance.r_star) <= EQUALITY_RETURN_TOL
    else:
        feasible = np.ones(count, dtype=bool)
    if not feasible.any():
        raise InfeasibleInstanceError("instance infeasible: no subset meets the return target")
    feas_idx = np.flatnonzero(feasible)
    feas_risks = risks[feas_idx]
    min_risk = feas_risks.min()
    tied = feas_idx[feas_risks == min_risk]
    best = None
    for idx in tied:
        bits = np.zeros(n_assets, dtype=np.int64)
        bits[combos[idx]] = 1
        key = tuple(bits)
        if best is None or key < best:
            best = key
    wall = time.perf_counter() - t0
    return solution_from_bits(
        instance,
        best,
        solver="exact-subsets",
        wall_time_s=wall,
        enumerated=int(count),
    )


def solve_qubo_bruteforce(q: QuboMatrix) -> tuple[tuple[int, ...], float]:
    """Exact QUBO oracle: enumerate all 2^dim assignments, lexicographic
    tie-break on the bit vector."""
    if q.dim > BRUTEFORCE_DIM_GUARD:
        raise ValueError(f"dim {q.dim} exceeds the brute-force guard {BRUTEFORCE_DIM_GUARD}")
    dim = q.dim
    upper = q.to_dense()
    total = 1 << dim
    # bit i is mapped to position dim-1-i so integer order equals the
    # lexicographic order of bit tuples; argmin then lands on the lex winner
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint64)
    best_energy = math.inf
    best_code = 0
    for start in range(0, total, _BRUTEFORCE_BLOCK):
        stop = min(start + _BRUTEFORCE_BLOCK, total)
        codes = np.arange(start, stop, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.float64)
        energies = ((bits @ upper) * bits).sum(axis=1) + q.offset
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_code = start + idx
    bits = tuple(int((best_code >> int(s)) & 1) for s in shifts)
    return bits, best_energy


def run_restarts(
    solver: Callable[[QuboMatrix, int], SolveResult],
    q: QuboMatrix,
    seeds: list[int],
) -> SolveResult:
    """Run `solver(q, seed)` for each seed and keep the minimum-energy result
    (ties broken by smaller seed); per-seed results are attached."""
    if not seeds:
        raise ValueError("seeds must be nonempty")
    results = []
    for seed in seeds:
        try:
            results.append(solver(q, seed))
        except Exception as exc:
            raise RuntimeError(f"solver failed for seed {seed}: {exc}") from exc
    by_seed = sorted(results, key=lambda r: (r.seed if r.seed is not None else 0))
    best = min(by_seed, key=lambda r: (r.energy, r.seed if r.seed is not None else 0))
    return replace(best, per_seed=by_seed)


def make_solver(
    name: str, options: dict | None = None
) -> Callable[[QuboMatrix, int], SolveResult]:
    """Resolve a solver name to a `(qubo, seed) -> SolveResult` callable."""
    options = dict(options or {})
    deadline_s = options.pop("time_limit_s", None)

    def deadline():
        return None if deadline_s is None else time.perf_counter() + deadline_s

    if name == "sa":
        def run(q, seed):
            return solve_sa(q, AnnealConfig(seed=seed, **options), deadline=deadline())
    elif name == "tabu":
        def run(q, seed):
            return solve_tabu(q, TabuConfig(seed=seed, **options), deadline=deadline())
    elif name == "ga":
        def run(q, seed):
            return solve_ga(q, GaConfig(seed=seed, **options), deadline=deadline())
    elif name == "exact":
        def run(q, seed):
            t0 = time.perf_counter()
            bits, energy = solve_qubo_bruteforce(q)
            return SolveResult(
                bits=bits,
                energy=energy,
                evaluations=1 << q.dim,
                wall_time_s=time.perf_counter() - t0,
                seed=seed,
            )
    else:
        raise ValueError(f"unknown solver {name!r}; expected sa, tabu, ga or exact")
    return run
