"""Classical solvers for QUBO problems plus two exact oracles.

Heuristics: simulated annealing (Metropolis single-flip sweeps under a rising
inverse-temperature schedule), tabu search (steepest 1-flip descent with a
recency memory and aspiration), and a generational genetic algorithm.

Oracles: exhaustive n-subset enumeration on the original constrained problem,
and full assignment enumeration on the QUBO. Every solver is deterministic
given its seed.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .model import EQUALITY_RETURN_TOL, PortfolioInstance, Solution, solution_from_bits
from .qubo import QuboMatrix

SUBSET_ENUMERATION_GUARD = 10**7
BRUTEFORCE_DIM_GUARD = 24
# assignment rows per block times dim; dim <= 16 fits in one block
_BRUTEFORCE_BLOCK_ELEMENTS = 1 << 20
# extensions per block times n * N; bounds the subset oracle's working memory
_SUBSET_BLOCK_ELEMENTS = 1 << 21


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
    the running energy stay O(dim) per move instead of O(dim^2), and the flip
    signs s_i = 1 - 2 x_i (exactly +-1.0), so the gain of bit i is
    s_i * (d_i + f_i).
    """

    def __init__(self, q: QuboMatrix, bits=None):
        self.diag, self.coupling = q.to_symmetric_parts()
        self.offset = q.offset
        self.dim = q.dim
        self._rows = list(self.coupling)
        self._d = self.diag.tolist()
        self._gains = np.empty(q.dim)
        self.reset(bits)

    def reset(self, bits=None) -> None:
        """Start again from `bits` (all zeros when None)."""
        if bits is None:
            bits = np.zeros(self.dim)
        self.x = np.asarray(bits, dtype=np.float64).copy()
        self._signs = 1.0 - 2.0 * self.x
        self.fields = self.coupling @ self.x
        self.energy = float(
            self.offset + self.diag @ self.x + 0.5 * self.x @ self.fields
        )
        # Python-float views of the buffers the flips update in place
        self._x, self._s, self._f = map(memoryview, (self.x, self._signs, self.fields))

    def gain(self, i: int) -> float:
        """Energy change of flipping bit i."""
        return self._s[i] * (self._d[i] + self._f[i])

    def all_gains(self) -> np.ndarray:
        """Energy change of flipping each bit, in a buffer the next call reuses."""
        np.add(self.diag, self.fields, out=self._gains)
        self._gains *= self._signs
        return self._gains

    def flip(self, i: int) -> float:
        """Apply the flip and return the new energy."""
        s = self._s[i]
        self.energy += s * (self._d[i] + self._f[i])
        self._x[i] += s
        self._s[i] = -s
        _update_fields(self.fields, self._rows[i], s)
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
    # each sweep shuffles a fresh arange and fills the thresholds in place,
    # the same streams as rng.permutation(dim) and rng.exponential(size=dim)
    identity = np.arange(dim)
    order = np.empty_like(identity)
    exp_draws = np.empty(dim)
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
            order[:] = identity
            rng.shuffle(order)
            perm = order.tolist()
            rng.standard_exponential(out=exp_draws)
            thresholds = exp_draws.tolist()
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
    new best-ever energies. First restart starts from all zeros.

    A move is admissible when its bit is not tabu or when it aspires, that is
    when gain + energy < best_energy. The step takes the first admissible
    move of least gain, or the first move of least gain when no move is
    admissible. With i the first index of the least gain g[i]:

    - if i is not tabu, or it aspires, i is that move;
    - otherwise no move aspires, because rounding is monotone:
      fl(g[j] + energy) >= fl(g[i] + energy) >= best_energy for every j. So
      i is the move when every bit is tabu, and otherwise the first least of
      g + blocked, where `blocked` is +inf on tabu bits and 0.0 on the rest.

    This equals masking the gains of inadmissible moves with +inf provided
    every gain is finite, which finite QUBO coefficients (QuboMatrix rejects
    any other) give unless a sum overflows. `blocked` is maintained: a bit is
    set when it is flipped and cleared when its last flip leaves the window
    of the last `tenure` moves.
    """
    t0 = time.perf_counter()
    limits = _tabu_limits(q.dim, config)
    state = FlipEvaluator(q)
    first = _tabu_restart(state, (math.inf, None, [], 0), *limits, deadline)
    return _tabu_later_restarts(state, first, config, limits, deadline, t0)


def _tabu_limits(dim: int, config: TabuConfig) -> tuple[int, int]:
    """(tenure, max_iterations) of a tabu run; warns, for the caller of the
    solver, when the tenure leaves no bit free."""
    tenure = config.tenure if config.tenure is not None else max(7, dim // 10)
    if tenure >= dim:
        warnings.warn(f"tabu tenure {tenure} >= dim {dim}; search may stall", stacklevel=3)
    max_iterations = (
        config.max_iterations if config.max_iterations is not None else 50 * dim
    )
    return tenure, max_iterations


def _tabu_restart(
    state: FlipEvaluator, best: tuple, tenure: int, max_iterations: int, deadline: float | None
) -> tuple:
    """One restart of `solve_tabu` from the bits `state` holds. `best` is the
    outcome of the restarts before it, (best energy, best bits as a list,
    trace, evaluations); returns the outcome after this one, its trace
    extended in place."""
    best_energy, best_x, trace, evaluations = best
    dim = state.dim
    if state.energy < best_energy:
        best_energy, best_x = state.energy, state.x.tolist()
        trace.append((evaluations, best_energy))
    # bit j is tabu at `step` while tabu_until[j] >= step
    tabu_until = [0] * dim
    blocked = np.zeros(dim)
    n_tabu = 0
    recent: deque[int] = deque()
    for step in range(1, max_iterations + 1):
        if len(recent) > tenure:
            e = recent.popleft()
            if tabu_until[e] < step:
                blocked[e] = 0.0
                n_tabu -= 1
        gains = state.all_gains()
        evaluations += dim
        i = int(gains.argmin())
        if (
            tabu_until[i] >= step
            and not gains.item(i) + state.energy < best_energy
            and n_tabu < dim
        ):
            gains += blocked
            i = int(gains.argmin())
        energy = state.flip(i)
        if tabu_until[i] < step:
            blocked[i] = math.inf
            n_tabu += 1
        tabu_until[i] = step + tenure
        recent.append(i)
        if energy < best_energy:
            best_energy, best_x = energy, state.x.tolist()
            trace.append((evaluations, best_energy))
        elif energy == best_energy:
            x = state.x.tolist()
            if x < best_x:
                best_x = x
        if deadline is not None and time.perf_counter() > deadline:
            break
    return best_energy, best_x, trace, evaluations


def _tabu_later_restarts(
    state: FlipEvaluator, first: tuple, config: TabuConfig, limits: tuple, deadline, t0: float
) -> SolveResult:
    """The restarts of `solve_tabu` after the first, from random starts of
    `config.seed`, continuing the first's outcome `first`, which is left as
    it is; `t0` is the start of the run's wall time."""
    energy, x, trace, evaluations = first
    best = energy, x, list(trace), evaluations
    rng = np.random.default_rng(config.seed)
    for _ in range(1, config.restarts):
        if deadline is not None and time.perf_counter() > deadline:
            break
        state.reset(rng.integers(0, 2, size=state.dim))
        best = _tabu_restart(state, best, *limits, deadline)
    best_energy, best_x, trace, evaluations = best
    return _result(best_x, best_energy, evaluations, t0, config.seed, trace)


def _population_energies(pop: np.ndarray, upper: np.ndarray, offset: float) -> np.ndarray:
    return ((pop @ upper) * pop).sum(axis=1) + offset


def solve_ga(
    q: QuboMatrix, config: GaConfig = GaConfig(), deadline: float | None = None
) -> SolveResult:
    """Generational GA on the penalized bitstring representation: tournament
    selection, uniform crossover, per-bit mutation, elitism.

    The population is a bool array and each generation is built in place in
    the gathered parents: a crossing pair exchanges the bits where its mask
    is 0 and the two differ, and mutation XORs the mutation mask."""
    t0 = time.perf_counter()
    dim = q.dim
    pop_size = config.population
    mutation_rate = (
        config.mutation_rate if config.mutation_rate is not None else 1.0 / dim
    )
    rng = np.random.default_rng(config.seed)
    upper = q.to_dense()
    pop = rng.integers(0, 2, size=(pop_size, dim)) == 1
    values = pop.astype(np.float64)
    energies = _population_energies(values, upper, q.offset)
    evaluations = pop_size
    best_idx = int(np.argmin(energies))
    best_energy = float(energies[best_idx])
    best_x = values[best_idx].tolist()
    trace: list[tuple[int, float]] = [(evaluations, best_energy)]
    half = pop_size // 2
    for _ in range(config.generations):
        elite_order = np.argsort(energies, kind="stable")[: config.elitism_count]
        contenders = rng.integers(0, pop_size, size=(pop_size, config.tournament_size))
        winners = contenders[
            np.arange(pop_size), np.argmin(energies[contenders], axis=1)
        ]
        children = pop[winners]
        mothers, fathers = children[0::2], children[1::2]
        do_cross = rng.random(half) < config.crossover_rate
        swap = rng.integers(0, 2, size=(half, dim)) == 0
        swap &= do_cross[:, None]
        swap &= mothers ^ fathers
        mothers ^= swap
        fathers ^= swap
        children ^= rng.random((pop_size, dim)) < mutation_rate
        if config.elitism_count:
            children[: config.elitism_count] = pop[elite_order]
        pop = children
        values = pop.astype(np.float64)
        energies = _population_energies(values, upper, q.offset)
        evaluations += pop_size
        gen_best = int(np.argmin(energies))
        if energies[gen_best] < best_energy:
            best_energy = float(energies[gen_best])
            best_x = values[gen_best].tolist()
            trace.append((evaluations, best_energy))
        elif energies[gen_best] == best_energy:
            x = values[gen_best].tolist()
            if x < best_x:
                best_x = x
        if deadline is not None and time.perf_counter() > deadline:
            break
    return _result(best_x, best_energy, evaluations, t0, config.seed, trace)


@dataclass
class _Prefixes:
    """A block of sorted k-prefixes of n-subsets, in lexicographic order, with
    the running sums that extending them by one asset needs. The cross vector
    of a prefix is c = sum_{j in prefix} (S + S')[j, :]; a block keeps those
    of the prefixes without their last asset, one row per parent prefix."""

    idx: np.ndarray  # (rows, k) asset indices
    risk: np.ndarray  # x'Sx of each prefix
    ret: np.ndarray | None  # mu'x of each prefix; None when unconstrained
    cross: np.ndarray  # (parents, N) cross vectors of the parent prefixes
    via: np.ndarray  # row of `cross` for each prefix
    last: np.ndarray  # last asset of each prefix; -1 for the empty prefix
    ends: np.ndarray  # cumulative count of each prefix's extensions
    done: int = 0  # prefixes already extended


def _prefixes(idx, risk, ret, cross, via, last, n_assets: int, n: int) -> _Prefixes:
    # the next asset must leave room for the n - k - 1 after it
    counts = (n_assets - n + idx.shape[1]) - last
    return _Prefixes(idx, risk, ret, cross, via, last, np.cumsum(counts))


def _return_margin(returns: np.ndarray, instance: PortfolioInstance) -> np.ndarray:
    """Slack of the return constraint: >= 0 exactly where `returns >= r_star`
    (at_least) or `|returns - r_star| <= tol` (equality) holds, because a
    float difference is 0 only between equal floats."""
    if instance.return_mode == "at_least":
        return returns - instance.r_star
    return EQUALITY_RETURN_TOL - np.abs(returns - instance.r_star)


def solve_exhaustive_subsets(instance: PortfolioInstance) -> Solution:
    """Ground-truth oracle: the minimum-risk n-subset that meets the return
    constraint, ties broken by the lexicographically smallest bit vector.

    Subsets are enumerated in lexicographic order by extending blocks of
    k-prefixes one asset a > last at a time, depth first. A prefix carries its
    risk r, its return and its cross vector c = sum_{j in prefix} (S + S')[j, :],
    so extending it costs O(1): risk r + c[a] + S[a, a], return ret + mu[a].
    Cross vectors are stored only for prefixes of up to n - 2 assets, and each
    level makes about `_SUBSET_BLOCK_ELEMENTS // (n * N)` extensions at a
    time, so memory does not grow with C(N, n).

    These running sums round differently from direct sums, so the answer is
    reselected exactly. Any summation order of the n^2 risk terms is within
    n^4 * eps * max|S| / 2 of the true risk, so every feasible subset whose
    running-sum risk is within 4 n^4 eps max|S| of the running minimum is
    rescored as `S[c][:, c].sum()`, and the lowest rescored risk wins. A
    subset whose running-sum return is within 4 n^2 eps max|mu| of the return
    boundary is re-tested with `mu[c].sum()`. The chosen subset is therefore
    the one that scoring every subset directly chooses, provided no sum
    overflows.
    """
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
    constrained = instance.return_mode != "none"
    # S + S' is 2S when S is exactly symmetric and keeps the rounding bound
    # when it is symmetric only within the universe's tolerance; the extra
    # zero row is the term of the empty prefix's last asset, -1
    pair = np.zeros((n_assets + 1, n_assets))
    np.add(sigma, sigma.T, out=pair[:n_assets])
    diag = sigma.diagonal()
    eps = np.finfo(np.float64).eps
    risk_window = 4.0 * n**4 * eps * float(np.abs(sigma).max())
    tol = EQUALITY_RETURN_TOL if instance.return_mode == "equality" else 0.0
    return_band = 4.0 * n * n * eps * float(np.abs(mu).max()) + 2.0 * eps * tol
    rows = max(1, _SUBSET_BLOCK_ELEMENTS // (n * n_assets))

    lowest = math.inf
    best_risk = math.inf
    best_combo = None
    zero = np.zeros(1)
    stack = [
        _prefixes(
            np.empty((1, 0), dtype=np.int64),
            zero,
            zero if constrained else None,
            np.zeros((1, n_assets)),
            np.zeros(1, dtype=np.int64),
            np.full(1, -1),
            n_assets,
            n,
        )
    ]
    while stack:
        block = stack[-1]
        # extend whole prefixes, about `rows` extensions at a time
        p0 = block.done
        base = int(block.ends[p0 - 1]) if p0 else 0
        p1 = max(p0 + 1, int(np.searchsorted(block.ends, base + rows, side="right")))
        block.done = p1
        if p1 == len(block.ends):
            stack.pop()
        ends = block.ends[p0:p1]
        counts = np.diff(ends, prepend=base)
        parent = np.repeat(np.arange(p0, p1), counts)
        # each prefix's extensions are its last asset + 1, + 2, ...
        step = block.last[p0:p1] + 1 - (ends - counts - base)
        a = np.arange(len(parent)) + np.repeat(step, counts)
        risk = (
            block.risk[parent]
            + block.cross[block.via[parent], a]
            + pair[block.last[parent], a]
            + diag[a]
        )
        ret = block.ret[parent] + mu[a] if constrained else None
        if block.idx.shape[1] + 1 < n:
            cross = block.cross[block.via[p0:p1]] + pair[block.last[p0:p1]]
            idx = np.column_stack((block.idx[parent], a))
            stack.append(_prefixes(idx, risk, ret, cross, parent - p0, a, n_assets, n))
            continue

        def combos(sel):
            return np.column_stack((block.idx[parent[sel]], a[sel]))

        if constrained:
            margin = _return_margin(ret, instance)
            feasible = margin > return_band
            unsure = np.flatnonzero(np.abs(margin) <= return_band)
            if unsure.size:
                feasible[unsure] = _return_margin(mu[combos(unsure)].sum(axis=1), instance) >= 0
            if not feasible.any():
                continue
            lowest = min(lowest, float(risk[feasible].min()))
            near = np.flatnonzero(feasible & (risk <= lowest + risk_window))
        else:
            lowest = min(lowest, float(risk.min()))
            near = np.flatnonzero(risk <= lowest + risk_window)
        if not near.size:
            continue
        near_combos = combos(near)
        exact = sigma[near_combos[:, :, None], near_combos[:, None, :]].sum(axis=(1, 2))
        # extensions arrive in lexicographic order of the subset, the reverse
        # of the order of its bit vector, so the last of equal risks wins
        k = len(exact) - 1 - int(np.argmin(exact[::-1]))
        if exact[k] <= best_risk:
            best_risk, best_combo = float(exact[k]), near_combos[k]
    if best_combo is None:
        raise InfeasibleInstanceError("instance infeasible: no subset meets the return target")
    bits = np.zeros(n_assets, dtype=np.int64)
    bits[best_combo] = 1
    wall = time.perf_counter() - t0
    return solution_from_bits(
        instance,
        bits,
        solver="exact-subsets",
        wall_time_s=wall,
        enumerated=int(count),
    )


def _assignment_block(dim: int, start: int, stop: int) -> np.ndarray:
    """Assignments start..stop-1 of `dim` bits as float64 0/1 rows, row k
    the bits of code start + k, most significant first.

    The low bytes of big-endian codes unpack most significant bit first, so
    bit i is code bit dim-1-i and integer order equals the lexicographic
    order of bit tuples."""
    codes = np.arange(start, stop, dtype=np.uint64).astype(">u8")
    n_bytes = (dim + 7) // 8
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 8)[:, 8 - n_bytes :], axis=1)
    return bits[:, 8 * n_bytes - dim :].astype(np.float64)


def assignment_table(dim: int) -> np.ndarray | None:
    """The read-only table of all 2^dim assignments that
    `solve_qubo_bruteforce` enumerates, when they fit in one of its blocks
    (dim <= 16); None for a larger dim, whose blocks are built per call."""
    if dim < 1 or (1 << dim) * dim > _BRUTEFORCE_BLOCK_ELEMENTS:
        return None
    table = _assignment_block(dim, 0, 1 << dim)
    table.setflags(write=False)
    return table


def solve_qubo_bruteforce(
    q: QuboMatrix, *, table: np.ndarray | None = None
) -> tuple[tuple[int, ...], float]:
    """Exact QUBO oracle: enumerate all 2^dim assignments, lexicographic
    tie-break on the bit vector. `table`, when given, is
    `assignment_table(q.dim)`, used instead of building it again."""
    if q.dim > BRUTEFORCE_DIM_GUARD:
        raise ValueError(f"dim {q.dim} exceeds the brute-force guard {BRUTEFORCE_DIM_GUARD}")
    dim = q.dim
    total = 1 << dim
    if table is not None and table.shape != (total, dim):
        raise ValueError(f"assignment table of shape {table.shape} does not fit dim {dim}")
    upper = q.to_dense()
    best_energy = math.inf
    best_code = 0
    block = max(1, _BRUTEFORCE_BLOCK_ELEMENTS // dim)
    for start in range(0, total, block):
        if table is None:
            bits = _assignment_block(dim, start, min(start + block, total))
        else:
            bits = table  # one block: dim <= 16
        energies = bits @ upper
        energies *= bits
        energies = np.add.reduce(energies, axis=1)
        # rows are in lexicographic order, so argmin lands on the lex winner;
        # the offset goes in before argmin: ties that adding it rounds into
        # break lexicographically too
        energies += q.offset
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_code = start + idx
    bits = tuple((best_code >> (dim - 1 - i)) & 1 for i in range(dim))
    return bits, best_energy


class ExactSolver:
    """The `exact` solver of `make_solver`: `solve_qubo_bruteforce` with the
    assignment table of the last QUBO dim it saw kept in `table`, so a
    sweep or grid over one QUBO dim builds the table once. The table lives
    as long as this object does; a dim without one (above 16) drops it."""

    def __init__(self):
        self.table: np.ndarray | None = None

    def __call__(self, q: QuboMatrix, seed: int) -> SolveResult:
        t0 = time.perf_counter()
        if self.table is None or self.table.shape[1] != q.dim:
            self.table = None  # freed before the next is built
            self.table = assignment_table(q.dim)
        bits, energy = solve_qubo_bruteforce(q, table=self.table)
        return SolveResult(
            bits=bits,
            energy=energy,
            evaluations=1 << q.dim,
            wall_time_s=time.perf_counter() - t0,
            seed=seed,
        )


class TabuSolver:
    """The `tabu` solver of `make_solver`. The first restart of `solve_tabu`
    starts from all zeros and draws nothing from the RNG, so its outcome
    depends only on the QUBO and the config: this solver runs it once for
    the last QUBO it saw, kept in `qubo` and compared with `is`, and runs
    each seed's later restarts from that outcome. A result's `wall_time_s`
    still counts the first restart. A solver with `time_limit_s` keeps
    nothing: each call is a plain `solve_tabu` run under its deadline."""

    def __init__(self, config: TabuConfig, time_limit_s: float | None = None):
        self.config = config
        self.time_limit_s = time_limit_s
        self.qubo: QuboMatrix | None = None
        self._first = None  # (evaluator, outcome, seconds) of the first restart on `qubo`

    def __call__(self, q: QuboMatrix, seed: int) -> SolveResult:
        t0 = time.perf_counter()
        config = replace(self.config, seed=seed)
        if self.time_limit_s is not None:
            return solve_tabu(q, config, deadline=t0 + self.time_limit_s)
        limits = _tabu_limits(q.dim, config)
        if q is not self.qubo:
            self.qubo = self._first = None  # freed before the next is built
            state = FlipEvaluator(q)
            first = _tabu_restart(state, (math.inf, None, [], 0), *limits, None)
            self.qubo, self._first = q, (state, first, time.perf_counter() - t0)
            t0 = time.perf_counter()
        state, first, first_s = self._first
        return _tabu_later_restarts(state, first, config, limits, None, t0 - first_s)


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


SOLVER_NAMES = ("sa", "tabu", "ga", "exact")


def make_solver(
    name: str, options: dict | None = None
) -> Callable[[QuboMatrix, int], SolveResult]:
    """Resolve a solver name to a `(qubo, seed) -> SolveResult` callable.
    Its options, `time_limit_s` and the fields of its config but `seed`, are
    checked here, once: any other key raises a ValueError naming it."""
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}; expected one of {', '.join(SOLVER_NAMES)}")
    options = dict(options or {})
    deadline_s = options.pop("time_limit_s", None)
    config_type = {"sa": AnnealConfig, "tabu": TabuConfig, "ga": GaConfig}.get(name)
    known = {f.name for f in fields(config_type)} - {"seed"} if config_type else set()
    for key in options:
        if key not in known:
            raise ValueError(f"solver {name!r} has no option {key!r}")
    if config_type is None:
        return ExactSolver()
    config = config_type(**options)
    if name == "tabu":
        return TabuSolver(config, deadline_s)

    def run(q, seed):
        # looked up per call, so a wrapper bound to these names later is called
        solve = {"sa": solve_sa, "ga": solve_ga}[name]
        deadline = None if deadline_s is None else time.perf_counter() + deadline_s
        return solve(q, replace(config, seed=seed), deadline=deadline)

    return run
