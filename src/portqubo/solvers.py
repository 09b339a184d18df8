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
import weakref
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .model import EQUALITY_RETURN_TOL, MAX_MAGNITUDE, PortfolioInstance, Solution, abs_sum
from .model import portfolio_returns, portfolio_risks, read_counts, return_margin
from .model import bit_vector, finite_number, solution_from_bits, whole_number
from .qubo import QuboMatrix

SUBSET_ENUMERATION_GUARD = 10**7
BRUTEFORCE_DIM_GUARD = 24
# assignment rows per block of the QUBO oracle: a power of two, so blocks tile
# the 2^dim rows, and above dim 16 enough rows that OpenBLAS runs every block
# through one dgemm kernel (its kernel for products of up to about 10^6
# multiply-adds sums in another order); 512 KiB of float64 at dim 16
_BRUTEFORCE_BLOCK_ROWS = 1 << 12
# the subset oracle extends about this // (n * N) prefixes a step and peaks
# at 0.5-0.75 KB per extension of a step; 1 << 18 steps so often it is slower
_SUBSET_BLOCK_ELEMENTS = 1 << 19


class InfeasibleInstanceError(RuntimeError):
    """No bit assignment satisfies the instance's constraints."""


@dataclass
class SolveResult:
    """Outcome of one solver invocation on a QUBO; ``bits`` is always a
    tuple of dim 0/1 ints."""

    bits: tuple[int, ...]
    energy: float
    evaluations: int
    wall_time_s: float
    energy_trace: list[tuple[int, float]] | None = None


@dataclass(frozen=True)
class AnnealConfig:
    sweeps: int = 1000
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        read_counts(self, sweeps=1, seed=0, restarts=1)


@dataclass(frozen=True)
class TabuConfig:
    max_iterations: int | None = None
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        read_counts(self, max_iterations=1, seed=0, restarts=1)


# GA operators: tournament size, crossover probability per pair, elites kept
_GA_TOURNAMENT, _GA_CROSSOVER, _GA_ELITES = 3, 0.9, 2


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    seed: int = 0

    def __post_init__(self):
        read_counts(self, population=4, generations=1, seed=0)
        if self.population % 2:
            raise ValueError(f"GaConfig: field 'population' must be even, got {self.population}")


class FlipEvaluator:
    """The flip state that SA and tabu start each restart from.

    Keeps each bit x_i only as its flip sign s_i = 1 - 2 x_i (exactly +-1.0),
    with the local fields f_i = sum_j W_ij x_j: bit i's gain is s_i * (d_i + f_i),
    and a flip costs O(dim). Tabu flips inline on these buffers; SA updates
    `fields` in place but keeps its signs in a list: it reads them at `reset`.
    """

    def __init__(self, q: QuboMatrix, bits=None):
        self.diag, self.coupling = q.to_symmetric_parts()
        self.offset, self.dim = q.offset, q.dim
        self._rows = list(self.coupling)
        self._d = self.diag.tolist()
        self._gains = np.empty(q.dim)
        self.reset(bits)

    def reset(self, bits=None) -> None:
        """Start again from `bits` (all zeros when None), checked by `bit_vector`."""
        x = np.zeros(self.dim) if bits is None else bit_vector(bits, self.dim, "QUBO dim")
        self._signs = 1.0 - 2.0 * x
        self.fields = self.coupling @ x
        self.energy = float(self.offset + self.diag @ x + 0.5 * x @ self.fields)
        # Python-float views of the buffers the flips update in place
        self._s, self._f = memoryview(self._signs), memoryview(self.fields)

    def bits(self) -> tuple[int, ...]:
        return tuple(int(s < 0.0) for s in self._s)


def _result(best_x, energy: float, evaluations: int, t0: float, trace=None) -> SolveResult:
    """SolveResult of a solver whose best 0/1 assignment is `best_x`. The
    magnitude rule keeps every restart's first energy finite, so a solver
    has one once its first restart has begun."""
    bits = tuple(int(b) for b in best_x)
    return SolveResult(bits, energy, evaluations, time.perf_counter() - t0, trace)


def _estimate_betas(
    q: QuboMatrix, rng: np.random.Generator
) -> tuple[FlipEvaluator, float, float, int]:
    """SA's flip state, betas giving ~0.8 initial and ~1e-4 final acceptance
    of its mean |dE| over 100 random flips, and the power of two 2^k it is
    scaled by: k = 0 unless ln(1e4) / mean |dE| is not finite. Then the state
    is q without its offset times the 2^k that brings mean |dE| into [0.5, 1)
    (or as near as the magnitude rule allows), and its betas come from the
    same draws: exact, so SA's bits do not depend on the QUBO's scale. A
    mean of 0, or one still too small, gives betas (1, 1e4)."""
    state = FlipEvaluator(q)
    states = rng.integers(0, 2, size=(100, q.dim)).astype(np.float64)
    idx = rng.integers(0, q.dim, size=100)
    signs = 1.0 - 2.0 * states[np.arange(100), idx]

    def mean_delta() -> float:
        fields = states @ state.coupling
        return float(np.abs(signs * (state.diag[idx] + fields[np.arange(100), idx])).mean())

    final = math.log(1 / 1e-4)
    mean, k = mean_delta(), 0
    if mean > 0 and not math.isfinite(final / mean):
        # at most the k that keeps |coefficient| sum * 2^k below MAX_MAGNITUDE
        room = int(math.log2(MAX_MAGNITUDE)) - math.frexp(abs_sum(q.upper))[1]
        k = max(0, min(-math.frexp(mean)[1], room))
        if k:
            state = FlipEvaluator(QuboMatrix._from_upper(np.ldexp(q.upper, k), 0.0))
            mean = mean_delta()
    if not (mean > 0 and math.isfinite(final / mean)):
        return state, 1.0, 1e4, k
    return state, math.log(1 / 0.8) / mean, final / mean, k


def _beta_schedule(sweeps: int, beta_i: float, beta_f: float) -> np.ndarray:
    """Geometric betas from beta_i to beta_f, one per sweep."""
    if sweeps == 1:
        return np.array([beta_f])
    t = np.arange(sweeps) / (sweeps - 1)
    return beta_i * (beta_f / beta_i) ** t


def solve_sa(
    q: QuboMatrix, config: AnnealConfig = AnnealConfig(), deadline: float | None = None
) -> SolveResult:
    """Simulated annealing: randomized single-flip sweeps with Metropolis
    acceptance exp(-beta * dE), best-ever assignment kept across restarts.

    Per restart `rng.integers(0, 2, size=dim)` draws the start that
    `FlipEvaluator.reset` builds; per sweep `rng.shuffle` of the list
    0..dim-1 draws the site order and `rng.standard_exponential(out=)`, into
    one buffer of dim floats, the thresholds: the streams of
    `rng.permutation(dim)` and `rng.exponential(size=dim)`. Site k flips when
    its gain is <= 0 or beta * gain < threshold k. The state, and the best
    one, are kept as a list of flip signs s_i = 1 - 2 x_i (exactly +-1.0), so
    bit i's gain is s_i * (d_i + f_i) and "bits lexicographically smaller" is
    "signs larger". The fields take s * row i in place: adding or subtracting
    the row, bitwise equal for s = +-1. The signs become bits once, at
    return, and energies of a state scaled by 2^k become 2^-k * e + offset."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    state, beta_i, beta_f, k = _estimate_betas(q, rng)
    betas = _beta_schedule(config.sweeps, beta_i, beta_f).tolist()
    dim, d, rows = q.dim, state._d, state._rows
    sites = list(range(dim))
    add, subtract = np.add, np.subtract
    best_energy = math.inf
    best_s: list[float] = []  # set by the first restart
    trace: list[tuple[int, float]] = []
    evaluations = 0
    shuffle, exponential = rng.shuffle, rng.standard_exponential
    thresholds = np.empty(dim)
    for _ in range(config.restarts):
        state.reset(rng.integers(0, 2, size=dim))
        # `field` reads Python floats from the buffer the in-place updates write
        fields, field, energy = state.fields, state._f, state.energy
        sg = state._signs.tolist()
        if energy < best_energy:
            best_energy, best_s = energy, sg.copy()
            trace.append((evaluations, best_energy))
        for beta in betas:
            perm = sites.copy()
            shuffle(perm)
            for i, threshold in zip(perm, exponential(out=thresholds).tolist()):
                s = sg[i]
                gain = s * (d[i] + field[i])
                if gain <= 0.0 or beta * gain < threshold:
                    sg[i] = -s
                    energy += gain
                    if s > 0.0:
                        add(fields, rows[i], fields)
                    else:
                        subtract(fields, rows[i], fields)
                    if energy <= best_energy:
                        if energy < best_energy:
                            best_energy, best_s = energy, sg.copy()
                            trace.append((evaluations + perm.index(i) + 1, best_energy))
                        elif sg > best_s:
                            best_s = sg.copy()
            evaluations += dim
            if deadline is not None and time.perf_counter() > deadline:
                break
        if deadline is not None and time.perf_counter() > deadline:
            break
    if k:
        best_energy = math.ldexp(best_energy, -k) + q.offset
        trace = [(n, math.ldexp(e, -k) + q.offset) for n, e in trace]
    return _result([s < 0.0 for s in best_s], best_energy, evaluations, t0, trace)


# per live QUBO: (max_iterations, outcome, seconds) of the first restart of
# `solve_tabu`; an entry dies with its QUBO
_FIRST_RESTARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def solve_tabu(
    q: QuboMatrix, config: TabuConfig = TabuConfig(), deadline: float | None = None
) -> SolveResult:
    """Tabu search: move to the best admissible 1-flip neighbor each step,
    forbidding recently flipped bits for a tenure of max(7, dim // 10) steps,
    with aspiration on new best-ever energies. First restart starts from all
    zeros.

    A move is admissible when its bit is not tabu or when it aspires, that is
    when gain + energy < best_energy. The step takes the first admissible
    move of least gain, or the first move of least gain when no move is
    admissible. With i the first index of the least gain g[i]:

    - if i is not tabu, or it aspires, i is that move;
    - otherwise no move aspires, because rounding is monotone:
      fl(g[j] + energy) >= fl(g[i] + energy) >= best_energy for every j. So
      the move is the first least of g + blocked, where `blocked` is +inf on
      tabu bits and 0.0 on the rest, unless that least is +inf: then every
      bit is tabu, and i is the move.

    This equals masking the gains of inadmissible moves with +inf because
    every gain is finite (QuboMatrix bounds the sum of its coefficients'
    magnitudes), so the least of g + blocked is +inf exactly when every bit
    is tabu. `blocked` is maintained: a bit is set each time it is flipped
    and cleared when its last flip leaves the window of the last tenure
    moves.

    Each restart binds the `FlipEvaluator`'s buffers to locals and runs the
    gains of every bit and the flip inline on them. As in SA, the best state
    is a list of flip signs: "bits lexicographically smaller" is "signs larger".

    The first restart draws nothing from the RNG, so its outcome depends only
    on the QUBO and `max_iterations`. Without a deadline it is run once per
    live QUBO and `max_iterations`, kept until the QUBO is freed, and every
    later seed's restarts continue from it; `wall_time_s` still counts it.
    With a deadline nothing is kept or reused.
    """
    t0 = time.perf_counter()
    dim = q.dim
    max_iterations = 50 * dim if config.max_iterations is None else config.max_iterations
    state = FlipEvaluator(q)
    kept = None if deadline is not None else _FIRST_RESTARTS.get(q)
    if kept is not None and kept[0] == max_iterations:
        first, first_s = kept[1:]
        t0 -= first_s
    else:
        first = _tabu_restart(state, (math.inf, [], [], 0), max_iterations, deadline)
        if deadline is None:
            _FIRST_RESTARTS[q] = (max_iterations, first, time.perf_counter() - t0)
    best_energy, best_s, trace, evaluations = first
    best = best_energy, best_s, list(trace), evaluations  # `first` may be kept
    rng = np.random.default_rng(config.seed)
    for _ in range(1, config.restarts):
        if deadline is not None and time.perf_counter() > deadline:
            break
        state.reset(rng.integers(0, 2, size=dim))
        best = _tabu_restart(state, best, max_iterations, deadline)
    best_energy, best_s, trace, evaluations = best
    return _result([s < 0.0 for s in best_s], best_energy, evaluations, t0, trace)


def _tabu_restart(
    state: FlipEvaluator, best: tuple, max_iterations: int, deadline: float | None
) -> tuple:
    """One restart of `solve_tabu` from the bits `state` holds. `best` is the
    outcome of the restarts before it, (best energy, best flip signs as a
    list, trace, evaluations); returns the outcome after this one, its trace
    extended in place."""
    best_energy, best_s, trace, evaluations = best
    dim = state.dim
    tenure = max(7, dim // 10)
    energy = state.energy
    if energy < best_energy:
        best_energy, best_s = energy, state._signs.tolist()
        trace.append((evaluations, best_energy))
    # the evaluator's buffers, which the steps below update in place
    diag, fields, signs, gains = state.diag, state.fields, state._signs, state._gains
    sv, fv, rows, d = state._s, state._f, state._rows, state._d
    add, subtract, multiply, inf = np.add, np.subtract, np.multiply, math.inf
    # bit j is tabu at `step` while tabu_until[j] >= step
    tabu_until = [0] * dim
    blocked = np.zeros(dim)
    block = memoryview(blocked)
    recent: deque[int] = deque()
    for step in range(1, max_iterations + 1):
        if len(recent) > tenure:
            e = recent.popleft()
            if tabu_until[e] < step:
                block[e] = 0.0
        multiply(add(diag, fields, gains), signs, gains)
        evaluations += dim
        i = int(gains.argmin())
        if tabu_until[i] >= step and not gains.item(i) + energy < best_energy:
            j = int(add(gains, blocked, gains).argmin())
            if gains.item(j) < inf:
                i = j
        s = sv[i]
        energy += s * (d[i] + fv[i])
        sv[i] = -s
        if s > 0.0:
            add(fields, rows[i], fields)
        else:
            subtract(fields, rows[i], fields)
        block[i] = inf
        tabu_until[i] = step + tenure
        recent.append(i)
        if energy <= best_energy:
            if energy < best_energy:
                best_energy, best_s = energy, signs.tolist()
                trace.append((evaluations, best_energy))
            elif (sg := signs.tolist()) > best_s:
                best_s = sg
        if deadline is not None and time.perf_counter() > deadline:
            break
    state.energy = energy
    return best_energy, best_s, trace, evaluations


def solve_ga(
    q: QuboMatrix, config: GaConfig = GaConfig(), deadline: float | None = None
) -> SolveResult:
    """Generational GA on the penalized bitstring representation: tournament
    selection, uniform crossover, per-bit mutation, elitism.

    The population is one bool array and each generation is built in place
    in the gathered parents: a crossing pair exchanges the bits where its
    mask is 0 and the two differ, and mutation XORs the mutation mask.
    Energies are ((pop @ U) * pop).sum(axis=1) + offset, computed on a float
    copy of pop (cheaper than casting it in matmul and multiply) into buffers
    allocated once per call."""
    t0 = time.perf_counter()
    dim = q.dim
    pop_size = config.population
    rng = np.random.default_rng(config.seed)
    upper, offset = q.upper, q.offset
    values = np.empty((pop_size, dim))
    products = np.empty((pop_size, dim))
    energies = np.empty(pop_size)

    def evaluate(pop: np.ndarray) -> None:
        np.copyto(values, pop)
        np.matmul(values, upper, out=products)
        np.multiply(products, values, out=products)
        np.add.reduce(products, axis=1, out=energies)
        np.add(energies, offset, out=energies)

    pop = rng.integers(0, 2, size=(pop_size, dim)) == 1
    evaluate(pop)
    evaluations = pop_size
    best_idx = int(energies.argmin())
    best_energy = energies.item(best_idx)
    best_x = pop[best_idx].tolist()
    trace: list[tuple[int, float]] = [(evaluations, best_energy)]
    half = pop_size // 2
    # flat index of row r's first contender in the (pop_size, tournament) draws
    row_starts = np.arange(0, pop_size * _GA_TOURNAMENT, _GA_TOURNAMENT)
    rate = 1.0 / dim
    for _ in range(config.generations):
        elite_order = energies.argsort(kind="stable")[:_GA_ELITES]
        contenders = rng.integers(0, pop_size, size=(pop_size, _GA_TOURNAMENT))
        picks = energies.take(contenders).argmin(axis=1)
        children = pop.take(contenders.take(picks + row_starts), axis=0)
        # pair p is rows 2p (mother) and 2p + 1 (father)
        pairs = children.reshape(half, 2, dim)
        do_cross = rng.random(half) < _GA_CROSSOVER
        swap = rng.integers(0, 2, size=(half, dim)) == 0
        swap &= do_cross[:, None]
        swap &= pairs[:, 0] ^ pairs[:, 1]
        pairs ^= swap[:, None]
        children ^= rng.random((pop_size, dim)) < rate
        children[:_GA_ELITES] = pop.take(elite_order, axis=0)
        pop = children
        evaluate(pop)
        evaluations += pop_size
        gen_best = int(energies.argmin())
        energy = energies.item(gen_best)
        if energy < best_energy:
            best_energy = energy
            best_x = pop[gen_best].tolist()
            trace.append((evaluations, best_energy))
        elif energy == best_energy and (x := pop[gen_best].tolist()) < best_x:
            best_x = x
        if deadline is not None and time.perf_counter() > deadline:
            break
    return _result(best_x, best_energy, evaluations, t0, trace)


@dataclass
class _Prefixes:
    """A block of sorted k-prefixes of n-subsets, in lexicographic order, with
    the running sums that extending them by one asset needs. The cross vector
    of a prefix is c = sum_{j in prefix} (S + S')[j, :]; a block keeps those
    of the prefixes without their last asset, one row per parent prefix.
    A prefix's parent is prefix via + base of block `prev`, and its assets are
    the `last` of it and its ancestors. A block takes 32 bytes per prefix, 40
    under a return constraint, and 8 N bytes per parent."""

    k: int  # assets per prefix
    risk: np.ndarray  # x'Sx of each prefix
    ret: np.ndarray | None  # mu'x of each prefix; None when unconstrained
    cross: np.ndarray  # (parents, N) cross vectors of the parent prefixes
    via: np.ndarray  # row of `cross` for each prefix
    last: np.ndarray  # last asset of each prefix; -1 for the empty prefix
    ends: np.ndarray  # cumulative count of each prefix's extensions
    prev: _Prefixes | None  # the block of the parent prefixes
    base: int  # the prefix of `prev` whose cross vector is row 0 of `cross`
    done: int = 0  # prefixes already extended


def solve_exhaustive_subsets(instance: PortfolioInstance) -> Solution:
    """Ground-truth oracle: the minimum-risk n-subset that meets the return
    constraint, ties broken by the lexicographically smallest bit vector.

    Subsets are enumerated in lexicographic order by extending blocks of
    k-prefixes one asset a > last at a time, depth first. A prefix carries its
    risk r, its return and its cross vector c = sum_{j in prefix} (S + S')[j, :],
    so extending it costs O(1): risk r + c[a] + S[a, a], return ret + mu[a].
    Cross vectors are stored only for prefixes of up to n - 2 assets, and each
    level makes about `_SUBSET_BLOCK_ELEMENTS // (n * N)` extensions at a
    time, so memory does not grow with C(N, n). The few bit vectors needed
    below are rebuilt from the blocks' parent links and last assets.

    These running sums round differently from direct sums, so the answer is
    reselected exactly. Any summation order of the n^2 risk terms is within
    n^4 * eps * max|S| / 2 of the true risk, so every feasible subset whose
    running-sum risk is within 4 n^4 eps max|S| of the running minimum is
    rescored by the model's `portfolio_risks` of its bit vector, the x'(Sx)
    that every report row gives (one more order of the same n^2 terms), and
    the lowest rescored risk wins. A subset whose running-sum return is
    within 4 n^2 eps max|mu| of the return boundary, and whose running-sum
    risk is within that window of the least feasible one so far, is re-tested
    by the rule and sum of `solution_from_bits`, the model's `return_margin`
    of its `portfolio_returns`, batched per block: a call per subset takes
    seconds when all lie on the boundary. The chosen subset is therefore the
    one that scoring every subset directly chooses, and its Solution is
    feasible.
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
    span = np.arange(rows + n_assets)

    lowest = math.inf
    best_risk = math.inf
    best_x = None
    zero = np.zeros(1)
    root = (0, zero, zero if constrained else None, np.zeros((1, n_assets)), np.zeros(1, np.int64))
    stack = [_Prefixes(*root, np.full(1, -1), np.full(1, n_assets - n + 1), None, 0)]
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
        last = block.last[p0:p1]
        # the next asset must leave room for the n - k - 1 after it, so a
        # prefix's extensions are its last asset + 1, ..., top, ending at
        # offset ends - base; asset a of row r of a table is flat entry a + r N
        top = n_assets - n + block.k
        counts = top - last
        a = span[: ends[-1] - base] + np.repeat((top + 1 + base) - ends, counts)
        risk = (
            np.repeat(block.risk[p0:p1], counts)
            + block.cross.take(a + np.repeat(block.via[p0:p1] * n_assets, counts))
            + pair.take(a + np.repeat(last * n_assets, counts))
            + diag.take(a)
        )
        ret = np.repeat(block.ret[p0:p1], counts) + mu.take(a) if constrained else None
        if block.k + 1 < n:
            # the new block's cross vectors, via and last; no name keeps them past it
            new = block.cross[block.via[p0:p1]] + pair[last], np.repeat(span[: p1 - p0], counts), a
            stack.append(_Prefixes(block.k + 1, risk, ret, *new, np.cumsum(top + 1 - a), block, p0))
            del new
            continue

        def bit_rows(sel):
            rows_x = np.zeros((sel.size, n_assets))
            at = span[: sel.size]
            rows_x[at, a[sel]] = 1.0
            p, b = p0 + np.searchsorted(ends, base + sel, side="right"), block
            for _ in range(n - 1):
                rows_x[at, b.last[p]] = 1.0
                p, b = b.via[p] + b.base, b.prev
            return rows_x

        if constrained:
            margin = return_margin(instance, ret)
            feasible = margin > return_band
            lowest = min(lowest, float(risk[feasible].min(initial=math.inf)))
            # a subset whose risk is above lowest's window can neither lower it nor be near
            unsure = np.flatnonzero((np.abs(margin) <= return_band) & (risk <= lowest + risk_window))
            if unsure.size:
                feasible[unsure] = return_margin(instance, portfolio_returns(mu, bit_rows(unsure))) >= 0
            if not feasible.any():
                continue
            lowest = min(lowest, float(risk[feasible].min()))
            near = np.flatnonzero(feasible & (risk <= lowest + risk_window))
        else:
            lowest = min(lowest, float(risk.min()))
            near = np.flatnonzero(risk <= lowest + risk_window)
        if not near.size:
            continue
        near_x = bit_rows(near)
        exact = portfolio_risks(sigma, near_x)
        # extensions arrive in lexicographic order of the subset, the reverse
        # of the order of its bit vector, so the last of equal risks wins
        k = len(exact) - 1 - int(np.argmin(exact[::-1]))
        if exact[k] <= best_risk:
            best_risk, best_x = float(exact[k]), near_x[k].copy()
    if best_x is None:
        raise InfeasibleInstanceError("instance infeasible: no subset meets the return target")
    wall = time.perf_counter() - t0
    return solution_from_bits(
        instance,
        best_x,
        solver="exact-subsets",
        wall_time_s=wall,
        enumerated=int(count),
    )


def _assignment_block(dim: int, start: int, stop: int) -> np.ndarray:
    """Assignments start..stop-1 of `dim` bits as uint8 0/1 rows, row k
    the bits of code start + k, most significant first.

    The low bytes of big-endian codes unpack most significant bit first, so
    bit i is code bit dim-1-i and integer order equals the lexicographic
    order of bit tuples."""
    codes = np.arange(start, stop, dtype=np.uint64).astype(">u8")
    n_bytes = (dim + 7) // 8
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 8)[:, 8 - n_bytes :], axis=1)
    return bits[:, 8 * n_bytes - dim :]


def _near_minimal_blocks(
    upper: np.ndarray, offset: float, low_bits: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """The blocks, ascending, whose least screened energy is within the
    rounding window of the least of all; block h holds the codes whose high
    dim - 12 bits are h, and l below is the code's low 12 bits.

    With `upper` = U split at the low bits, an energy less the offset is
    e_high[h] + e_low[l] + v_h . l, v = H U_HL. The rows [l, e_low[l]] fill
    the bits half of `work`, and one matmul per `dim` blocks writes their
    v_h . l + e_low[l] into its other half, reduced at once to minima."""
    block, low = low_bits.shape
    dim = upper.shape[0]
    high = dim - low
    scratch = work.reshape(-1)
    half = scratch.size // 2
    lows_ext = scratch[half : half + block * (low + 1)].reshape(block, low + 1)
    lows = lows_ext[:, :low]
    lows[...] = low_bits
    # e_low by the same split, its first six bits a against its last six b:
    # row a of the low table's last six columns holds the bits of a
    halves = lows[:64, 6:]
    u_low = upper[high:, high:]
    top = halves @ u_low[:6]
    top[:, :6] *= halves
    bottom = halves @ u_low[6:, 6:]
    bottom *= halves
    e_low = top[:, 6:] @ halves.T
    e_low += np.add.reduce(top[:, :6], axis=1)[:, None]
    e_low += np.add.reduce(bottom, axis=1)
    lows_ext[:, low] = e_low.reshape(-1)
    # likewise block h's high bits are row h of the low table; high <= low
    # since dim <= 24
    heads = lows[: 1 << high, low - high :]
    mins = np.empty(len(heads))
    v_ext = np.ones((dim, low + 1))
    for h0 in range(0, len(heads), dim):
        h = heads[h0 : h0 + dim]
        chunk = mins[h0 : h0 + len(h)]
        hu = h @ upper[:high]
        v_ext[: len(h), :low] = hu[:, high:]
        cross = scratch[: len(h) * block].reshape(len(h), block)
        np.matmul(v_ext[: len(h)], lows_ext.T, out=cross)
        np.minimum.reduce(cross, axis=1, out=chunk)
        e_high = hu[:, :high]
        e_high *= h
        chunk += np.add.reduce(e_high, axis=1)
    # the screen and the block path each sum at most dim^2 + 1 exact
    # products (bits are 0/1) and the offset, so each is within about
    # dim^2 eps / 2 (sum|U| + |offset|) of the true energy. Skipping a block
    # needs twice both bounds; this is twice that, room for its own rounding
    eps = np.finfo(np.float64).eps
    window = 4.0 * dim * dim * eps * (abs_sum(upper) + abs(offset))
    return np.flatnonzero(mins <= mins.min() + window)


def solve_qubo_bruteforce(q: QuboMatrix, time_limit_s=None) -> tuple[tuple[int, ...], float]:
    """Exact QUBO oracle: the least energy of all 2^dim assignments,
    lexicographic tie-break on the bit vector. Past `time_limit_s` seconds
    it raises a ValueError before its next block: it reports no unproven answer.

    Blocks of `_BRUTEFORCE_BLOCK_ROWS` = 2^12 rows go through float64
    buffers allocated once per call, each row through the same operations:
    one 4,096-row matmul, the row sums, the offset added before argmin, and
    a strict `<` across blocks in ascending order. Every block has the same
    low min(dim, 12) bit columns, written once, and one constant row of high
    columns, the bits of its first code.

    Above dim 12 a screen (`_near_minimal_blocks`, the meet-in-the-middle
    split of Horowitz & Sahni) scores every assignment as the sum of a
    high-bit part, a low-bit part and their cross term, and only the blocks
    whose screened minimum is within the window 4 dim^2 eps (sum|U| +
    |offset|) of the least one go through the block path, in ascending
    order. Bits are 0/1, so every product is exact, and each path sums at
    most dim^2 + 1 terms taken from U and the offset: each is within about
    dim^2 eps / 2 (sum|U| + |offset|) of the true energy. Every energy that
    the block path gives a skipped block is therefore strictly above the
    one it gives the screen's best assignment, so a skipped block can
    neither win nor tie, and the bits and energy are those of running the
    block path on every block. QUBOs with many ties near the minimum,
    such as all-zero ones, recompute every block."""
    if q.dim > BRUTEFORCE_DIM_GUARD:
        raise ValueError(f"dim {q.dim} exceeds the brute-force guard {BRUTEFORCE_DIM_GUARD}")
    deadline = None if time_limit_s is None else time.perf_counter() + time_limit_s
    dim = q.dim
    total = 1 << dim
    upper = q.upper
    best_energy = math.inf
    best_code = 0
    block = min(total, _BRUTEFORCE_BLOCK_ROWS)
    low = block.bit_length() - 1
    high = dim - low
    # each block goes into the second half of `work`. One allocation: glibc
    # then reuses its heap block on later calls instead of returning it and
    # faulting its pages in again
    work = np.empty((2 * block, dim))
    energies, bits = work[:block], work[block:]
    low_bits = _assignment_block(low, 0, block)
    blocks = _near_minimal_blocks(upper, q.offset, low_bits, work).tolist() if high else [0]
    bits[:, high:] = low_bits
    # column i holds code bit dim-1-i
    high_shifts = np.arange(dim - 1, dim - 1 - high, -1)
    for done, b in enumerate(blocks):
        if deadline is not None and time.perf_counter() > deadline:
            scored = f"{done} of {len(blocks)} blocks scored, no minimum proven"
            raise ValueError(f"exact: time_limit_s = {time_limit_s:g} s passed with {scored}")
        start = b << low
        bits[:, :high] = (start >> high_shifts) & 1
        np.matmul(bits, upper, out=energies)
        energies *= bits
        sums = np.add.reduce(energies, axis=1)
        # rows are in lexicographic order, so argmin lands on the lex winner;
        # the offset goes in before argmin: ties that adding it rounds into
        # break lexicographically too
        sums += q.offset
        idx = int(sums.argmin())
        if sums[idx] < best_energy:
            best_energy = float(sums[idx])
            best_code = start + idx
    bits = tuple((best_code >> (dim - 1 - i)) & 1 for i in range(dim))
    return bits, best_energy


SOLVER_NAMES = ("sa", "tabu", "ga", "exact")


def make_solver(
    name: str, options: dict | None = None
) -> Callable[[QuboMatrix, int], SolveResult]:
    """Resolve a solver name to a `(qubo, seed) -> SolveResult` callable.
    Its options, `time_limit_s` and the fields of its config but `seed`, are
    checked here, once: any other key, or a bad value, raises a ValueError
    naming it. `exact` takes no config, checks its seed by the configs' rule
    and fails with a ValueError once a run passes its `time_limit_s`."""
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}; expected one of {', '.join(SOLVER_NAMES)}")
    options = dict(options or {})
    deadline_s = options.pop("time_limit_s", None)
    if deadline_s is not None:
        deadline_s = finite_number(deadline_s, "positive", f"solver {name!r}: field 'time_limit_s'")
    config_type = {"sa": AnnealConfig, "tabu": TabuConfig, "ga": GaConfig}.get(name)
    known = {f.name for f in fields(config_type)} - {"seed"} if config_type else set()
    for key in options:
        if key not in known:
            raise ValueError(f"solver {name!r} has no option {key!r}")
    config = config_type(**options) if config_type else None

    def run(q, seed):
        # looked up per call, so a wrapper bound to these names later is called
        if config is None:
            whole_number(seed, 0, f"solver {name!r}: seed")
            t0 = time.perf_counter()
            return _result(*solve_qubo_bruteforce(q, deadline_s), 1 << q.dim, t0)
        solve = {"sa": solve_sa, "tabu": solve_tabu, "ga": solve_ga}[name]
        deadline = None if deadline_s is None else time.perf_counter() + deadline_s
        return solve(q, replace(config, seed=seed), deadline=deadline)

    return run
