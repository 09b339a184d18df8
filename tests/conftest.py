import itertools
import json
import math

import numpy as np
import pytest

from portqubo import AssetUniverse, PortfolioInstance, QuboMatrix, slack_count
from portqubo.model import EQUALITY_RETURN_TOL
from portqubo.solvers import InfeasibleInstanceError


def naive_qubo_energy(q: QuboMatrix, bits) -> float:
    """Independent QUBO energy evaluation: plain dict loop, no numpy."""
    total = q.offset
    for (i, j), v in q.coeffs.items():
        total += v * bits[i] * bits[j]
    return total


def naive_bruteforce(q: QuboMatrix):
    """Second, independently coded exhaustive QUBO enumerator."""
    best = None
    for bits in itertools.product((0, 1), repeat=q.dim):
        e = naive_qubo_energy(q, bits)
        if best is None or e < best[1] or (e == best[1] and bits < best[0]):
            best = (bits, e)
    return best


def naive_risk(sigma, x) -> float:
    """Direct double-loop quadratic form."""
    n = len(x)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += sigma[i][j] * x[i] * x[j]
    return total


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    f = rng.standard_normal((n, max(1, n // 2)))
    sigma = f @ f.T + np.diag(rng.uniform(0.5, 2.0, n))
    return (sigma + sigma.T) / 2.0


def random_instance(
    rng: np.random.Generator,
    n_assets: int,
    mode: str = "none",
    mu_range=(1.0, 3.0),
) -> PortfolioInstance:
    sigma = random_psd(rng, n_assets)
    mu = rng.uniform(*mu_range, n_assets)
    universe = AssetUniverse(
        tuple(f"A{i}" for i in range(n_assets)), mu, sigma
    )
    n = int(rng.integers(1, n_assets + 1))
    if mode == "none":
        r_star = 0.0
    else:
        # a target comfortably inside the achievable range
        r_star = float(np.sort(mu)[-n:].sum() * rng.uniform(0.3, 0.7))
    return PortfolioInstance(universe=universe, n=n, r_star=r_star, return_mode=mode)


def random_qubo(rng: np.random.Generator, dim: int, density: float = 1.0) -> QuboMatrix:
    coeffs = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() <= density:
                coeffs[(i, j)] = float(rng.uniform(-10, 10))
    return QuboMatrix(dim=dim, coeffs=coeffs, offset=float(rng.uniform(-5, 5)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _reference_betas(q: QuboMatrix, config, rng: np.random.Generator):
    if config.beta_initial is not None:
        beta_i, beta_f = config.beta_initial, config.beta_final
    else:
        d, w = q.to_symmetric_parts()
        states = rng.integers(0, 2, size=(100, q.dim)).astype(np.float64)
        idx = rng.integers(0, q.dim, size=100)
        fields = states @ w
        signs = 1.0 - 2.0 * states[np.arange(100), idx]
        mean_delta = float(np.abs(signs * (d[idx] + fields[np.arange(100), idx])).mean())
        if mean_delta <= 0:
            beta_i, beta_f = 1.0, 1e4
        else:
            beta_i, beta_f = math.log(1 / 0.8) / mean_delta, math.log(1 / 1e-4) / mean_delta
    if config.sweeps == 1:
        return [beta_f]
    t = np.arange(config.sweeps) / (config.sweeps - 1)
    if config.schedule == "geometric":
        return (beta_i * (beta_f / beta_i) ** t).tolist()
    return (beta_i + (beta_f - beta_i) * t).tolist()


def reference_sa(q: QuboMatrix, config):
    """Independent simulated annealing with plain-list state and a per-element
    field update; draws the same random numbers as `solve_sa`. Returns
    (bits, energy, evaluations, energy_trace)."""
    rng = np.random.default_rng(config.seed)
    betas = _reference_betas(q, config, rng)
    dim = q.dim
    diag, coupling = q.to_symmetric_parts()
    d = diag.tolist()
    rows = coupling.tolist()
    best_energy, best_bits, trace, evaluations = math.inf, None, [], 0
    for _ in range(config.restarts):
        x_arr = rng.integers(0, 2, size=dim).astype(np.float64)
        fields_arr = coupling @ x_arr
        energy = float(q.offset + diag @ x_arr + 0.5 * x_arr @ fields_arr)
        x, fields = x_arr.tolist(), fields_arr.tolist()
        if energy < best_energy:
            best_energy, best_bits = energy, tuple(int(b) for b in x)
            trace.append((evaluations, best_energy))
        for beta in betas:
            perm = rng.permutation(dim).tolist()
            thresholds = rng.exponential(size=dim).tolist()
            evaluations += dim
            for k in range(dim):
                i = perm[k]
                s = 1.0 - 2.0 * x[i]
                gain = s * (d[i] + fields[i])
                if gain <= 0.0 or beta * gain < thresholds[k]:
                    x[i] += s
                    energy += gain
                    for j in range(dim):
                        fields[j] += s * rows[i][j]
                    bits = tuple(int(b) for b in x)
                    if energy < best_energy:
                        best_energy, best_bits = energy, bits
                        trace.append((evaluations - dim + k + 1, best_energy))
                    elif energy == best_energy and bits < best_bits:
                        best_bits = bits
    return best_bits, best_energy, evaluations, trace


def reference_tabu(q: QuboMatrix, config, moves: list | None = None):
    """Independent tabu search: gains, aspiration and masked argmin built from
    fresh arrays each step, fields updated from the coupling column; draws the
    same random numbers as `solve_tabu`. Returns (bits, energy, evaluations,
    energy_trace) and appends each flipped bit to `moves` when given."""
    dim = q.dim
    tenure = config.tenure if config.tenure is not None else max(7, dim // 10)
    max_iterations = config.max_iterations if config.max_iterations is not None else 50 * dim
    rng = np.random.default_rng(config.seed)
    diag, coupling = q.to_symmetric_parts()
    best_energy, best_bits, trace, evaluations = math.inf, None, [], 0
    for restart in range(config.restarts):
        start = np.zeros(dim) if restart == 0 else rng.integers(0, 2, size=dim)
        x = np.asarray(start, dtype=np.float64).copy()
        fields = coupling @ x
        energy = float(q.offset + diag @ x + 0.5 * x @ fields)
        if energy < best_energy:
            best_energy, best_bits = energy, tuple(int(b) for b in x)
            trace.append((evaluations, best_energy))
        tabu_until = np.zeros(dim, dtype=np.int64)
        for step in range(1, max_iterations + 1):
            gains = (1.0 - 2.0 * x) * (diag + fields)
            evaluations += dim
            admissible = (tabu_until < step) | (energy + gains < best_energy)
            masked = np.where(admissible, gains, np.inf) if admissible.any() else gains
            i = int(np.argmin(masked))
            if moves is not None:
                moves.append(i)
            s = 1.0 - 2.0 * x[i]
            energy += s * (diag[i] + fields[i])
            x[i] += s
            fields += s * coupling[:, i]
            tabu_until[i] = step + tenure
            bits = tuple(int(b) for b in x)
            if energy < best_energy:
                best_energy, best_bits = energy, bits
                trace.append((evaluations, best_energy))
            elif energy == best_energy and bits < best_bits:
                best_bits = bits
    return best_bits, best_energy, evaluations, trace


def reference_exhaustive_subsets(instance: PortfolioInstance) -> tuple[int, ...]:
    """Independent subset oracle: gathers every n-subset's n x n covariance
    block at once, filters by the return constraint and returns the bits of
    the minimum-risk feasible subset, lexicographically smallest on ties.
    Memory grows with C(N, n) * n^2."""
    n_assets, n = instance.n_assets, instance.n
    count = math.comb(n_assets, n)
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
    tied = feas_idx[feas_risks == feas_risks.min()]
    best = None
    for idx in tied:
        bits = np.zeros(n_assets, dtype=np.int64)
        bits[combos[idx]] = 1
        key = tuple(int(b) for b in bits)
        if best is None or key < best:
            best = key
    return best


def _reference_accumulate(coeffs: dict, i: int, j: int, value: float) -> None:
    if i > j:
        i, j = j, i
    key = (i, j)
    coeffs[key] = coeffs.get(key, 0.0) + value


def _reference_squared_linear(coeffs: dict, a, constant: float, weight: float) -> float:
    if weight == 0.0:
        return 0.0
    dim = len(a)
    for i in range(dim):
        if a[i] == 0.0:
            continue
        _reference_accumulate(coeffs, i, i, weight * (a[i] * a[i] + 2.0 * constant * a[i]))
        for j in range(i + 1, dim):
            if a[j] != 0.0:
                _reference_accumulate(coeffs, i, j, 2.0 * weight * a[i] * a[j])
    return weight * constant * constant


def reference_build_qubo(instance: PortfolioInstance, params, literal_weights: bool = False):
    """Independent QUBO build: accumulates every coefficient into a dict, one
    (i, j) pair at a time, and hands the dict to the QuboMatrix constructor.
    Returns (QuboMatrix, slack weights)."""
    sigma = instance.universe.sigma
    mu = instance.universe.mu.tolist()
    n_assets, n = instance.n_assets, instance.n
    l0, l1 = params.lambda0, params.lambda1
    coeffs: dict = {}
    for i in range(n_assets):
        _reference_accumulate(coeffs, i, i, l0 * sigma[i, i] + l1 * (1.0 - 2.0 * n))
        for j in range(i + 1, n_assets):
            _reference_accumulate(coeffs, i, j, l0 * (sigma[i, j] + sigma[j, i]) + 2.0 * l1)
    offset = l1 * n * n
    weights: tuple = ()
    if instance.return_mode == "at_least":
        k = slack_count(mu)
        first = 1 if literal_weights else 0
        weights = tuple(2**p for p in range(first, first + k))
        a = mu + [-float(w) for w in weights]
        offset += _reference_squared_linear(coeffs, a, -instance.r_star, params.lambda2)
    elif instance.return_mode == "equality":
        offset += _reference_squared_linear(coeffs, mu, -instance.r_star, params.lambda2)
    return QuboMatrix(dim=n_assets + len(weights), coeffs=coeffs, offset=offset), weights


def reference_ga(q: QuboMatrix, config):
    """The generational GA as it was before its incumbent became a list: the
    best bits kept as an int tuple, ties compared as tuples. Returns (bits,
    energy, evaluations, energy_trace)."""
    dim = q.dim
    pop_size = config.population
    mutation_rate = (
        config.mutation_rate if config.mutation_rate is not None else 1.0 / dim
    )
    rng = np.random.default_rng(config.seed)
    upper = q.to_dense()

    def population_energies(pop):
        return ((pop @ upper) * pop).sum(axis=1) + q.offset

    pop = rng.integers(0, 2, size=(pop_size, dim)).astype(np.float64)
    energies = population_energies(pop)
    evaluations = pop_size
    best_idx = int(np.argmin(energies))
    best_energy = float(energies[best_idx])
    best_bits = tuple(int(b) for b in pop[best_idx])
    trace = [(evaluations, best_energy)]
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
        energies = population_energies(pop)
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
    return best_bits, best_energy, evaluations, trace


def reference_bruteforce(q: QuboMatrix):
    """The exact QUBO enumerator as it was before it unpacked big-endian
    codes: bits shifted out of each code, blocks of (1 << 20) // dim rows."""
    dim = q.dim
    upper = q.to_dense()
    total = 1 << dim
    shifts = np.arange(dim - 1, -1, -1, dtype=np.uint64)
    best_energy = math.inf
    best_code = 0
    block = max(1, (1 << 20) // dim)
    for start in range(0, total, block):
        stop = min(start + block, total)
        codes = np.arange(start, stop, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.float64)
        energies = ((bits @ upper) * bits).sum(axis=1) + q.offset
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_code = start + idx
    bits = tuple(int((best_code >> int(s)) & 1) for s in shifts)
    return bits, best_energy


def reference_write_qubo(q: QuboMatrix, path) -> None:
    """The QUBO writer as it was before it formatted whole blocks of lines:
    one f-string per coefficient of the `coeffs` dict."""
    lines = [f"p qubo {q.dim} {len(q.coeffs)} {q.offset:.17g}"]
    for (i, j), v in q.coeffs.items():
        lines.append(f"{i} {j} {v:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_json(doc: dict, path) -> None:
    """The JSON writer of `save_universe` and `save_instance` as it was
    before it encoded lists in chunks: the pure-Python encoder of json.dump."""
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
