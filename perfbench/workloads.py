"""The benchmark's three workloads.

Each workload has three parts:

- ``setup(seed, workdir)`` makes the inputs from the workload seed and writes
  them under ``workdir``. It is the part ``setup_s`` times in fresh processes.
- ``run_pass(inputs)`` is one measured pass: the calls into the library or
  the CLI, each timed as a step.
- ``evaluate(inputs, passes, reference, root)`` derives the quality metrics
  from the outputs and runs the correctness checks, outside any timed region.

Calls into portqubo go through module attributes (``bench.run_benchmark``,
``cli.cli_main``) so that the tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import portqubo.bench as bench
import portqubo.cli as cli
import portqubo.data as data
import portqubo.qubo as qubo
import portqubo.solvers as solvers
import portqubo.tuning as tuning
from portqubo.model import PortfolioInstance

HIT_TOL = 0.01  # a run "hits" when its risk is within 1% of the reference
HEURISTICS = ("sa", "tabu", "ga")
EXPLICIT_LAMBDA1 = 50.0


@dataclass
class PassResult:
    """What one measured pass did: step timings, outputs and operation counts."""

    steps: list[tuple[str, float]]
    outputs: dict
    ops: int
    failures: list[str]
    runs: int

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.steps)


@dataclass
class Evaluation:
    """Quality metrics (name -> (value, unit)), checks and extra failures."""

    quality: dict = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# The clock that times steps. The runner replaces it with one that leaves out
# the time its calibration samples take.
clock = time.perf_counter


def _timed(steps: list, name: str, fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    steps.append((name, clock() - t0))
    return out


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(argv)
    return code, buf.getvalue()


def _sha256(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _checksum_check(ev: Evaluation, name: str, digest: str, reference: dict, seed: int) -> None:
    recorded = reference.get("checksums", {}).get(name, {}).get(str(seed))
    if recorded is None:
        ev.check(f"{name}.checksum", True, f"no checksum recorded for seed {seed}; got {digest[:16]}")
    else:
        ev.check(
            f"{name}.checksum",
            digest == recorded,
            "matches recorded" if digest == recorded else f"drift: {digest[:16]} != {recorded[:16]}",
        )


def _passes_identical(ev: Evaluation, name: str, digests: list[str]) -> None:
    ev.check(
        f"{name}.passes_identical",
        len(set(digests)) == 1,
        f"{len(digests)} passes, {len(set(digests))} distinct outputs",
    )


def _quality_from_runs(ev: Evaluation, runs: list[tuple[bool, float, float]]) -> None:
    """runs: (feasible, risk, reference risk) for each heuristic run."""
    feasible = [(risk, ref) for ok, risk, ref in runs if ok]
    hits = [risk <= ref * (1.0 + HIT_TOL) for risk, ref in feasible]
    gaps = [(risk - ref) / ref * 100.0 for risk, ref in feasible]
    ev.quality["hit_rate"] = (sum(hits) / len(runs), "fraction")
    ev.quality["feasible_frac"] = (len(feasible) / len(runs), "fraction")
    ev.quality["gap_pct_mean"] = (sum(gaps) / len(gaps) if gaps else math.nan, "%")


# --------------------------------------------------------------------- plan-small

PLAN_SMALL_SIZES = ((16, 4), (18, 5), (20, 5), (22, 6), (26, 7))
PLAN_SMALL_AT_LEAST = (20, 5)
PLAN_SMALL_LAMBDA2 = 1.0
PLAN_SMALL_SOLVERS = (
    {"name": "sa", "options": {"sweeps": 300, "restarts": 5}},
    {"name": "tabu"},
    {"name": "ga"},
)
PLAN_SMALL_SEEDS = (0, 1, 2, 3, 4)


def _golden_plan() -> bench.BenchPlan:
    """The three-instance plan whose timing-free report is
    tests/golden/bench_report.csv."""
    return bench.BenchPlan(
        instances=tuple(
            {"synthetic": {"n_assets": 12, "seed": s}, "n": 3, "id": f"synth-{s}"}
            for s in (101, 202, 303)
        ),
        solvers=(
            {"name": "sa", "options": {"sweeps": 100, "restarts": 2}},
            {"name": "tabu"},
            {"name": "ga", "options": {"population": 40, "generations": 60}},
        ),
        seeds=(0, 1, 2, 3, 4),
        penalty_policy="explicit",
        explicit_lambda1=50.0,
        explicit_lambda2=0.0,
    )


def _timing_free_csv(report: bench.BenchReport) -> str:
    rows = tuple(dataclasses.replace(r, wall_time_s=0.0) for r in report.rows)
    return bench.render_report(bench.BenchReport(rows, report.summaries), "csv")


class PlanSmall:
    """run_benchmark on six small synthetic instances, every one with an
    exact-oracle row. Each instance is a plan of its own, so each is a timed
    step; that also keeps the at_least instance (lambda2 > 0) apart, because a
    plan that mixes an explicit lambda2 > 0 with a return_mode 'none'
    instance aborts run_benchmark."""

    name = "plan-small"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        synth_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(PLAN_SMALL_SIZES) + 1)]
        entries = [
            ({"synthetic": {"n_assets": n_assets, "seed": s}, "n": n, "id": f"none-N{n_assets}-n{n}"}, 0.0)
            for (n_assets, n), s in zip(PLAN_SMALL_SIZES, synth_seeds)
        ]
        n_assets, n = PLAN_SMALL_AT_LEAST
        universe = data.generate_synthetic(
            data.SyntheticSpec(n_assets=n_assets, seed=synth_seeds[-1], return_range=(0.0, 10.0))
        )
        # a binding but always satisfiable target: 60% of the best n returns
        r_star = round(0.6 * float(np.sort(universe.mu)[::-1][:n].sum()), 6)
        at_least = {
            "synthetic": {"n_assets": n_assets, "seed": synth_seeds[-1], "return_range": [0.0, 10.0]},
            "n": n,
            "r_star": r_star,
            "return_mode": "at_least",
            "id": f"atleast-N{n_assets}-n{n}",
        }
        entries.append((at_least, PLAN_SMALL_LAMBDA2))
        plans = []
        for entry, lambda2 in entries:
            doc = {
                "instances": [entry],
                "solvers": list(PLAN_SMALL_SOLVERS),
                "seeds": list(PLAN_SMALL_SEEDS),
                "penalty_policy": {"policy": "explicit", "lambda1": EXPLICIT_LAMBDA1, "lambda2": lambda2},
            }
            path = workdir / f"plan-{entry['id']}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            plans.append((entry["id"], bench.load_plan(path)))
        return {"seed": seed, "plans": plans}

    def run_pass(self, inputs: dict) -> PassResult:
        steps: list[tuple[str, float]] = []
        reports = {}
        for label, plan in inputs["plans"]:
            report = _timed(steps, f"run_benchmark:{label}", bench.run_benchmark, plan)
            _timed(steps, f"render_report:{label}", bench.render_report, report, "csv")
            reports[label] = report
        rows = [r for rep in reports.values() for r in rep.rows]
        failures = [f"row {r.instance}/{r.solver}/{r.seed}: {r.error}" for r in rows if r.error]
        return PassResult(steps, {"reports": reports}, ops=len(rows), failures=failures, runs=len(rows))

    def digest(self, result: PassResult) -> str:
        return _sha256(*(_timing_free_csv(rep) for rep in result.outputs["reports"].values()))

    def evaluate(self, inputs: dict, passes: list[PassResult], reference: dict, root: Path) -> Evaluation:
        ev = Evaluation()
        rows = [r for rep in passes[0].outputs["reports"].values() for r in rep.rows]
        optimum = {r.instance: r.risk for r in rows if r.optimal}
        heuristic = [r for r in rows if not r.optimal]
        ev.check("plan-small.no_error_rows", not any(r.error for r in rows))
        instances = {r.instance for r in rows}
        ev.check(
            "plan-small.oracle_row_per_instance",
            set(optimum) == instances,
            f"{len(optimum)} oracle rows for {len(instances)} instances",
        )
        below = [
            f"{r.instance}/{r.solver}/{r.seed}"
            for r in heuristic
            if r.feasible and r.instance in optimum and r.risk < optimum[r.instance] - 1e-9 * abs(optimum[r.instance])
        ]
        ev.check("plan-small.oracle_is_lower_bound", not below, ", ".join(below))
        _quality_from_runs(
            ev, [(r.feasible, r.risk, optimum[r.instance]) for r in heuristic if r.instance in optimum]
        )
        for solver in HEURISTICS:
            mine = [r for r in heuristic if r.solver == solver and r.instance in optimum]
            hits = sum(r.feasible and r.risk <= optimum[r.instance] * (1.0 + HIT_TOL) for r in mine)
            p = hits / len(mine)
            # t: the solver's mean run time, from the pass where it ran fastest
            t = min(
                sum(r.wall_time_s for rep in res.outputs["reports"].values() for r in rep.rows if r.solver == solver)
                / len(mine)
                for res in passes
            )
            if p == 0.0:
                ev.failures.append(f"tts99_s.{solver}: no run within {HIT_TOL:.0%} of the optimum")
                tts = math.inf
            elif p >= 0.99:
                tts = t
            else:
                tts = t * math.log(0.01) / math.log(1.0 - p)
            ev.quality[f"tts99_s.{solver}"] = (tts, "s")
            ev.quality[f"p_hit.{solver}"] = (p, "fraction")
        digests = [self.digest(res) for res in passes]
        _passes_identical(ev, "plan-small", digests)
        _checksum_check(ev, "plan-small", digests[0], reference, inputs["seed"])
        golden = (root / "tests" / "golden" / "bench_report.csv").read_text(encoding="utf-8")
        ev.check(
            "plan-small.golden_csv",
            bench.render_report(bench.run_benchmark(_golden_plan(), no_timing=True), "csv") == golden,
            "golden plan vs tests/golden/bench_report.csv",
        )
        return ev


# -------------------------------------------------------------------- solve-large

# Fixed instances, so that their reference risks can be recorded; the
# workload seed is the solvers' --seed.
SOLVE_LARGE_INSTANCES = (
    {"id": "none-N120-n30", "n_assets": 120, "n": 30, "synth_seed": 120030, "mode": "none"},
    {
        "id": "atleast-N80-n20",
        "n_assets": 80,
        "n": 20,
        "synth_seed": 80020,
        "mode": "at_least",
        "return_range": (0.0, 10.0),
        "lambda2": 5.0,
    },
)


def solve_large_instance(spec: dict) -> PortfolioInstance:
    universe = data.generate_synthetic(
        data.SyntheticSpec(
            n_assets=spec["n_assets"],
            seed=spec["synth_seed"],
            return_range=spec.get("return_range", (0.0, 200.0)),
        )
    )
    r_star = 0.0
    if spec["mode"] == "at_least":
        r_star = round(0.6 * float(np.sort(universe.mu)[::-1][: spec["n"]].sum()), 6)
    return PortfolioInstance(universe, spec["n"], r_star, spec["mode"])


def _solve_large_argv(spec: dict, path: Path, solver: str, seed: int) -> list[str]:
    argv = ["solve", str(path), "--solver", solver, "--seed", str(seed), "--lambda1", f"{EXPLICIT_LAMBDA1:g}"]
    if "lambda2" in spec:
        argv += ["--lambda2", f"{spec['lambda2']:g}"]
    return argv


def _parse_solve_output(text: str) -> tuple[list[int], float, bool]:
    fields = {}
    for line in text.splitlines():
        if line.startswith("x="):
            fields["x"] = json.loads(line[2:])
        else:
            for token in line.split():
                key, _, value = token.partition("=")
                fields[key] = value
    return fields["x"], float(fields["risk"]), fields["feasible"] == "True"


class SolveLarge:
    """`portqubo solve` in process on two large instances, each heuristic once
    at its default configuration."""

    name = "solve-large"

    def setup(self, seed: int, workdir: Path) -> dict:
        instances = []
        for spec in SOLVE_LARGE_INSTANCES:
            path = workdir / f"{spec['id']}.json"
            data.save_instance(solve_large_instance(spec), path)
            instances.append((spec, path))
        return {"seed": seed, "instances": instances}

    def run_pass(self, inputs: dict) -> PassResult:
        steps: list[tuple[str, float]] = []
        calls = []
        failures = []
        for spec, path in inputs["instances"]:
            for solver in HEURISTICS:
                argv = _solve_large_argv(spec, path, solver, inputs["seed"])
                code, out = _timed(steps, f"{spec['id']}:{solver}", _run_cli, argv)
                if code in (cli.EXIT_USAGE, cli.EXIT_DATA):
                    failures.append(f"{' '.join(argv)} exited {code}")
                calls.append({"instance": spec["id"], "solver": solver, "code": code, "stdout": out})
        return PassResult(steps, {"calls": calls}, ops=len(calls), failures=failures, runs=len(calls))

    def digest(self, result: PassResult) -> str:
        return _sha256(*(f"{c['instance']}:{c['solver']}:{c['code']}:{c['stdout']}" for c in result.outputs["calls"]))

    def evaluate(self, inputs: dict, passes: list[PassResult], reference: dict, root: Path) -> Evaluation:
        ev = Evaluation()
        instances = {spec["id"]: data.load_instance(path) for spec, path in inputs["instances"]}
        ref_risk = reference.get("solve-large", {}).get("reference_risk", {})
        runs = []
        for call in passes[0].outputs["calls"]:
            tag = f"solve-large.{call['instance']}.{call['solver']}"
            inst = instances[call["instance"]]
            x, risk, feasible = _parse_solve_output(call["stdout"])
            sigma = inst.universe.sigma.tolist()
            chosen = [i for i, b in enumerate(x) if b]
            naive = 0.0
            for i in chosen:
                for j in chosen:
                    naive += sigma[i][j]
            ev.check(f"{tag}.risk", _rel_close(risk, naive, 1e-9), f"printed {risk!r}, double loop {naive!r}")
            ret = sum(float(inst.universe.mu[i]) for i in chosen)
            independent = len(chosen) == inst.n and (inst.return_mode != "at_least" or ret >= inst.r_star)
            ev.check(f"{tag}.feasible", feasible == independent, f"printed {feasible}, recomputed {independent}")
            ev.check(
                f"{tag}.exit_code",
                (call["code"] == cli.EXIT_OK) == feasible,
                f"exit {call['code']} with feasible={feasible}",
            )
            if call["instance"] not in ref_risk:
                ev.check(f"{tag}.reference", False, "no reference risk recorded")
                continue
            runs.append((feasible, risk, ref_risk[call["instance"]]))
        if runs:
            _quality_from_runs(ev, runs)
        digests = [self.digest(res) for res in passes]
        _passes_identical(ev, "solve-large", digests)
        _checksum_check(ev, "solve-large", digests[0], reference, inputs["seed"])
        return ev


# ------------------------------------------------------------------ compile-sweep

PRICE_PERIODS = 500
PRICE_ASSETS = 400
EXPORT_N = 40
EXPORT_R_STAR = 150.0
SWEEP_ASSETS = 16
SWEEP_N = 4
SWEEP_LAMBDA1_TO = 4.0  # spans the feasibility threshold of these instances
SWEEP_POINTS = 20


def write_prices_csv(path: Path, rng: np.random.Generator) -> None:
    """Random-walk prices whose horizon returns are drawn from U(0.5, 7)
    percent, so the total return (and with it the slack-bit count) is stable
    across seeds."""
    horizon = rng.uniform(0.5, 7.0, size=PRICE_ASSETS)
    steps = rng.normal(0.0, 0.01, size=(PRICE_PERIODS - 1, PRICE_ASSETS))
    steps += np.log1p(horizon / 100.0) / (PRICE_PERIODS - 1) - steps.mean(axis=0)
    prices = 100.0 * np.exp(np.vstack([np.zeros(PRICE_ASSETS), np.cumsum(steps, axis=0)]))
    lines = ["date," + ",".join(f"A{i:03d}" for i in range(PRICE_ASSETS))]
    for t, row in enumerate(prices):
        lines.append(f"d{t:04d}," + ",".join(f"{p:.6f}" for p in row))
    path.write_text("\n".join(lines) + "\n")


def _sweep_rows(text: str) -> list[dict]:
    header, *body = text.splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in body]


class CompileSweep:
    """The compile-and-export path (ingest, make-instance, build, then read,
    Ising conversion and the chain-strength bound) and the paper's lambda1
    feasibility sweep with the exact QUBO oracle."""

    name = "compile-sweep"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        prices = workdir / "prices.csv"
        write_prices_csv(prices, rng)
        small = PortfolioInstance(
            data.generate_synthetic(data.SyntheticSpec(n_assets=SWEEP_ASSETS, seed=int(rng.integers(0, 2**31 - 1)))),
            SWEEP_N,
        )
        sweep_instance = workdir / "sweep-instance.json"
        data.save_instance(small, sweep_instance)
        return {
            "seed": seed,
            "prices": prices,
            "universe": workdir / "universe.json",
            "instance": workdir / "instance.json",
            "qubo": workdir / "instance.qubo",
            "sweep_instance": sweep_instance,
            "sweep_csv": workdir / "sweep.csv",
        }

    def run_pass(self, inputs: dict) -> PassResult:
        steps: list[tuple[str, float]] = []
        commands = [
            ("ingest", ["ingest", str(inputs["prices"]), "-o", str(inputs["universe"])]),
            (
                "make-instance",
                [
                    "make-instance",
                    str(inputs["universe"]),
                    "--mode",
                    "at_least",
                    "--n",
                    str(EXPORT_N),
                    "--r-star",
                    f"{EXPORT_R_STAR:g}",
                    "-o",
                    str(inputs["instance"]),
                ],
            ),
            ("build", ["build", str(inputs["instance"]), "--estimate", "-o", str(inputs["qubo"])]),
        ]
        failures = []
        outputs: dict = {}
        for name, argv in commands:
            code, _ = _timed(steps, name, _run_cli, argv)
            if code != cli.EXIT_OK:
                failures.append(f"{name} exited {code}")
        q = _timed(steps, "read_qubo", qubo.read_qubo, inputs["qubo"])
        _timed(steps, "to_ising", qubo.to_ising, q)
        outputs["chain_bound"] = _timed(steps, "chain_strength_bound", qubo.chain_strength_bound, q)
        argv = [
            "sweep",
            str(inputs["sweep_instance"]),
            "--lambda1-from",
            "0",
            "--lambda1-to",
            f"{SWEEP_LAMBDA1_TO:g}",
            "--points",
            str(SWEEP_POINTS),
            "-o",
            str(inputs["sweep_csv"]),
        ]
        code, _ = _timed(steps, "sweep", _run_cli, argv)
        if code != cli.EXIT_OK:
            failures.append(f"sweep exited {code}")
        outputs["sweep"] = inputs["sweep_csv"].read_text()
        # digests, not contents: a run keeps every pass's outputs
        for name in ("universe", "instance", "qubo"):
            outputs[f"{name}_file"] = _sha256(inputs[name].read_bytes())
        return PassResult(steps, outputs, ops=len(commands) + 4, failures=failures, runs=SWEEP_POINTS)

    def digest(self, result: PassResult) -> str:
        out = result.outputs
        sweep = "\n".join(line.rsplit(",", 1)[0] for line in out["sweep"].splitlines())
        return _sha256(out["universe_file"], out["instance_file"], out["qubo_file"], sweep, repr(out["chain_bound"]))

    def evaluate(self, inputs: dict, passes: list[PassResult], reference: dict, root: Path) -> Evaluation:
        ev = Evaluation()
        out = passes[0].outputs
        # every pass wrote the same files (checked below), so the last pass's
        # files on disk are the first pass's
        q = qubo.read_qubo(inputs["qubo"])
        instance = data.load_instance(inputs["instance"])
        # what `build --estimate` resolves for an at_least instance with n >= 2
        params = qubo.PenaltyParams(
            1.0, tuning.estimate_lambda1(instance), tuning.estimate_lambda2(instance)
        )
        built, _ = qubo.build_qubo(instance, params)
        mismatched = [k for k in built.coeffs.keys() | q.coeffs.keys() if built.coeffs.get(k) != q.coeffs.get(k)]
        ev.check(
            "compile-sweep.read_qubo_equals_build",
            built.dim == q.dim and built.offset == q.offset and not mismatched,
            f"dim {q.dim}, {len(q.coeffs)} coefficients, {len(mismatched)} differ",
        )
        ising = qubo.to_ising(q)
        rng = np.random.default_rng(inputs["seed"])
        scale = out["chain_bound"] + abs(q.offset)
        worst = 0.0
        for _ in range(5):
            x = rng.integers(0, 2, size=q.dim)
            worst = max(worst, abs(qubo.ising_energy(ising, 2 * x - 1) - qubo.qubo_energy(q, x)))
        ev.check("compile-sweep.ising_energy", worst <= 1e-9 * scale, f"max |dE| {worst:.3g} on 5 bit vectors")
        ev.check(
            "compile-sweep.chain_strength_bound",
            _rel_close(out["chain_bound"], math.fsum(abs(v) for v in q.coeffs.values()), 1e-12),
        )
        small = data.load_instance(inputs["sweep_instance"])
        optimum = solvers.solve_exhaustive_subsets(small).risk
        rows = _sweep_rows(out["sweep"])
        feasible = [float(r["risk"]) for r in rows if r["feasible"] == "true"]
        wrong = [risk for risk in feasible if not _rel_close(risk, optimum, 1e-9)]
        ev.check(
            "compile-sweep.sweep_rows",
            len(rows) == SWEEP_POINTS,
            f"{len(rows)} rows",
        )
        ev.check(
            "compile-sweep.feasible_points_are_optimal",
            not wrong,
            f"{len(feasible)} feasible points, subset-oracle optimum {optimum!r}",
        )
        ev.quality["feasible_frac"] = (len(feasible) / len(rows), "fraction")
        ev.quality["hit_rate"] = (
            sum(risk <= optimum * (1.0 + HIT_TOL) for risk in feasible) / len(rows),
            "fraction",
        )
        digests = [self.digest(res) for res in passes]
        _passes_identical(ev, "compile-sweep", digests)
        _checksum_check(ev, "compile-sweep", digests[0], reference, inputs["seed"])
        return ev


WORKLOADS = {w.name: w for w in (PlanSmall(), SolveLarge(), CompileSweep())}
