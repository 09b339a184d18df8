"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible instance.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from .model import ContractViolation, PortfolioInstance
from .qubo import (
    PenaltyParams,
    build_qubo,
    decode,
    read_qubo,
    write_qubo,
)
from .solvers import (
    SOLVER_NAMES,
    InfeasibleInstanceError,
    make_solver,
    run_restarts,
    solve_exhaustive_subsets,
)
from .tuning import (
    default_grid,
    estimate_lambdas,
    grid_search,
    grid_csv,
    lambda_sweep,
    sweep_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="portqubo", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", parents=[], help="prices CSV -> universe JSON")
    p.add_argument("prices")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log-returns", action="store_true")

    p = sub.add_parser("make-instance", help="universe JSON -> instance JSON")
    p.add_argument("universe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-star", type=float, default=0.0)
    p.add_argument("--mode", choices=("none", "at_least", "equality"), default="none")
    p.add_argument("--scale-mu", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    p.add_argument("--assets", type=int, required=True)
    p.add_argument("--factors", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-star", type=float, default=0.0)
    p.add_argument("--mode", choices=("none", "at_least", "equality"), default="none")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("build", help="instance JSON -> QUBO file")
    p.add_argument("instance")
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("solve", help="solve an instance or QUBO file")
    p.add_argument("target")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="sa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--estimate", action="store_true")

    p = sub.add_parser("tune", help="grid search penalty weights")
    p.add_argument("instance")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="sa")
    p.add_argument("--grid1", type=float, nargs="+", default=None)
    p.add_argument("--grid2", type=float, nargs="+", default=None)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("sweep", help="lambda1 sweep for the feasibility threshold")
    p.add_argument("instance")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="exact")
    p.add_argument("--lambda1-from", type=float, required=True)
    p.add_argument("--lambda1-to", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("bench", help="run a benchmark plan")
    p.add_argument("plan")
    p.add_argument("--no-timing", action="store_true")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("report", help="render a benchmark CSV")
    p.add_argument("results")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("-o", "--output", default=None)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _instance_penalties(instance, lambda1, lambda2, estimate) -> PenaltyParams:
    if estimate or (lambda1 is None and lambda2 is None):
        est = estimate_lambdas(instance)
        l1, l2 = est.lambda1_hat, est.lambda2_hat
        print(f"estimated lambda1={l1:.17g} lambda2={l2:.17g}")
        if lambda1 is not None:
            l1 = lambda1
        if lambda2 is not None:
            l2 = lambda2
        return PenaltyParams(1.0, l1, l2)
    return PenaltyParams(1.0, lambda1 or 0.0, lambda2 or 0.0)


def _cmd_solve(args) -> int:
    if args.target.endswith(".qubo"):
        q = read_qubo(args.target)
        solver = make_solver(args.solver)
        result = run_restarts(solver, q, [args.seed + k for k in range(args.restarts)])
        print(f"bits={''.join(str(b) for b in result.bits)}")
        print(f"energy={result.energy:.17g}")
        return EXIT_OK
    instance = data_mod.load_instance(args.target)
    if args.solver == "exact":
        sol = solve_exhaustive_subsets(instance)
        print(f"x={list(sol.x)}")
        print(f"risk={sol.risk:.17g} return={sol.ret:.17g} feasible={sol.feasible}")
        return EXIT_OK
    params = _instance_penalties(instance, args.lambda1, args.lambda2, args.estimate)
    q, layout = build_qubo(instance, params)
    solver = make_solver(args.solver)
    result = run_restarts(solver, q, [args.seed + k for k in range(args.restarts)])
    sol = decode(instance, layout, result.bits, energy=result.energy)
    print(f"x={list(sol.x)}")
    print(
        f"risk={sol.risk:.17g} return={sol.ret:.17g} energy={sol.energy:.17g} "
        f"feasible={sol.feasible}"
    )
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def _dispatch(args) -> int:
    if args.command == "ingest":
        panel = data_mod.load_prices_csv(args.prices)
        universe = data_mod.compute_stats(panel, log_returns=args.log_returns)
        data_mod.save_universe(universe, args.output)
        print(f"wrote {args.output}: {universe.n_assets} assets")
        return EXIT_OK

    if args.command == "make-instance":
        universe = data_mod.load_universe(args.universe)
        if args.scale_mu != 1.0:
            universe = data_mod.scale_returns(universe, args.scale_mu)
        instance = PortfolioInstance(
            universe=universe, n=args.n, r_star=args.r_star, return_mode=args.mode
        )
        data_mod.save_instance(instance, args.output)
        print(f"wrote {args.output}")
        return EXIT_OK

    if args.command == "synth":
        spec = data_mod.SyntheticSpec(
            n_assets=args.assets, n_factors=args.factors, seed=args.seed
        )
        universe = data_mod.generate_synthetic(spec)
        instance = PortfolioInstance(
            universe=universe, n=args.n, r_star=args.r_star, return_mode=args.mode
        )
        data_mod.save_instance(instance, args.output)
        print(f"wrote {args.output}")
        return EXIT_OK

    if args.command == "build":
        instance = data_mod.load_instance(args.instance)
        params = _instance_penalties(instance, args.lambda1, args.lambda2, args.estimate)
        q, layout = build_qubo(instance, params)
        write_qubo(q, args.output)
        print(
            f"wrote {args.output}: dim={q.dim} (assets={layout.n_assets} "
            f"slack={layout.n_slack}) lambda1={params.lambda1:.17g} "
            f"lambda2={params.lambda2:.17g}"
        )
        return EXIT_OK

    if args.command == "solve":
        return _cmd_solve(args)

    if args.command == "tune":
        instance = data_mod.load_instance(args.instance)
        est = estimate_lambdas(instance)
        grid1 = args.grid1 if args.grid1 else default_grid(est.lambda1_hat)
        grid2 = args.grid2 if args.grid2 else default_grid(est.lambda2_hat)
        solver = make_solver(args.solver)
        best, cells, feasible = grid_search(
            instance, solver, grid1, grid2, repeats=args.repeats
        )
        print(
            f"best lambda1={best.lambda1:.17g} lambda2={best.lambda2:.17g} "
            f"feasible={feasible}"
        )
        if args.output:
            _emit(grid_csv(cells), args.output)
        return EXIT_OK if feasible else EXIT_INFEASIBLE

    if args.command == "sweep":
        instance = data_mod.load_instance(args.instance)
        values = np.linspace(args.lambda1_from, args.lambda1_to, args.points).tolist()
        solver = make_solver(args.solver)
        base = PenaltyParams(1.0, 0.0, args.lambda2)
        points = lambda_sweep(instance, solver, values, base, seed=args.seed)
        _emit(sweep_csv(points, lambda2=args.lambda2), args.output)
        return EXIT_OK

    if args.command == "bench":
        plan = bench_mod.load_plan(args.plan)
        report = bench_mod.run_benchmark(plan, no_timing=args.no_timing)
        _emit(bench_mod.render_report(report, "csv"), args.output)
        failed = [r for r in report.rows if r.error]
        for r in failed:
            print(f"error: {r.instance}/{r.solver}/seed {r.seed}: {r.error}", file=sys.stderr)
        return EXIT_DATA if failed else EXIT_OK

    if args.command == "report":
        report = bench_mod.parse_report_csv(args.results)
        _emit(bench_mod.render_report(report, args.format), args.output)
        return EXIT_OK

    raise _UsageError("missing command")


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (data_mod.DataFormatError, ContractViolation, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
