"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible instance.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from .model import RETURN_MODES, ContractViolation, PortfolioInstance, whole_number
from .qubo import (
    PenaltyParams,
    build_qubo,
    read_qubo,
    write_qubo,
)
from .solvers import (
    SOLVER_NAMES,
    InfeasibleInstanceError,
    make_solver,
    solve_exhaustive_subsets,
)
from .tuning import grid_search, lambda_sweep, resolve_penalties, seeded_runs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str, least: int = 1) -> int:
    """The value of a count or seed flag: decimal digits that make a whole
    number of at least `least`."""
    try:  # no name: argparse names the flag
        return whole_number(int(text) if text.isdecimal() else text, least, "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc).lstrip()) from None


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it."""
    parser = _Parser(prog="portqubo", description=__doc__)
    seed = functools.partial(_count, least=0)  # the type of a seed flag
    sub = parser.add_subparsers(dest="command")
    # flag groups that several commands share
    instance_flags = _Parser(add_help=False)
    instance_flags.add_argument("--n", type=int, required=True)
    instance_flags.add_argument("--r-star", type=float, default=None)
    instance_flags.add_argument("--mode", choices=RETURN_MODES, default="none")
    instance_flags.add_argument("-o", "--output", required=True)
    penalty_flags = _Parser(add_help=False)
    penalty_flags.add_argument("--lambda1", type=float, default=None)
    penalty_flags.add_argument("--lambda2", type=float, default=None)
    penalty_flags.add_argument("--estimate", action="store_true")

    p = sub.add_parser("ingest", parents=[], help="prices CSV -> universe JSON")
    p.add_argument("prices")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log-returns", action="store_true")

    p = sub.add_parser(
        "make-instance", parents=[instance_flags], help="universe JSON -> instance JSON"
    )
    p.add_argument("universe")
    p.add_argument("--scale-mu", type=float, default=1.0)

    p = sub.add_parser("synth", parents=[instance_flags], help="generate a synthetic instance")
    p.add_argument("--assets", type=int, required=True)
    p.add_argument("--factors", type=int, default=3)
    p.add_argument("--seed", type=seed, default=0)

    p = sub.add_parser("build", parents=[penalty_flags], help="instance JSON -> QUBO file")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("solve", parents=[penalty_flags], help="solve an instance or QUBO file")
    p.add_argument("target")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="sa")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--restarts", type=_count, default=1)

    p = sub.add_parser("tune", help="grid search penalty weights")
    p.add_argument("instance")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="sa")
    p.add_argument("--grid1", type=float, nargs="+", default=None)
    p.add_argument("--grid2", type=float, nargs="+", default=None)
    p.add_argument("--repeats", type=_count, default=5)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("sweep", help="lambda1 sweep for the feasibility threshold")
    p.add_argument("instance")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="exact")
    p.add_argument("--lambda1-from", type=float, required=True)
    p.add_argument("--lambda1-to", type=float, required=True)
    p.add_argument("--points", type=_count, default=20)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--seed", type=seed, default=0)
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


def _penalties(instance, args) -> PenaltyParams:
    """The penalties of `build` and `solve`, printed when estimated:
    `--estimate`, or no lambda given, is the estimate policy."""
    given = (args.lambda1, args.lambda2)
    policy = "estimate" if args.estimate or given == (None, None) else "explicit"
    params = resolve_penalties(instance, policy, *given)
    if policy == "estimate":
        print(f"estimated lambda1={params.lambda1:.17g} lambda2={params.lambda2:.17g}")
    return params


def _failed(runs, where: str) -> bool:
    """Print `error: <where>: <error>` for each failed run, one whose `error`
    is not None, with `where` formatted by the run as `r`; whether any failed."""
    failed = [r for r in runs if r.error is not None]
    for r in failed:
        print(f"error: {where.format(r=r)}: {r.error}", file=sys.stderr)
    return bool(failed)


def _write_instance(universe, args) -> int:
    """Write the instance of `universe` that the shared instance flags give."""
    instance = PortfolioInstance(
        universe=universe, n=args.n, r_star=args.r_star, return_mode=args.mode
    )
    data_mod.save_instance(instance, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    # a QUBO file holds its penalties already, and the exact solver
    # enumerates the instance's n-subsets, which need none; its one
    # enumeration gives every seed the same answer
    is_qubo = args.target.endswith(".qubo")
    if args.solver == "exact" and args.restarts > 1:
        raise _UsageError("solve with --solver exact takes no --restarts above 1")
    if is_qubo or args.solver == "exact":
        given = [
            flag
            for flag, on in (
                ("--lambda1", args.lambda1 is not None),
                ("--lambda2", args.lambda2 is not None),
                ("--estimate", args.estimate),
            )
            if on
        ]
        if given:
            target = "a .qubo target" if is_qubo else "--solver exact"
            raise _UsageError(f"solve with {target} takes no {' or '.join(given)}")
    seeds = range(args.seed, args.seed + args.restarts)
    # the least energy wins, and on ties the first seed
    if is_qubo:
        q = read_qubo(args.target)
        solver = make_solver(args.solver)
        result = min((solver(q, seed) for seed in seeds), key=lambda r: r.energy)
        print(f"bits={''.join(str(b) for b in result.bits)}")
        print(f"energy={result.energy:.17g}")
        return EXIT_OK
    instance = data_mod.load_instance(args.target)
    if args.solver == "exact":
        sol = solve_exhaustive_subsets(instance)
        print(f"x={list(sol.x)}")
        print(f"risk={sol.risk:.17g} return={sol.ret:.17g} feasible={sol.feasible}")
        return EXIT_OK
    params = _penalties(instance, args)
    runs = seeded_runs(instance, params, [(args.solver, make_solver(args.solver))], seeds)
    failed = [row.error for row, _ in runs if row.error is not None]
    if failed:
        raise ValueError(failed[0])
    _, sol = min(runs, key=lambda run: run[0].energy)
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
        return _write_instance(universe, args)

    if args.command == "synth":
        spec = data_mod.SyntheticSpec(n_assets=args.assets, n_factors=args.factors, seed=args.seed)
        return _write_instance(data_mod.generate_synthetic(spec), args)

    if args.command == "build":
        instance = data_mod.load_instance(args.instance)
        params = _penalties(instance, args)
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
        solver = make_solver(args.solver)
        best, cells, feasible = grid_search(
            instance, solver, args.grid1, args.grid2, repeats=args.repeats
        )
        print(
            f"best lambda1={best.lambda1:.17g} lambda2={best.lambda2:.17g} "
            f"feasible={feasible}"
        )
        runs = [run for cell in cells for run in cell.runs]
        if args.output:
            _emit(bench_mod.rows_csv(runs, bench_mod.RUN_COLUMNS), args.output)
        failed = _failed(runs, "lambda1={r.lambda1:.17g} lambda2={r.lambda2:.17g} seed {r.seed}")
        return EXIT_DATA if failed else EXIT_OK if feasible else EXIT_INFEASIBLE

    if args.command == "sweep":
        instance = data_mod.load_instance(args.instance)
        values = np.linspace(args.lambda1_from, args.lambda1_to, args.points).tolist()
        solver = make_solver(args.solver)
        base = PenaltyParams(1.0, 0.0, args.lambda2)
        points = lambda_sweep(instance, solver, values, base, seed=args.seed)
        _emit(bench_mod.rows_csv(points, bench_mod.RUN_COLUMNS), args.output)
        return EXIT_DATA if _failed(points, "lambda1={r.lambda1:.17g}") else EXIT_OK

    if args.command == "bench":
        plan = bench_mod.load_plan(args.plan)
        report = bench_mod.run_benchmark(plan, no_timing=args.no_timing)
        _emit(bench_mod.render_report(report, "csv"), args.output)
        failed = _failed(report.rows, "{r.instance}/{r.solver}/seed {r.seed}")
        return EXIT_DATA if failed else EXIT_OK

    # "report": the parser admits no other command
    report = bench_mod.parse_report_csv(args.results)
    _emit(bench_mod.render_report(report, args.format), args.output)
    return EXIT_OK


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
