"""Cardinality- and return-constrained portfolio selection compiled to
QUBO/Ising form, with penalty estimation, classical metaheuristic solvers,
exact oracles, and a benchmark harness."""

from .model import (
    AssetUniverse,
    ContractViolation,
    PortfolioInstance,
    Solution,
    solution_from_bits,
)
from .qubo import (
    IsingModel,
    PenaltyParams,
    QuboMatrix,
    VariableLayout,
    build_qubo,
    chain_strength_bound,
    decode,
    ising_energy,
    qubo_energy,
    read_qubo,
    slack_count,
    to_ising,
    write_qubo,
)
from .tuning import (
    estimate_lambda1,
    estimate_lambda2,
    grid_search,
    lambda_sweep,
    resolve_penalties,
)
from .solvers import (
    AnnealConfig,
    FlipEvaluator,
    GaConfig,
    InfeasibleInstanceError,
    SolveResult,
    TabuConfig,
    make_solver,
    solve_exhaustive_subsets,
    solve_ga,
    solve_qubo_bruteforce,
    solve_sa,
    solve_tabu,
)
from .data import (
    DataFormatError,
    PricePanel,
    SyntheticSpec,
    compute_stats,
    generate_synthetic,
    load_instance,
    load_prices_csv,
    load_universe,
    save_instance,
    save_universe,
)
from .bench import (
    BenchPlan,
    BenchReport,
    load_plan,
    parse_report_csv,
    render_report,
    run_benchmark,
)

__version__ = "0.1.0"
