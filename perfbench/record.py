"""Write the benchmark's reference values into perfbench/reference.json.

    python3 perfbench/record.py --seeds 0-31

Two kinds of value are recorded, from the code as it is when this runs:

- ``solve-large.reference_risk``: per instance, the lowest risk of any
  feasible solution that sa, tabu or ga find at the generous budget below.
- ``checksums``: per workload and seed, the digest of one pass's outputs.
  A run whose outputs differ from the recorded digest fails its checksum
  check, so a change that alters any output (an RNG stream, an algorithm, a
  file format) shows as incorrect until the values are recorded again.

Other keys of reference.json (the known defects) are kept as they are.
"""

from __future__ import annotations

import run  # first: importing it pins the BLAS thread pools before numpy loads

import argparse
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(run.SRC))

import portqubo.qubo as qubo  # noqa: E402
import portqubo.solvers as solvers  # noqa: E402
import workloads  # noqa: E402

GENEROUS_BUDGET = {
    "sa": [{"sweeps": 3000, "restarts": 20, "seed": s} for s in (0, 1)],
    "tabu": [{"restarts": 20, "max_iterations": 200 * 120, "seed": s} for s in (0, 1, 2)],
    "ga": [{"population": 400, "generations": 2000, "seed": s} for s in (0, 1, 2)],
}
SOLVE = {"sa": (solvers.solve_sa, solvers.AnnealConfig), "tabu": (solvers.solve_tabu, solvers.TabuConfig), "ga": (solvers.solve_ga, solvers.GaConfig)}


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def reference_risks() -> dict[str, float]:
    risks = {}
    for spec in workloads.SOLVE_LARGE_INSTANCES:
        instance = workloads.solve_large_instance(spec)
        params = qubo.PenaltyParams(1.0, workloads.EXPLICIT_LAMBDA1, spec.get("lambda2", 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q, layout = qubo.build_qubo(instance, params)
        best = None
        for name, configs in GENEROUS_BUDGET.items():
            solve, config_type = SOLVE[name]
            for options in configs:
                result = solve(q, config_type(**options))
                sol = qubo.decode(instance, layout, result.bits, energy=result.energy)
                print(f"{spec['id']} {name} {options}: risk={sol.risk!r} feasible={sol.feasible}", flush=True)
                if sol.feasible and (best is None or sol.risk < best):
                    best = sol.risk
        risks[spec["id"]] = best
    return risks


def checksums(seeds: list[int]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        out[name] = {}
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-{seed}-", dir=run.WORK_ROOT))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    result = workload.run_pass(workload.setup(seed, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            out[name][str(seed)] = workload.digest(result)
            print(f"{name} seed {seed}: {out[name][str(seed)]}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range of workload seeds, e.g. 0-31")
    parser.add_argument("--skip-risks", action="store_true", help="keep the recorded reference risks")
    args = parser.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    if not args.skip_risks:
        reference["solve-large"] = {"reference_risk": reference_risks(), "budget": GENEROUS_BUDGET}
    reference["checksums"] = checksums(_seed_range(args.seeds))
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
