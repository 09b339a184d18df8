"""portqubo benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload plan-small --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead. Either way it checks
the outputs, prints every metric by name with its unit, writes a record with
the environment and inputs to ``.perfbench-out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Timing: on a shared host, other work on the same cores changes how fast
this process runs, from one second to the next by up to twice and from one
minute to the next by a quarter, so raw pass times of the same code differ
between runs by more than the regression bounds. While the passes run, a
SIGALRM handler therefore times a fixed pure-Python calibration loop every
``CALIBRATION_EVERY_S``, so the samples fall evenly in time, inside long
steps too; step times leave out the time the samples take. ``wall_s`` is
the mean untraced pass time multiplied by ``CALIBRATION_REF_S`` over the
run's mean calibration time: the pass time at a reference host speed. Means,
not medians, because a pass time is itself a mean of the host's speed over
the pass. The loop runs none of the program's code, so a slower program
still shows in full; the raw time and the calibration figures are printed
and recorded next to the scaled one. Times the program measures itself
(solver ``wall_time_s``, and with it the ``tts99_s`` figures) include the
samples that interrupted them, about 5%, and are not scaled.

``setup_s`` is mostly interpreter start and imports, whose speed the loop
does not track. It is scaled the same way by a gauge of its own: a bare
interpreter that imports numpy, started before each set-up process.
``setup_s`` is the median set-up time multiplied by ``SETUP_GAUGE_REF_S``
over the median gauge time.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin every BLAS/OpenMP pool before numpy loads.
BLAS_THREADS = 1
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
SETUP_GAUGE = ("-c", "import numpy; print('ready', flush=True)")
# Reference times on a quiet 2-vCPU cloud VM with CPython 3.11 and numpy 2.4:
# reported times read as times on that host.
SETUP_GAUGE_REF_S = 0.12  # the gauge's start-to-ready time
CALIBRATION_ITERS = 150_000
CALIBRATION_REF_S = 0.023  # the calibration loop's time
CALIBRATION_EVERY_S = 0.5

END_TO_END = {"setup_s": "s", "wall_s": "s", "runs_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed and recorded on the workloads where they apply; not in the result
# line, whose metrics must be defined and nonzero on every workload.
REPORTED = {
    "tts99_s.sa": "s",
    "tts99_s.tabu": "s",
    "tts99_s.ga": "s",
    "hit_rate": "fraction",
    "feasible_frac": "fraction",
    "gap_pct_mean": "%",
    "failed_frac": "fraction",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _tree_sha256(base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts):
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "workload_seed": seed,
        "platform": platform.platform(),
    }


def _time_to_ready(args: list[str]) -> float:
    """Seconds from starting a fresh interpreter with `args` to its first
    line of output, which must read "ready"."""
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{' '.join(cmd)} exited {code} without reporting ready")
    return elapsed


def _time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    workdir.mkdir(parents=True)
    script = str(Path(__file__).resolve())
    return _time_to_ready([script, "--workload", workload, "--seed", str(seed), "--setup-child", str(workdir)])


class Calibration:
    """Times of a fixed pure-Python loop, as a gauge of how fast the host
    runs this process."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent taking samples
        self.busy = False
        self.values = [float(v) for v in range(64)]

    def _loop(self) -> float:
        values, table, acc = self.values, {}, 0.0
        t0 = time.perf_counter()
        for i in range(CALIBRATION_ITERS):
            k = i & 63
            acc += values[k] * 0.5 - acc * 1e-9
            table[k] = table.get(k, 0) + 1
        return time.perf_counter() - t0

    def take(self) -> None:
        if self.busy:  # a timer signal that arrives during a sample is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append(self._loop())
        self.spent += time.perf_counter() - t0
        self.busy = False

    def program_clock(self) -> float:
        """perf_counter without the time spent taking samples."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def sampling(self, every_s: float):
        """Take a sample now and every `every_s` seconds while the block runs."""
        self.take()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that takes this run's times to the reference host speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def _run_passes(workload, inputs, seconds: float, tracer):
    """Passes until the next one would end after `seconds`. With a tracer,
    passes alternate untraced and traced, starting untraced."""
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            tracer.pass_index = index
        try:
            res = workload.run_pass(inputs)
        finally:
            if tracer is not None:
                tracer.pass_index = None
        (traced if trace_this else untraced).append((index, res))
        index += 1
        elapsed = time.perf_counter() - start
        if (tracer is None or traced) and elapsed + res.wall_s > seconds:
            return untraced, traced


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "portqubo" / "__init__.py").is_file():
        print(f"error: no portqubo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs src on the path)
    import tracing  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_child:
        workload.setup(args.seed, Path(args.setup_child))
        print("ready", flush=True)
        return 0

    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text()) if reference_path.is_file() else {}
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        gauge_times, setup_times = [], []
        for k in range(SETUP_REPEATS):
            gauge_times.append(_time_to_ready(list(SETUP_GAUGE)))
            setup_times.append(_time_setup(args.workload, args.seed, workdir / f"setup{k}"))
        main_dir = workdir / "main"
        main_dir.mkdir()
        inputs = workload.setup(args.seed, main_dir)
        input_files = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(main_dir.iterdir())
        }
        calibration = Calibration()
        workloads.clock = calibration.program_clock
        tracer = tracing.Tracer(clock=calibration.program_clock) if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            with calibration.sampling(CALIBRATION_EVERY_S):
                untraced, traced = _run_passes(workload, inputs, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ordered = sorted(untraced + traced, key=lambda p: p[0])
        all_passes = [res for _, res in ordered]
        evaluation = workload.evaluate(inputs, all_passes, reference, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced_res = [res for _, res in untraced]
    raw_wall_s = statistics.fmean(res.wall_s for res in untraced_res)
    scale = calibration.scale()
    wall_s = raw_wall_s * scale
    runs = untraced_res[0].runs
    failures = [f for res in all_passes for f in res.failures] + evaluation.failures
    failures += [f"check {name}: {detail}" for name, ok, detail in evaluation.checks if not ok]
    attempted = sum(res.ops for res in all_passes) + len(evaluation.checks)
    end_to_end = {
        "setup_s": statistics.median(setup_times) * SETUP_GAUGE_REF_S / statistics.median(gauge_times),
        "wall_s": wall_s,
        "runs_per_s": runs / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {name: value for name, (value, _) in evaluation.quality.items()}
    reported["failed_frac"] = len(failures) / attempted

    if tracer is not None:
        import portqubo.solvers

        traced_res = [res for _, res in traced]
        layer = tracer.layer_metrics(
            sorted(i for i, _ in traced),
            overhead_s=statistics.fmean(res.wall_s for res in traced_res) * scale - wall_s,
            peak_alloc_mb=tracer.oracle_peak_alloc_mb(portqubo.solvers.solve_exhaustive_subsets),
            scale=scale,
        )
        result_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER_METRICS.items()}
    else:
        result_metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}

    env = _environment(args.seed)
    print(f"portqubo benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    traced_ids = {i for i, _ in traced}
    for i, res in ordered:
        print(f"pass {i}: {res.wall_s:.4f} s ({'traced' if i in traced_ids else 'untraced'})")
    print(f"setup runs: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"setup gauge runs: {', '.join(f'{t:.4f}' for t in gauge_times)} s (reference {SETUP_GAUGE_REF_S} s)")
    print(f"mean untraced pass: {raw_wall_s:.4f} s over {len(untraced_res)} passes")
    print(
        f"calibration: mean {statistics.fmean(calibration.samples):.5f} s over {len(calibration.samples)} samples "
        f"(reference {CALIBRATION_REF_S} s); times scaled by {scale:.4f}"
    )
    for name, ok, detail in evaluation.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}{f' ({detail})' if detail else ''}")
    for failure in failures:
        print(f"failure: {failure}")
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} = {_fmt(end_to_end[name])} {unit}")
    for name, unit in REPORTED.items():
        value = reported.get(name)
        print(f"{args.workload} {name} = {'n/a' if value is None else _fmt(value)} {unit}")
    if tracer is not None:
        for name, unit in tracing.PER_LAYER_METRICS.items():
            print(f"{args.workload} {name} = {_fmt(layer[name])} {unit}")

    OUT_ROOT.mkdir(exist_ok=True)
    record_path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "environment": env,
        "inputs": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "files_sha256": input_files},
        "setup_s": setup_times,
        "setup_gauge_s": gauge_times,
        "passes": [{"index": i, "traced": i in traced_ids, "steps": res.steps} for i, res in ordered],
        "calibration_s": calibration.samples,
        "raw_mean_pass_s": raw_wall_s,
        "checks": evaluation.checks,
        "failures": failures,
        "end_to_end": end_to_end,
        "reported": reported,
        "per_layer": layer if tracer is not None else None,
        "spans": tracer.spans if tracer is not None else None,
    }
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}")
    correct = all(ok for _, ok, _ in evaluation.checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
