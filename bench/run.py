"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload simulate-nn --seed 1 --seconds 25 --trace 0

Workloads: simulate-nn, simulate-9atom, exact (see bench/README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced over as many passes as start
within ``--seconds``; with ``--trace 1`` they are the per-layer ones from
one traced pass (after one untraced pass that sets the tracing overhead).
The line before it holds the run's details and machine context.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Wrapped functions whose calls, total and self seconds are reported.
LAYER_FUNCTIONS = (
    "cli.main",
    "montecarlo.simulate",
    "montecarlo.compare_with_analytic",
    "solver.solve_master",
    "solver.harmonic_params",
    "solver.residual",
    "solver.example_ex0",
    "solver.example_ex1",
    "solver.example_ex2",
    "denjoy.check_stationarity",
    "denjoy.cylinder_mass",
    "denjoy.question_mark",
    "boundary.act_on_cylinder",
    "boundary.cylinders_up_to_depth",
    "group.reduce_concat",
    "group.inverse",
    "group.word_length",
    "group.parse_word",
    "mediant.rational_to_lr",
    "mediant.lr_to_interval",
    "mediant.rational_to_cf",
    "mediant.lr_to_cf",
)

# Per-layer metrics other than the per-function ones, with their units.
DERIVED_LAYER_METRICS = {
    "montecarlo.resolved_ratio": "ratio",
    "boundary.pieces_per_pullback": "ratio",
    "mediant.lr_nodes": "count",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.root_coverage": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_LAYER_METRICS)
    return units


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample(name: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to import modwalk and build the inputs."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "src_modwalk_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "modwalk").rglob("*.py")
        ),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def part_rates(passes) -> dict[str, float]:
    """Median over passes of each part's units of work per second."""
    return {
        f"{part}_per_s": statistics.median(p.parts[part][1] / p.parts[part][0] for p in passes)
        for part in passes[0].parts
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, inputs, seconds: float):
    """Passes back to back; another starts only while it is expected (from the
    median pass so far) to end within ``seconds``.  Also returns the peak RSS
    after the first pass, which later passes would only blur."""
    passes, durations = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        passes.append(workload.run(inputs))
        durations.append(time.perf_counter() - began)
        if len(passes) == 1:
            first_pass_rss_mb = peak_rss_mb()
    return passes, first_pass_rss_mb


def run_traced(workload, inputs, run_id: str):
    from tracer import Tracer, installed

    untraced = workload.run(inputs)
    tracer = Tracer(run_id)
    with installed(tracer):
        traced = workload.run(inputs)
    return untraced, traced, tracer


def layer_metrics(workload, untraced, traced, tracer) -> dict:
    units = per_layer_units()
    table = tracer.table()
    values = {}
    for name in LAYER_FUNCTIONS:
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            values[f"{name}.{key}"] = row[key]
    pullbacks = table.get("boundary.act_on_cylinder", {"calls": 0})["calls"]
    values["montecarlo.resolved_ratio"] = workload.resolved_ratio(traced)
    values["boundary.pieces_per_pullback"] = (
        tracer.tallies.get("boundary.pieces", 0) / pullbacks if pullbacks else 0.0
    )
    values["mediant.lr_nodes"] = tracer.tallies.get("mediant.lr_nodes", 0)
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    values["trace.wall_s"] = traced.raw_wall_s
    values["trace.root_coverage"] = tracer.root_seconds() / (traced.raw_wall_s + traced.sampling_s)
    values["trace.spans"] = len(tracer)
    return {name: metric(values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modwalk" / "__init__.py").is_file():
        print(f"error: no modwalk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modwalk
    import workloads

    if Path(modwalk.__file__).resolve().parent != SRC / "modwalk":
        print(f"error: imported modwalk from {modwalk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    inputs = workload.build(args.seed)
    setup = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    checks = workloads.Checks()
    workload.spot_check(inputs, checks)

    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
        untraced, traced, tracer = run_traced(workload, inputs, run_id)
        passes = [untraced, traced]
    else:
        passes, rss_mb = run_untraced(workload, inputs, args.seconds)

    workload.check(inputs, passes[0], checks)
    for p in passes[1:]:
        checks.expect(p.digest == passes[0].digest, "a repeated pass gave different outputs")
    if args.seed == workloads.DEFAULT_SEED:
        checks.expect(
            passes[0].digest == workloads.DIGESTS[args.workload],
            "outputs differ from the seed commit's digest",
        )

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "raw_pass_wall_s": [p.raw_wall_s for p in passes],
        "setup_samples_s": setup,
        "rates": part_rates(passes[:1] if args.trace else passes),
        "digest": passes[0].digest,
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.failures,
        "context": machine_context(),
    }
    if args.trace:
        metrics = layer_metrics(workload, untraced, traced, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: metric(metrics[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
