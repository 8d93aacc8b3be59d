"""Tests of the benchmark itself: tracer arithmetic, wrapper removal, the RNG
contract spot check, small-input smoke runs and BENCHMARK.json consistency.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import modwalk  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "simulate-nn": {"paths": 2000},
    "simulate-9atom": {"paths": 2000},
    "exact": {"solves": 20, "checks": 2, "qmarks": 50, "encodings": 50},
}


def add_span(t: tracing.Tracer, nid: int, start: float, end: float, parent: int) -> int:
    t.name_ids.append(nid)
    t.starts.append(start)
    t.ends.append(end)
    t.parents.append(parent)
    t.calls[nid] += 1
    return len(t.starts) - 1


def test_self_time_on_synthetic_tree():
    t = tracing.Tracer("synthetic")
    a, b, c, d = (t._register(n) for n in "ABCD")
    root = add_span(t, a, 0.0, 10.0, -1)
    add_span(t, b, 1.0, 4.0, root)
    mid = add_span(t, c, 5.0, 9.0, root)
    add_span(t, d, 6.0, 8.0, mid)
    add_span(t, b, 12.0, 13.0, -1)
    table = t.table()
    assert table["A"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["B"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert table["C"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert table["D"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert t.root_seconds() == 11.0


def snapshot_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "modwalk" or name.startswith("modwalk.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_are_removed_after_a_traced_pass():
    before = snapshot_bindings()
    original = modwalk.boundary.act_on_cylinder
    workload = workloads.WORKLOADS["exact"]
    inputs = workload.build(3, **SMALL["exact"])
    t = tracing.Tracer("restore")
    with tracing.installed(t):
        assert modwalk.denjoy.act_on_cylinder is not original
        assert modwalk.denjoy.act_on_cylinder is modwalk.boundary.act_on_cylinder
        workload.run(inputs)
    assert modwalk.denjoy.act_on_cylinder is original
    assert modwalk.boundary.act_on_cylinder is original
    assert snapshot_bindings() == before
    table = t.table()
    assert table["boundary.act_on_cylinder"]["calls"] > 0
    assert table["denjoy.check_stationarity"]["calls"] == 2


def test_wrappers_are_removed_when_the_pass_raises():
    before = snapshot_bindings()
    with pytest.raises(ValueError):
        with tracing.installed(tracing.Tracer("raises")):
            modwalk.denjoy.question_mark(2)
    assert snapshot_bindings() == before


def test_generator_spans_count_calls_once():
    t = tracing.Tracer("gen")
    with tracing.installed(t, traced=("boundary.cylinders_up_to_depth",)):
        cylinders = list(modwalk.boundary.cylinders_up_to_depth(3))
    row = t.table()["boundary.cylinders_up_to_depth"]
    assert len(cylinders) == 3 + 6 + 12
    assert row["calls"] == 1
    assert len(t) == len(cylinders) + 1  # one span per resumption, the last one ends it


@pytest.mark.parametrize("name", ["simulate-nn", "simulate-9atom"])
def test_rng_contract_check_flags_a_tampered_count(name):
    inputs = workloads.WORKLOADS[name].build(5, paths=SMALL[name]["paths"])
    targets = getattr(inputs, "targets", ())
    report = workloads.spot_report(inputs.measure, 5, targets)
    assert workloads.rng_contract_holds(report, inputs.measure, 5, targets)

    counts = dict(report.cylinder_counts)
    cylinder = next(iter(counts))
    counts[cylinder] += 1
    tampered = dataclasses.replace(report, cylinder_counts=counts)
    assert not workloads.rng_contract_holds(tampered, inputs.measure, 5, targets)

    if targets:
        passages = dict(report.passage_counts)
        passages[targets[0]] -= 1
        tampered = dataclasses.replace(report, passage_counts=passages)
        assert not workloads.rng_contract_holds(tampered, inputs.measure, 5, targets)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_smoke_run_has_no_failures(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(2, **SMALL[name])
    checks = workloads.Checks()
    workload.spot_check(inputs, checks)
    untraced, traced, t = run.run_traced(workload, inputs, "smoke")
    workload.check(inputs, untraced, checks)
    checks.expect(traced.digest == untraced.digest, "traced pass changed the outputs")
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures

    metrics = run.layer_metrics(workload, untraced, traced, t)
    assert set(metrics) == set(run.per_layer_units())
    assert 0.9 <= metrics["trace.root_coverage"]["value"] <= 1.0
    rates = run.part_rates([untraced])
    assert rates and all(v > 0 for v in rates.values())


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
