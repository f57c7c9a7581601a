"""The benchmark's own tests: BENCHMARK.json shape, helpers, smoke runs.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root (about two minutes, most of it the smoke runs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import latency_summary  # noqa: E402


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_spec():
    bench = _benchmark()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == {k: v[:2] for k, v in spec.END_TO_END.items()}
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == {k: v[:2] for k, v in spec.LAYERS.items()}


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    p50, tail, percentile, n = latency_summary(samples)
    assert n == 100 and p50 == pytest.approx(50.5)
    assert tail == pytest.approx(90.0) and percentile == pytest.approx(90.0)
    # Below eleven samples no percentile has ten beyond it: the maximum.
    assert latency_summary([0.001, 0.003, 0.002])[1:3] == (3.0, 100.0)
    # The tail may come from its own samples (one per cycle).
    p50, tail, _, n = latency_summary(samples, [0.2, 0.4])
    assert p50 == pytest.approx(50.5) and (tail, n) == (400.0, 2)


def test_self_times_add_up_to_top_level_spans():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return sum(range(1000))

        def outer(self):
            return self.inner() + self.inner()

    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    with tracer.span("bench.drive"):
        Layer().outer()
    tracer.restore()
    assert tracer.calls("layer.inner") == 2
    self_times = sum(stat[1] for stat in tracer.stats.values())
    assert self_times == pytest.approx(tracer.top_level)
    outer_total, inner_total = (tracer.stats[name][0]
                                for name in ("layer.outer", "layer.inner"))
    assert outer_total >= inner_total
    assert not hasattr(Layer.outer, "__wrapped__")


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


@pytest.mark.parametrize("workload,trace", [
    ("fleet_quiet", 0), ("fleet_quiet", 1),
    ("fleet_congested", 0), ("fleet_congested", 1),
    ("paper_tables", 0),
])
def test_smoke_run_checks_pass_and_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "20",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = spec.LAYERS if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name][0]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"),
                                       encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_quiet",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
