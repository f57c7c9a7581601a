"""Streaming-monitor benchmark: warm-start wins and multi-path throughput.

Times the online identification subsystem on synthetic strong-DCL probe
streams (:mod:`repro.experiments.streams` — no simulator in the loop, so
the numbers isolate the fitting/testing pipeline):

* ``cold_window_seconds`` / ``warm_window_seconds`` — per-window latency
  of :func:`repro.streaming.tracker.analyze_window` with the warm-start
  chain disabled vs enabled, on the *same* window sequence.  A cold
  window pays the full multi-restart EM; a warm window drives a single
  warm-started row (cold hedge restarts run only if the warm trajectory
  collapses).  How much wall-clock that saves is machine-dependent: on
  FLOP/memory-bound hosts the warm fit skips ``n_restarts``-fold work
  per iteration, while on dispatch-bound hosts (per-E-step cost flat in
  batch width) only the iteration savings remain, so ``warm_speedup``
  is asserted against the conservative dispatch-bound floor.
* ``throughput_single_jobs`` / ``throughput_multi_jobs`` — end-to-end
  probes/second of the fleet service (:class:`repro.service.FleetService`
  run to the end of its input, as ``repro monitor`` runs it) over
  several concurrent paths with ``n_jobs=1`` vs a worker pool.  The
  multi-path speedup only exceeds 1 on multi-core machines; ``cpu_count``
  is recorded so readers can interpret it.
* ``telemetry`` — a metrics-on single-path pass: warm/cold fit counts,
  fallback reasons, and the span-histogram breakdown of where the
  monitor's time went (one ``streaming.fused_fit`` span per drained
  group, warm and cold windows alike).

Writes ``benchmarks/output/BENCH_streaming.json``.  ``--check-baseline``
compares the fresh warm-window latency against the committed JSON and
exits non-zero on a >2x regression (results go to a ``.check.json``
sidecar so the committed baseline is never clobbered by CI).

Run: ``PYTHONPATH=src python benchmarks/bench_streaming.py``
(``REPRO_BENCH_SCALE=paper`` for full horizons).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import common  # noqa: E402
from repro import obs  # noqa: E402
from repro.experiments.streams import strong_dcl_stream  # noqa: E402
from repro.parallel import shutdown_pools  # noqa: E402
from repro.service import FleetService, IterableSource  # noqa: E402
from repro.streaming.tracker import MonitorConfig, analyze_window  # noqa: E402
from repro.streaming.windows import iter_windows  # noqa: E402

BASELINE_PATH = common.OUTPUT_DIR / "BENCH_streaming.json"
#: CI may only tolerate this much slowdown of the guarded warm timing.
MAX_REGRESSION = 2.0
#: The acceptance bar: warm-started windows must fit at least this much
#: faster than cold multi-restart windows at quick scale.  This is the
#: dispatch-bound floor (the warm chain's iteration savings alone);
#: FLOP-bound machines see several-fold more.
MIN_WARM_SPEEDUP = 1.2

COLD_RESTARTS = 4
N_PATHS = 4
MULTI_JOBS = 4

if common.SCALE == "paper":
    WINDOW, HOP = 3000, 1500      # one paper minute, 50% overlap
    STREAM_PROBES = 24_000
    THROUGHPUT_PROBES = 12_000
else:
    WINDOW, HOP = 1500, 750
    STREAM_PROBES = 9_000
    THROUGHPUT_PROBES = 4_500


def monitor_config() -> MonitorConfig:
    return MonitorConfig(
        window=WINDOW, hop=HOP, n_hidden=2, gate_stationarity=False,
        em=common.em_config().replace(n_restarts=COLD_RESTARTS, n_jobs=1),
    )


def run_fleet(config: MonitorConfig, streams, n_jobs: int = 1) -> int:
    """Run a fleet service over ``streams`` to the end; windows published."""
    service = FleetService(base_config=config, n_jobs=n_jobs)
    for path, records in streams.items():
        service.register(path, source=IterableSource(records))
    service.run(exit_when_idle=True, interval=0.0)
    service.close()
    return service.n_windows


def bench_window_latency(config: MonitorConfig):
    """Per-window analyze_window latency: warm chain vs always-cold."""
    windows = list(iter_windows(strong_dcl_stream(STREAM_PROBES, seed=11),
                                WINDOW, HOP))
    # Warm chain: first window is cold by construction and excluded.
    warm = None
    warm_times, warm_iters = [], []
    for pw in windows:
        start = time.perf_counter()
        analysis = analyze_window(pw.observation, warm, config,
                                  window_index=pw.index)
        elapsed = time.perf_counter() - start
        assert analysis.analyzed, analysis.reason
        if analysis.warm_used:
            warm_times.append(elapsed)
            warm_iters.append(analysis.n_iter)
        warm = analysis.warm_state
    assert warm_times, "warm chain never engaged"

    cold_times, cold_iters = [], []
    for pw in windows[1:]:
        start = time.perf_counter()
        analysis = analyze_window(pw.observation, None, config,
                                  window_index=pw.index)
        cold_times.append(time.perf_counter() - start)
        cold_iters.append(analysis.n_iter)
    return {
        "n_windows": len(windows),
        "n_warm_windows": len(warm_times),
        "cold_window_seconds": round(float(np.mean(cold_times)), 4),
        "warm_window_seconds": round(float(np.mean(warm_times)), 4),
        "cold_mean_iters": round(float(np.mean(cold_iters)), 1),
        "warm_mean_iters": round(float(np.mean(warm_iters)), 1),
        "warm_speedup": round(float(np.mean(cold_times) /
                                    np.mean(warm_times)), 3),
    }


def bench_throughput(config: MonitorConfig, n_jobs: int) -> float:
    """Probes/second through the multi-path monitor, end to end."""
    streams = {
        f"path-{i}": list(strong_dcl_stream(THROUGHPUT_PROBES, seed=30 + i))
        for i in range(N_PATHS)
    }
    if n_jobs != 1:
        # Fork the worker pool outside the timed region (steady state).
        warm_cfg = MonitorConfig(
            window=WINDOW, hop=HOP, n_hidden=2, gate_stationarity=False,
            em=config.em.replace(max_iter=1, n_restarts=1),
        )
        run_fleet(warm_cfg, {path: stream[:WINDOW]
                             for path, stream in streams.items()}, n_jobs)
    start = time.perf_counter()
    windows = run_fleet(config, streams, n_jobs)
    elapsed = time.perf_counter() - start
    assert windows, "throughput run produced no events"
    return N_PATHS * THROUGHPUT_PROBES / elapsed


def bench_telemetry(config: MonitorConfig) -> dict:
    """One metrics-on single-path pass: fit mix + span time breakdown."""
    obs.enable(clear=True)  # metrics only; no event sink
    try:
        windows = run_fleet(config, {
            "path-0": list(strong_dcl_stream(STREAM_PROBES, seed=11))
        })
        snapshot = obs.metrics_snapshot()
        reg = obs.registry()
        warm = reg.counter_value("repro_streaming_fits_total", mode="warm")
        cold = reg.counter_value("repro_streaming_fits_total", mode="cold")
    finally:
        obs.disable()
        obs.registry().clear()

    fallbacks = {
        dict(labels)["reason"]: value
        for (name, labels), value in snapshot["counters"].items()
        if name == "repro_streaming_fallbacks_total" and value
    }
    spans = {
        dict(labels)["name"]: {
            "count": count,
            "total_seconds": round(total, 4),
        }
        for (name, labels), (_, _, total, count)
        in snapshot["histograms"].items()
        if name == "repro_span_seconds"
    }
    return {
        "n_windows": windows,
        "warm_fits": int(warm),
        "cold_fits": int(cold),
        "fallbacks": fallbacks,
        "span_seconds": spans,
    }


def run_benchmark() -> dict:
    config = monitor_config()
    latency = bench_window_latency(config)
    single = bench_throughput(config, n_jobs=1)
    multi = bench_throughput(config, n_jobs=MULTI_JOBS)
    telemetry = bench_telemetry(config)
    report = {
        "scale": common.SCALE,
        "cpu_count": os.cpu_count(),
        "window": WINDOW,
        "hop": HOP,
        "cold_restarts": COLD_RESTARTS,
        "em_tol": common.EM_TOL,
        "em_max_iter": common.EM_MAX_ITER,
        **latency,
        "n_paths": N_PATHS,
        "throughput_probes_per_path": THROUGHPUT_PROBES,
        "multi_n_jobs": MULTI_JOBS,
        "throughput_single_jobs": round(single, 1),
        "throughput_multi_jobs": round(multi, 1),
        "multi_path_speedup": round(multi / single, 3),
        "telemetry": telemetry,
    }
    assert report["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm-start speedup {report['warm_speedup']}x is below the "
        f"{MIN_WARM_SPEEDUP}x bar"
    )
    return report


def check_baseline(report: dict) -> int:
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping check")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != report["scale"]:
        print(f"baseline scale {baseline.get('scale')!r} != "
              f"current {report['scale']!r}; skipping check")
        return 0
    old = baseline["warm_window_seconds"]
    new = report["warm_window_seconds"]
    ratio = new / old
    print(f"warm window fit: baseline {old:.3f}s, now {new:.3f}s "
          f"({ratio:.2f}x)")
    if ratio > MAX_REGRESSION:
        print(f"FAIL: warm-window latency regressed more than "
              f"{MAX_REGRESSION:.0f}x vs the committed baseline")
        return 1
    print("OK: within the regression budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the committed JSON instead of replacing it",
    )
    args = parser.parse_args(argv)

    report = run_benchmark()
    shutdown_pools()
    print(json.dumps(report, indent=2))

    if args.check_baseline:
        status = check_baseline(report)
        out = BASELINE_PATH.with_suffix(".check.json")
    else:
        status = 0
        out = BASELINE_PATH
    common.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {out}]")
    manifest = common.write_bench_manifest("streaming")
    print(f"[manifest written to {manifest}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
