"""Fleet service benchmark: sustained ingest, overload shed, API latency.

Measures what the :class:`~repro.service.loop.FleetService` adds around
the fused drain engine — scheduling, admission control, snapshot
publication and the HTTP control plane — under the loads the acceptance
criteria name:

* **Sustained ingest** per fleet tier: ``n_paths`` registered paths
  (warm states cloned from a small template set, as in
  ``bench_monitor_scale.py``) stream ``TIMED_HOPS`` hops each through
  bound sources while ``run(exit_when_idle=True)`` cycles the service.
  Records/s and windows/s are the headline numbers; the paper-scale
  committed baseline must record a *completed* 128-path tier with fused
  drains on one CPU.
* **Overload shed**: every path's whole backlog arrives in one burst
  (far beyond the drain budget); the ``shed`` policy must engage and
  the post-cycle backlog must come back to zero — queue depth stays
  bounded instead of growing without bound.
* **API latency under load**: ``GET /fleet`` and ``GET /verdicts/{id}``
  timed against a live :class:`~repro.service.api.ServiceAPI` while the
  service loop drains in a background thread; p50/p99 in ms.  Reads hit
  the published snapshot cache, so they must not stretch with drain
  time.
* **Tracing overhead**: the same fleet run timed with record-to-verdict
  tracing disabled vs enabled, in ``OVERHEAD_PAIRS`` off/on pairs that
  alternate which arm runs first; the overhead is the median of the
  pairs' ``on / off - 1`` ratios, reported with its IQR.  The tracing
  layer promises to be near-zero-cost; ``--max-trace-overhead`` (CI
  passes 0.05) fails the run when that median exceeds the fraction.
* **Health overhead**: the same paired comparison for the model-health
  layer (one extra diagnostics E-pass per analysed window plus detector
  updates); ``--max-health-overhead`` (CI passes 0.05) gates it the
  same way.

Each scale keeps its own committed baseline: a paper-scale run writes
``benchmarks/output/BENCH_service.json``, a quick run (the scale CI
runs) ``BENCH_service_quick.json``.  ``--check-baseline`` (CI) never
clobbers either: results go to a ``.check.json`` sidecar, the committed
paper-scale baseline is checked for the completed 128-path acceptance
tier, and fresh throughput must stay within ``MAX_REGRESSION`` of the
same scale's committed value.

Run: ``PYTHONPATH=src python benchmarks/bench_service.py``
(``REPRO_BENCH_SCALE=paper`` for the paper fleet sizes).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import common  # noqa: E402
from repro.experiments.streams import strong_dcl_stream  # noqa: E402
from repro.obs import health as health_mod  # noqa: E402
from repro.obs import trace as trace_mod  # noqa: E402
from repro.models.base import EMConfig  # noqa: E402
from repro.parallel import shutdown_pools  # noqa: E402
from repro.service import (BackpressurePolicy, FleetService,  # noqa: E402
                           IterableSource, ServiceAPI)
from repro.streaming.scheduler import MultiPathMonitor  # noqa: E402
from repro.streaming.tracker import MonitorConfig  # noqa: E402

BASELINE_NAME = "service" if common.SCALE == "paper" else "service_quick"
BASELINE_PATH = common.OUTPUT_DIR / f"BENCH_{BASELINE_NAME}.json"
#: Holds the 128-path acceptance tier, checked at every scale.
PAPER_BASELINE_PATH = common.OUTPUT_DIR / "BENCH_service.json"
#: CI tolerates at most this much erosion of the committed throughput.
MAX_REGRESSION = 2.0
#: The committed paper-scale baseline must record this tier *completed*
#: (every expected window resolved) — the "sustains >= 128 registered
#: paths on one CPU with fused drains" acceptance record.
ACCEPTANCE_FLEET = 128

#: Distinct probe streams; fleet path ``i`` clones template ``i % N``,
#: so warm-up runs a constant number of cold fits at any fleet size.
N_STREAMS = 8
#: Hops streamed (per path) through the timed service run.
TIMED_HOPS = 2
#: Hops enqueued per path for the one-burst overload scenario.
OVERLOAD_HOPS = 6
#: Requests per endpoint in the API-latency section.
API_REQUESTS = 64
#: Off/on pairs per overhead measurement.  Each pair's ``on / off - 1``
#: is one sample and the gate reads their median: a best-of-3 per arm
#: over ~1 s runs read 12-14% in 3 of 10 quick runs of unchanged code.
OVERHEAD_PAIRS = 6

if common.SCALE == "paper":
    FLEETS = [32, 128]
    WINDOW, HOP = 3000, 1500      # MonitorConfig defaults: one paper minute
else:
    FLEETS = [8, 32]
    WINDOW, HOP = 1500, 750


def monitor_config() -> MonitorConfig:
    """Default MonitorConfig at paper scale; shrunk EM budget at quick.

    ``gate_stationarity=False`` is the only non-default: the gate can
    only *skip* windows, and the benchmark measures the fit path.
    """
    em = None
    if common.SCALE != "paper":
        em = EMConfig(tol=common.EM_TOL, max_iter=common.EM_MAX_ITER)
    return MonitorConfig(window=WINDOW, hop=HOP, gate_stationarity=False,
                         em=em)


def warm_templates(config: MonitorConfig, streams):
    """One warmed _PathState per template stream (cold fits, untimed)."""
    seed_monitor = MultiPathMonitor(config, n_jobs=1)
    for g, stream in enumerate(streams):
        seed_monitor.ingest_many(f"seed-{g}", stream[:WINDOW])
    events = seed_monitor.drain()
    assert len(events) == len(streams), "warm-up drain lost windows"
    assert all(e.analysis.analyzed for e in events), "warm-up window skipped"
    return [seed_monitor._paths[f"seed-{g}"] for g in range(len(streams))]


def build_service(config, templates, streams, n_paths: int, hops: int,
                  **kwargs) -> FleetService:
    """A service fleet whose paths clone the warmed template states.

    Registers each path through the control plane (so registry entries,
    generations and histories are real), then swaps the freshly created
    monitor state for a deep copy of the warmed template — the same
    trick ``bench_monitor_scale.py`` uses to keep warm-up cost flat as
    fleets grow.  Each path's bound source then replays the template
    stream's next ``hops`` hops.
    """
    service = FleetService(base_config=config, n_jobs=1,
                           max_pending=max(64, OVERLOAD_HOPS + 2), **kwargs)
    for i in range(n_paths):
        path = f"path-{i:04d}"
        tail = streams[i % N_STREAMS][WINDOW:WINDOW + hops * HOP]
        service.register(path, source=IterableSource(iter(tail)))
        service.monitor._paths[path] = copy.deepcopy(
            templates[i % N_STREAMS])
    return service


def bench_fleet(config, templates, streams, n_paths: int) -> dict:
    """Time a full service run over ``n_paths`` warm streaming paths."""
    service = build_service(config, templates, streams, n_paths, TIMED_HOPS)
    records = n_paths * TIMED_HOPS * HOP
    start = time.perf_counter()
    cycles = service.run(exit_when_idle=True, interval=0.0)
    elapsed = time.perf_counter() - start
    windows = service.n_windows
    assert windows == n_paths * TIMED_HOPS, (
        f"service resolved {windows} windows, "
        f"expected {n_paths * TIMED_HOPS}"
    )
    assert service.monitor.n_pending == 0, "service exited with a backlog"
    service.close()
    entry = {
        "paths": n_paths,
        "windows": windows,
        "records": records,
        "cycles": cycles,
        "seconds": round(elapsed, 3),
        "ingest_throughput_rps": round(records / elapsed, 1),
        "drain_throughput_wps": round(windows / elapsed, 3),
    }
    print(f"  fleet {n_paths:4d}: {entry['seconds']:8.2f}s  "
          f"{entry['ingest_throughput_rps']:9.0f} rec/s  "
          f"{entry['drain_throughput_wps']:7.2f} win/s  "
          f"({cycles} cycles)", flush=True)
    return entry


def bench_overload(config, templates, streams) -> dict:
    """One-burst overload at the largest tier: shed must bound the queue."""
    n_paths = FLEETS[-1]
    high = 2 * n_paths
    policy = BackpressurePolicy(mode="shed", high_watermark=high,
                                low_watermark=n_paths)
    service = build_service(config, templates, streams, n_paths,
                            OVERLOAD_HOPS, backpressure=policy,
                            burst=OVERLOAD_HOPS * HOP)
    enqueued = n_paths * OVERLOAD_HOPS
    start = time.perf_counter()
    summary = service.step()
    elapsed = time.perf_counter() - start
    assert summary["shed"] > 0, "overload burst never tripped the shed"
    assert summary["backlog"] == 0, "backlog survived the overload cycle"
    assert summary["shed"] + summary["windows"] == enqueued, (
        "shed + resolved windows must account for the whole burst"
    )
    service.close()
    entry = {
        "paths": n_paths,
        "enqueued_windows": enqueued,
        "high_watermark": high,
        "shed_windows": summary["shed"],
        "windows_resolved": summary["windows"],
        "cycle_seconds": round(elapsed, 3),
    }
    print(f"  overload {n_paths:4d}: enqueued {enqueued}, "
          f"shed {entry['shed_windows']}, resolved "
          f"{entry['windows_resolved']} in {entry['cycle_seconds']:.2f}s",
          flush=True)
    return entry


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def bench_api(config, templates, streams) -> dict:
    """GET latency against the live API while the loop drains."""
    n_paths = FLEETS[0]
    service = build_service(config, templates, streams, n_paths, TIMED_HOPS)
    api = ServiceAPI(service, port=0).start()
    runner = threading.Thread(
        target=service.run,
        kwargs={"exit_when_idle": True, "interval": 0.0},
    )

    def timed_get(url) -> float:
        start = time.perf_counter()
        with urllib.request.urlopen(url, timeout=30) as response:
            response.read()
        return (time.perf_counter() - start) * 1e3

    fleet_ms, verdict_ms = [], []
    verdict_url = f"{api.base_url}/verdicts/path-0000"
    try:
        runner.start()
        # Fixed request count: the early requests race live drain
        # cycles, the late ones hit an idle service — both belong in
        # the distribution a dashboard poller would see.
        for _ in range(API_REQUESTS):
            fleet_ms.append(timed_get(f"{api.base_url}/fleet"))
            verdict_ms.append(timed_get(verdict_url))
        runner.join(timeout=600)
    finally:
        service.stop()
        api.close()
        service.close()
    assert not runner.is_alive(), "service loop failed to finish"
    entry = {
        "paths": n_paths,
        "requests_per_endpoint": API_REQUESTS,
        "fleet_p50_ms": round(_percentile(fleet_ms, 0.50), 3),
        "fleet_p99_ms": round(_percentile(fleet_ms, 0.99), 3),
        "verdict_p50_ms": round(_percentile(verdict_ms, 0.50), 3),
        "verdict_p99_ms": round(_percentile(verdict_ms, 0.99), 3),
    }
    print(f"  api ({n_paths} paths): /fleet p50 {entry['fleet_p50_ms']}ms "
          f"p99 {entry['fleet_p99_ms']}ms; /verdicts p50 "
          f"{entry['verdict_p50_ms']}ms p99 {entry['verdict_p99_ms']}ms",
          flush=True)
    return entry


def paired_overhead(timed_run, n_paths: int, layer: str) -> dict:
    """Median and IQR of ``OVERHEAD_PAIRS`` off/on pair ratios.

    ``timed_run(on)`` times one fleet run with the layer off or on.  The
    pairs alternate which arm runs first, so a cost of going first (or
    second) cancels, and the host's speed drift over a pair is shared by
    both of its arms.
    """
    disabled, enabled = [], []
    for pair in range(OVERHEAD_PAIRS):
        for on in ((True, False) if pair % 2 else (False, True)):
            (enabled if on else disabled).append(timed_run(on))
    overhead = common.median_iqr(
        [on / off - 1.0 for off, on in zip(disabled, enabled)])
    entry = {
        "paths": n_paths,
        "pairs": OVERHEAD_PAIRS,
        "disabled_seconds": [round(t, 3) for t in disabled],
        "enabled_seconds": [round(t, 3) for t in enabled],
        f"{layer}_overhead_fraction": overhead["median"],
        f"{layer}_overhead_iqr": overhead["iqr"],
    }
    print(f"  {layer} overhead ({n_paths} paths, {OVERHEAD_PAIRS} pairs): "
          f"median {overhead['median']:.1%}, IQR {overhead['iqr']:.1%}",
          flush=True)
    return entry


def bench_trace_overhead(config, templates, streams) -> dict:
    """Fleet run timed with tracing off vs on (:func:`paired_overhead`).

    Tracing-on runs attach a :class:`~repro.obs.trace.TraceStore` so the
    whole pipeline pays its full freight — ingest stamping, stage
    histograms, ring retention.  Telemetry stays off either way (the CI
    default), so this isolates the tracing layer itself.
    """
    n_paths = FLEETS[0]

    def timed_run(traced: bool) -> float:
        if traced:
            trace_mod.enable_tracing()
        else:
            trace_mod.disable_tracing()
        kwargs = {"trace_store": trace_mod.TraceStore()} if traced else {}
        service = build_service(config, templates, streams, n_paths,
                                TIMED_HOPS, **kwargs)
        start = time.perf_counter()
        service.run(exit_when_idle=True, interval=0.0)
        elapsed = time.perf_counter() - start
        assert service.n_windows == n_paths * TIMED_HOPS, (
            "trace-overhead run lost windows"
        )
        service.close()
        return elapsed

    try:
        return paired_overhead(timed_run, n_paths, "trace")
    finally:
        trace_mod.disable_tracing()


def bench_health_overhead(config, templates, streams) -> dict:
    """Fleet run timed with model health off vs on
    (:func:`paired_overhead`).

    Health-on runs attach a :class:`~repro.obs.health.HealthStore`, so
    the run pays the whole layer — the per-window diagnostics E-pass,
    detector updates, scoring and report retention.  Telemetry stays
    off (the CI default), isolating the health layer itself.
    """
    n_paths = FLEETS[0]

    def timed_run(with_health: bool) -> float:
        if with_health:
            health_mod.enable_health()
        else:
            health_mod.disable_health()
        kwargs = {"health_store": health_mod.HealthStore()} \
            if with_health else {}
        service = build_service(config, templates, streams, n_paths,
                                TIMED_HOPS, **kwargs)
        start = time.perf_counter()
        service.run(exit_when_idle=True, interval=0.0)
        elapsed = time.perf_counter() - start
        assert service.n_windows == n_paths * TIMED_HOPS, (
            "health-overhead run lost windows"
        )
        service.close()
        return elapsed

    try:
        return paired_overhead(timed_run, n_paths, "health")
    finally:
        health_mod.disable_health()


def run_benchmark() -> dict:
    config = monitor_config()
    probes = WINDOW + max(TIMED_HOPS, OVERLOAD_HOPS) * HOP
    streams = [list(strong_dcl_stream(probes, seed=100 + g))
               for g in range(N_STREAMS)]
    print(f"warming {N_STREAMS} template paths "
          f"(window={WINDOW}, scale={common.SCALE})...", flush=True)
    templates = warm_templates(config, streams)
    fleets = {}
    for n_paths in FLEETS:
        fleets[str(n_paths)] = bench_fleet(config, templates, streams,
                                           n_paths)
    overload = bench_overload(config, templates, streams)
    api = bench_api(config, templates, streams)
    trace_overhead = bench_trace_overhead(config, templates, streams)
    health_overhead = bench_health_overhead(config, templates, streams)
    largest = fleets[str(FLEETS[-1])]
    return {
        "scale": common.SCALE,
        "cpu_count": os.cpu_count(),
        "window": WINDOW,
        "hop": HOP,
        "timed_hops": TIMED_HOPS,
        "n_streams": N_STREAMS,
        "em_tol": config.em.tol,
        "em_max_iter": config.em.max_iter,
        "fleets": fleets,
        "overload": overload,
        "api": api,
        "trace_overhead": trace_overhead,
        "health_overhead": health_overhead,
        "largest_fleet_paths": FLEETS[-1],
        "largest_fleet_throughput_rps": largest["ingest_throughput_rps"],
    }


def check_acceptance_tier() -> int:
    """The committed paper-scale artifact must record the completed
    128-path acceptance tier, whatever scale this run used."""
    if not PAPER_BASELINE_PATH.exists():
        print(f"FAIL: no committed paper-scale baseline at "
              f"{PAPER_BASELINE_PATH}")
        return 1
    paper = json.loads(PAPER_BASELINE_PATH.read_text())
    tier = paper.get("fleets", {}).get(str(ACCEPTANCE_FLEET))
    if paper.get("scale") != "paper" or tier is None:
        print(f"FAIL: committed paper-scale baseline has no "
              f"{ACCEPTANCE_FLEET}-path tier")
        return 1
    if tier["windows"] != tier["paths"] * paper.get("timed_hops"):
        print(f"FAIL: committed baseline's {ACCEPTANCE_FLEET}-path tier "
              f"did not resolve every expected window")
        return 1
    print(f"committed baseline: {ACCEPTANCE_FLEET} paths sustained "
          f"at {tier['ingest_throughput_rps']} rec/s (OK)")
    return 0


def check_baseline(report: dict) -> int:
    """Gate against the committed JSONs (CI path; never clobbers them):
    the paper-scale acceptance tier, then fresh throughput against this
    scale's baseline, tier by tier."""
    status = check_acceptance_tier()
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping live "
              f"comparison")
        return status
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != report["scale"]:
        print(f"baseline scale {baseline.get('scale')!r} != current "
              f"{report['scale']!r}; skipping live comparison")
        return status
    shared = sorted(
        set(baseline.get("fleets", {})) & set(report["fleets"]), key=int
    )
    for fleet in shared:
        old = baseline["fleets"][fleet]["ingest_throughput_rps"]
        new = report["fleets"][fleet]["ingest_throughput_rps"]
        print(f"fleet {fleet}: ingest baseline {old} rec/s, now {new} rec/s")
        if old / max(new, 1e-9) > MAX_REGRESSION:
            print(f"FAIL: ingest throughput at {fleet} paths eroded more "
                  f"than {MAX_REGRESSION:.0f}x vs the committed baseline")
            status = 1
    if status == 0:
        print("OK: within the regression budget")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the committed JSON instead of replacing it",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=None, metavar="FRAC",
        help="fail when enabling tracing costs more than this fraction "
             "of wall clock (CI passes 0.05)",
    )
    parser.add_argument(
        "--max-health-overhead", type=float, default=None, metavar="FRAC",
        help="fail when enabling model health costs more than this "
             "fraction of wall clock (CI passes 0.05)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark()
    shutdown_pools()
    print(json.dumps(report, indent=2))

    status = 0
    for layer, limit in (("trace", args.max_trace_overhead),
                         ("health", args.max_health_overhead)):
        if limit is None:
            continue
        fraction = report[f"{layer}_overhead"][f"{layer}_overhead_fraction"]
        if fraction > limit:
            print(f"FAIL: {layer} overhead {fraction:.1%} (median of "
                  f"{OVERHEAD_PAIRS} pairs) exceeds the {limit:.0%} gate")
            status = 1
        else:
            print(f"{layer} overhead {fraction:.1%} (median of "
                  f"{OVERHEAD_PAIRS} pairs) within the {limit:.0%} gate (OK)")
    if args.check_baseline:
        status = check_baseline(report) or status
        out = BASELINE_PATH.with_suffix(".check.json")
    else:
        out = BASELINE_PATH
    common.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {out}]")
    if not args.check_baseline:
        # Check mode must not clobber the committed run's provenance.
        manifest = common.write_bench_manifest(
            BASELINE_NAME,
            extra={"fleets": FLEETS, "timed_hops": TIMED_HOPS,
                   "overload_hops": OVERLOAD_HOPS},
        )
        print(f"[manifest written to {manifest}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
