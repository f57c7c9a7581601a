"""Fleet-scale drain benchmark: fused mega-batching vs per-window pool.

Measures what the ragged multi-sequence E-step engine buys a multi-path
monitor on one CPU.  Each fleet tier warms ``n_paths`` concurrent
monitors (warm states are cloned from a small set of template paths so
warm-up cost stays flat as fleets grow), ingests one more hop per path,
and times a single :meth:`MultiPathMonitor.drain` under both engines:

* ``drain_mode="pool"`` — one :func:`analyze_window` task per window,
  the per-window baseline (``n_jobs=1``: the pure Python-dispatch cost);
* ``drain_mode="fused"`` — every window of the round stacked into one
  ragged mega-batch, one batched recursion for the whole fleet.

Both drains run the same kernel per window, so their verdict-event
streams are byte-identical — asserted here on every tier, which makes
the benchmark double as an end-to-end parity check.  The paper-scale
run records both drains at 32/128/512 paths with the *default*
``MonitorConfig`` geometry and EM settings (the stationarity gate is
disabled so every window reaches the fit — the expensive case a live
deployment provisions for).

The loss-folded MMHD pass made one-row E-passes (what the pool drain
runs per window) much cheaper than the wide stacks of a fused drain, so
``fused_speedup`` is no longer a large number to defend.  Two gates
replace the old "fused >= 3x pool" bar:

(a) ``--min-fused-speedup X``: in the same run, the largest tier's
    fused drain must be no slower than its pool drain, up to the run
    spread — CI passes ``1 - FUSED_SPREAD``;
(b) ``--check-baseline``: fused seconds per window at each shared tier
    must not exceed the committed baseline's at the same scale by more
    than ``WINDOW_NOISE``.

Each scale keeps its own committed baseline:
``benchmarks/output/BENCH_monitor.json`` (paper) and
``BENCH_monitor_quick.json`` (quick, the scale CI runs), so gate (b)
applies in CI too.  Seconds per window are host-bound: regenerate the
quick baseline on the CI host class if it trips there on no code change.
``--check-baseline`` never clobbers a committed JSON: results go to a
``.check.json`` sidecar.

Run: ``PYTHONPATH=src python benchmarks/bench_monitor_scale.py``
(``REPRO_BENCH_SCALE=paper`` for the paper fleet sizes).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import common  # noqa: E402
from repro.experiments.streams import strong_dcl_stream  # noqa: E402
from repro.models.base import EMConfig  # noqa: E402
from repro.parallel import shutdown_pools  # noqa: E402
from repro.streaming.scheduler import MultiPathMonitor  # noqa: E402
from repro.streaming.tracker import MonitorConfig  # noqa: E402

BASELINE_NAME = "monitor" if common.SCALE == "paper" else "monitor_quick"
BASELINE_PATH = common.OUTPUT_DIR / f"BENCH_{BASELINE_NAME}.json"
#: Run-to-run spread of ``fused_speedup``: over 5 repeated quick-scale
#: runs on a 2-vCPU host the largest tier's ranged 3.25-4.56,
#: (max - min) / median = 0.38.  Gate (a) allows it.
FUSED_SPREAD = 0.38
#: Largest slowdown of fused seconds per window between two runs of the
#: same code: over 13 quick-scale runs, each in a fresh process, on a
#: 2-vCPU host, max / min - 1 was 0.63 at 8 paths and 0.70 at 32.  A
#: committed baseline is one run, possibly the fastest, so gate (b)
#: allows the larger of these rather than a spread around the median.
WINDOW_NOISE = 0.70

#: Distinct probe streams; fleet path ``i`` clones template ``i % N``,
#: so warm-up runs a constant number of cold fits at any fleet size.
N_STREAMS = 8
#: Hops ingested (per path) into the timed drain: one sub-round.
TIMED_HOPS = 1

if common.SCALE == "paper":
    FLEETS = [32, 128, 512]
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


def event_keys(events) -> list:
    """Events projected for byte-parity (wall-clock lag excluded)."""
    keys = []
    for event in events:
        payload = event.to_dict()
        payload.pop("lag_ms", None)
        keys.append(json.dumps(payload, sort_keys=True))
    return keys


def warm_templates(config: MonitorConfig, streams):
    """One warmed _PathState per template stream (cold fits, untimed)."""
    seed_monitor = MultiPathMonitor(config, n_jobs=1, drain_mode="pool")
    for g, stream in enumerate(streams):
        for send_time, delay in stream[:WINDOW]:
            seed_monitor.ingest(f"seed-{g}", send_time, delay)
    events = seed_monitor.drain()
    assert len(events) == len(streams), "warm-up drain lost windows"
    assert all(e.analysis.analyzed for e in events), "warm-up window skipped"
    return [seed_monitor._paths[f"seed-{g}"] for g in range(len(streams))]


def build_fleet(config, templates, n_paths: int,
                drain_mode: str) -> MultiPathMonitor:
    """A fleet monitor whose paths clone the warmed template states.

    Reaches into ``_paths`` deliberately: cloning a warmed per-path state
    (assembler overlap buffer, verdict tracker, warm EM parameters) is
    what lets the benchmark scale fleets without paying ``n_paths`` cold
    fits per tier.  Both engines get byte-identical clones, so the
    comparison — and the parity assertion — is exact.
    """
    monitor = MultiPathMonitor(config, n_jobs=1, drain_mode=drain_mode)
    for i in range(n_paths):
        monitor._paths[f"path-{i:04d}"] = copy.deepcopy(
            templates[i % len(templates)])
    return monitor


def bench_fleet(config, templates, streams, n_paths: int) -> dict:
    """Time one warm drain of ``n_paths`` paths under both engines."""
    monitors = {
        mode: build_fleet(config, templates, n_paths, mode)
        for mode in ("pool", "fused")
    }
    tail = [stream[WINDOW:WINDOW + TIMED_HOPS * HOP] for stream in streams]
    for monitor in monitors.values():
        for i in range(n_paths):
            path = f"path-{i:04d}"
            for send_time, delay in tail[i % len(streams)]:
                monitor.ingest(path, send_time, delay)
        assert monitor.n_pending == n_paths * TIMED_HOPS

    elapsed, events = {}, {}
    for mode, monitor in monitors.items():
        start = time.perf_counter()
        events[mode] = monitor.drain()
        elapsed[mode] = time.perf_counter() - start
        assert len(events[mode]) == n_paths * TIMED_HOPS, (
            f"{mode} drain resolved {len(events[mode])} windows, "
            f"expected {n_paths * TIMED_HOPS}"
        )
    assert event_keys(events["pool"]) == event_keys(events["fused"]), (
        "fused and pool drains diverged — byte-parity contract broken"
    )

    windows = n_paths * TIMED_HOPS
    entry = {
        "paths": n_paths,
        "windows": windows,
        "pool_seconds": round(elapsed["pool"], 3),
        "fused_seconds": round(elapsed["fused"], 3),
        "pool_throughput_wps": round(windows / elapsed["pool"], 3),
        "fused_throughput_wps": round(windows / elapsed["fused"], 3),
        "fused_speedup": round(elapsed["pool"] / elapsed["fused"], 3),
    }
    print(f"  fleet {n_paths:4d}: pool {entry['pool_seconds']:8.2f}s  "
          f"fused {entry['fused_seconds']:7.2f}s  "
          f"speedup {entry['fused_speedup']:.2f}x", flush=True)
    return entry


def run_benchmark() -> dict:
    config = monitor_config()
    probes = WINDOW + TIMED_HOPS * HOP
    streams = [list(strong_dcl_stream(probes, seed=100 + g))
               for g in range(N_STREAMS)]
    print(f"warming {N_STREAMS} template paths "
          f"(window={WINDOW}, scale={common.SCALE})...", flush=True)
    templates = warm_templates(config, streams)
    fleets = {}
    for n_paths in FLEETS:
        fleets[str(n_paths)] = bench_fleet(config, templates, streams,
                                           n_paths)
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
        "em_restarts": config.em.n_restarts,
        "fleets": fleets,
        "largest_fleet_fused_speedup": largest["fused_speedup"],
    }


def check_baseline(report: dict) -> int:
    """Gate (b) against this scale's committed JSON (never clobbers
    it): fused seconds per window, tier by tier."""
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping check")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != report["scale"]:
        print(f"baseline scale {baseline.get('scale')!r} != current "
              f"{report['scale']!r}; skipping live comparison")
        return 0
    status = 0
    shared = sorted(
        set(baseline.get("fleets", {})) & set(report["fleets"]), key=int
    )
    for fleet in shared:
        old, new = (tiers["fleets"][fleet]["fused_seconds"]
                    / tiers["fleets"][fleet]["windows"]
                    for tiers in (baseline, report))
        print(f"fleet {fleet}: fused s/window baseline {old:.4f}, "
              f"now {new:.4f}")
        if new > old * (1.0 + WINDOW_NOISE):
            print(f"FAIL: fused drain at {fleet} paths is slower per "
                  f"window than the committed baseline beyond the "
                  f"{WINDOW_NOISE:.0%} run-to-run noise")
            status = 1
    if status == 0:
        print("OK: fused drains within the committed baseline's noise")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the committed JSON instead of replacing it",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=None,
        help="fail unless the largest fleet's fused-vs-pool speedup is at "
             "least this factor (gate (a): 1 - FUSED_SPREAD)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark()
    shutdown_pools()
    print(json.dumps(report, indent=2))

    status = 0
    if args.min_fused_speedup is not None:
        speedup = report["largest_fleet_fused_speedup"]
        if speedup < args.min_fused_speedup:
            print(f"FAIL: largest-fleet fused speedup {speedup}x is below "
                  f"the {args.min_fused_speedup}x bar")
            status = 1
        else:
            print(f"largest-fleet fused speedup {speedup}x "
                  f">= {args.min_fused_speedup}x (OK)")

    if args.check_baseline:
        status = check_baseline(report) or status
        out = BASELINE_PATH.with_suffix(".check.json")
    else:
        out = BASELINE_PATH
    common.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {out}]")
    manifest = common.write_bench_manifest(
        BASELINE_NAME, extra={"fleets": FLEETS, "timed_hops": TIMED_HOPS},
    )
    print(f"[manifest written to {manifest}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
