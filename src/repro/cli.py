"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflow a measurement operator runs:

* ``simulate`` — build one of the paper's scenarios, probe it, and write
  the observation CSV (optionally the full ground-truth trace as NPZ);
* ``identify`` — run the identification pipeline on an observation CSV;
* ``bound`` — estimate the dominant link's maximum queuing delay;
* ``clock`` — remove clock skew from a measured observation;
* ``pinpoint`` — locate the dominant link from an archived trace (NPZ,
  which carries the per-hop records that stand in for TTL probing);
* ``monitor`` — stream one or more observations through the online
  identification subsystem and emit JSONL verdict events (tails files
  with ``--follow``, reads stdin with ``-``); ``--metrics-file`` /
  ``--metrics-port`` expose Prometheus metrics, ``--telemetry`` records
  structured JSONL events, ``--alert-rules`` evaluates declarative
  health rules (exit code 3 once a ``fatal`` rule fires),
  ``--flight-recorder DIR`` keeps a crash-dumpable ring of recent
  events, ``--stall-timeout`` arms a progress watchdog, and
  ``--profile`` captures per-phase cProfile data;
* ``stats`` — summarize a telemetry JSONL event file (slowest spans,
  warm-start and fallback rates, verdict flips);
* ``report`` — render telemetry JSONL + ``BENCH_*.json`` artifacts into
  one self-contained HTML dashboard (with bench-regression checks
  against a baseline directory).

``--log-level`` (before the subcommand) turns on ``repro.*`` logging to
stderr; ``--telemetry PATH`` on the analysis commands records the run's
events for ``repro stats`` / ``repro report`` and writes a provenance
manifest next to it (``--manifest`` overrides the location).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Iterator, List, Optional

# One BLAS thread unless the caller chose otherwise.  The E-step GEMMs
# (the M=40 statistics products are about 80 x 225 x 80) are too small
# to gain from threads, and a second OpenBLAS thread only spins.  BLAS
# reads these once, when numpy loads, which happens just below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from repro import obs
from repro.core.identify import IdentifyConfig, estimate_bound, identify
from repro.core.pinpoint import pinpoint_dominant_link
from repro.measurement.clock import remove_clock_effects
from repro.measurement.traceio import (
    iter_observation,
    load_observation,
    load_trace,
    save_observation,
    save_trace,
)

__all__ = ["main", "build_parser"]


def _scenario_by_name(name: str):
    from repro.experiments.internet import adsl_path_scenario, ethernet_path_scenario
    from repro.experiments.scenarios import (
        no_dcl_scenario,
        red_no_dcl_scenario,
        red_strong_scenario,
        strong_dcl_scenario,
        weak_dcl_scenario,
    )

    factories = {
        "strong": lambda: strong_dcl_scenario(1.0),
        "weak": lambda: weak_dcl_scenario((0.7, 0.2)),
        "none": lambda: no_dcl_scenario((0.1, 0.2)),
        "red-strong": lambda: red_strong_scenario(0.5),
        "red-none": lambda: red_no_dcl_scenario(0.5),
        "internet-ethernet": ethernet_path_scenario,
        "internet-ufpr": lambda: adsl_path_scenario("ufpr"),
        "internet-usevilla": lambda: adsl_path_scenario("usevilla"),
        "internet-snu": lambda: adsl_path_scenario("snu"),
    }
    if name not in factories:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {sorted(factories)}"
        )
    return factories[name]()


def _identify_config(args) -> IdentifyConfig:
    return IdentifyConfig(
        n_symbols=args.symbols,
        n_hidden=args.hidden,
        model=args.model,
        beta0=args.beta0,
        beta1=args.beta1,
        propagation_delay=getattr(args, "propagation", None),
    )


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record telemetry events (JSONL) to PATH and "
                             "collect metrics (summarize with 'repro stats')")
    parser.add_argument("--telemetry-max-bytes", type=int, default=None,
                        metavar="N",
                        help="rotate the telemetry file to PATH.1 once it "
                             "exceeds N bytes (default: never rotate)")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="write a run-provenance manifest JSON to PATH "
                             "(default: next to --telemetry as "
                             "<stem>.manifest.json)")


def _add_identify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--symbols", type=int, default=5,
                        help="number of delay symbols M (default 5)")
    parser.add_argument("--hidden", type=int, default=2,
                        help="number of hidden states N (default 2)")
    parser.add_argument("--model", choices=["mmhd", "hmm"], default="mmhd")
    parser.add_argument("--beta0", type=float, default=0.06)
    parser.add_argument("--beta1", type=float, default=0.0)
    parser.add_argument("--propagation", type=float, default=None,
                        help="known propagation delay P (default: use the "
                             "minimum observed delay)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dominant congested link identification (IMC 2003).",
    )
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="enable repro.* logging to stderr at this level")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run a scenario and export the probe observation"
    )
    simulate.add_argument("--scenario", default="strong")
    simulate.add_argument("--duration", type=float, default=200.0)
    simulate.add_argument("--warmup", type=float, default=30.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--out", required=True,
                          help="observation CSV output path")
    simulate.add_argument("--trace-out", default=None,
                          help="also archive the full trace (NPZ)")

    ident = commands.add_parser(
        "identify", help="identify a dominant congested link from a CSV"
    )
    ident.add_argument("observation", help="observation CSV")
    _add_identify_options(ident)
    _add_telemetry_option(ident)

    bound = commands.add_parser(
        "bound", help="bound the dominant link's maximum queuing delay"
    )
    bound.add_argument("observation", help="observation CSV")
    bound.add_argument("--verdict", choices=["strong", "weak"],
                       default=None,
                       help="hypothesis to bound under (default: identify "
                            "first and use its verdict)")
    bound.add_argument("--bound-symbols", type=int, default=40)
    _add_identify_options(bound)
    _add_telemetry_option(bound)

    clock = commands.add_parser(
        "clock", help="remove clock skew from a measured observation"
    )
    clock.add_argument("observation", help="observation CSV (measured)")
    clock.add_argument("--out", required=True, help="repaired CSV path")

    pinpoint = commands.add_parser(
        "pinpoint", help="locate the dominant link from an archived trace"
    )
    pinpoint.add_argument("trace", help="trace NPZ from 'simulate --trace-out'")
    _add_identify_options(pinpoint)
    _add_telemetry_option(pinpoint)

    monitor = commands.add_parser(
        "monitor",
        help="stream observations through the online monitor (JSONL events)",
    )
    monitor.add_argument(
        "inputs", nargs="*",
        help="observation CSVs to monitor ('-' reads stdin); each input "
             "is tracked as its own path",
    )
    monitor.add_argument("--follow", action="store_true",
                         help="keep tailing the input files for appended "
                              "probes instead of stopping at EOF")
    monitor.add_argument("--window", type=int, default=3000,
                         help="probes per sliding window (default 3000)")
    monitor.add_argument("--hop", type=int, default=None,
                         help="probes between window starts (default "
                              "window/2: 50%% overlap)")
    monitor.add_argument("--confirm", type=int, default=3,
                         help="K of K-of-N verdict hysteresis (default 3)")
    monitor.add_argument("--memory", type=int, default=5,
                         help="N of K-of-N verdict hysteresis (default 5)")
    monitor.add_argument("--no-stationarity-gate", action="store_true",
                         help="analyse every window, even nonstationary ones")
    monitor.add_argument("--jobs", type=int, default=1,
                         help="worker processes for multi-path fits "
                              "(-1 = all CPUs; default 1)")
    monitor.add_argument("--drain-mode", choices=("auto", "fused", "pool"),
                         default="auto",
                         help="drain engine: 'fused' mega-batches each "
                              "round's fits, warm and cold, into one ragged "
                              "batched recursion per model group, 'pool' "
                              "runs one task per window, 'auto' is fused "
                              "(default auto); events are identical in "
                              "every mode")
    monitor.add_argument("--max-windows", type=int, default=None,
                         help="stop after this many emitted window events")
    monitor.add_argument("--demo", type=int, nargs="?", const=8000,
                         default=None, metavar="N",
                         help="also monitor a synthetic N-probe strong-DCL "
                              "stream (no input file needed; bare --demo "
                              "uses N=8000)")
    monitor.add_argument("--seed", type=int, default=0,
                         help="seed for --demo stream generation")
    monitor.add_argument("--metrics-file", metavar="PATH", default=None,
                         help="write Prometheus text metrics to PATH "
                              "(refreshed after every drain and at exit)")
    monitor.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve /metrics over HTTP on 127.0.0.1:PORT "
                              "(0 = ephemeral port; URL printed to stderr)")
    monitor.add_argument("--alert-rules", metavar="FILE", default=None,
                         help="evaluate declarative alert rules each drain "
                              "('default' = the built-in rule set); a fired "
                              "fatal rule makes the exit code 3")
    monitor.add_argument("--flight-recorder", metavar="DIR", default=None,
                         help="keep a ring of recent events and dump it to "
                              "DIR/crash-<pid>.json on SIGTERM/SIGINT (plus "
                              "faulthandler tracebacks for hard crashes)")
    monitor.add_argument("--stall-timeout", type=float, default=None,
                         metavar="SEC",
                         help="emit a watchdog.stall event (with the recent "
                              "event ring) if no pipeline progress happens "
                              "for SEC seconds")
    monitor.add_argument("--profile", action="store_true",
                         help="capture per-phase cProfile data; summarized "
                              "to stderr and emitted as profile.phase events")
    monitor.add_argument("--trace", action="store_true",
                         help="stamp every window with record-to-verdict "
                              "trace timestamps (trace.window events + "
                              "repro_trace_stage_seconds histograms); "
                              "verdict output is byte-identical either way")
    monitor.add_argument("--health", action="store_true",
                         help="score per-window model health (goodness of "
                              "fit + drift detection; model.health events, "
                              "repro_model_health gauges); verdict output "
                              "is byte-identical either way")
    _add_identify_options(monitor)
    _add_telemetry_option(monitor)

    serve = commands.add_parser(
        "serve",
        help="run the fleet monitoring service with an HTTP control API",
    )
    serve.add_argument(
        "inputs", nargs="*",
        help="observation CSVs to pre-register as paths at startup; more "
             "paths can be added at runtime via POST /paths",
    )
    serve.add_argument("--follow", action="store_true",
                       help="keep tailing the input files for appended "
                            "probes instead of stopping at EOF")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="HTTP API port on --host (default 0 = "
                            "ephemeral; the bound URL prints to stderr)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP API bind interface (default 127.0.0.1)")
    serve.add_argument("--window", type=int, default=3000,
                       help="probes per sliding window (default 3000)")
    serve.add_argument("--hop", type=int, default=None,
                       help="probes between window starts (default "
                            "window/2: 50%% overlap)")
    serve.add_argument("--confirm", type=int, default=3,
                       help="K of K-of-N verdict hysteresis (default 3)")
    serve.add_argument("--memory", type=int, default=5,
                       help="N of K-of-N verdict hysteresis (default 5)")
    serve.add_argument("--no-stationarity-gate", action="store_true",
                       help="analyse every window, even nonstationary ones")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for drain fits "
                            "(-1 = all CPUs; default 1)")
    serve.add_argument("--drain-mode", choices=("auto", "fused", "pool"),
                       default="auto",
                       help="drain engine (see 'repro monitor --help'); "
                            "events are identical in every mode")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="per-path pending-window bound (default 64)")
    serve.add_argument("--demo", type=int, nargs="?", const=8000,
                       default=None, metavar="N",
                       help="pre-register synthetic N-probe strong-DCL "
                            "demo paths (bare --demo uses N=8000)")
    serve.add_argument("--demo-paths", type=int, default=1, metavar="K",
                       help="how many demo paths --demo registers "
                            "(default 1; seeds differ per path)")
    serve.add_argument("--seed", type=int, default=0,
                       help="base seed for --demo stream generation")
    serve.add_argument("--backpressure", choices=("off", "shed", "coarsen"),
                       default="off",
                       help="overload response past --high-watermark "
                            "pending windows: shed oldest windows or "
                            "coarsen the window stride (default off)")
    serve.add_argument("--high-watermark", type=int, default=64,
                       metavar="N",
                       help="fleet-wide pending windows that trigger "
                            "backpressure (default 64)")
    serve.add_argument("--low-watermark", type=int, default=None,
                       metavar="N",
                       help="backlog the policy drives toward / disengages "
                            "below (default high/2)")
    serve.add_argument("--coarsen-factor", type=int, default=2,
                       help="stride multiplier for --backpressure coarsen "
                            "(default 2)")
    serve.add_argument("--interval", type=float, default=0.05, metavar="SEC",
                       help="sleep between idle service cycles "
                            "(default 0.05)")
    serve.add_argument("--max-cycles", type=int, default=None,
                       help="stop after this many service cycles")
    serve.add_argument("--exit-when-idle", action="store_true",
                       help="exit once every source is exhausted and the "
                            "backlog is drained (for finite demo/replay "
                            "streams; otherwise serve until SIGTERM)")
    serve.add_argument("--quiet", action="store_true",
                       help="do not print verdict events as JSONL to stdout")
    serve.add_argument("--metrics-file", metavar="PATH", default=None,
                       help="write Prometheus text metrics to PATH "
                            "(refreshed after every cycle and at exit)")
    serve.add_argument("--alert-rules", metavar="FILE", default="default",
                       help="evaluate declarative alert rules each cycle "
                            "('default' = the built-in set, including the "
                            "fatal service-backlog-growth rule; 'none' "
                            "disables); a fired fatal rule makes the exit "
                            "code 3")
    serve.add_argument("--flight-recorder", metavar="DIR", default=None,
                       help="keep a ring of recent events and dump it to "
                            "DIR/crash-<pid>.json on SIGTERM/SIGINT")
    serve.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SEC",
                       help="emit a watchdog.stall event if no pipeline "
                            "progress happens for SEC seconds")
    serve.add_argument("--trace", action="store_true",
                       help="record per-verdict latency traces (ingest -> "
                            "window-close -> queue -> fit -> publish), "
                            "served at GET /traces/{id}; verdict streams "
                            "are byte-identical either way")
    serve.add_argument("--health", action="store_true",
                       help="score per-window model health (drift "
                            "detection + verdict confidence), served at "
                            "GET /health and /health/{id}; verdict "
                            "streams are byte-identical either way")
    serve.add_argument("--slo", metavar="FILE", default=None,
                       help="declare SLOs evaluated each cycle ('default' "
                            "= the built-in set, e.g. verdict freshness); "
                            "burn-rate rules compile onto the alert engine "
                            "and status serves at GET /slo")
    _add_identify_options(serve)
    _add_telemetry_option(serve)

    stats = commands.add_parser(
        "stats", help="summarize a telemetry JSONL event file"
    )
    stats.add_argument("events",
                       help="JSONL file written via --telemetry "
                            "(or repro.obs.enable)")
    stats.add_argument("--top", type=int, default=5,
                       help="slowest spans to list (default 5)")
    stats.add_argument("--json", action="store_true",
                       help="print the full summary as JSON")

    report = commands.add_parser(
        "report",
        help="render telemetry + bench artifacts as one HTML dashboard",
    )
    report.add_argument("--events", action="append", default=[],
                        metavar="JSONL",
                        help="telemetry JSONL file (repeatable)")
    report.add_argument("--bench", action="append", default=[],
                        metavar="JSON",
                        help="BENCH_*.json benchmark report (repeatable)")
    report.add_argument("--baseline", metavar="DIR", default=None,
                        help="directory of committed baseline BENCH JSONs "
                             "to diff each --bench file against (by name)")
    report.add_argument("--tolerance", type=float, default=0.25,
                        help="relative change flagged as a bench regression "
                             "(default 0.25)")
    report.add_argument("--out", default="report.html",
                        help="output HTML path (default report.html)")
    report.add_argument("--title", default="repro run report")
    report.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any bench regression is flagged")
    return parser


def _cmd_simulate(args) -> int:
    from repro.experiments.runner import run_scenario

    scenario = _scenario_by_name(args.scenario)
    print(f"scenario: {scenario.description}")
    result = run_scenario(scenario, seed=args.seed, duration=args.duration,
                          warmup=args.warmup)
    trace = result.trace
    print(f"probes: {len(trace)}   loss rate: {trace.loss_rate:.2%}")
    save_observation(trace.observation(), args.out)
    print(f"observation written to {args.out}")
    if args.trace_out:
        save_trace(trace, args.trace_out)
        print(f"full trace written to {args.trace_out}")
    return 0


def _record_provenance(args, command: str, config, inputs=None) -> None:
    """Record the run manifest (event + JSON artifact) for one command.

    The artifact is written when ``--manifest`` names a path, or next to
    ``--telemetry`` as ``<stem>.manifest.json``; the ``run.manifest``
    event additionally lands in the telemetry stream whenever telemetry
    is on.  A run with neither flag records nothing.
    """
    out = getattr(args, "manifest", None)
    telemetry = getattr(args, "telemetry", None)
    if out is None and telemetry:
        out = Path(telemetry).with_suffix(".manifest.json")
    if out is None and not obs.is_enabled():
        return
    from repro.obs import provenance

    seeds = {}
    if getattr(args, "demo", None):
        seeds["demo"] = getattr(args, "seed", 0)
    provenance.record_run(command, config=config, out_path=out,
                          inputs=list(inputs or []), seeds=seeds)


def _cmd_identify(args) -> int:
    observation = load_observation(args.observation)
    config = _identify_config(args)
    _record_provenance(args, "identify", config, inputs=[args.observation])
    report = identify(observation, config)
    print(report.summary())
    return 0


def _cmd_bound(args) -> int:
    observation = load_observation(args.observation)
    config = _identify_config(args)
    _record_provenance(args, "bound", config, inputs=[args.observation])
    verdict = args.verdict
    if verdict is None:
        report = identify(observation, config)
        print(report.summary())
        if not report.dominant_link_exists:
            print("no dominant congested link identified; nothing to bound")
            return 1
        verdict = report.verdict
    bound = estimate_bound(observation, verdict, config,
                           n_symbols=args.bound_symbols)
    print(f"max queuing delay bound ({bound.method}): "
          f"{bound.seconds * 1e3:.1f} ms  (symbol {bound.symbol} "
          f"of {args.bound_symbols})")
    return 0


def _cmd_clock(args) -> int:
    observation = load_observation(args.observation)
    repaired, fit = remove_clock_effects(observation)
    save_observation(repaired, args.out)
    print(f"estimated skew {fit.skew:.3e}, offset {fit.offset:.6f} s")
    print(f"repaired observation written to {args.out}")
    return 0


def _cmd_pinpoint(args) -> int:
    trace = load_trace(args.trace)
    config = _identify_config(args)
    _record_provenance(args, "pinpoint", config, inputs=[args.trace])
    report = pinpoint_dominant_link(trace, config)
    print(report.summary())
    return 0 if report.located else 1


def _follow_lines(path: str, poll: float = 0.5) -> Iterator[str]:
    """Yield a file's lines forever, sleeping at EOF (``tail -f``)."""
    with open(path) as handle:
        while True:
            line = handle.readline()
            if line:
                yield line
            else:
                time.sleep(poll)


def _monitor_streams(args) -> dict:
    streams = {}
    for spec in args.inputs:
        if spec == "-":
            streams["stdin"] = iter_observation(sys.stdin)
        elif args.follow:
            streams[spec] = iter_observation(_follow_lines(spec))
        else:
            streams[spec] = iter_observation(spec)
    if args.demo:
        from repro.experiments.streams import strong_dcl_stream

        streams["demo"] = strong_dcl_stream(args.demo, seed=args.seed)
    if not streams:
        raise SystemExit(
            "monitor: provide at least one observation CSV, '-', or --demo N"
        )
    return streams


def _cmd_stats(args) -> int:
    from repro.obs.stats import format_summary, summarize_events

    summary = summarize_events(args.events, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary))
    return 0


def _cmd_report(args) -> int:
    from repro.obs import report as report_mod

    data = report_mod.collect_report_data(
        args.events, args.bench, baseline_dir=args.baseline,
        tolerance=args.tolerance,
    )
    out = report_mod.generate_report(
        args.events, args.bench, baseline_dir=args.baseline,
        tolerance=args.tolerance, out=args.out, title=args.title, data=data,
    )
    print(f"report written to {out} "
          f"({data['n_events']} events, {len(data['benches'])} bench "
          f"report(s), {data['n_regressions']} regression(s))")
    if args.fail_on_regression and data["n_regressions"]:
        print(f"report: {data['n_regressions']} bench regression(s) beyond "
              f"±{args.tolerance:.0%}", file=sys.stderr)
        return 1
    return 0


def _cmd_monitor(args) -> int:
    from repro.streaming import MonitorConfig, MultiPathMonitor

    config = MonitorConfig(
        window=args.window,
        hop=args.hop,
        n_symbols=args.symbols,
        n_hidden=args.hidden,
        model=args.model,
        beta0=args.beta0,
        beta1=args.beta1,
        confirm=args.confirm,
        memory=args.memory,
        gate_stationarity=not args.no_stationarity_gate,
    )
    monitor = MultiPathMonitor(config, n_jobs=args.jobs,
                               drain_mode=args.drain_mode)
    if args.trace:
        from repro.obs import trace as trace_mod

        trace_mod.enable_tracing()
    if args.health:
        from repro.obs import health as health_mod

        health_mod.enable_health()
    iterators = {path: iter(s) for path, s in _monitor_streams(args).items()}

    recorder = None
    watchdog = None
    if args.flight_recorder or args.stall_timeout:
        from repro.obs.recorder import FlightRecorder, Watchdog

        # Attach before the first event (run.manifest below) so the
        # ring sees the whole run from the start.
        recorder = FlightRecorder().attach()
        if args.flight_recorder:
            recorder.install_signal_dumps(args.flight_recorder)
        if args.stall_timeout:
            watchdog = Watchdog(
                timeout=args.stall_timeout, recorder=recorder,
                dump_dir=args.flight_recorder,
            ).start()

    _record_provenance(args, "monitor", config, inputs=args.inputs)

    if obs.is_enabled():
        # Zero-valued series make every monitor-relevant metric family
        # visible to scrapes before the first fallback or verdict flip.
        obs.schema.preregister(obs.registry())
    server = None
    if args.metrics_port is not None:
        from repro.obs.httpd import MetricsServer

        server = MetricsServer(port=args.metrics_port).start()
        print(f"metrics: {server.url}", file=sys.stderr)

    engine = None
    if args.alert_rules:
        from repro.obs.alerts import DEFAULT_RULES, AlertEngine, parse_rules

        text = (DEFAULT_RULES if args.alert_rules == "default"
                else Path(args.alert_rules).read_text(encoding="utf-8"))
        engine = AlertEngine(parse_rules(text))

    profiler = None
    if args.profile:
        from repro.obs import profiling

        profiler = profiling.enable_profiling()

    def write_metrics() -> None:
        if args.metrics_file:
            Path(args.metrics_file).write_text(
                obs.registry().to_prometheus(), encoding="utf-8"
            )

    emitted = 0

    def emit(events) -> bool:
        """Print events as JSONL; True once --max-windows is reached."""
        nonlocal emitted
        for event in events:
            print(json.dumps(event.to_dict()), flush=True)
            emitted += 1
            if args.max_windows is not None and emitted >= args.max_windows:
                return True
        return False

    burst = config.hop
    stop = False
    try:
        while iterators and not stop:
            exhausted = []
            for path, iterator in iterators.items():
                records = list(islice(iterator, burst))
                # Skips with nothing pending on their path resolve at
                # ingest: print them before reading the next input.
                if records and emit(monitor.ingest_many(path, records)):
                    stop = True
                    break
                if len(records) < burst:
                    exhausted.append(path)
            for path in exhausted:
                del iterators[path]
            if not stop:
                stop = emit(monitor.drain())
            write_metrics()
            if engine is not None:
                engine.evaluate()
            obs.heartbeat()
        if not stop:
            emit(monitor.finish())
    except KeyboardInterrupt:  # pragma: no cover - interactive tail mode
        emit(monitor.drain())
    finally:
        if engine is not None:
            engine.evaluate()
        write_metrics()
        if profiler is not None:
            from repro.obs import profiling

            profiling.disable_profiling()
            profiler.emit_events()
            formatted = profiler.format()
            if formatted:
                print(formatted, file=sys.stderr)
        if watchdog is not None:
            watchdog.stop()
        if recorder is not None:
            recorder.uninstall_signal_dumps()
            recorder.detach()
        if server is not None:
            server.close()
        if args.trace:
            from repro.obs import trace as trace_mod

            trace_mod.disable_tracing()
        if args.health:
            from repro.obs import health as health_mod

            health_mod.disable_health()
    if engine is not None and engine.fatal_fired:
        print(f"monitor: fatal alert(s) fired: "
              f"{', '.join(engine.active_alerts()) or '(resolved)'}",
              file=sys.stderr)
        return 3
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro.service import (BackpressurePolicy, FleetService, ServiceAPI,
                               IterableSource, TailSource)
    from repro.streaming import MonitorConfig

    config = MonitorConfig(
        window=args.window,
        hop=args.hop,
        n_symbols=args.symbols,
        n_hidden=args.hidden,
        model=args.model,
        beta0=args.beta0,
        beta1=args.beta1,
        confirm=args.confirm,
        memory=args.memory,
        gate_stationarity=not args.no_stationarity_gate,
    )
    policy = BackpressurePolicy(
        mode=args.backpressure,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        factor=args.coarsen_factor,
    )

    slo_eval = None
    if args.slo and args.slo != "none":
        from repro.obs.slo import DEFAULT_SLOS, SLOEvaluator, parse_slos

        slo_text = (DEFAULT_SLOS if args.slo == "default"
                    else Path(args.slo).read_text(encoding="utf-8"))
        slo_eval = SLOEvaluator(parse_slos(slo_text))

    rules = []
    if args.alert_rules and args.alert_rules != "none":
        from repro.obs.alerts import DEFAULT_RULES, parse_rules

        text = (DEFAULT_RULES if args.alert_rules == "default"
                else Path(args.alert_rules).read_text(encoding="utf-8"))
        rules = parse_rules(text)
    if slo_eval is not None:
        # Declared SLOs always alert, even with --alert-rules none.
        rules = rules + slo_eval.alert_rules()
    engine = None
    if rules:
        from repro.obs.alerts import AlertEngine

        engine = AlertEngine(rules)

    trace_store = None
    if args.trace:
        from repro.obs import trace as trace_mod

        trace_mod.enable_tracing()
        trace_store = trace_mod.TraceStore()

    health_store = None
    if args.health:
        from repro.obs import health as health_mod

        health_mod.enable_health()
        health_store = health_mod.HealthStore()

    # The service always keeps queryable history of its own gauges —
    # GET /query is what makes the /fleet sparklines and incident
    # forensics possible, and the store is bounded by construction.
    from repro.obs.tsdb import TimeSeriesStore

    tsdb = TimeSeriesStore()

    emit_fn = None
    if not args.quiet:
        def emit_fn(payload):
            print(json.dumps(payload), flush=True)

    service = FleetService(
        base_config=config,
        n_jobs=args.jobs,
        max_pending=args.max_pending,
        drain_mode=args.drain_mode,
        backpressure=policy,
        alert_engine=engine,
        emit_fn=emit_fn,
        tsdb=tsdb,
        trace_store=trace_store,
        slo=slo_eval,
        health_store=health_store,
    )
    for spec in args.inputs:
        service.register(spec, source=TailSource(spec, follow=args.follow))
    if args.demo:
        from repro.experiments.streams import strong_dcl_stream

        for i in range(max(1, args.demo_paths)):
            service.register(
                f"demo-{i}",
                source=IterableSource(
                    strong_dcl_stream(args.demo, seed=args.seed + i)),
            )

    # Clean-stop handler first, then the flight recorder's dump handler:
    # on SIGTERM the recorder dumps its ring, restores this handler and
    # re-raises, so the loop still winds down and the process exits 0.
    def _request_stop(signum, frame):  # noqa: ARG001 - signal API
        service.stop()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }

    recorder = None
    watchdog = None
    if args.flight_recorder or args.stall_timeout:
        from repro.obs.recorder import FlightRecorder, Watchdog

        recorder = FlightRecorder().attach()
        if args.flight_recorder:
            recorder.install_signal_dumps(args.flight_recorder)
        if args.stall_timeout:
            watchdog = Watchdog(
                timeout=args.stall_timeout, recorder=recorder,
                dump_dir=args.flight_recorder,
            ).start()

    _record_provenance(args, "serve", config, inputs=args.inputs)
    obs.schema.preregister(obs.registry())

    server = ServiceAPI(service, port=args.port, host=args.host).start()
    print(f"service: {server.base_url} "
          f"(paths={len(service.registry)}, "
          f"backpressure={policy.mode})", file=sys.stderr)

    def write_metrics() -> None:
        if args.metrics_file:
            Path(args.metrics_file).write_text(
                obs.registry().to_prometheus(), encoding="utf-8"
            )

    try:
        service.run(
            interval=args.interval,
            max_cycles=args.max_cycles,
            exit_when_idle=args.exit_when_idle,
        )
        if engine is not None:
            engine.evaluate()
    except KeyboardInterrupt:  # pragma: no cover - direct ^C in a TTY
        pass
    finally:
        server.close()
        service.close()
        write_metrics()
        if args.trace:
            from repro.obs import trace as trace_mod

            trace_mod.disable_tracing()
        if args.health:
            from repro.obs import health as health_mod

            health_mod.disable_health()
        if watchdog is not None:
            watchdog.stop()
        if recorder is not None:
            recorder.uninstall_signal_dumps()
            recorder.detach()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if engine is not None and engine.fatal_fired:
        print(f"serve: fatal alert(s) fired: "
              f"{', '.join(engine.active_alerts()) or '(resolved)'}",
              file=sys.stderr)
        return 3
    return 0


def _configure_logging(level: Optional[str]) -> None:
    if not level:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(name)s %(levelname)s %(message)s"
    ))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    logger.setLevel(level.upper())


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    handlers = {
        "simulate": _cmd_simulate,
        "identify": _cmd_identify,
        "bound": _cmd_bound,
        "clock": _cmd_clock,
        "pinpoint": _cmd_pinpoint,
        "monitor": _cmd_monitor,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "report": _cmd_report,
    }
    # Telemetry turns on when a run asks for an event file or (monitor
    # only) any metrics/diagnostics output; metrics-only runs pass
    # events=None, and the flight recorder / watchdog / alert engine /
    # profiler all ride on the telemetry substrate.
    telemetry = getattr(args, "telemetry", None)
    wants_metrics = (
        args.command == "serve"  # the service always exports its gauges
        or getattr(args, "metrics_file", None) is not None
        or getattr(args, "metrics_port", None) is not None
        or getattr(args, "alert_rules", None) is not None
        or getattr(args, "flight_recorder", None) is not None
        or getattr(args, "stall_timeout", None) is not None
        or getattr(args, "profile", False)
        or getattr(args, "trace", False)
        or getattr(args, "health", False)
        or getattr(args, "slo", None) is not None
    )
    enabled_here = False
    if telemetry or wants_metrics:
        obs.enable(events=telemetry, clear=True,
                   max_bytes=getattr(args, "telemetry_max_bytes", None))
        enabled_here = True
    try:
        return handlers[args.command](args)
    finally:
        if enabled_here:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover - module is exercised via main()
    sys.exit(main())
