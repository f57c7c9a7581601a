"""One measured benchmark process, started by ``run.py``.

``python3 perfbench/workloads.py --workload NAME --seed N --seconds S
--out RESULT.json [--trace] [--setup-only] [--smoke]``

The clock starts on the first line, before ``import repro``.  The
process runs one workload, checks its outputs, and writes one JSON
result file; ``run.py`` turns results into the benchmark's report.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostinfo  # noqa: E402
import spec  # noqa: E402

CLOCK0 = hostinfo.PhaseClock()


def latency_summary(samples, tail_samples=None):
    """``(p50, tail, tail percentile, tail n)``, times in ms.

    The median is over ``samples``; the tail is the highest percentile of
    ``tail_samples`` (default: ``samples``) with at least ten samples
    beyond it, or their maximum when there are fewer than eleven.
    """
    if not samples:
        return 0.0, 0.0, 0.0, 0
    p50 = statistics.median(samples)
    ordered = sorted(samples if tail_samples is None else tail_samples)
    n = len(ordered)
    if n >= 11:
        k = n - 11  # exactly ten samples lie beyond ordered[k]
        tail, percentile = ordered[k], 100.0 * (k + 1) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return p50 * 1e3, tail * 1e3, percentile, n


class Outcomes:
    """Checks and digests every outcome the program publishes."""

    def __init__(self):
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self._digest = hashlib.sha256()
        self.n_payloads = 0

    def digest(self, payload: dict) -> None:
        """Fold one payload (without ``lag_ms``) into the run digest."""
        body = {k: v for k, v in payload.items() if k != "lag_ms"}
        self._digest.update(json.dumps(body, sort_keys=True).encode())
        self._digest.update(b"\n")
        self.n_payloads += 1

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def build_service(workload: str, size: dict, emit_fn, telemetry: Path):
    """A ``FleetService`` composed the way ``repro serve`` composes it.

    fleet_congested: ``repro serve`` defaults (default alert rules, the
    TSDB).  fleet_quiet: ``repro serve --trace --health --slo default
    --telemetry FILE``.  Both: ``--jobs 1``, ``drain_mode`` at its
    default, backpressure off, ``--max-pending 64``.
    """
    from repro import obs
    from repro.obs.alerts import DEFAULT_RULES, AlertEngine, parse_rules
    from repro.obs.tsdb import TimeSeriesStore
    from repro.service import BackpressurePolicy, FleetService
    from repro.streaming import MonitorConfig

    quiet = workload == "fleet_quiet"
    obs.enable(events=str(telemetry) if quiet else None, clear=True)
    config = MonitorConfig(window=size["window"], hop=size["hop"])
    rules = parse_rules(DEFAULT_RULES)
    extras = {}
    if quiet:
        from repro.obs import health as health_mod
        from repro.obs import trace as trace_mod
        from repro.obs.slo import DEFAULT_SLOS, SLOEvaluator, parse_slos

        slo = SLOEvaluator(parse_slos(DEFAULT_SLOS))
        rules = rules + slo.alert_rules()
        trace_mod.enable_tracing()
        health_mod.enable_health()
        extras = {
            "slo": slo,
            "trace_store": trace_mod.TraceStore(),
            "health_store": health_mod.HealthStore(),
        }
    service = FleetService(
        base_config=config,
        n_jobs=1,
        max_pending=64,
        backpressure=BackpressurePolicy(),
        alert_engine=AlertEngine(rules),
        emit_fn=emit_fn,
        tsdb=TimeSeriesStore(),
        **extras,
    )
    obs.schema.preregister(obs.registry())
    return service


def run_fleet(workload: str, args, size: dict, tracer, probe) -> dict:
    outcomes = Outcomes()
    stamps = {}
    latencies = []
    #: cycle -> slowest window latency of that cycle.  The windows of one
    #: cycle share its delays (a stall slows all of them at once), so the
    #: tail is taken over cycles, not over correlated windows.
    cycle_worst = {}
    next_window = {}
    awaiting_setup = set()
    marks = {"setup_end": None, "last_emit": None, "cycle": 0}
    stats = {"analyzed": 0, "warm": 0, "fallbacks": 0, "skipped": {}}
    quiet = workload == "fleet_quiet"

    def emit_fn(payload: dict) -> None:
        now = time.perf_counter()
        path, index = payload["path"], payload["window"]
        outcomes.digest(payload)
        expected = next_window.get(path)
        if index != expected:
            outcomes.failed += 1
            outcomes.error(f"{path}: window {index} published, expected "
                           f"{expected}")
        else:
            next_window[path] = index + 1
        analyzed = payload["status"] == "ok"
        if analyzed:
            stats["analyzed"] += 1
            stats["warm"] += bool(payload["warm_start"])
            stats["fallbacks"] += payload["fallback_reason"] is not None
            if quiet or payload["verdict"] != "strong":
                outcomes.failed += 1
                outcomes.error(f"{path} window {index}: verdict "
                               f"{payload['verdict']!r} on a "
                               f"{'loss-free' if quiet else 'strong'} path")
        else:
            reason = str(payload["reason"]).split(":")[0]
            stats["skipped"][reason] = stats["skipped"].get(reason, 0) + 1
            if reason not in ("no-losses", "nonstationary"):
                outcomes.failed += 1
                outcomes.error(f"{path} window {index}: skipped as "
                               f"{payload['reason']!r}")
        if path in awaiting_setup and (analyzed or quiet):
            awaiting_setup.discard(path)
            if not awaiting_setup:
                marks["setup_end"] = now
        started = stamps.pop((path, index), None)
        if marks["setup_end"] is not None and started is not None \
                and started >= marks["setup_end"]:
            latency = now - started
            latencies.append(latency)
            cycle = marks["cycle"]
            cycle_worst[cycle] = max(cycle_worst.get(cycle, 0.0), latency)
        marks["last_emit"] = now

    with tracer.span("bench.build") if tracer else nullcontext():
        import inputs

        if tracer is not None:
            emit_fn = tracer.wrap("bench.emit", emit_fn)
            tracer.patch(inputs.ReplaySource, "poll", "bench.generate")
        telemetry = Path(args.work_dir) / "telemetry.jsonl"
        service = build_service(workload, size, emit_fn, telemetry)
        sources = []
        for i in range(size["paths"]):
            path = f"path-{i:04d}"
            if quiet:
                jump = None
                if i % 8 == 7:
                    # Mid-hop jumps after the first window, spread over
                    # the measured hops: windows j+1 and j+2 straddle it.
                    j = (i // 8) % max(1, size["hops"] - 1)
                    jump = size["window"] + size["hop"] * j + size["hop"] // 2
                generate = inputs.quiet_generator(args.seed, i, jump)
            else:
                generate = inputs.congested_generator(
                    args.seed, i, spec.WORKLOADS[workload]["loss_prob"])
            source = inputs.ReplaySource(
                path, generate, size["window"], size["hop"], stamps,
                ready=None if probe is None else probe.ready)
            service.register(path, source=source)
            sources.append(source)
            next_window[path] = 0
            awaiting_setup.add(path)

    cycles = 0
    while marks["setup_end"] is None:
        service.step()
        cycles += 1
        if cycles > 1000:
            raise RuntimeError("set-up never completed")
    setup_clock = hostinfo.PhaseClock()
    result = {"setup_s": marks["setup_end"] - T0}
    if args.setup_only:
        return result

    for source in sources:
        source.limit = source.sent + size["hops"] * size["hop"]
    while True:
        marks["cycle"] = cycles
        summary = service.step()
        cycles += 1
        if summary["shed"] or summary["dropped"]:
            outcomes.failed += 1
            outcomes.error(f"cycle {summary['cycle']}: shed "
                           f"{summary['shed']}, dropped records "
                           f"{summary['dropped']}")
        if service.fleet_snapshot()["sources"] == 0 \
                and summary["backlog"] == 0:
            break
    end_clock = hostinfo.PhaseClock()

    # -- output checks -------------------------------------------------
    expected_total = 0
    for source in sources:
        expected = source.expected_windows()
        expected_total += expected
        got = next_window[source.path]
        if got != expected:
            outcomes.failed += abs(expected - got)
            outcomes.error(f"{source.path}: {got} windows published, "
                           f"{expected} expected")
    outcomes.attempted = expected_total
    backlog = service.fleet_snapshot()["backlog"]
    if backlog:
        outcomes.error(f"backlog of {backlog} windows at exit")
    dropped = {entry["path"]: entry["dropped_windows"]
               for entry in service.path_snapshot()
               if entry["dropped_windows"] or entry["backlog"]}
    if dropped:
        outcomes.error(f"windows dropped or pending per path: {dropped}")
    if quiet and stats["skipped"].get("nonstationary", 0) == 0:
        outcomes.error("no window straddling a ceiling jump was rejected "
                       "by the stationarity gate")
    service.close()
    from repro import obs

    obs.disable()
    if quiet:
        from repro.obs import health as health_mod
        from repro.obs import trace as trace_mod

        trace_mod.disable_tracing()
        health_mod.disable_health()

    records = size["paths"] * size["hops"] * size["hop"]
    measured = marks["last_emit"] - marks["setup_end"]
    p50, tail, percentile, n = latency_summary(latencies,
                                               list(cycle_worst.values()))
    result.update({
        "records": records,
        "measured_s": measured,
        "records_per_s": records / measured,
        "window_p50_ms": p50,
        "window_tail_ms": tail,
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "tail_samples": n,
        "cycles": cycles,
        "phases": {"setup": CLOCK0.until(setup_clock),
                   "measured": setup_clock.until(end_clock)},
        "outcomes": {"analyzed": stats["analyzed"],
                     "skipped": stats["skipped"]},
        "layers": {
            "streaming.warm_ratio": (stats["warm"] / stats["analyzed"]
                                     if stats["analyzed"] else 0.0),
            "streaming.fallbacks": float(stats["fallbacks"]),
        },
    })
    return _finish(result, outcomes)


# ----------------------------------------------------------------------
# paper_tables
# ----------------------------------------------------------------------
def run_paper(args, size: dict) -> dict:
    # ``repro.core`` re-exports the function ``identify`` under the
    # submodule's name, so the module is fetched by its dotted path.
    identify_mod = importlib.import_module("repro.core.identify")
    traceio = importlib.import_module("repro.measurement.traceio")

    outcomes = Outcomes()
    scenarios = spec.WORKLOADS["paper_tables"]["scenarios"]
    observations = {
        name: traceio.load_observation(Path(args.traces_dir) / f"{name}.csv")
        for name in scenarios
    }
    setup_clock = hostinfo.PhaseClock()
    result = {"setup_s": setup_clock.wall - T0}
    if args.setup_only:
        return result

    methods = spec.WORKLOADS["paper_tables"]["bound_methods"]
    #: The median is over pipeline calls (identify, estimate_bound): the
    #: five calls cost about the same and span the run, so it does not
    #: rest on one trace's stretch of it.  The tail is over traces (both
    #: calls of one), as the fleets' is over cycles.  In two sets of ten
    #: runs on a 2-vCPU VM (IQR/median) the median call spread 13% and
    #: 18%, the median trace 15% and 20%, the slowest trace 16% and 14%,
    #: the slowest call 26% and 14%.
    latencies = []
    trace_latencies = []
    calls = []
    departures = []
    verdicts = {}
    identify_s = bound_s = 0.0
    rows = 0
    started = time.perf_counter()
    for name, (accepted, table_verdict) in scenarios.items():
        observation = observations[name]
        rows += len(observation)
        outcomes.attempted += 1
        t_start = time.perf_counter()
        report = identify_mod.identify(observation)
        t_identified = time.perf_counter()
        identify_s += t_identified - t_start
        latencies.append(t_identified - t_start)
        calls.append(f"{name} identify {latencies[-1]:.3f} s")
        payload = {
            "scenario": name,
            "verdict": report.verdict,
            "g_pmf": [round(float(p), 6) for p in report.distribution.pmf],
            "sdcl": [bool(report.sdcl.accepted), int(report.sdcl.d_star)],
            "wdcl": [bool(report.wdcl.accepted), int(report.wdcl.d_star)],
            "n_iter": int(report.fitted.n_iter),
            "bound": None,
        }
        if report.verdict in ("strong", "weak"):
            bound = identify_mod.estimate_bound(observation, report.verdict)
            latencies.append(time.perf_counter() - t_identified)
            bound_s += latencies[-1]
            calls.append(f"{name} bound {latencies[-1]:.3f} s")
            payload["bound"] = [bound.method, int(bound.symbol),
                                None if bound.seconds is None
                                else round(float(bound.seconds), 9)]
        trace_latencies.append(time.perf_counter() - t_start)
        verdicts[name] = report.verdict
        outcomes.digest(payload)
        got_method = payload["bound"][0] if payload["bound"] else None
        if report.verdict not in accepted \
                or got_method != methods.get(report.verdict):
            outcomes.failed += 1
            outcomes.error(f"{name} trace: verdict {report.verdict!r} with "
                           f"bound {got_method!r}; expected one of "
                           f"{accepted} with its bound method")
        elif report.verdict != table_verdict:
            departures.append(f"{name} trace identified as "
                              f"{report.verdict!r} (the paper's table: "
                              f"{table_verdict!r})")
    end_clock = hostinfo.PhaseClock()
    measured = end_clock.wall - started
    p50, tail, percentile, n = latency_summary(latencies, trace_latencies)
    result.update({
        "records": rows,
        "measured_s": measured,
        "records_per_s": rows / measured,
        "window_p50_ms": p50,
        "window_tail_ms": tail,
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "tail_samples": n,
        "identify_s": identify_s,
        "bound_s": bound_s,
        "verdicts": verdicts,
        "departures": departures,
        "calls": calls,
        "phases": {"setup": CLOCK0.until(setup_clock),
                   "measured": setup_clock.until(end_clock)},
        "layers": {"streaming.warm_ratio": 0.0, "streaming.fallbacks": 0.0},
    })
    return _finish(result, outcomes)


def _finish(result: dict, outcomes: Outcomes) -> dict:
    result.update({
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "errors": outcomes.errors,
        "digest": outcomes.hexdigest(),
        "payloads": outcomes.n_payloads,
        "peak_rss_mb": hostinfo.peak_rss_mb(),
    })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traces-dir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    size = spec.sizes(args.workload, args.seconds, smoke=args.smoke)

    tracer = probe = None
    if args.trace:
        from layers import LayerProbe
        from tracer import Tracer

        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        tracer.add_span("bench.import", T0, time.perf_counter())

    if args.workload == "paper_tables":
        result = run_paper(args, size)
    else:
        result = run_fleet(args.workload, args, size, tracer, probe)
    end = time.perf_counter()
    result["wall_s"] = end - T0
    result["size"] = size
    if tracer is not None:
        tracer.restore()
        layers = probe.metrics()
        layers.update(result.pop("layers", {}))
        layers["bench.generate_s"] = tracer.self_s("bench.generate")
        layers["bench.unattributed_ratio"] = (
            1.0 - tracer.top_level / result["wall_s"])
        run_clock = CLOCK0.until(hostinfo.PhaseClock())
        layers["process.cpu_s"] = run_clock["cpu_s"]
        layers["process.cpu_wall_ratio"] = run_clock["cpu_wall_ratio"]
        layers["host.steal_ratio"] = run_clock["steal_ratio"] or 0.0
        result["layers"] = layers
        result["missing_layers"] = probe.missing
        result["spans"] = {name: {"total_s": s[0], "self_s": s[1],
                                  "calls": s[2]}
                           for name, s in sorted(tracer.stats.items())}
    Path(args.out).write_text(json.dumps(result, sort_keys=True),
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
