"""Shared test driver: a whole fleet run to the end of its input, and the
per-window reference it must match.

:func:`run_fleet` composes a :class:`~repro.service.loop.FleetService`
over one :class:`~repro.service.ingest.IterableSource` per stream and
runs it with ``exit_when_idle`` (the runtime ``repro monitor`` runs).
:func:`reference_events` runs a :class:`~repro.streaming.tracker
.PathMonitor`, which fits one window at a time, over each path's own
records.  The fleet's events, taken path by path, must equal the
reference byte for byte at every ``n_jobs``.
"""

import io
import json
from typing import Dict, Iterable, List, Mapping, Tuple

from repro import obs
from repro.obs import health as health_mod
from repro.obs import trace as trace_mod
from repro.service import FleetService, IterableSource
from repro.streaming.tracker import MonitorConfig, PathMonitor, VerdictEvent

Streams = Mapping[str, Iterable[Tuple[float, float]]]


def run_fleet(streams: Streams, config: MonitorConfig, n_jobs: int = 1,
              **service_kwargs) -> List[VerdictEvent]:
    """The events of a fleet service run over ``streams``, in the order
    the service published them."""
    service = FleetService(base_config=config, n_jobs=n_jobs,
                           **service_kwargs)
    for path, records in streams.items():
        service.register(path, source=IterableSource(records))
    service.run(exit_when_idle=True, interval=0.0)
    service.close()
    events = list(service.monitor.events)
    assert len(events) == service.n_windows, "event ring overflowed"
    return events


def reference_events(streams: Streams, config: MonitorConfig
                     ) -> Dict[str, List[VerdictEvent]]:
    """Per path, the events of a ``PathMonitor`` over its records."""
    return {path: PathMonitor(config, path=path).run(records)
            for path, records in streams.items()}


def event_dicts(events) -> List[str]:
    """Comparable projections: drop wall-clock timing (inherently noisy)."""
    dicts = []
    for e in events:
        d = e.to_dict()
        d.pop("lag_ms", None)
        dicts.append(json.dumps(d, sort_keys=True))
    return dicts


def by_path(events) -> Dict[str, List[str]]:
    """Event projections grouped by path, each path in its own order."""
    grouped: Dict[str, List[str]] = {}
    for event, line in zip(events, event_dicts(events)):
        grouped.setdefault(event.path, []).append(line)
    return grouped


def observed(run):
    """Call ``run()`` with tracing, model health and telemetry on.

    Returns ``(result, telemetry)``: the ``window`` events grouped by
    path without clock fields, and the stationarity-gate and skip
    counters.
    """
    sink = io.StringIO()
    obs.enable(events=sink, clear=True)
    trace_mod.enable_tracing()
    health_mod.enable_health()
    try:
        result = run()
        counters = obs.metrics_snapshot()["counters"]
    finally:
        health_mod.disable_health()
        trace_mod.disable_tracing()
        obs.disable()
    windows: Dict[str, List[str]] = {}
    for line in sink.getvalue().splitlines():
        event = json.loads(line)
        if event["kind"] == "window":
            for clock in ("ts", "wall", "pid", "lag_ms"):
                event.pop(clock, None)
            windows.setdefault(event["path"], []).append(
                json.dumps(event, sort_keys=True))
    gates = {key: value for key, value in counters.items()
             if key[0] in ("repro_stationarity_checks_total",
                           "repro_windows_skipped_total")}
    return result, {"windows": windows, "counters": gates}


def assert_matches_reference(streams: Streams, config: MonitorConfig,
                             n_jobs_values=(1, 2)):
    """Run the fleet traced, with health and telemetry on, at each
    ``n_jobs``; every path's events, ``window`` telemetry and the gate
    counters must equal the per-window reference's.  Returns the last
    run's ``(events, telemetry)``."""
    expected, expected_telemetry = observed(
        lambda: reference_events(streams, config))
    expected = {path: event_dicts(events)
                for path, events in expected.items() if events}
    assert expected
    for n_jobs in n_jobs_values:
        events, telemetry = observed(
            lambda: run_fleet(streams, config, n_jobs=n_jobs))
        assert all(e.trace is not None for e in events)
        assert by_path(events) == expected, n_jobs
        assert telemetry == expected_telemetry, n_jobs
    return events, telemetry
