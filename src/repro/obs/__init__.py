"""Telemetry for the identification stack: events, spans, metrics.

The paper's inference quality hinges on EM behaviour that is invisible
from final numbers alone — restart dispersion, likelihood trajectories,
warm-start fallbacks, per-window verdict flips.  This package makes all
of it observable with **zero hard dependencies beyond the stdlib** (and
numpy scalars tolerated in payloads):

* :mod:`repro.obs.events` — a process-safe JSONL event bus;
* :mod:`repro.obs.spans` — nested span timing (``span("em.fit")``);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with Prometheus
  text + JSON exporters and deterministic worker-snapshot merging;
* :mod:`repro.obs.schema` — the event/metric catalog and validation;
* :mod:`repro.obs.httpd` — a scrape endpoint from ``http.server``;
* :mod:`repro.obs.stats` — the ``repro stats`` JSONL summarizer.

Telemetry is **off by default** and every instrumentation entry point
(:func:`emit`, :func:`inc`, :func:`observe`, :func:`span`) reduces to a
single attribute check when disabled, so the instrumented hot paths pay
effectively nothing — ``benchmarks/bench_perf_fitting.py`` measures and
records the disabled-mode overhead.

Usage::

    from repro import obs

    obs.enable(events="telemetry.jsonl")   # metrics + JSONL events
    ... run fits / the monitor ...
    print(obs.registry().to_prometheus())
    obs.disable()

Worker processes: :func:`repro.parallel.parallel_map` captures
:func:`current_config` in the parent, applies it in each worker
(:func:`apply_config`), and merges per-task metric snapshots back in
task order — so metrics are identical for every ``n_jobs`` and events
from workers land in the same JSONL file (append is line-atomic).
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_SECONDS, current_span_id, span
from repro.obs import schema

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "emit",
    "heartbeat",
    "inc",
    "set_gauge",
    "observe",
    "span",
    "current_span_id",
    "registry",
    "bus",
    "current_config",
    "apply_config",
    "metrics_snapshot",
    "metrics_delta",
    "merge_worker_metrics",
    "get_logger",
    "schema",
    "SPAN_SECONDS",
]

_BUS = EventBus()
_REGISTRY = MetricsRegistry()
_ENABLED = False


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def enable(events=None, clear: bool = False,
           max_bytes: Optional[int] = None) -> None:
    """Turn telemetry on.

    Parameters
    ----------
    events:
        Optional JSONL sink for the event bus — a path (process-safe,
        shared with forked/spawned workers) or an open text stream
        (process-local).  ``None`` collects metrics only.
    clear:
        Drop previously collected metric samples first.
    max_bytes:
        Rotate a path sink to ``<name>.1`` once it crosses this size, so
        long ``monitor --follow`` runs cannot fill the disk.
    """
    global _ENABLED
    if clear:
        _REGISTRY.clear()
    _BUS.configure(events, max_bytes=max_bytes)
    _ENABLED = True


def disable() -> None:
    """Turn telemetry off (metric samples are kept until ``enable(clear=True)``)."""
    global _ENABLED
    _ENABLED = False
    _BUS.close()


def is_enabled() -> bool:
    """Whether instrumentation currently records anything."""
    return _ENABLED


# ----------------------------------------------------------------------
# Instrumentation entry points (no-op fast when disabled)
# ----------------------------------------------------------------------
def emit(kind: str, /, **fields) -> None:
    """Emit one structured event (dropped when telemetry is off)."""
    if not _ENABLED:
        return
    _BUS.emit(kind, **fields)


def heartbeat() -> None:
    """Feed every active watchdog (see :mod:`repro.obs.recorder`).

    Called from progress points of long-running loops (the monitor's
    drain, ``parallel_map`` completions); reduces to one attribute
    check when telemetry is off or no watchdog is running.
    """
    if not _ENABLED:
        return
    from repro.obs import recorder

    recorder.beat_all()


def inc(name: str, amount: float = 1.0, /, **labels) -> None:
    """Increment a counter (dropped when telemetry is off)."""
    if not _ENABLED:
        return
    _REGISTRY.inc(name, amount, **labels)


def set_gauge(name: str, value: float, /, **labels) -> None:
    """Set a gauge (dropped when telemetry is off)."""
    if not _ENABLED:
        return
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, /, **labels) -> None:
    """Observe into a histogram (dropped when telemetry is off)."""
    if not _ENABLED:
        return
    _REGISTRY.observe(name, value, **labels)


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def bus() -> EventBus:
    """The process-global event bus."""
    return _BUS


# ----------------------------------------------------------------------
# Worker round-trip (used by repro.parallel)
# ----------------------------------------------------------------------
def current_config() -> dict:
    """Picklable telemetry state to replay inside a worker process.

    Stream sinks are process-local and travel as ``None`` — workers
    then collect metrics but emit no events.
    """
    path = _BUS.path
    return {
        "enabled": _ENABLED,
        "events": None if path is None else str(path),
    }


def apply_config(config: dict) -> None:
    """Make this process's telemetry state match a parent's config."""
    if not config.get("enabled"):
        if _ENABLED:
            disable()
        return
    events = config.get("events")
    current = _BUS.path
    if not _ENABLED or (events or None) != (
            None if current is None else str(current)):
        enable(events=events)


def metrics_snapshot() -> dict:
    """Snapshot of this process's metric samples (see registry docs)."""
    return _REGISTRY.snapshot()


def metrics_delta(before: dict) -> dict:
    """Samples recorded since ``before`` (an earlier snapshot)."""
    return _REGISTRY.delta(before)


def merge_worker_metrics(delta: dict) -> None:
    """Fold one worker task's metric delta into this process's registry."""
    _REGISTRY.merge(delta)


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def get_logger(name: str) -> logging.Logger:
    """A module logger under the ``repro.*`` namespace.

    The package root installs a :class:`logging.NullHandler`, so library
    consumers opt into output with standard ``logging`` configuration
    (the CLI's ``--log-level`` flag does exactly that).
    """
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
