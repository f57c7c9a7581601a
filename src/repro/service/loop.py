"""The fleet service: a continuously scheduled monitor over live paths.

:class:`FleetService` composes the control plane
(:class:`~repro.service.registry.PathRegistry`), the data plane
(:class:`~repro.streaming.scheduler.MultiPathMonitor` and its fused
drain), pluggable ingest sources (:mod:`repro.service.ingest`) and
overload response (:class:`~repro.service.backpressure.BackpressurePolicy`)
into one loop:

    poll sources -> admit bursts -> backpressure -> drain -> publish

Each :meth:`step` is one cycle of that pipeline.  A window that needs no
fit (a loss-free, nonstationary or degenerate skip) is published as soon
as its path's burst is admitted, before the next source is polled, when
its path has no window pending; the rest are published after the
cycle's drain, so each path still publishes in window order.
:meth:`run` repeats the cycle until :meth:`stop` (typically from a
signal handler or the HTTP thread) or — with ``exit_when_idle`` — until
every source is exhausted and the backlog is drained.  That is the one
runtime of both CLI commands: ``repro serve`` runs it with an HTTP
control API, and ``repro monitor`` is the same service on finite input,
with ``exit_when_idle`` and no API.

Concurrency model: one mutation lock (``RLock``) serialises registry
churn, ingest and drains; the HTTP API's *read* endpoints never take it.
Instead every cycle (and every registry transition) publishes immutable
snapshot dicts — per-path listings, latest verdicts, the fleet rollup —
under a separate cache lock, so ``GET /verdicts/{id}`` stays fast while
a drain is mid-flight.  Each path's verdict stream, for windows that
were neither shed nor re-strided, is byte-identical to a
:class:`~repro.streaming.tracker.PathMonitor` run over that path's
records: the service adds admission control and scheduling around the
scheduler, never a different fit path.

Liveness is wired in from day one: every cycle heartbeats the watchdog,
re-exports the ``repro_service_backlog_windows`` gauge the
``service-backlog-growth`` fatal alert rule watches, and (when an
:class:`~repro.obs.alerts.AlertEngine` is attached) evaluates the rule
set.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.service.backpressure import BackpressurePolicy
from repro.service.ingest import IngestSource
from repro.service.registry import PathRegistry
from repro.streaming.scheduler import MultiPathMonitor
from repro.streaming.tracker import MonitorConfig

__all__ = ["FleetService"]

_LOG = obs.get_logger(__name__)

#: Latest-events kept per path for the verdict API.
_HISTORY = 16


class FleetService:
    """Runtime-reconfigurable monitoring service over a path fleet."""

    def __init__(
        self,
        base_config: Optional[MonitorConfig] = None,
        n_jobs: int = 1,
        max_pending: int = 64,
        backpressure: Optional[BackpressurePolicy] = None,
        burst: Optional[int] = None,
        alert_engine=None,
        emit_fn=None,
        tsdb=None,
        trace_store=None,
        slo=None,
        health_store=None,
    ):
        self.registry = PathRegistry(base_config)
        self.monitor = MultiPathMonitor(
            config=self.registry.base_config,
            n_jobs=n_jobs,
            max_pending=max_pending,
        )
        self.backpressure = backpressure or BackpressurePolicy()
        #: Records pulled per source per cycle.
        self.burst = int(burst or self.registry.base_config.hop)
        self.alert_engine = alert_engine
        #: Optional per-event sink (the CLI writes JSONL through this).
        self.emit_fn = emit_fn
        #: Optional :class:`repro.obs.tsdb.TimeSeriesStore` flushed from
        #: the metrics registry once per cycle (self-throttled).
        self.tsdb = tsdb
        #: Optional :class:`repro.obs.trace.TraceStore` retaining
        #: finalized record-to-verdict traces for ``GET /traces/{id}``.
        self.trace_store = trace_store
        #: Optional :class:`repro.obs.slo.SLOEvaluator`, run each cycle
        #: before the alert engine so compiled burn-rate rules see
        #: fresh gauges.
        self.slo = slo
        #: Optional :class:`repro.obs.health.HealthStore` retaining
        #: per-path model-health reports for ``GET /health``.
        self.health_store = health_store
        self._lock = threading.RLock()
        self._cache_lock = threading.Lock()
        #: path -> (source, generation bound at attach time)
        self._sources: Dict[str, Tuple[IngestSource, int]] = {}
        self._history: Dict[str, Deque[dict]] = {}
        self._stop = threading.Event()
        self.cycle = 0
        self.n_windows = 0
        #: Windows published since a cycle (or :meth:`finish`) last
        #: reported them.
        self._unreported = 0
        self.n_ingested = 0
        self._drop_counts: Dict[str, int] = {}
        self.started_at = time.time()
        # Cache the empty fleet so reads work before the first cycle.
        self._paths_cache: List[dict] = []
        self._fleet_cache: dict = {}
        with self._lock:
            self._refresh_cache()

    # ------------------------------------------------------------------
    # Control plane (registry + monitor kept in lockstep)
    # ------------------------------------------------------------------
    def register(self, path: str, overrides: Optional[dict] = None,
                 paused: bool = False,
                 source: Optional[IngestSource] = None) -> dict:
        """Add a path to the fleet; optionally bind an ingest source.

        The source is bound to the registration's generation: after a
        deregister/re-register cycle the old source's late records are
        dropped as ``stale-generation`` rather than polluting the new
        incarnation's windows.
        """
        with self._lock:
            entry = self.registry.register(path, overrides=overrides,
                                           paused=paused)
            try:
                self.monitor.add_path(path, entry.config)
            except Exception:
                self.registry.deregister(path)
                raise
            if source is not None:
                self._sources[path] = (source, entry.generation)
            self._history[path] = deque(maxlen=_HISTORY)
            self._emit_path_event(path, "register", entry.generation)
            self._refresh_cache()
            return entry.to_dict()

    def deregister(self, path: str) -> dict:
        """Remove a path; its pending windows are discarded immediately."""
        with self._lock:
            entry = self.registry.deregister(path)
            discarded = self.monitor.remove_path(path)
            bound = self._sources.pop(path, None)
            if bound is not None:
                bound[0].close()
            self._history.pop(path, None)
            if self.trace_store is not None:
                self.trace_store.forget(path)
            if self.health_store is not None:
                self.health_store.forget(path)
            self._emit_path_event(path, "deregister", entry.generation)
            self._refresh_cache()
            out = entry.to_dict()
            out["discarded_windows"] = discarded
            return out

    def pause(self, path: str) -> dict:
        """Stop admitting a path's records (windows in flight still fit)."""
        with self._lock:
            entry = self.registry.pause(path)
            self._emit_path_event(path, "pause", entry.generation)
            self._refresh_cache()
            return entry.to_dict()

    def resume(self, path: str) -> dict:
        """Re-admit a paused path's records."""
        with self._lock:
            entry = self.registry.resume(path)
            self._emit_path_event(path, "resume", entry.generation)
            self._refresh_cache()
            return entry.to_dict()

    def attach_source(self, path: str, source: IngestSource) -> None:
        """Bind (or replace) the ingest source of a registered path."""
        with self._lock:
            entry = self.registry.get(path)
            if entry is None:
                raise KeyError(f"path {path!r} is not registered")
            old = self._sources.get(path)
            if old is not None:
                old[0].close()
            self._sources[path] = (source, entry.generation)

    @staticmethod
    def _emit_path_event(path: str, action: str, generation: int) -> None:
        obs.emit("service.path", path=path, action=action,
                 generation=generation)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def ingest(self, path: str, send_time: float, delay: float,
               generation: Optional[int] = None) -> Optional[str]:
        """Admit one record; returns ``None`` or the drop reason.

        The one-record case of :meth:`ingest_many`.
        """
        return self.ingest_many(path, ((send_time, delay),), generation)

    def ingest_many(self, path: str, records: Sequence[Tuple[float, float]],
                    generation: Optional[int] = None) -> Optional[str]:
        """Admit a burst of records; returns ``None`` or the drop reason.

        One admission decision covers the whole burst: registry changes
        take the same lock, so the decision cannot change mid-burst, and
        a dropped burst counts one drop per record.  An admitted burst
        goes to the monitor as array writes; a record that is not a
        numeric ``(send_time, delay)`` pair raises before any record of
        the burst is buffered or counted.  The windows the monitor
        resolves at ingest (skips with nothing pending on their path)
        are published here.  Metric flushes are deferred to the next
        :meth:`step`, so the per-burst cost is O(1) dict work plus the
        assembler's array writes and the cut windows' preparation.
        """
        with self._lock:
            reason = self.registry.admit(path, generation)
            n = len(records)
            if reason is not None:
                entry = self.registry.get(path)
                if entry is not None:
                    entry.n_dropped += n
                self._drop_counts[reason] = \
                    self._drop_counts.get(reason, 0) + n
                return reason
            events = self.monitor.ingest_many(path, records)
            self.registry.get(path).n_records += n
            self.n_ingested += n
            if events:
                self._publish(events)
            return None

    def _poll_sources(self) -> Tuple[int, int]:
        """One ingest burst from every bound source (lock held)."""
        ingested = dropped = 0
        exhausted: List[str] = []
        for path, (source, generation) in self._sources.items():
            records = source.poll(self.burst)
            if records:
                if self.ingest_many(path, records,
                                    generation=generation) is None:
                    ingested += len(records)
                else:
                    dropped += len(records)
            if source.exhausted:
                exhausted.append(path)
        for path in exhausted:
            source, _ = self._sources.pop(path)
            source.close()
            _LOG.info("source for path %r exhausted; awaiting deregister",
                      path)
        return ingested, dropped

    def step(self) -> dict:
        """One service cycle: poll -> backpressure -> drain -> publish.

        The cycle's ``windows`` count every window published since the
        last cycle: those resolved while its sources were polled, then
        the drained ones.  Once :meth:`stop` has been requested (also
        from inside this cycle's poll, as ``--max-windows`` does) the
        cycle skips its drain; it still flushes metrics and emits
        ``service.round``.
        """
        started = time.perf_counter()
        with self._lock:
            self.cycle += 1
            ingested, dropped = self._poll_sources()
            pressure = self.backpressure.apply(self.monitor)
            if not self._stop.is_set():
                self._publish(self.monitor.drain())
            windows = self._take_unreported()
            backlog = self.monitor.n_pending
            self._flush_metrics(backlog)
            dur_s = time.perf_counter() - started
            obs.emit(
                "service.round",
                cycle=self.cycle,
                ingested=ingested,
                dropped=dropped,
                windows=windows,
                backlog=backlog,
                dur_ms=round(dur_s * 1e3, 3),
            )
            obs.inc("repro_service_rounds_total")
            obs.heartbeat()
            self._refresh_cache()
        if self.slo is not None:
            self.slo.evaluate()
        if self.tsdb is not None:
            self.tsdb.collect(obs.registry())
        if self.alert_engine is not None:
            self.alert_engine.evaluate()
        return {
            "cycle": self.cycle,
            "ingested": ingested,
            "dropped": dropped,
            "windows": windows,
            "backlog": backlog,
            "shed": pressure["shed"],
            "coarsened": pressure["coarsened"],
            "restored": pressure["restored"],
            "dur_s": dur_s,
        }

    def finish(self) -> int:
        """Flush trailing partial windows and drain them (end of stream);
        returns the windows published since the last cycle."""
        with self._lock:
            self._publish(self.monitor.finish())
            windows = self._take_unreported()
            self._flush_metrics(self.monitor.n_pending)
            self._refresh_cache()
        return windows

    def run(
        self,
        interval: float = 0.05,
        max_cycles: Optional[int] = None,
        exit_when_idle: bool = False,
        on_cycle: Optional[Callable[[dict], None]] = None,
    ) -> int:
        """Cycle until stopped; returns the number of cycles run.

        ``exit_when_idle`` ends the loop (after a final :meth:`finish`)
        once no sources remain bound and the backlog is empty — the
        terminating mode for finite demo/replay streams.  ``interval``
        is slept only when a cycle did no work, so a loaded service
        spins at drain speed and an idle one at poll speed.
        ``on_cycle``, if given, receives each cycle's :meth:`step`
        summary (the CLI refreshes ``--metrics-file`` there).
        """
        cycles = 0
        while not self._stop.is_set():
            summary = self.step()
            cycles += 1
            if on_cycle is not None:
                on_cycle(summary)
            if max_cycles is not None and cycles >= max_cycles:
                break
            if exit_when_idle and not self._sources \
                    and summary["backlog"] == 0 and summary["windows"] == 0 \
                    and summary["ingested"] == 0:
                self.finish()
                break
            if summary["ingested"] == 0 and summary["windows"] == 0:
                self._stop.wait(interval)
        return cycles

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the current cycle, which drains
        nothing more (thread-safe)."""
        self._stop.set()

    def close(self) -> None:
        """Stop the loop and close every bound source."""
        self.stop()
        with self._lock:
            for source, _ in self._sources.values():
                source.close()
            self._sources.clear()

    # ------------------------------------------------------------------
    # Publication (verdict cache + snapshots the HTTP API reads)
    # ------------------------------------------------------------------
    def _publish(self, events) -> None:
        self.n_windows += len(events)
        self._unreported += len(events)
        for event in events:
            payload = event.to_dict()
            history = self._history.get(event.path)
            if history is not None:
                history.append(payload)
            if self.trace_store is not None \
                    and getattr(event, "trace", None) is not None:
                self.trace_store.add(event.trace)
            if self.health_store is not None \
                    and getattr(event, "health", None) is not None:
                self.health_store.add(event.health,
                                      confidence=event.confidence)
            if self.emit_fn is not None:
                self.emit_fn(payload)

    def _take_unreported(self) -> int:
        """Windows published since the last report; counted once here."""
        windows, self._unreported = self._unreported, 0
        if windows:
            obs.inc("repro_service_windows_total", float(windows))
        return windows

    def _flush_metrics(self, backlog: int) -> None:
        counts = self.registry.counts()
        for status, n in counts.items():
            obs.set_gauge("repro_service_paths", float(n), status=status)
        obs.set_gauge("repro_service_backlog_windows", float(backlog))
        if self.n_ingested:
            obs.inc("repro_service_records_total", float(self.n_ingested))
            self.n_ingested = 0
        for reason, n in self._drop_counts.items():
            obs.inc("repro_service_records_dropped_total", float(n),
                    reason=reason)
        self._drop_counts.clear()

    def _refresh_cache(self) -> None:
        """Rebuild the read-side snapshots (mutation lock held)."""
        pending = self.monitor.pending_windows
        dropped = self.monitor.dropped_windows
        paths = []
        histogram: Dict[str, int] = {}
        for entry in self.registry.entries():
            payload = entry.to_dict()
            payload["backlog"] = pending.get(entry.path, 0)
            payload["dropped_windows"] = dropped.get(entry.path, 0)
            history = self._history.get(entry.path)
            latest = history[-1] if history else None
            payload["latest"] = latest
            verdict = (latest or {}).get("stable_verdict") or "none"
            histogram[verdict] = histogram.get(verdict, 0) + 1
            paths.append(payload)
        fleet = {
            "cycle": self.cycle,
            "paths": self.registry.counts(),
            "backlog": self.monitor.n_pending,
            "windows": self.n_windows,
            "verdicts": histogram,
            "last_drain": self.monitor.last_drain,
            "backpressure": self.backpressure.snapshot(),
            "sources": len(self._sources),
            "uptime_s": round(time.time() - self.started_at, 3),
        }
        if self.alert_engine is not None:
            fleet["active_alerts"] = self.alert_engine.active_alerts()
        with self._cache_lock:
            self._paths_cache = paths
            self._fleet_cache = fleet

    def path_snapshot(self) -> List[dict]:
        """Per-path listings (lock-free read of the published cache)."""
        with self._cache_lock:
            return list(self._paths_cache)

    def verdict_snapshot(self, path: str) -> Optional[dict]:
        """Latest verdict view of one path, or ``None`` when unknown."""
        with self._cache_lock:
            for payload in self._paths_cache:
                if payload["path"] == path:
                    history = self._history.get(path)
                    return {
                        "path": path,
                        "generation": payload["generation"],
                        "status": payload["status"],
                        "backlog": payload["backlog"],
                        "dropped_windows": payload["dropped_windows"],
                        "latest": payload["latest"],
                        "recent": list(history) if history else [],
                    }
        return None

    def fleet_snapshot(self) -> dict:
        """The fleet rollup (lock-free read of the published cache)."""
        with self._cache_lock:
            return dict(self._fleet_cache)
