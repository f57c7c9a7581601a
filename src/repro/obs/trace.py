"""Record-to-verdict tracing: where did this verdict's seconds go?

A delay-based DCL inference acted on late is as misleading as a wrong
one, so the fleet service needs more than an aggregate lag gauge — it
needs, per published verdict, the decomposition *ingest → window-close →
queue-wait → E-step → publish*.  This module provides it:

* a **tracing switch** (:func:`enable_tracing` / :func:`disable_tracing`)
  that mirrors the ``repro.obs`` enabled flag: every stamping site in
  the pipeline reads one module attribute and does nothing when tracing
  is off, so the hot paths are zero-cost by default;
* :class:`WindowTrace` — the per-window context created when the
  sliding-window assembler closes a window, carried on the
  ``ProbeWindow`` through the scheduler's ready queue and the fused
  drain, and finalized when the verdict tracker publishes.  Stamps are
  ``time.monotonic()`` values; derived stage durations are exposed by
  :meth:`WindowTrace.stages`;
* :class:`TraceStore` — a bounded ring of finalized traces per path
  plus a global slowest-N exemplar ring, behind ``GET /traces/{id}``.

Trace data rides *next to* the verdict event (an object attribute), not
inside its JSON payload — verdict streams stay byte-identical with
tracing on or off, which the service test-suite and the trace-smoke CI
job both assert.

Stage semantics (all monotonic-clock seconds).  Records are admitted
in bursts (one source poll), and the assembler stamps each burst once:
every record of a burst shares its stamp, so "record admitted" below
means "its burst admitted".  When tracing is switched on mid-window,
stamps start at the first traced burst.

``ingest``
    first record admitted → window closed (how long the window took to
    fill; dominated by the probe rate, not the service).
``queue``
    window closed → drain round picked it up (ready-queue wait; grows
    under backpressure).
``fit``
    E-step batch start → batch end.  Windows fused into one mega-batch
    share the batch's span — the per-window number answers "how long was
    this window inside the solver", not "how many solver-seconds did it
    consume".
``publish``
    batch end → verdict event constructed.
``total``
    last record admitted → verdict constructed: the record-to-verdict
    freshness number the SLO layer watches
    (``repro_record_to_verdict_seconds``).

A window that needs no fit and resolves where it is cut (a skip whose
path has nothing pending, :mod:`repro.streaming.scheduler`) stamps its
drain start and fit start when its preparation starts and its fit end
when the preparation returns: its queue stage reads about 0 and its fit
stage is the stationarity gate's and discretizer's work.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional

from repro import obs

__all__ = [
    "WindowTrace",
    "TraceStore",
    "enable_tracing",
    "disable_tracing",
    "is_tracing",
    "STAGE_BUCKETS",
]

#: Finer-than-default buckets for per-stage durations: queue waits and
#: publish hops sit well under the 1ms floor of ``DEFAULT_BUCKETS``.
STAGE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Module-level switch read directly by the stamping sites (one
#: attribute load on the hot path, same pattern as ``obs._ENABLED``).
_TRACING = False


def enable_tracing() -> None:
    """Turn record-to-verdict tracing on (requires obs telemetry for
    metrics/events to actually record, but stamping works regardless)."""
    global _TRACING
    obs.registry().describe(
        "repro_trace_stage_seconds",
        "Per-stage record-to-verdict latency decomposition.",
        buckets=STAGE_BUCKETS,
    )
    obs.registry().describe(
        "repro_record_to_verdict_seconds",
        "Freshness of published verdicts: last record to verdict.",
        buckets=STAGE_BUCKETS,
    )
    _TRACING = True


def disable_tracing() -> None:
    """Turn tracing off; already-stamped windows still finalize."""
    global _TRACING
    _TRACING = False


def is_tracing() -> bool:
    """Whether trace contexts are being created and stamped."""
    return _TRACING


class WindowTrace:
    """Monotonic stamps accumulated as one window crosses the pipeline.

    Created by the assembler at window close; the scheduler and tracker
    fill in the later stamps.  ``None`` stamps mean the window never
    reached that stage (e.g. a skipped window has no fit stamps).
    """

    __slots__ = ("path", "window_index", "ingest_first", "ingest_last",
                 "assembled_at", "drain_started", "fit_started",
                 "fit_ended", "published_at")

    def __init__(self, ingest_first: Optional[float],
                 ingest_last: Optional[float], assembled_at: float):
        self.path: Optional[str] = None
        self.window_index: Optional[int] = None
        self.ingest_first = ingest_first
        self.ingest_last = ingest_last
        self.assembled_at = assembled_at
        self.drain_started: Optional[float] = None
        self.fit_started: Optional[float] = None
        self.fit_ended: Optional[float] = None
        self.published_at: Optional[float] = None

    @staticmethod
    def _span(start: Optional[float], stop: Optional[float]
              ) -> Optional[float]:
        if start is None or stop is None:
            return None
        return max(0.0, stop - start)

    def stages(self) -> Dict[str, Optional[float]]:
        """Derived per-stage durations (seconds; None = never reached)."""
        return {
            "ingest": self._span(self.ingest_first, self.assembled_at),
            "queue": self._span(self.assembled_at, self.drain_started),
            "fit": self._span(self.fit_started, self.fit_ended),
            "publish": self._span(self.fit_ended, self.published_at),
            "total": self._span(self.ingest_last, self.published_at),
        }

    def finalize(self, path: str, window_index: int,
                 published_at: float) -> Dict[str, Optional[float]]:
        """Stamp publication, record metrics + the ``trace.window``
        event, and return the stage breakdown."""
        self.path = path
        self.window_index = window_index
        self.published_at = published_at
        stages = self.stages()
        if obs.is_enabled():
            for stage in ("ingest", "queue", "fit", "publish"):
                value = stages[stage]
                if value is not None:
                    obs.observe("repro_trace_stage_seconds", value,
                                stage=stage)
            total = stages["total"]
            if total is not None:
                obs.observe("repro_record_to_verdict_seconds", total)
            obs.inc("repro_traces_total")
            obs.emit(
                "trace.window",
                path=path,
                window=window_index,
                stages={k: v for k, v in stages.items() if v is not None},
            )
        return stages

    def to_dict(self) -> dict:
        """JSON projection served by ``GET /traces/{id}``."""
        stages = self.stages()
        return {
            "path": self.path,
            "window": self.window_index,
            "stages": {k: v for k, v in stages.items() if v is not None},
            "stamps": {
                "ingest_first": self.ingest_first,
                "ingest_last": self.ingest_last,
                "assembled_at": self.assembled_at,
                "drain_started": self.drain_started,
                "fit_started": self.fit_started,
                "fit_ended": self.fit_ended,
                "published_at": self.published_at,
            },
        }


class TraceStore:
    """Bounded retention of finalized traces.

    Per path: the last ``per_path`` traces (a waterfall of recent
    windows).  Globally: the ``slowest`` highest-total exemplars — the
    ring an operator checks first when the freshness SLO burns.
    """

    def __init__(self, per_path: int = 32, slowest: int = 16):
        self._lock = threading.Lock()
        self._per_path = int(per_path)
        self._slowest_cap = int(slowest)
        self._paths: Dict[str, deque] = {}
        self._slowest: List[dict] = []

    def add(self, trace: WindowTrace) -> None:
        """Retain one finalized trace (called at verdict publication)."""
        entry = trace.to_dict()
        total = entry["stages"].get("total")
        with self._lock:
            ring = self._paths.get(entry["path"])
            if ring is None:
                ring = deque(maxlen=self._per_path)
                self._paths[entry["path"]] = ring
            ring.append(entry)
            if total is not None:
                self._slowest.append(entry)
                self._slowest.sort(
                    key=lambda e: e["stages"].get("total", 0.0),
                    reverse=True)
                del self._slowest[self._slowest_cap:]

    def forget(self, path: str) -> None:
        """Drop the per-path ring (slowest exemplars survive)."""
        with self._lock:
            self._paths.pop(path, None)

    def path_traces(self, path: str) -> List[dict]:
        """Recent traces for one path, oldest first ([] when unknown)."""
        with self._lock:
            ring = self._paths.get(path)
            return list(ring) if ring is not None else []

    def slowest(self) -> List[dict]:
        """The slowest-total exemplars across the fleet, worst first."""
        with self._lock:
            return list(self._slowest)

    def paths(self) -> List[str]:
        """Sorted path ids with at least one retained trace."""
        with self._lock:
            return sorted(self._paths)
