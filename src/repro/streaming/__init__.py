"""Streaming identification: always-on monitoring over probe streams.

The batch pipeline (:func:`repro.core.identify.identify`) answers "was
there a dominant congested link in this trace?" once, after the fact.
This subsystem answers it *continuously* while probes arrive:

``windows``
    Incremental ingestion into bounded, overlapping sliding windows.
``online_em``
    Warm-started per-window EM fits (previous window's parameters seed
    the next fit), with cold multi-restart fallback on likelihood
    collapse.
``tracker``
    Per-window SDCL/WDCL verdicts and the ``Q_k`` bound, gated on
    stationarity and smoothed by K-of-N hysteresis; the single-path
    :class:`~repro.streaming.tracker.PathMonitor`, which fits one window
    at a time and is the per-window reference the fleet must match.
``scheduler``
    :class:`~repro.streaming.scheduler.MultiPathMonitor`: many paths
    whose pending windows fit together in one fused drain, sharded over
    the process pool, with bounded backlog and event queues.

The fleet service (:mod:`repro.service`) drives a ``MultiPathMonitor``
from its ingest sources; ``repro monitor`` and ``repro serve`` both run
it and emit JSONL verdict events.
"""

from repro.streaming.online_em import (
    StreamingFitResult,
    WarmState,
    streaming_fit,
)
from repro.streaming.scheduler import MultiPathMonitor
from repro.streaming.tracker import (
    MonitorConfig,
    PathMonitor,
    VerdictEvent,
    VerdictTracker,
    WindowAnalysis,
    analyze_window,
)
from repro.streaming.windows import (
    ProbeWindow,
    SlidingWindowAssembler,
    iter_windows,
)

__all__ = [
    "MonitorConfig",
    "MultiPathMonitor",
    "PathMonitor",
    "ProbeWindow",
    "SlidingWindowAssembler",
    "StreamingFitResult",
    "VerdictEvent",
    "VerdictTracker",
    "WarmState",
    "WindowAnalysis",
    "analyze_window",
    "iter_windows",
    "streaming_fit",
]
