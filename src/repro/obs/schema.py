"""Telemetry catalog: event kinds, metric names, validation.

One module is the source of truth for what the instrumentation emits, so
the README table, the ``repro stats`` summarizer, the exporter
preregistration, and the tests all agree.

Event envelope (every event): ``ts`` (monotonic seconds), ``wall``
(epoch seconds), ``pid``, ``kind``.  Kind-specific payloads are listed
in :data:`EVENT_KINDS`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "EVENT_KINDS",
    "METRICS",
    "MONITOR_SERIES",
    "validate_event",
    "preregister",
]

#: kind -> (description, required payload fields)
EVENT_KINDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "span": (
        "A timed block finished",
        ("name", "span", "parent", "dur_ms"),
    ),
    "em.restart": (
        "One EM restart finished (per-iteration loglik trajectory)",
        ("model", "restart", "n_iter", "converged", "loglik", "logliks"),
    ),
    "em.fit": (
        "A multi-restart fit reduced to its winner",
        ("model", "n_restarts", "best_restart", "restart_logliks",
         "loglik_dispersion"),
    ),
    "em.backend": (
        "E-step engine used by one fit (batch occupancy and savings)",
        ("model", "n_restarts", "n_shards", "batch_iterations",
         "occupancy", "masked_savings", "kernel", "block_size"),
    ),
    "selection.bic": (
        "BIC model-order selection outcome",
        ("model", "candidates", "bics", "chosen_n"),
    ),
    "streaming.fit": (
        "One window fit finished (warm or cold)",
        ("model", "warm_used", "fallback_reason", "n_iter", "loglik"),
    ),
    "window": (
        "One monitor window resolved (analyzed or skipped)",
        ("path", "window", "status", "reason", "verdict", "stable_verdict",
         "changed"),
    ),
    "drain.round": (
        "One multi-path drain round finished (fused-batch accounting)",
        ("mode", "windows", "groups", "rows", "pad_fraction", "dur_ms"),
    ),
    "traceio.load": (
        "An observation file was loaded",
        ("path", "n_probes", "n_losses"),
    ),
    "run.manifest": (
        "Provenance manifest of one identify/monitor/bench run",
        ("run_id", "command", "manifest_path"),
    ),
    "watchdog.stall": (
        "The watchdog saw no heartbeat within its timeout",
        ("idle_seconds", "timeout", "ring"),
    ),
    "alert.fired": (
        "A declarative alert rule's condition started holding",
        ("rule", "severity", "value", "threshold"),
    ),
    "alert.resolved": (
        "A previously fired alert rule's condition cleared",
        ("rule", "value", "threshold"),
    ),
    "profile.phase": (
        "Opt-in cProfile capture of one pipeline phase",
        ("phase", "calls", "total_ms", "top"),
    ),
    "pool.broken": (
        "The worker pool died mid-map and tasks were rerun serially",
        ("n_workers", "n_tasks"),
    ),
    "service.path": (
        "A fleet-service path registry transition",
        ("path", "action", "generation"),
    ),
    "service.shed": (
        "Backpressure shed pending windows fleet-wide",
        ("policy", "backlog", "shed", "paths"),
    ),
    "service.coarsen": (
        "Backpressure changed the fleet's window stride",
        ("policy", "backlog", "action", "factor", "paths"),
    ),
    "service.round": (
        "One fleet-service loop cycle finished",
        ("cycle", "ingested", "dropped", "windows", "backlog", "dur_ms"),
    ),
    "trace.window": (
        "Per-stage record-to-verdict latency breakdown of one window",
        ("path", "window", "stages"),
    ),
    "slo.status": (
        "One SLO evaluation pass (burn rates and remaining budget)",
        ("slo", "burn_fast", "burn_slow", "budget_remaining", "breaching"),
    ),
    "model.health": (
        "Per-window model-health verdict (goodness of fit + drift)",
        ("path", "window", "health", "reasons", "alarms"),
    ),
}

#: (name, type, labels, help) for every metric family the stack emits.
METRICS: List[Tuple[str, str, Tuple[str, ...], str]] = [
    ("repro_span_seconds", "histogram", ("name",),
     "Duration of timed spans, by span name."),
    ("repro_em_fits_total", "counter", ("model",),
     "Completed multi-restart EM fits."),
    ("repro_em_restarts_total", "counter", ("model",),
     "Individual EM restarts run."),
    ("repro_em_iterations_total", "counter", ("model",),
     "EM iterations summed over restarts."),
    ("repro_em_nonconverged_total", "counter", ("model",),
     "Restarts that hit max_iter before the parameter tolerance."),
    ("repro_em_restart_wins_total", "counter", ("restart",),
     "Which restart index produced the winning log-likelihood."),
    ("repro_em_backend_fits_total", "counter", ("model", "kernel"),
     "Completed fits by forward-backward kernel (blocked or loop)."),
    ("repro_em_batch_occupancy_ratio", "histogram", ("model",),
     "Fraction of batch-row slots doing useful work per batched fit."),
    ("repro_em_masked_iterations_total", "counter", ("model",),
     "Row iterations skipped because converged restarts were masked."),
    ("repro_selection_total", "counter", ("model", "chosen_n"),
     "BIC model-order selections, by chosen hidden-state count."),
    ("repro_streaming_fits_total", "counter", ("mode",),
     "Per-window streaming fits, by mode (warm or cold)."),
    ("repro_streaming_fallbacks_total", "counter", ("reason",),
     "Warm-start trajectories abandoned for a cold refit."),
    ("repro_windows_total", "counter", (),
     "Monitor windows that reached analysis."),
    ("repro_windows_skipped_total", "counter", ("reason",),
     "Monitor windows skipped, by reason."),
    ("repro_windows_dropped_total", "counter", (),
     "Pending windows dropped to backlog pressure."),
    ("repro_window_verdicts_total", "counter", ("verdict",),
     "Per-window verdicts from analyzed windows."),
    ("repro_verdict_changes_total", "counter", (),
     "Stable-verdict flips after hysteresis."),
    ("repro_window_lag_seconds", "histogram", (),
     "Wall-clock lag from window assembly to verdict emission."),
    ("repro_pending_windows", "gauge", (),
     "Completed windows waiting for a fit."),
    ("repro_drain_rounds_total", "counter", ("mode",),
     "Multi-path drain rounds, by drain mode (fused or pool)."),
    ("repro_drain_windows_total", "counter", ("mode",),
     "Windows resolved by drain rounds, by drain mode."),
    ("repro_drain_round_seconds", "histogram", ("mode",),
     "Wall-clock duration of one multi-path drain round."),
    ("repro_drain_pad_waste_ratio", "histogram", (),
     "Fraction of fused mega-batch slots wasted on ragged padding."),
    ("repro_probes_loaded_total", "counter", (),
     "Probe records loaded from observation files."),
    ("repro_losses_loaded_total", "counter", (),
     "Loss records loaded from observation files."),
    ("repro_stationarity_checks_total", "counter", ("result",),
     "Stationarity-gate evaluations, by outcome."),
    ("repro_alerts_fired_total", "counter", ("rule", "severity"),
     "Alert rules whose condition started holding, by rule name."),
    ("repro_watchdog_stalls_total", "counter", (),
     "Watchdog stall detections (no heartbeat within the timeout)."),
    ("repro_pool_breaks_total", "counter", (),
     "Worker-pool crashes recovered by a serial rerun."),
    ("repro_service_paths", "gauge", ("status",),
     "Registered fleet-service paths, by registry status."),
    ("repro_service_records_total", "counter", (),
     "Probe records accepted by the fleet service."),
    ("repro_service_records_dropped_total", "counter", ("reason",),
     "Probe records dropped at the service boundary, by reason."),
    ("repro_service_backlog_windows", "gauge", (),
     "Fleet-wide pending windows awaiting a drain (O(1) scheduler "
     "counter)."),
    ("repro_service_rounds_total", "counter", (),
     "Fleet-service loop cycles completed."),
    ("repro_service_windows_total", "counter", (),
     "Windows resolved by fleet-service drain cycles."),
    ("repro_service_shed_windows_total", "counter", (),
     "Pending windows shed by the backpressure policy."),
    ("repro_service_coarsen_total", "counter", ("action",),
     "Backpressure window-stride transitions (coarsen or restore)."),
    ("repro_service_http_requests_total", "counter",
     ("route", "method", "code"),
     "Fleet-service HTTP API requests, by route and status code."),
    ("repro_service_http_seconds", "histogram", ("route",),
     "Fleet-service HTTP API request latency, by route."),
    ("repro_trace_stage_seconds", "histogram", ("stage",),
     "Per-stage record-to-verdict latency decomposition."),
    ("repro_record_to_verdict_seconds", "histogram", (),
     "Freshness of published verdicts: last record to verdict."),
    ("repro_traces_total", "counter", (),
     "Record-to-verdict traces finalized at verdict publication."),
    ("repro_slo_burn_rate", "gauge", ("slo", "window"),
     "Error-budget burn rate per SLO, by alerting window (fast/slow)."),
    ("repro_slo_burn_rate_min", "gauge", ("slo",),
     "Minimum of the fast/slow burn rates (the both-windows-burning "
     "condition the compiled alert rules watch)."),
    ("repro_slo_budget_remaining", "gauge", ("slo",),
     "Unconsumed error-budget fraction over the SLO window."),
    ("repro_model_health", "gauge", ("path",),
     "Per-path model-health score in [0, 1] (1 = assumptions hold)."),
    ("repro_model_health_min", "gauge", (),
     "Fleet-wide minimum model-health score (alerting surface)."),
    ("repro_model_drift_alarms_total", "counter", ("detector",),
     "Drift-detector alarms on model-health inputs, by detector."),
]

#: Series the monitor preregisters at zero so scrapes (and the CI
#: telemetry job) always see the families, even before the first
#: fallback or verdict flip.  (name, label dicts to pre-create).
MONITOR_SERIES: List[Tuple[str, List[dict]]] = [
    ("repro_streaming_fits_total",
     [{"mode": "warm"}, {"mode": "cold"}]),
    ("repro_streaming_fallbacks_total",
     [{"reason": "zero-likelihood"}, {"reason": "non-finite-loglik"},
      {"reason": "non-monotone"}]),
    ("repro_windows_total", [{}]),
    ("repro_windows_skipped_total",
     [{"reason": "nonstationary"}, {"reason": "no-losses"},
      {"reason": "degenerate"}]),
    ("repro_windows_dropped_total", [{}]),
    ("repro_window_verdicts_total",
     [{"verdict": "strong"}, {"verdict": "weak"}, {"verdict": "none"}]),
    ("repro_verdict_changes_total", [{}]),
    ("repro_drain_rounds_total",
     [{"mode": "fused"}, {"mode": "pool"}]),
    ("repro_drain_windows_total",
     [{"mode": "fused"}, {"mode": "pool"}]),
    ("repro_watchdog_stalls_total", [{}]),
    ("repro_pool_breaks_total", [{}]),
    ("repro_service_records_total", [{}]),
    ("repro_service_records_dropped_total",
     [{"reason": "unregistered"}, {"reason": "paused"},
      {"reason": "stale-generation"}]),
    ("repro_service_rounds_total", [{}]),
    ("repro_service_windows_total", [{}]),
    ("repro_service_shed_windows_total", [{}]),
    ("repro_service_coarsen_total",
     [{"action": "coarsen"}, {"action": "restore"}]),
    ("repro_traces_total", [{}]),
    # The health *gauges* are deliberately absent: a zero-valued
    # repro_model_health_min series would instantly trip the
    # ``model-health-degraded`` (< 0.5) rule before any window ran.
    ("repro_model_drift_alarms_total",
     [{"detector": "cusum"}, {"detector": "page-hinkley"},
      {"detector": "chi-square"}]),
]


def validate_event(event: dict) -> List[str]:
    """Schema problems of one decoded event (empty list = valid)."""
    problems = []
    for field in ("ts", "wall", "pid", "kind"):
        if field not in event:
            problems.append(f"missing envelope field {field!r}")
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"unknown kind {kind!r}")
        return problems
    _, required = EVENT_KINDS[kind]
    for field in required:
        if field not in event:
            problems.append(f"{kind}: missing field {field!r}")
    return problems


#: Histogram families whose durations sit well under the default 1ms
#: bucket floor (queue waits, publish hops) — preregistered with the
#: tracing layer's finer bucket edges.
_FINE_HISTOGRAMS = ("repro_trace_stage_seconds",
                    "repro_record_to_verdict_seconds")


def preregister(registry) -> None:
    """Describe every family and create the monitor's zero-valued series."""
    from repro.obs.trace import STAGE_BUCKETS

    for name, kind, _labels, help_text in METRICS:
        buckets = STAGE_BUCKETS if name in _FINE_HISTOGRAMS else None
        registry.describe(name, help_text, buckets=buckets)
    for name, label_sets in MONITOR_SERIES:
        for labels in label_sets:
            registry.inc(name, 0.0, **labels)
