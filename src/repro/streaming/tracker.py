"""Per-window verdict tracking: analysis, hysteresis, and path monitors.

Each completed sliding window runs the same procedure as the batch
pipeline — discretize, fit (warm-started; :mod:`repro.streaming
.online_em`), run the SDCL/WDCL tests, bound ``Q_k`` — but a live monitor
must not flap its verdict every time one noisy window lands on the other
side of a test threshold.  :class:`VerdictTracker` therefore applies
K-of-N hysteresis: the *stable* verdict only switches to a value that
appeared in at least ``confirm`` of the last ``memory`` analysed windows.

Windows the method is not valid for are skipped rather than fatal:

* loss-free windows, which the fit would reject (:class:`~repro.models
  .base.InsufficientLossError`), become ``status="skipped"``,
  ``reason="no-losses"`` events without being symbolized;
* windows failing the :func:`~repro.measurement.stationarity
  .observation_is_stationary` gate are skipped as ``nonstationary``;
* degenerate windows (no surviving probes, zero queuing range) are
  skipped as ``degenerate``.

Skipped windows emit events (so downstream consumers see the monitor is
alive) but neither update the hysteresis state nor the warm-start
parameters.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import Deque, List, Optional

import numpy as np

from repro import obs
from repro.core.discretize import DelayDiscretizer
from repro.core.distributions import DelayDistribution
from repro.core.identify import (
    IdentifyConfig,
    evaluate_distribution,
    verdict_from_tests,
)
from repro.measurement.stationarity import observation_is_stationary
from repro.models.base import EMConfig, InsufficientLossError
from repro.models.diagnostics import compute_window_diagnostics
from repro.netsim.trace import PathObservation
from repro.obs import health as health_mod
from repro.obs.profiling import profile_phase
from repro.parallel import STREAM_MONITOR, task_seed
from repro.streaming.online_em import WarmState, streaming_fit
from repro.streaming.windows import ProbeWindow, SlidingWindowAssembler

__all__ = [
    "MonitorConfig",
    "WindowAnalysis",
    "VerdictEvent",
    "VerdictTracker",
    "PathMonitor",
    "PreparedWindow",
    "analyze_window",
    "prepare_window",
    "fit_window",
    "finish_window",
]

_LOG = obs.get_logger(__name__)


class MonitorConfig:
    """Knobs of the streaming monitor.

    Defaults target the paper's probing rate (20 ms period, 50 probes/s):
    a 3000-probe window is one minute of path state, hopped by half a
    window so congestion transitions are never split across a boundary,
    and 3-of-5 hysteresis means a verdict change needs ~1.5 min of
    consistent evidence before it is surfaced.

    Parameters
    ----------
    window, hop:
        Sliding-window geometry in probes (``hop`` defaults to
        ``window // 2``).
    confirm, memory:
        K-of-N hysteresis: the stable verdict switches to a value seen in
        at least ``confirm`` of the last ``memory`` analysed windows.
    gate_stationarity:
        Skip windows that fail the stationarity bands (the identification
        method assumes stationarity over the analysed record).
    """

    def __init__(
        self,
        window: int = 3000,
        hop: Optional[int] = None,
        n_symbols: int = 5,
        n_hidden: int = 2,
        model: str = "mmhd",
        beta0: float = 0.06,
        beta1: float = 0.0,
        tolerance: float = 1e-3,
        confirm: int = 3,
        memory: int = 5,
        gate_stationarity: bool = True,
        stationarity_window: Optional[int] = None,
        delay_tolerance: float = 0.2,
        loss_tolerance: float = 0.05,
        em: Optional[EMConfig] = None,
    ):
        if model not in ("mmhd", "hmm"):
            raise ValueError(f"model must be 'mmhd' or 'hmm', got {model!r}")
        if confirm < 1 or memory < confirm:
            raise ValueError(
                f"need 1 <= confirm <= memory, got confirm={confirm}, "
                f"memory={memory}"
            )
        self.window = int(window)
        self.hop = int(hop) if hop is not None else self.window // 2
        self.n_symbols = int(n_symbols)
        self.n_hidden = int(n_hidden)
        self.model = model
        self.beta0 = float(beta0)
        self.beta1 = float(beta1)
        self.tolerance = float(tolerance)
        self.confirm = int(confirm)
        self.memory = int(memory)
        self.gate_stationarity = bool(gate_stationarity)
        self.stationarity_window = stationarity_window
        self.delay_tolerance = float(delay_tolerance)
        self.loss_tolerance = float(loss_tolerance)
        self.em = em or EMConfig()

    def identify_config(self) -> IdentifyConfig:
        """The equivalent batch-pipeline configuration."""
        return IdentifyConfig(
            n_symbols=self.n_symbols,
            n_hidden=self.n_hidden,
            model=self.model,
            beta0=self.beta0,
            beta1=self.beta1,
            tolerance=self.tolerance,
            em=self.em,
        )


class WindowAnalysis:
    """Everything one window's analysis produced (picklable)."""

    __slots__ = (
        "status",
        "reason",
        "verdict",
        "g_pmf",
        "d_star",
        "bound_seconds",
        "loss_rate",
        "log_likelihood",
        "n_iter",
        "warm_used",
        "fallback_reason",
        "warm_state",
        "diagnostics",
    )

    def __init__(
        self,
        status: str,
        reason: Optional[str] = None,
        verdict: Optional[str] = None,
        g_pmf: Optional[np.ndarray] = None,
        d_star: Optional[int] = None,
        bound_seconds: Optional[float] = None,
        loss_rate: float = 0.0,
        log_likelihood: Optional[float] = None,
        n_iter: Optional[int] = None,
        warm_used: bool = False,
        fallback_reason: Optional[str] = None,
        warm_state: Optional[WarmState] = None,
        diagnostics=None,
    ):
        self.status = status
        self.reason = reason
        self.verdict = verdict
        self.g_pmf = g_pmf
        self.d_star = d_star
        self.bound_seconds = bound_seconds
        self.loss_rate = float(loss_rate)
        self.log_likelihood = log_likelihood
        self.n_iter = n_iter
        self.warm_used = bool(warm_used)
        self.fallback_reason = fallback_reason
        self.warm_state = warm_state
        # Goodness-of-fit byproducts (repro.models.diagnostics), present
        # only when model-health observability is enabled; rides next to
        # the payload like PR 8's traces, never inside to_dict().
        self.diagnostics = diagnostics

    @property
    def analyzed(self) -> bool:
        """Whether the window produced a verdict (vs being skipped)."""
        return self.status == "ok"


class PreparedWindow:
    """Stage-1 output of a window analysis: gated and discretized.

    Either ``skip`` carries the terminal :class:`WindowAnalysis` (the
    window never reaches the fit stage) or ``seq``/``discretizer``/``em``
    are populated and the window is ready for :func:`fit_window` — or for
    the scheduler's fused drain, which stacks many prepared windows'
    fits into one ragged mega-batch.
    """

    __slots__ = ("skip", "seq", "discretizer", "em", "loss_rate")

    def __init__(self, skip=None, seq=None, discretizer=None, em=None,
                 loss_rate: float = 0.0):
        self.skip: Optional[WindowAnalysis] = skip
        self.seq = seq
        self.discretizer = discretizer
        self.em: Optional[EMConfig] = em
        self.loss_rate = float(loss_rate)


def prepare_window(
    observation: PathObservation,
    config: MonitorConfig,
    window_index: int = 0,
) -> PreparedWindow:
    """Stationarity gate + discretization + per-window EM seeding.

    The window's losses are counted once.  A loss-free window ends as a
    ``no-losses`` skip right after the discretizer's range check (so a
    ``degenerate`` window keeps that reason), without being symbolized.

    Cold fits get a per-window seed derived from ``(em.seed,
    STREAM_MONITOR, window_index)`` so fallback refits are deterministic
    but decorrelated across windows.
    """
    n_lost = int(np.count_nonzero(np.isnan(observation.delays)))
    loss_rate = n_lost / len(observation) if len(observation) else 0.0

    def skip(reason: str) -> PreparedWindow:
        return PreparedWindow(skip=WindowAnalysis(
            "skipped", reason=reason, loss_rate=loss_rate),
            loss_rate=loss_rate)

    if config.gate_stationarity and not observation_is_stationary(
        observation,
        window=config.stationarity_window,
        delay_tolerance=config.delay_tolerance,
        loss_tolerance=config.loss_tolerance,
    ):
        return skip("nonstationary")
    try:
        discretizer = DelayDiscretizer.from_observation(
            observation, config.n_symbols
        )
        seq = discretizer.observation_sequence(observation) if n_lost else None
    except ValueError as exc:
        return skip(f"degenerate: {exc}")
    if seq is None:
        # Resolved here so the fused drain filters such windows up front
        # while the per-window path produces the identical analysis.
        return skip("no-losses")
    em = config.em.replace(
        seed=task_seed(config.em.seed, STREAM_MONITOR, window_index),
        n_jobs=1,
    )
    return PreparedWindow(seq=seq, discretizer=discretizer, em=em,
                          loss_rate=loss_rate)


def fit_window(
    prepared: PreparedWindow,
    warm: Optional[WarmState],
    config: MonitorConfig,
):
    """Stage 2: the warm-started EM fit of one prepared window.

    Returns the :class:`~repro.streaming.online_em.StreamingFitResult`,
    or ``None`` when the fit is impossible for lack of losses (resolved
    to a skip by :func:`finish_window`).
    """
    try:
        with profile_phase("window.fit"):
            return streaming_fit(
                prepared.seq, config.n_hidden, config=prepared.em,
                kind=config.model, warm=warm,
            )
    except InsufficientLossError:  # pragma: no cover - caught in prepare
        return None


def finish_window(
    prepared: PreparedWindow,
    result,
    config: MonitorConfig,
    window_index: int = 0,
) -> WindowAnalysis:
    """Stage 3: tests, verdict, and the ``Q_k`` bound for one fit."""
    loss_rate = prepared.loss_rate
    if result is None:  # pragma: no cover - defensive, see fit_window
        return WindowAnalysis("skipped", reason="no-losses",
                              loss_rate=loss_rate)
    discretizer = prepared.discretizer
    fitted = result.fitted
    distribution = DelayDistribution(
        fitted.virtual_delay_pmf,
        discretizer=discretizer,
        label=f"{config.model.upper()} window {window_index}",
    )
    identify_config = config.identify_config()
    sdcl, wdcl = evaluate_distribution(distribution, identify_config)
    verdict = verdict_from_tests(sdcl, wdcl)
    bound_seconds = None
    if verdict != "none":
        accepted = sdcl if sdcl.accepted else wdcl
        bound_symbol = min(accepted.d_star, discretizer.n_symbols)
        bound_seconds = discretizer.queuing_upper_edge(bound_symbol)
    diagnostics = None
    if health_mod.is_health_enabled():
        # One dedicated E-pass over the *final* fitted model: the fit
        # path is untouched, so fused/per-window verdict parity holds by
        # construction whether health is on or off.
        diagnostics = compute_window_diagnostics(
            fitted.model, prepared.seq,
            g_pmf=fitted.virtual_delay_pmf, beta0=config.beta0,
        )
    return WindowAnalysis(
        "ok",
        verdict=verdict,
        g_pmf=np.asarray(fitted.virtual_delay_pmf, dtype=float),
        d_star=int((sdcl if sdcl.accepted else wdcl).d_star),
        bound_seconds=bound_seconds,
        loss_rate=loss_rate,
        log_likelihood=float(fitted.log_likelihood),
        n_iter=int(fitted.n_iter),
        warm_used=result.warm_used,
        fallback_reason=result.fallback_reason,
        warm_state=result.warm_state(),
        diagnostics=diagnostics,
    )


def analyze_window(
    observation: PathObservation,
    warm: Optional[WarmState],
    config: MonitorConfig,
    window_index: int = 0,
) -> WindowAnalysis:
    """Run the identification procedure on one window (pure function).

    Stateless by design: everything it needs arrives as arguments and
    everything it learned (including the next warm state) leaves in the
    returned :class:`WindowAnalysis`, which is what lets the multi-path
    scheduler run it in worker processes.

    Exactly the composition ``prepare_window -> fit_window ->
    finish_window``; the scheduler's fused drain runs the same three
    stages with the middle one batched across windows, which is why a
    fleet's events equal :class:`PathMonitor`'s byte for byte.
    """
    prepared = prepare_window(observation, config, window_index)
    if prepared.skip is not None:
        return prepared.skip
    result = fit_window(prepared, warm, config)
    return finish_window(prepared, result, config, window_index)


class VerdictEvent:
    """One JSONL-able monitor event: a window's outcome plus stable state."""

    __slots__ = (
        "path",
        "window_index",
        "probe_range",
        "time_range",
        "analysis",
        "stable_verdict",
        "changed",
        "lag_seconds",
        "trace",
        "health",
        "confidence",
    )

    def __init__(
        self,
        path: str,
        probe_window: ProbeWindow,
        analysis: WindowAnalysis,
        stable_verdict: Optional[str],
        changed: bool,
    ):
        self.path = path
        self.window_index = probe_window.index
        self.probe_range = (probe_window.start, probe_window.stop)
        self.time_range = probe_window.time_range
        self.analysis = analysis
        self.stable_verdict = stable_verdict
        self.changed = bool(changed)
        now = time.monotonic()
        assembled_at = getattr(probe_window, "assembled_at", None)
        #: wall-clock delay from window assembly to verdict emission
        self.lag_seconds: Optional[float] = (
            None if assembled_at is None
            else max(0.0, now - assembled_at)
        )
        # The trace rides next to the payload, never inside to_dict():
        # verdict streams stay byte-identical with tracing on or off.
        self.trace = getattr(probe_window, "trace", None)
        if self.trace is not None:
            self.trace.finalize(path, probe_window.index, now)
        # Model health rides the same way: attributes only, stamped by
        # VerdictTracker.event_for when health scoring is enabled.
        self.health = None
        self.confidence: Optional[float] = None

    def to_dict(self) -> dict:
        """Plain-JSON projection (the ``repro monitor`` JSONL schema)."""
        a = self.analysis
        return {
            "path": self.path,
            "window": self.window_index,
            "probe_range": list(self.probe_range),
            "time_range": [round(t, 6) for t in self.time_range],
            "status": a.status,
            "reason": a.reason,
            "verdict": a.verdict,
            "stable_verdict": self.stable_verdict,
            "changed": self.changed,
            "g_pmf": None if a.g_pmf is None else [round(float(p), 6)
                                                   for p in a.g_pmf],
            "d_star": a.d_star,
            "bound_seconds": None if a.bound_seconds is None
            else round(float(a.bound_seconds), 6),
            "loss_rate": round(a.loss_rate, 6),
            "log_likelihood": None if a.log_likelihood is None
            else round(a.log_likelihood, 4),
            "n_iter": a.n_iter,
            "warm_start": a.warm_used,
            "fallback_reason": a.fallback_reason,
            "lag_ms": None if self.lag_seconds is None
            else round(self.lag_seconds * 1e3, 3),
        }


def _skip_label(reason: Optional[str]) -> str:
    """Metric label for a skip reason (``"degenerate: msg"`` and friends
    collapse to their prefix so label cardinality stays bounded)."""
    return str(reason or "unknown").split(":")[0].strip()


def _record_window(event: VerdictEvent) -> None:
    """Telemetry for one resolved window (analyzed or skipped)."""
    a = event.analysis
    if not a.analyzed:
        _LOG.info(
            "window %d on path %r skipped: %s",
            event.window_index, event.path, a.reason,
        )
    elif event.changed:
        _LOG.info(
            "path %r stable verdict changed to %r at window %d",
            event.path, event.stable_verdict, event.window_index,
        )
    if not obs.is_enabled():
        return
    if a.analyzed:
        obs.inc("repro_windows_total")
        obs.inc("repro_window_verdicts_total", 1.0, verdict=a.verdict)
        if event.changed:
            obs.inc("repro_verdict_changes_total")
    else:
        obs.inc("repro_windows_skipped_total", 1.0,
                reason=_skip_label(a.reason))
    if event.lag_seconds is not None:
        obs.observe("repro_window_lag_seconds", event.lag_seconds)
    obs.emit(
        "window",
        path=event.path,
        window=event.window_index,
        status=a.status,
        reason=a.reason,
        verdict=a.verdict,
        stable_verdict=event.stable_verdict,
        changed=event.changed,
        warm_used=a.warm_used,
        fallback_reason=a.fallback_reason,
        lag_ms=None if event.lag_seconds is None
        else round(event.lag_seconds * 1e3, 3),
    )


class VerdictTracker:
    """K-of-N hysteresis over per-window verdicts."""

    def __init__(self, confirm: int, memory: int):
        if confirm < 1 or memory < confirm:
            raise ValueError(
                f"need 1 <= confirm <= memory, got {confirm}, {memory}"
            )
        self.confirm = int(confirm)
        self.memory = int(memory)
        self.recent: Deque[str] = deque(maxlen=memory)
        self.stable_verdict: Optional[str] = None
        #: Lazily created per-path health roll-up (health enabled only).
        self.health: Optional[health_mod.PathHealth] = None

    def update(self, verdict: str) -> bool:
        """Record one analysed window's verdict; returns stable-changed."""
        self.recent.append(verdict)
        if sum(v == verdict for v in self.recent) >= self.confirm:
            if verdict != self.stable_verdict:
                self.stable_verdict = verdict
                return True
        return False

    def event_for(
        self, path: str, probe_window: ProbeWindow, analysis: WindowAnalysis
    ) -> VerdictEvent:
        """Fold one analysis into the hysteresis state; emit the event."""
        changed = False
        if analysis.analyzed:
            changed = self.update(analysis.verdict)
        event = VerdictEvent(
            path, probe_window, analysis, self.stable_verdict, changed
        )
        if health_mod.is_health_enabled():
            if self.health is None:
                self.health = health_mod.PathHealth()
            report = self.health.update(
                getattr(analysis, "diagnostics", None), probe_window.index)
            report.finalize(path, probe_window.index)
            event.health = report
            event.confidence = health_mod.verdict_confidence(
                report.health, self.recent, self.stable_verdict)
        _record_window(event)
        return event


class PathMonitor:
    """One path's full streaming stack: windows -> warm fits -> verdicts.

    Fits one window at a time with :func:`analyze_window`: the
    per-window reference.  The multi-path scheduler
    (:class:`repro.streaming.scheduler.MultiPathMonitor`) composes the
    same pieces with each round's fits stacked into one fused batch,
    and must emit, per path, exactly this monitor's events.
    """

    def __init__(self, config: Optional[MonitorConfig] = None,
                 path: str = "path"):
        self.config = config or MonitorConfig()
        self.path = path
        self.assembler = SlidingWindowAssembler(self.config.window,
                                                self.config.hop)
        self.tracker = VerdictTracker(self.config.confirm, self.config.memory)
        self.warm: Optional[WarmState] = None

    def _process(self, probe_window: ProbeWindow) -> VerdictEvent:
        analysis = analyze_window(
            probe_window.observation, self.warm, self.config,
            window_index=probe_window.index,
        )
        if analysis.warm_state is not None:
            self.warm = analysis.warm_state
        return self.tracker.event_for(self.path, probe_window, analysis)

    def ingest(self, send_time: float, delay: float) -> Optional[VerdictEvent]:
        """Push one probe record; returns an event when a window completes."""
        probe_window = self.assembler.push(send_time, delay)
        if probe_window is None:
            return None
        return self._process(probe_window)

    def finish(self) -> Optional[VerdictEvent]:
        """Analyse the trailing partial window at end-of-stream, if any."""
        probe_window = self.assembler.tail()
        if probe_window is None:
            return None
        return self._process(probe_window)

    def run(self, records) -> List[VerdictEvent]:
        """Drive the monitor over an iterable of ``(send_time, delay)``,
        one hop-sized burst at a time."""
        events = []
        iterator = iter(records)
        while True:
            burst = list(islice(iterator, self.config.hop))
            if not burst:
                break
            events.extend(self._process(probe_window)
                          for probe_window in self.assembler.extend(burst))
        final = self.finish()
        if final is not None:
            events.append(final)
        return events
