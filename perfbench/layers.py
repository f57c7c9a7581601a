"""Which program functions the traced run wraps, and the per-layer metrics.

Every span is named ``<module>.<what>`` after the layer that owns the
wrapped function.  Functions are wrapped where their caller looks them
up: ``repro.streaming.scheduler`` imported ``prepare_window`` from the
tracker, so the scheduler's binding and the tracker's own binding are
wrapped separately (each call passes through exactly one wrapper).  A
function that a later version of the program no longer has is listed in
:attr:`LayerProbe.missing` and its layer reads 0; the run still works.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Dict, List

from tracer import Tracer

#: M of the identification fit (IdentifyConfig default); any other M
#: reaching ``repro.core.virtual_delay.fit_mmhd`` is the Q_k bound refit.
IDENTIFY_SYMBOLS = 5


def _infos_from(args, kwargs) -> list:
    infos = kwargs.get("infos")
    if infos is None and len(args) > 3:
        infos = args[3]
    return list(infos or [])


def _seq_from(args, kwargs):
    return kwargs["seq"] if "seq" in kwargs else args[0]


class LayerProbe:
    """Installs the layer spans on a :class:`Tracer` and derives metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: List[str] = []
        #: Every ``record_backend`` info dict, in call order.
        self.backend_infos: List[dict] = []
        #: ``perf_counter`` stamps of windows waiting for the next drain,
        #: appended by the replay sources when they hand over the record
        #: that completes a window.
        self.ready: List[float] = []
        self.queue_waits: List[float] = []
        self._ingest_phase = None
        self.fits = 0
        self.converged = 0

    # ------------------------------------------------------------------
    def _patch(self, module: str, attr: str, name: str, **hooks) -> None:
        owner_path, _, cls = attr.rpartition(".")
        try:
            owner = importlib.import_module(module)
            if owner_path:
                owner = getattr(owner, owner_path)
            getattr(owner, cls)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        self.tracer.patch(owner, cls, name, **hooks)

    def install(self) -> None:
        """Wrap every layer function the benchmark's workloads reach."""
        # -- service ----------------------------------------------------
        self._install_cycle()
        # -- streaming --------------------------------------------------
        self._patch("repro.streaming.scheduler", "MultiPathMonitor.drain",
                    "streaming.drain", before=self._drain_starts)
        for module in ("repro.streaming.scheduler", "repro.streaming.tracker"):
            self._patch(module, "prepare_window", "streaming.prepare",
                        hook=self._after_prepare)
            self._patch(module, "finish_window", "streaming.finish")
        self._patch("repro.streaming.scheduler", "analyze_window",
                    "streaming.analyze")
        self._patch("repro.streaming.tracker", "VerdictTracker.event_for",
                    "streaming.track")
        self._patch("repro.streaming.scheduler", "fused_streaming_fits",
                    "models.fused_fit", hook=self._after_fused)
        self._patch("repro.streaming.online_em", "fit_mmhd",
                    "streaming.cold_fit", before=self._fit_mark,
                    hook=self._after_fit("cold"))
        # -- measurement ------------------------------------------------
        self._patch("repro.streaming.tracker", "observation_is_stationary",
                    "measurement.gate")
        self._patch("repro.measurement.traceio", "load_observation",
                    "measurement.load", hook=self._after_load)
        # -- core -------------------------------------------------------
        self._patch("repro.core.discretize",
                    "DelayDiscretizer.from_observation", "core.discretize")
        self._patch("repro.core.discretize",
                    "DelayDiscretizer.observation_sequence", "core.discretize")
        for module in ("repro.core.identify", "repro.streaming.tracker"):
            self._patch(module, "evaluate_distribution", "core.tests")
        self._patch("repro.core.identify", "identify", "core.identify")
        self._patch("repro.core.identify", "estimate_bound", "core.bound")
        self._install_batch_fit()
        self._install_backend_probe()
        # -- obs --------------------------------------------------------
        self._patch("repro.obs", "emit", "obs.emit")
        self._patch("repro.obs.tsdb", "TimeSeriesStore.collect",
                    "obs.tsdb_collect")
        self._patch("repro.obs.slo", "SLOEvaluator.evaluate", "obs.slo_eval")
        self._patch("repro.obs.alerts", "AlertEngine.evaluate",
                    "obs.alert_eval")
        self._patch("repro.obs.trace", "TraceStore.add", "obs.trace_store")
        self._patch("repro.obs.health", "HealthStore.add", "obs.health")
        self._patch("repro.obs.health", "PathHealth.update", "obs.health")
        self._patch("repro.streaming.tracker", "compute_window_diagnostics",
                    "obs.health")

    def _install_cycle(self) -> None:
        """``FleetService.step`` as ``service.cycle``, with its ingest phase.

        Records are admitted millions of times per run, so the record
        path is timed as one phase per cycle rather than per call: the
        ``service.ingest`` span opens when a cycle starts and closes when
        the cycle hands over to backpressure (or, failing that, to the
        drain).  Its self time is the record path, the replay sources'
        polls being its children.
        """
        try:
            module = importlib.import_module("repro.service.loop")
            original = module.FleetService.step
        except (ImportError, AttributeError):
            self.missing.append("repro.service.loop.FleetService.step")
            return
        tracer = self.tracer
        cycle = tracer.wrap("service.cycle", self._phased(original),
                            hook=self._after_cycle)
        tracer.substitute(module.FleetService, "step", cycle)
        try:
            backpressure = importlib.import_module(
                "repro.service.backpressure").BackpressurePolicy
            apply = backpressure.apply
        except (ImportError, AttributeError):
            self.missing.append(
                "repro.service.backpressure.BackpressurePolicy.apply")
            return

        def apply_after_ingest(*args, **kwargs):
            self._end_ingest()
            return apply(*args, **kwargs)

        tracer.substitute(backpressure, "apply", apply_after_ingest)

    def _phased(self, step):
        def step_with_ingest_phase(*args, **kwargs):
            self._ingest_phase = self.tracer.begin("service.ingest")
            try:
                return step(*args, **kwargs)
            finally:
                self._end_ingest()
        return step_with_ingest_phase

    def _end_ingest(self) -> None:
        if self._ingest_phase is not None:
            phase, self._ingest_phase = self._ingest_phase, None
            self.tracer.end(phase)

    def _install_batch_fit(self) -> None:
        """``fit_mmhd`` as the batch pipeline calls it, split by M."""
        try:
            module = importlib.import_module("repro.core.virtual_delay")
            original = module.fit_mmhd
        except (ImportError, AttributeError):
            self.missing.append("repro.core.virtual_delay.fit_mmhd")
            return
        fit = self.tracer.wrap("models.fit", original,
                               before=self._fit_mark,
                               hook=self._after_fit("fit"))
        bound = self.tracer.wrap("models.bound_fit", original,
                                 before=self._fit_mark,
                                 hook=self._after_fit("bound"))

        def fit_mmhd(*args, **kwargs):
            seq = _seq_from(args, kwargs)
            chosen = fit if seq.n_symbols == IDENTIFY_SYMBOLS else bound
            return chosen(*args, **kwargs)

        self.tracer.substitute(module, "fit_mmhd", fit_mmhd)

    def _install_backend_probe(self) -> None:
        """Capture the iteration accounting every fit reports (untimed)."""
        try:
            module = importlib.import_module("repro.models.batched")
            original = module.record_backend
        except (ImportError, AttributeError):
            self.missing.append("repro.models.batched.record_backend")
            return
        infos = self.backend_infos

        def record_backend(*args, **kwargs):
            infos.extend(_infos_from(args, kwargs))
            return original(*args, **kwargs)

        self.tracer.substitute(module, "record_backend", record_backend)

    # ------------------------------------------------------------------
    # Hooks (run after the span closes, outside the measured layer)
    # ------------------------------------------------------------------
    def _after_cycle(self, summary, args, kwargs, end, entered) -> None:
        self.tracer.count("service.records", summary.get("ingested", 0))
        self.tracer.count("service.dropped_records",
                          summary.get("dropped", 0))

    def _drain_starts(self, args, kwargs) -> None:
        self._end_ingest()
        now = time.perf_counter()
        self.queue_waits.extend(now - ready for ready in self.ready)
        self.ready.clear()

    def _after_prepare(self, result, args, kwargs, end, entered) -> None:
        skip = getattr(result, "skip", None)
        if skip is not None:
            reason = str(skip.reason or "unknown").split(":")[0].strip()
            self.tracer.count(f"streaming.skipped_{reason}")

    def _after_fused(self, result, args, kwargs, end, entered) -> None:
        results, info = result
        t = self.tracer
        t_max = info.get("t_max", 0)
        iterations = info.get("batch_iterations", 0)
        rows = info.get("rows", 0)
        active = info.get("active_row_iterations", 0)
        occupancy = info.get("occupancy", 1.0)
        t.count("fused.iterations", iterations)
        t.count("fused.steps", iterations * t_max)
        t.count("fused.rows", rows)
        t.count("fused.active", active)
        t.count("fused.iter_slots", active / occupancy if occupancy else 0.0)
        slots = rows * t_max
        t.count("fused.slots", slots)
        t.count("fused.padded", info.get("pad_fraction", 0.0) * slots)
        for fit in results:
            self.fits += 1
            self.converged += bool(fit.fitted.converged)

    def _fit_mark(self, args, kwargs) -> int:
        return len(self.backend_infos)

    def _after_fit(self, kind: str):
        def hook(result, args, kwargs, end, mark) -> None:
            seq = _seq_from(args, kwargs)
            infos = self.backend_infos[mark:]
            iterations = sum(i.get("batch_iterations", 0) for i in infos)
            self.tracer.count(f"{kind}.iterations", iterations)
            self.tracer.count(f"{kind}.steps", iterations * len(seq))
            if kind == "cold":
                self.fits += 1
                self.converged += bool(result.converged)
        return hook

    def _after_load(self, result, args, kwargs, end, entered) -> None:
        self.tracer.count("measurement.rows", len(result))

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics (name -> value) of the traced run."""
        t = self.tracer
        c = t.counts.get

        def per_step(span: str, steps: str) -> float:
            n = c(steps, 0.0)
            return t.self_s(span) / n * 1e6 if n else 0.0

        slots = c("fused.iter_slots", 0.0)
        pad_slots = c("fused.slots", 0.0)
        waits = self.queue_waits
        return {
            "models.fused_fit_s": t.self_s("models.fused_fit"),
            "models.fused_us_per_step": per_step("models.fused_fit",
                                                 "fused.steps"),
            "models.batch_iterations": c("fused.iterations", 0.0),
            "models.occupancy": (c("fused.active", 0.0) / slots
                                 if slots else 0.0),
            "streaming.pad_fraction": (c("fused.padded", 0.0) / pad_slots
                                       if pad_slots else 0.0),
            "streaming.fused_rows": c("fused.rows", 0.0),
            "streaming.cold_fit_s": t.self_s("streaming.cold_fit"),
            "streaming.cold_fits": float(t.calls("streaming.cold_fit")),
            "models.cold_iterations": c("cold.iterations", 0.0),
            "models.cold_us_per_step": per_step("streaming.cold_fit",
                                                "cold.steps"),
            "models.converged_ratio": (self.converged / self.fits
                                       if self.fits else 0.0),
            "service.cycles": float(t.calls("service.cycle")),
            "service.cycle_s": t.self_s("service.cycle"),
            "service.ingest_s": t.self_s("service.ingest"),
            "service.records": c("service.records", 0.0),
            "service.dropped_records": c("service.dropped_records", 0.0),
            "streaming.prepare_s": t.self_s("streaming.prepare"),
            "measurement.gate_s": t.self_s("measurement.gate"),
            "streaming.skipped_nonstationary": c(
                "streaming.skipped_nonstationary", 0.0),
            "streaming.skipped_no_losses": c("streaming.skipped_no-losses",
                                             0.0),
            "streaming.finish_s": t.self_s("streaming.finish"),
            "streaming.track_s": t.self_s("streaming.track"),
            "streaming.queue_wait_ms": (statistics.median(waits) * 1e3
                                        if waits else 0.0),
            "streaming.drain_s": t.self_s("streaming.drain"),
            "obs.events": float(t.calls("obs.emit")),
            "obs.emit_s": t.self_s("obs.emit"),
            "obs.tsdb_collect_s": t.self_s("obs.tsdb_collect"),
            "obs.slo_eval_s": t.self_s("obs.slo_eval"),
            "obs.alert_eval_s": t.self_s("obs.alert_eval"),
            "obs.trace_store_s": t.self_s("obs.trace_store"),
            "obs.health_s": t.self_s("obs.health"),
            "measurement.load_s": t.self_s("measurement.load"),
            "measurement.rows": c("measurement.rows", 0.0),
            "core.discretize_s": t.self_s("core.discretize"),
            "models.fit_s": t.self_s("models.fit"),
            "models.fit_iterations": c("fit.iterations", 0.0),
            "models.fit_us_per_step": per_step("models.fit", "fit.steps"),
            "core.tests_s": t.self_s("core.tests"),
            "models.bound_fit_s": t.self_s("models.bound_fit"),
            "models.bound_iterations": c("bound.iterations", 0.0),
            "models.bound_us_per_step": per_step("models.bound_fit",
                                                 "bound.steps"),
        }
