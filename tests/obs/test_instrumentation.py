"""Integration tests: telemetry through the real identification stack.

These exercise the wiring rather than the units — EM fits feeding
counters and events, worker-pool metric merging staying deterministic,
tracker skip paths being visible, and every emitted event matching the
schema catalog.
"""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.models.base import LOSS, EMConfig, ObservationSequence
from repro.models.mmhd import fit_mmhd
from repro.netsim.trace import PathObservation
from repro.obs.schema import validate_event
from repro.parallel import parallel_map
from repro.streaming.tracker import (
    MonitorConfig,
    PathMonitor,
    VerdictTracker,
    WindowAnalysis,
)
from repro.streaming.windows import ProbeWindow

from tests.streaming.fleet import run_fleet

FAST_EM = EMConfig(tol=1e-3, max_iter=50, n_restarts=2, seed=3)


def toy_sequence(n=300, seed=0):
    rng = np.random.default_rng(seed)
    symbols = rng.integers(1, 4, size=n)
    symbols[rng.random(n) < 0.1] = LOSS
    return ObservationSequence(symbols, n_symbols=3)


def _metered_task(item):
    obs.inc("repro_test_tasks_total", 1.0, parity=item % 2)
    obs.observe("repro_test_seconds", 0.01 * (item + 1))
    return item * 2


class TestEMTelemetry:
    def test_fit_records_counters_and_events(self):
        stream = io.StringIO()
        obs.enable(events=stream)
        fit_mmhd(toy_sequence(), n_hidden=1, config=FAST_EM)
        reg = obs.registry()
        assert reg.counter_value("repro_em_fits_total", model="mmhd") == 1.0
        assert reg.counter_value("repro_em_restarts_total", model="mmhd") == 2.0
        assert reg.counter_value("repro_em_iterations_total",
                                 model="mmhd") > 0
        wins = sum(reg.counter_value("repro_em_restart_wins_total", restart=r)
                   for r in range(FAST_EM.n_restarts))
        assert wins == 1.0
        assert reg.histogram_count(obs.SPAN_SECONDS, name="em.fit") == 1

        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        by_kind = {}
        for event in events:
            assert validate_event(event) == [], event
            by_kind.setdefault(event["kind"], []).append(event)
        assert len(by_kind["em.restart"]) == 2
        (fit_event,) = by_kind["em.fit"]
        assert fit_event["n_restarts"] == 2
        assert len(fit_event["restart_logliks"]) == 2
        assert fit_event["loglik_dispersion"] >= 0.0
        # The winning restart's trajectory is reconstructable from the
        # per-restart events (the non-monotone-EM debugging workflow).
        best = by_kind["em.restart"][fit_event["best_restart"]]
        assert best["logliks"][-1] == pytest.approx(best["loglik"], abs=1e-5)

    def test_disabled_fit_records_nothing(self):
        fit_mmhd(toy_sequence(), n_hidden=1, config=FAST_EM)
        assert obs.registry().family_names() == []


def assert_snapshots_match(a, b):
    """Equality up to float round-off in histogram sums.

    Counts, buckets, and integer-valued counters merge exactly for any
    worker split; histogram *totals* are float sums whose grouping
    depends on which worker ran which task, so they match only to ulp.
    """
    assert a["counters"] == b["counters"]
    assert a["gauges"] == b["gauges"]
    assert set(a["histograms"]) == set(b["histograms"])
    for key, (buckets, counts, total, count) in a["histograms"].items():
        other_buckets, other_counts, other_total, other_count = \
            b["histograms"][key]
        assert buckets == other_buckets
        assert counts == other_counts
        assert count == other_count
        assert total == pytest.approx(other_total)


class TestParallelMerge:
    def test_metrics_identical_for_any_n_jobs(self):
        snapshots = []
        for n_jobs in (1, 2):
            obs.enable(clear=True)
            results = parallel_map(_metered_task, list(range(6)),
                                   n_jobs=n_jobs)
            assert results == [i * 2 for i in range(6)]
            snapshots.append(obs.metrics_snapshot())
            obs.disable()
        assert_snapshots_match(snapshots[0], snapshots[1])
        counters = snapshots[0]["counters"]
        assert counters[("repro_test_tasks_total",
                         (("parity", "0"),))] == 3.0
        assert counters[("repro_test_tasks_total",
                         (("parity", "1"),))] == 3.0

    def test_em_fit_metrics_identical_for_any_n_jobs(self):
        seq = toy_sequence()
        snapshots = []
        for n_jobs in (1, 2):
            obs.enable(clear=True)
            fit_mmhd(seq, n_hidden=1, config=FAST_EM.replace(n_jobs=n_jobs))
            snapshot = obs.metrics_snapshot()
            snapshot["histograms"].pop(("repro_span_seconds",
                                        (("name", "em.fit"),)), None)
            snapshots.append(snapshot)  # wall-clock span durations differ
            obs.disable()
        assert_snapshots_match(snapshots[0], snapshots[1])

    def test_disabled_telemetry_adds_no_wrapping(self):
        results = parallel_map(_metered_task, list(range(4)), n_jobs=2)
        assert results == [0, 2, 4, 6]
        assert obs.registry().family_names() == []


class TestTrackerTelemetry:
    @staticmethod
    def probe_window(index=0):
        n = 10
        observation = PathObservation(
            np.arange(n) * 0.02, np.full(n, 0.03)
        )
        return ProbeWindow(index=index, start=0, stop=n,
                           observation=observation)

    def test_skipped_window_increments_reason_counter(self):
        obs.enable()
        tracker = VerdictTracker(confirm=2, memory=3)
        analysis = WindowAnalysis(
            "skipped", reason="degenerate: zero queuing range"
        )
        event = tracker.event_for("p0", self.probe_window(), analysis)
        reg = obs.registry()
        # The full reason stays on the event; the metric label is the
        # bounded prefix.
        assert event.to_dict()["reason"] == "degenerate: zero queuing range"
        assert reg.counter_value("repro_windows_skipped_total",
                                 reason="degenerate") == 1.0
        assert reg.counter_value("repro_windows_total") == 0.0

    def test_analyzed_window_counts_verdicts_and_changes(self):
        obs.enable()
        tracker = VerdictTracker(confirm=1, memory=3)
        for index in range(2):
            tracker.event_for("p0", self.probe_window(index),
                              WindowAnalysis("ok", verdict="strong"))
        reg = obs.registry()
        assert reg.counter_value("repro_windows_total") == 2.0
        assert reg.counter_value("repro_window_verdicts_total",
                                 verdict="strong") == 2.0
        assert reg.counter_value("repro_verdict_changes_total") == 1.0
        assert reg.histogram_count("repro_window_lag_seconds") == 2

    def test_skip_logs_even_with_telemetry_off(self, caplog):
        tracker = VerdictTracker(confirm=2, memory=3)
        with caplog.at_level("INFO", logger="repro.streaming.tracker"):
            tracker.event_for("p0", self.probe_window(),
                              WindowAnalysis("skipped", reason="no-losses"))
        assert any("skipped" in record.message and "no-losses" in str(record.args)
                   for record in caplog.records)
        assert obs.registry().family_names() == []


class TestMonitorEventStream:
    def test_every_emitted_event_is_schema_valid(self):
        from repro.experiments.streams import strong_dcl_stream

        stream = io.StringIO()
        obs.enable(events=stream)
        config = MonitorConfig(window=600, hop=300, n_hidden=1,
                               confirm=2, memory=3,
                               gate_stationarity=False, em=FAST_EM)
        monitor = PathMonitor(config, path="p0")
        events = monitor.run(list(strong_dcl_stream(1500, seed=20)))
        assert events

        emitted = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        assert emitted
        kinds = {event["kind"] for event in emitted}
        assert {"span", "streaming.fit", "window"} <= kinds
        for event in emitted:
            assert validate_event(event) == [], event
        window_events = [e for e in emitted if e["kind"] == "window"]
        assert len(window_events) == len(events)
        reg = obs.registry()
        fits = (reg.counter_value("repro_streaming_fits_total", mode="warm")
                + reg.counter_value("repro_streaming_fits_total", mode="cold"))
        assert fits == len([e for e in events if e.analysis.analyzed])

    def test_drain_rounds_emit_telemetry(self):
        from repro.experiments.streams import strong_dcl_stream

        stream = io.StringIO()
        obs.enable(events=stream)
        config = MonitorConfig(window=600, hop=300, n_hidden=1,
                               confirm=2, memory=3,
                               gate_stationarity=False, em=FAST_EM)
        events = run_fleet(
            {f"p{i}": list(strong_dcl_stream(900, seed=20 + i))
             for i in range(2)}, config)
        assert events

        emitted = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        rounds = [e for e in emitted if e["kind"] == "drain.round"]
        assert rounds
        for event in rounds:
            assert validate_event(event) == [], event
            assert event["mode"] == "fused"
            assert 0.0 <= event["pad_fraction"] <= 1.0
        assert sum(e["windows"] for e in rounds) == len(events)
        assert any(e["groups"] >= 1 and e["rows"] >= 1 for e in rounds)
        reg = obs.registry()
        assert reg.counter_value("repro_drain_rounds_total",
                                 mode="fused") == len(rounds)
        assert reg.counter_value("repro_drain_windows_total",
                                 mode="fused") == len(events)
