"""Record-to-verdict tracing: stamps, stage math, retention, parity."""

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import (STAGE_BUCKETS, TraceStore, WindowTrace,
                             disable_tracing, enable_tracing, is_tracing)
from repro.streaming.windows import SlidingWindowAssembler


def _snapshot_histogram(name, **labels):
    key_labels = tuple(sorted(labels.items()))
    snap = obs.registry().snapshot()
    for (metric, lbls), payload in snap["histograms"].items():
        if metric == name and tuple(lbls) == key_labels:
            return payload
    return None


class TestTracingSwitch:
    def test_flag_round_trip(self):
        assert not is_tracing()
        enable_tracing()
        assert is_tracing()
        disable_tracing()
        assert not is_tracing()

    def test_enable_describes_fine_buckets(self):
        enable_tracing()
        obs.enable()
        obs.observe("repro_trace_stage_seconds", 0.0002, stage="queue")
        buckets, counts, _total, count = _snapshot_histogram(
            "repro_trace_stage_seconds", stage="queue")
        assert tuple(buckets) == STAGE_BUCKETS
        assert count == 1
        assert counts[1] == 1  # 0.0002 lands in the 0.00025 bucket


class TestWindowTraceStages:
    def test_stage_decomposition(self):
        trace = WindowTrace(ingest_first=1.0, ingest_last=2.0,
                            assembled_at=2.0)
        trace.drain_started = 2.5
        trace.fit_started = 2.6
        trace.fit_ended = 3.1
        stages = trace.finalize("p0", 4, published_at=3.2)
        assert stages["ingest"] == pytest.approx(1.0)
        assert stages["queue"] == pytest.approx(0.5)
        assert stages["fit"] == pytest.approx(0.5)
        assert stages["publish"] == pytest.approx(0.1)
        assert stages["total"] == pytest.approx(1.2)

    def test_unreached_stages_are_none(self):
        trace = WindowTrace(ingest_first=1.0, ingest_last=2.0,
                            assembled_at=2.0)
        stages = trace.stages()
        assert stages["queue"] is None
        assert stages["fit"] is None
        assert stages["total"] is None

    def test_stage_durations_clamp_at_zero(self):
        # A clock oddity must never produce a negative duration.
        trace = WindowTrace(ingest_first=2.0, ingest_last=2.0,
                            assembled_at=1.5)
        assert trace.stages()["ingest"] == 0.0

    def test_finalize_records_metrics_and_event(self):
        obs.enable()
        events = []
        obs.bus().add_tap(lambda e: events.append(e))
        trace = WindowTrace(ingest_first=0.0, ingest_last=1.0,
                            assembled_at=1.0)
        trace.drain_started = 1.1
        trace.fit_started = 1.1
        trace.fit_ended = 1.3
        trace.finalize("p0", 0, published_at=1.4)
        traced = [e for e in events if e["kind"] == "trace.window"]
        assert len(traced) == 1
        assert traced[0]["path"] == "p0"
        assert traced[0]["stages"]["total"] == pytest.approx(0.4)
        _b, _c, total, count = _snapshot_histogram(
            "repro_record_to_verdict_seconds")
        assert count == 1
        assert total == pytest.approx(0.4)

    def test_finalize_without_telemetry_still_returns_stages(self):
        trace = WindowTrace(ingest_first=0.0, ingest_last=1.0,
                            assembled_at=1.0)
        stages = trace.finalize("p0", 0, published_at=2.0)
        assert stages["total"] == pytest.approx(1.0)
        assert obs.registry().snapshot()["histograms"] == {}

    def test_to_dict_carries_stamps_and_filtered_stages(self):
        trace = WindowTrace(ingest_first=0.0, ingest_last=1.0,
                            assembled_at=1.0)
        trace.finalize("p9", 3, published_at=1.5)
        d = trace.to_dict()
        assert d["path"] == "p9"
        assert d["window"] == 3
        assert "queue" not in d["stages"]  # never drained
        assert d["stamps"]["drain_started"] is None
        assert d["stamps"]["published_at"] == 1.5


def _finalized(path, window, total):
    trace = WindowTrace(ingest_first=0.0, ingest_last=0.0, assembled_at=0.0)
    trace.drain_started = 0.0
    trace.fit_started = 0.0
    trace.fit_ended = total
    trace.finalize(path, window, published_at=total)
    return trace


class TestTraceStore:
    def test_per_path_ring_is_bounded_oldest_first(self):
        store = TraceStore(per_path=2, slowest=8)
        for i in range(4):
            store.add(_finalized("a", i, total=float(i)))
        traces = store.path_traces("a")
        assert [t["window"] for t in traces] == [2, 3]

    def test_slowest_is_sorted_and_capped(self):
        store = TraceStore(per_path=8, slowest=2)
        for i, total in enumerate([0.1, 0.9, 0.5]):
            store.add(_finalized("a", i, total=total))
        slowest = store.slowest()
        assert [t["stages"]["total"] for t in slowest] == [0.9, 0.5]

    def test_forget_drops_path_but_keeps_exemplars(self):
        store = TraceStore()
        store.add(_finalized("a", 0, total=1.0))
        store.forget("a")
        assert store.path_traces("a") == []
        assert store.paths() == []
        assert len(store.slowest()) == 1

    def test_unknown_path_is_empty(self):
        assert TraceStore().path_traces("nope") == []


class TestAssemblerStamping:
    def test_tracing_off_attaches_no_trace(self):
        assembler = SlidingWindowAssembler(window=4, hop=4)
        emitted = None
        for i in range(4):
            emitted = assembler.push(float(i), 0.01) or emitted
        assert emitted is not None
        assert emitted.trace is None

    def test_tracing_on_stamps_ingest_and_assembly(self):
        enable_tracing()
        assembler = SlidingWindowAssembler(window=4, hop=4)
        emitted = None
        for i in range(4):
            emitted = assembler.push(float(i), 0.01) or emitted
        trace = emitted.trace
        assert trace is not None
        assert trace.ingest_first <= trace.ingest_last <= trace.assembled_at
        assert trace.stages()["ingest"] >= 0.0

    def test_ingest_stamps_are_monotone_despite_clock_regression(self):
        # Force the clamp: pretend the previous stamp came from far in
        # the future, then keep pushing — stamps must never go backwards.
        enable_tracing()
        assembler = SlidingWindowAssembler(window=4, hop=4)
        assembler.push(0.0, 0.01)
        future = assembler._last_stamp + 1e6
        assembler._last_stamp = future
        for i in range(1, 4):
            assembler.push(float(i), 0.01)
        stamps = list(assembler._recent(assembler._stamps))
        assert stamps == sorted(stamps)
        assert all(s >= future for s in stamps[1:])

    def test_overlapping_windows_reuse_retained_stamps(self):
        enable_tracing()
        assembler = SlidingWindowAssembler(window=4, hop=2)
        windows = []
        for i in range(8):
            emitted = assembler.push(float(i), 0.01)
            if emitted is not None:
                windows.append(emitted)
        assert len(windows) == 3
        for window in windows:
            trace = window.trace
            assert trace.ingest_first <= trace.ingest_last
        # Later windows start no earlier than earlier ones.
        firsts = [w.trace.ingest_first for w in windows]
        assert firsts == sorted(firsts)

    def test_npushed_still_counts_with_tracing(self):
        enable_tracing()
        assembler = SlidingWindowAssembler(window=2, hop=2)
        assembler.push(0.0, np.nan)
        assert assembler.n_pushed == 1
