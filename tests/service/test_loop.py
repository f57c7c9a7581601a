"""Tests for the FleetService loop: parity, admission, overload, events."""

import io
import json

import numpy as np

from repro import obs
from repro.experiments.streams import strong_dcl_stream
from repro.obs import schema
from repro.service import (BackpressurePolicy, FleetService, IterableSource,
                           QueueSource)

from tests.service.conftest import event_keys, fast_config, payload_keys
from tests.streaming.fleet import reference_events


def collecting_service(**kwargs):
    """A FleetService whose emitted payloads land in the returned list."""
    payloads = []
    kwargs.setdefault("base_config", fast_config())
    service = FleetService(emit_fn=payloads.append, **kwargs)
    return service, payloads


class TestParityWithOfflineMonitor:
    def test_verdict_streams_match_run_streams(self):
        """The service adds scheduling around the scheduler, never a
        different fit path: per-path verdict streams are byte-identical
        to an offline run over the same records, one window at a time
        (``PathMonitor``)."""
        streams = {f"p{i}": list(strong_dcl_stream(1800, seed=40 + i))
                   for i in range(2)}
        reference = {path: event_keys(events) for path, events
                     in reference_events(streams, fast_config()).items()}

        service, payloads = collecting_service()
        for path, records in streams.items():
            service.register(path, source=IterableSource(iter(records)))
        service.run(exit_when_idle=True, interval=0.0)
        got = payload_keys(payloads)
        for path in streams:
            assert [k for k in got if f'"path": "{path}"' in k] == \
                   reference[path]
        assert len(got) == sum(map(len, reference.values())) > 0


class TestAdmission:
    def test_unregistered_records_drop(self):
        service, _ = collecting_service()
        assert service.ingest("ghost", 0.0, 0.02) == "unregistered"
        assert service.monitor.n_pending == 0

    def test_paused_path_drops_until_resume(self):
        service, _ = collecting_service()
        service.register("pA")
        service.pause("pA")
        assert service.ingest("pA", 0.0, 0.02) == "paused"
        service.resume("pA")
        assert service.ingest("pA", 0.02, 0.02) is None
        entry = service.registry.get("pA")
        assert entry.n_records == 1
        assert entry.n_dropped == 1

    def test_stale_generation_after_reregistration(self):
        service, _ = collecting_service()
        service.register("pA")
        service.deregister("pA")
        service.register("pA")  # generation 2
        assert service.ingest("pA", 0.0, 0.02, generation=1) == \
            "stale-generation"
        assert service.ingest("pA", 0.0, 0.02, generation=2) is None

    def test_exhausted_source_late_records_drop_after_reregister(self):
        """An old incarnation's queue keeps its generation binding: its
        late pushes drop instead of feeding the new incarnation."""
        service, _ = collecting_service()
        old_queue = QueueSource()
        service.register("pA", source=old_queue)
        service.step()
        service.deregister("pA")
        service.register("pA")
        service.attach_source("pA", QueueSource())
        # Records that were still in flight for generation 1:
        assert service.ingest("pA", 0.0, 0.02, generation=1) == \
            "stale-generation"

    def test_deregister_discards_pending_windows(self):
        service, _ = collecting_service()
        service.register("pA")
        for send_time, delay in strong_dcl_stream(1500, seed=41):
            service.ingest("pA", send_time, delay)
        assert service.monitor.n_pending > 0
        out = service.deregister("pA")
        assert out["discarded_windows"] > 0
        assert service.monitor.n_pending == 0


class TestLoop:
    def test_exit_when_idle_terminates_and_flushes(self):
        service, payloads = collecting_service()
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(1500, seed=42)))
        cycles = service.run(exit_when_idle=True, interval=0.0)
        assert cycles >= 1
        assert service.monitor.n_pending == 0
        # 1500 records at hop 300: windows 0..3 via drains plus the
        # 1200..1500 tail flushed by finish().
        assert [p["window"] for p in payloads] == [0, 1, 2, 3]

    def test_max_cycles_bounds_the_run(self):
        service, _ = collecting_service()
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(9000, seed=42)))
        assert service.run(max_cycles=3) == 3

    def test_stop_is_sticky_until_rerun(self):
        service, _ = collecting_service()
        service.stop()
        assert service.run(max_cycles=5) == 0

    def test_shed_under_overload_keeps_backlog_bounded(self):
        """2x-style overload: a burst far beyond the drain budget sheds
        down to the low watermark instead of growing without bound."""
        service, payloads = collecting_service(
            backpressure=BackpressurePolicy(mode="shed", high_watermark=6,
                                            low_watermark=2),
            burst=6000,
        )
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(6000, seed=43)))
        summary = service.step()
        assert summary["shed"] > 0
        assert service.backpressure.n_shed_windows == summary["shed"]
        # Everything that survived the shed was drained this cycle.
        assert summary["backlog"] == 0
        assert summary["windows"] == 2
        # Shed windows are the oldest; survivors are the most recent.
        assert [p["window"] for p in payloads] == [17, 18]

    def test_coarsen_under_overload_then_restore(self):
        service, _ = collecting_service(
            backpressure=BackpressurePolicy(mode="coarsen",
                                            high_watermark=6,
                                            low_watermark=2),
            burst=6000,
        )
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(12000, seed=43)))
        first = service.step()
        assert first["coarsened"]
        assert service.monitor.path_hops() == {"pA": 600}
        restored = False
        for _ in range(4):  # restore engages once the backlog clears
            if service.step()["restored"]:
                restored = True
                break
        assert restored
        assert service.monitor.path_hops() == {"pA": 300}


class TestSnapshots:
    def test_path_snapshot_tracks_backlog_and_latest(self):
        service, _ = collecting_service()
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(1500, seed=44)))
        before = service.path_snapshot()
        assert before[0]["latest"] is None
        service.run(exit_when_idle=True, interval=0.0)
        after = service.path_snapshot()
        assert after[0]["latest"]["window"] == 3
        assert after[0]["backlog"] == 0

    def test_verdict_snapshot_carries_bounds_and_history(self):
        service, _ = collecting_service()
        service.register(
            "pA", source=IterableSource(strong_dcl_stream(1800, seed=44)))
        service.run(exit_when_idle=True, interval=0.0)
        snapshot = service.verdict_snapshot("pA")
        assert snapshot["path"] == "pA"
        latest = snapshot["latest"]
        # The verdict payload carries the paper quantities the API
        # promises: G pmf, Q_k tail bound, and window lag.
        assert set(latest) >= {"g_pmf", "d_star", "bound_seconds",
                               "stable_verdict", "lag_ms"}
        assert [p["window"] for p in snapshot["recent"]] == \
            list(range(len(snapshot["recent"])))
        assert service.verdict_snapshot("ghost") is None

    def test_fleet_snapshot_histogram_and_drain(self):
        service, _ = collecting_service()
        for i in range(2):
            service.register(
                f"p{i}",
                source=IterableSource(strong_dcl_stream(1800, seed=45 + i)))
        service.run(exit_when_idle=True, interval=0.0)
        fleet = service.fleet_snapshot()
        assert fleet["paths"] == {"active": 2, "paused": 0}
        assert fleet["backlog"] == 0
        assert sum(fleet["verdicts"].values()) == 2
        assert fleet["last_drain"]["mode"] == "fused"
        assert fleet["backpressure"]["mode"] == "off"


class TestTelemetry:
    def test_events_and_metrics_are_schema_valid(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        obs.enable(events=str(events_path), clear=True)
        try:
            service, _ = collecting_service(
                backpressure=BackpressurePolicy(mode="shed",
                                                high_watermark=6,
                                                low_watermark=2),
                burst=6000,
            )
            service.register(
                "pA",
                source=IterableSource(strong_dcl_stream(6000, seed=46)))
            service.step()
            service.pause("pA")
            service.resume("pA")
            service.deregister("pA")
        finally:
            obs.disable()
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        kinds = {event["kind"] for event in events}
        assert {"service.path", "service.round", "service.shed"} <= kinds
        for event in events:
            assert schema.validate_event(event) == [], event
        actions = [e["action"] for e in events
                   if e["kind"] == "service.path"]
        assert actions == ["register", "pause", "resume", "deregister"]

    def test_service_counters_and_gauges_update(self):
        obs.enable(clear=True)
        try:
            service, _ = collecting_service()
            service.register(
                "pA",
                source=IterableSource(strong_dcl_stream(1500, seed=47)))
            service.ingest("ghost", 0.0, 0.02)
            service.run(exit_when_idle=True, interval=0.0)
            registry = obs.registry()
            counters = {
                (name, labels): value
                for (name, labels), value in
                registry.snapshot()["counters"].items()
            }
            assert counters[("repro_service_records_total", ())] == 1500
            assert counters[("repro_service_records_dropped_total",
                             (("reason", "unregistered"),))] == 1
            assert counters[("repro_service_rounds_total", ())] >= 1
            assert counters[("repro_service_windows_total", ())] == 4
            gauges = registry.snapshot()["gauges"]
            assert gauges[("repro_service_backlog_windows", ())] == 0
            assert gauges[("repro_service_paths",
                           (("status", "active"),))] == 1
        finally:
            obs.disable()


def loss_free(n, seed=9):
    """``n`` stationary loss-free records: every window is a skip."""
    delays = 0.02 + 0.1 * np.random.default_rng(seed).random(n)
    return list(zip((0.02 * np.arange(n)).tolist(), delays.tolist()))


class TestIngestTimePublication:
    def test_skip_publishes_before_the_cycles_drain(self):
        """A quiet path's window is published while the sources are
        polled, before the drain that fits the congested path's window
        (registered first); the cycle's ``windows``, its
        ``service.round`` event and the windows counter count both."""
        sink = io.StringIO()
        obs.enable(events=sink, clear=True)
        try:
            service, payloads = collecting_service(burst=600)
            published_at_drain = []
            drain = service.monitor.drain

            def recording_drain():
                published_at_drain.append(
                    [(p["path"], p["window"]) for p in payloads])
                return drain()

            service.monitor.drain = recording_drain
            service.register("congested", source=IterableSource(
                iter(list(strong_dcl_stream(600, seed=40)))))
            service.register("quiet",
                             source=IterableSource(iter(loss_free(600))))
            summary = service.step()
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
        assert published_at_drain == [[("quiet", 0)]]
        assert [(p["path"], p["window"]) for p in payloads] == \
            [("quiet", 0), ("congested", 0)]
        assert payloads[0]["reason"] == "no-losses"
        assert payloads[1]["status"] == "ok"
        assert summary["windows"] == 2
        assert service.fleet_snapshot()["windows"] == 2
        assert counters[("repro_service_windows_total", ())] == 2
        (round_event,) = [json.loads(line) for line in
                          sink.getvalue().splitlines()
                          if json.loads(line)["kind"] == "service.round"]
        assert round_event["windows"] == 2

    def test_windows_published_outside_a_cycle_count_in_the_next(self):
        service, payloads = collecting_service()
        service.register("quiet")
        assert service.ingest_many("quiet", loss_free(900)) is None
        assert [p["window"] for p in payloads] == [0, 1]
        assert service.step()["windows"] == 2
        assert service.step()["windows"] == 0

