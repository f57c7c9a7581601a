"""Unit tests for the JSONL event bus and the facade switches."""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.obs.events import EventBus, json_default


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestEventBus:
    def test_disabled_bus_is_a_noop(self):
        bus = EventBus()
        bus.emit("span", name="x")
        assert bus.n_emitted == 0

    def test_path_sink_writes_one_json_object_per_line(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink)
        bus.emit("traceio.load", path="a.csv", n_probes=10, n_losses=2)
        bus.emit("traceio.load", path="b.csv", n_probes=5, n_losses=0)
        bus.close()
        events = read_events(sink)
        assert [e["path"] for e in events] == ["a.csv", "b.csv"]
        for event in events:
            assert set(event) >= {"ts", "wall", "pid", "kind"}
            assert event["kind"] == "traceio.load"

    def test_envelope_fields_win_over_payload_collisions(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink)
        bus.emit("window", kind="bogus", pid=-1, ts="later", path="p0")
        bus.close()
        (event,) = read_events(sink)
        assert event["kind"] == "window"
        assert event["pid"] != -1
        assert isinstance(event["ts"], float)
        assert event["path"] == "p0"

    def test_stream_sink(self):
        stream = io.StringIO()
        bus = EventBus()
        bus.configure(stream)
        bus.emit("span", name="x", span="1-1", parent=None, dur_ms=0.1)
        assert bus.path is None
        event = json.loads(stream.getvalue())
        assert event["name"] == "x"

    def test_appends_across_reconfigure(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink)
        bus.emit("span", name="first")
        bus.close()
        bus.configure(sink)
        bus.emit("span", name="second")
        bus.close()
        assert [e["name"] for e in read_events(sink)] == ["first", "second"]

    def test_torn_down_sink_never_raises(self):
        stream = io.StringIO()
        bus = EventBus()
        bus.configure(stream)
        stream.close()
        bus.emit("span", name="x")  # must not raise
        assert not bus.enabled
        assert bus.n_emitted == 0

    def test_numpy_payloads_serialize(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink)
        bus.emit("em.restart", loglik=np.float64(-12.5),
                 n_iter=np.int64(7), logliks=np.array([-13.0, -12.5]))
        bus.close()
        (event,) = read_events(sink)
        assert event["loglik"] == -12.5
        assert event["n_iter"] == 7
        assert event["logliks"] == [-13.0, -12.5]

    def test_json_default_falls_back_to_str(self):
        assert json_default(object()).startswith("<object")


class TestFacade:
    def test_off_by_default_and_entry_points_noop(self):
        assert not obs.is_enabled()
        obs.inc("repro_test_total")
        obs.set_gauge("repro_test_gauge", 1.0)
        obs.observe("repro_test_seconds", 0.1)
        obs.emit("span", name="x")
        assert obs.registry().family_names() == []
        assert obs.bus().n_emitted == 0

    def test_enable_disable_cycle(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        obs.enable(events=sink)
        assert obs.is_enabled()
        obs.inc("repro_test_total")
        obs.emit("traceio.load", path="x", n_probes=1, n_losses=0)
        obs.disable()
        assert not obs.is_enabled()
        # Metrics survive disable; events stop.
        assert obs.registry().counter_value("repro_test_total") == 1.0
        obs.emit("traceio.load", path="y", n_probes=1, n_losses=0)
        assert len(sink.read_text().splitlines()) == 1

    def test_enable_clear_drops_old_samples(self):
        obs.enable()
        obs.inc("repro_test_total", 5.0)
        obs.enable(clear=True)
        assert obs.registry().counter_value("repro_test_total") == 0.0

    def test_current_config_round_trip_for_path_sinks(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        obs.enable(events=sink)
        config = obs.current_config()
        assert config == {"enabled": True, "events": str(sink)}
        obs.disable()
        obs.apply_config(config)
        assert obs.is_enabled()
        assert obs.bus().path == sink

    def test_stream_sinks_do_not_travel_to_workers(self):
        obs.enable(events=io.StringIO())
        config = obs.current_config()
        assert config == {"enabled": True, "events": None}

    def test_apply_disabled_config_turns_telemetry_off(self):
        obs.enable()
        obs.apply_config({"enabled": False, "events": None})
        assert not obs.is_enabled()

    def test_get_logger_namespacing(self):
        assert obs.get_logger("models.mmhd").name == "repro.models.mmhd"
        assert obs.get_logger("repro.cli").name == "repro.cli"
        # The package root ships a NullHandler so imports never print.
        import logging

        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)


class TestTaps:
    def test_tap_sees_events_without_any_sink(self):
        bus = EventBus()
        seen = []
        bus.add_tap(seen.append)
        bus.emit("span", name="x", span="1-1", parent=None, dur_ms=0.5)
        assert len(seen) == 1
        assert seen[0]["kind"] == "span"
        assert {"ts", "wall", "pid"} <= set(seen[0])
        assert bus.n_emitted == 0  # nothing written: no sink

    def test_tap_and_sink_both_receive(self):
        stream = io.StringIO()
        bus = EventBus()
        bus.configure(stream)
        seen = []
        bus.add_tap(seen.append)
        bus.emit("span", name="x", span="1-1", parent=None, dur_ms=0.5)
        assert len(seen) == 1
        assert json.loads(stream.getvalue())["name"] == "x"
        assert bus.n_emitted == 1

    def test_add_tap_is_idempotent_and_remove_is_safe(self):
        bus = EventBus()
        seen = []
        bus.add_tap(seen.append)
        bus.add_tap(seen.append)
        bus.emit("span", name="x")
        assert len(seen) == 1
        bus.remove_tap(seen.append)
        bus.remove_tap(seen.append)  # second removal: no-op
        bus.emit("span", name="y")
        assert len(seen) == 1

    def test_tap_exceptions_never_break_emit(self):
        stream = io.StringIO()
        bus = EventBus()
        bus.configure(stream)

        def bad_tap(event):
            raise RuntimeError("observer bug")

        bus.add_tap(bad_tap)
        bus.emit("span", name="x")  # must not raise
        assert bus.n_emitted == 1


class TestRotation:
    def test_sink_rotates_at_max_bytes(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink, max_bytes=400)
        for i in range(20):
            bus.emit("span", name=f"span-{i}", span="1-1", parent=None,
                     dur_ms=1.0)
        bus.close()
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        assert bus.n_rotations >= 1
        names = [e["name"] for e in read_events(rotated)]
        names += [e["name"] for e in read_events(sink)]
        # Disk usage is bounded, so only a recent contiguous tail
        # survives — but every retained line is intact JSON, in order,
        # ending with the newest event.
        first = int(names[0].split("-")[1])
        assert names == [f"span-{i}" for i in range(first, 20)]
        assert sink.stat().st_size <= 400

    def test_rotation_keeps_exactly_one_old_generation(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        bus = EventBus()
        bus.configure(sink, max_bytes=200)
        for i in range(60):
            bus.emit("span", name=f"s{i}", span="1-1", parent=None,
                     dur_ms=1.0)
        bus.close()
        assert bus.n_rotations >= 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl", "events.jsonl.1"]

    def test_max_bytes_validation(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.configure(io.StringIO(), max_bytes=0)

    def test_facade_enable_passes_max_bytes(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        obs.enable(events=sink, max_bytes=300)
        for i in range(20):
            obs.emit("span", name=f"s{i}", span="1-1", parent=None,
                     dur_ms=1.0)
        obs.disable()
        assert (tmp_path / "events.jsonl.1").exists()
