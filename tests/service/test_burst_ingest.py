"""Burst admission: one registry decision and one array write per poll."""

import numpy as np
import pytest

from repro import obs
from repro.experiments.streams import strong_dcl_stream
from repro.obs import trace as trace_mod
from repro.service import FleetService

from tests.service.conftest import fast_config

BURST = 200


def records(n, start=0):
    stop = start + n
    return [(0.02 * i, 0.02 + 0.001 * (i % 5)) for i in range(start, stop)]


def dropped_counter(reason):
    counters = obs.registry().snapshot()["counters"]
    return counters.get(("repro_service_records_dropped_total",
                         (("reason", reason),)))


def assembler_of(service, path):
    return service.monitor._paths[path].assembler


class TestBurstAdmission:
    @pytest.mark.parametrize("reason", ["unregistered", "stale-generation",
                                        "paused"])
    def test_dropped_burst_counts_one_drop_per_record(self, reason):
        obs.enable(clear=True)
        service = FleetService(base_config=fast_config())
        generation = None
        if reason != "unregistered":
            service.register("pA")
        if reason == "stale-generation":
            service.deregister("pA")
            service.register("pA")
            generation = 1
        if reason == "paused":
            service.pause("pA")
        assert service.ingest_many("pA", records(BURST),
                                   generation=generation) == reason
        assert service.ingest_many("pA", records(BURST, BURST),
                                   generation=generation) == reason
        service.step()
        assert dropped_counter(reason) == 2 * BURST
        entry = service.registry.get("pA")
        if entry is not None:
            assert entry.n_dropped == 2 * BURST
            assert entry.n_records == 0
            assert assembler_of(service, "pA").n_pushed == 0

    def test_admitted_burst_counts_every_record(self):
        obs.enable(clear=True)
        service = FleetService(base_config=fast_config())
        service.register("pA")
        assert service.ingest_many("pA", records(BURST)) is None
        assert service.ingest("pA", 0.02 * BURST, 0.02) is None
        service.step()
        counters = obs.registry().snapshot()["counters"]
        assert counters[("repro_service_records_total", ())] == BURST + 1
        assert service.registry.get("pA").n_records == BURST + 1
        assert assembler_of(service, "pA").n_pushed == BURST + 1

    def test_poll_admits_whole_bursts(self):
        from repro.service import IterableSource

        service = FleetService(base_config=fast_config(), burst=BURST)
        stream = list(strong_dcl_stream(3 * BURST + 50, seed=5))
        service.register("pA", source=IterableSource(iter(stream)))
        summaries = [service.step() for _ in range(4)]
        assert [s["ingested"] for s in summaries] == [BURST] * 3 + [50]
        assert assembler_of(service, "pA").n_pushed == len(stream)


class TestMalformedBursts:
    @pytest.mark.parametrize("bad", [
        None, "x", (0.1,), (0.1, 0.02, 0.5), (None, 0.02), (0.1, "x"),
    ])
    def test_raises_and_buffers_nothing(self, bad):
        service = FleetService(base_config=fast_config())
        service.register("pA")
        service.ingest_many("pA", records(10))
        burst = records(5, 10)
        burst.insert(2, bad)
        with pytest.raises((TypeError, ValueError)):
            service.ingest_many("pA", burst)
        assert assembler_of(service, "pA").n_pushed == 10
        assert service.registry.get("pA").n_records == 10
        assert service.n_ingested == 10

    @pytest.mark.parametrize("send_time, delay, error", [
        (None, 0.02, TypeError), (0.1, None, TypeError),
        ("x", 0.02, ValueError), (0.1, "x", ValueError),
    ])
    def test_one_record_path_raises_the_same(self, send_time, delay, error):
        service = FleetService(base_config=fast_config())
        service.register("pA")
        with pytest.raises(error):
            service.ingest("pA", send_time, delay)
        with pytest.raises(error):
            service.ingest_many("pA", [(0.0, 0.02), (send_time, delay)])
        assert assembler_of(service, "pA").n_pushed == 0


class TestBurstTracing:
    def test_stamps_start_at_the_first_traced_burst(self):
        config = fast_config(window=3 * BURST, hop=3 * BURST)
        service = FleetService(base_config=config)
        service.register("pA")
        assembler = assembler_of(service, "pA")
        service.ingest_many("pA", records(BURST))
        assert assembler._stamps is None
        trace_mod.enable_tracing()
        service.ingest_many("pA", records(BURST, BURST))
        first = assembler._last_stamp
        service.ingest_many("pA", records(BURST, 2 * BURST))
        last = assembler._last_stamp
        # A loss-free window resolves (and is published) at ingest.
        (event,) = service.monitor.events
        assert service.verdict_snapshot("pA")["recent"][-1]["window"] == 0
        assert event.trace.ingest_first == first
        assert event.trace.ingest_last == last
        assert first <= last <= event.trace.assembled_at
        stamps = assembler._recent(assembler._stamps)
        assert np.isnan(stamps[:BURST]).all()
        assert (stamps[BURST:2 * BURST] == first).all()
        assert (stamps[2 * BURST:] == last).all()

    def test_tracing_off_stamps_and_stores_nothing(self):
        config = fast_config(window=2 * BURST, hop=2 * BURST)
        service = FleetService(base_config=config)
        service.register("pA")
        assembler = assembler_of(service, "pA")
        trace_mod.enable_tracing()
        service.ingest_many("pA", records(BURST))
        trace_mod.disable_tracing()
        service.ingest_many("pA", records(BURST, BURST))
        assert assembler._stamps is None
        (event,) = service.monitor.events
        assert event.trace is None
