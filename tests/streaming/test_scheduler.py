"""Tests for the multi-path monitor scheduler."""

import json

import pytest

from repro.experiments.streams import strong_dcl_stream
from repro.models.base import EMConfig
from repro.streaming.scheduler import MultiPathMonitor
from repro.streaming.tracker import MonitorConfig, PathMonitor

FAST_EM = EMConfig(tol=1e-3, max_iter=100, seed=7)


def fast_config(**overrides):
    defaults = dict(window=600, hop=300, n_hidden=1, confirm=2, memory=3,
                    gate_stationarity=False, em=FAST_EM)
    defaults.update(overrides)
    return MonitorConfig(**defaults)


def event_dicts(events):
    """Comparable projections: drop wall-clock timing (inherently noisy)."""
    dicts = []
    for e in events:
        d = e.to_dict()
        d.pop("lag_ms", None)
        dicts.append(json.dumps(d, sort_keys=True))
    return dicts


class TestDeterminism:
    def test_identical_events_for_any_n_jobs(self):
        streams = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                   for i in range(3)}
        serial = MultiPathMonitor(fast_config(), n_jobs=1)
        pooled = MultiPathMonitor(fast_config(), n_jobs=2)
        a = event_dicts(serial.run_streams(streams))
        b = event_dicts(pooled.run_streams(streams))
        assert a == b
        assert len(a) > 0

    def test_single_path_matches_path_monitor(self):
        records = list(strong_dcl_stream(1500, seed=20))
        multi = MultiPathMonitor(fast_config(), n_jobs=1)
        multi_events = multi.run_streams({"p0": records})
        single = PathMonitor(fast_config(), path="p0")
        single_events = single.run(records)
        assert event_dicts(multi_events) == event_dicts(single_events)


class TestFlowControl:
    def test_ingest_never_fits(self):
        monitor = MultiPathMonitor(fast_config(), max_pending=8)
        for send_time, delay in strong_dcl_stream(1500, seed=20):
            monitor.ingest("p0", send_time, delay)
        assert monitor.n_pending == 4  # windows at 600, 900, 1200, 1500
        assert len(monitor.events) == 0

    def test_backlog_drops_oldest(self):
        monitor = MultiPathMonitor(fast_config(), max_pending=2)
        for send_time, delay in strong_dcl_stream(3000, seed=20):
            monitor.ingest("p0", send_time, delay)
        # 9 windows complete but only 2 may wait.
        assert monitor.n_pending == 2
        assert monitor.dropped_windows == {"p0": 7}
        events = monitor.drain()
        # The retained (most recent) windows are the ones analysed.
        assert [e.window_index for e in events] == [7, 8]

    def test_event_ring_is_bounded(self):
        monitor = MultiPathMonitor(fast_config(), max_events=2)
        events = monitor.run_streams(
            {"p0": list(strong_dcl_stream(1800, seed=20))}
        )
        assert len(events) > 2
        assert len(monitor.events) == 2
        assert list(monitor.events) == events[-2:]

    def test_finish_flushes_tails(self):
        monitor = MultiPathMonitor(fast_config())
        for send_time, delay in strong_dcl_stream(700, seed=20):
            monitor.ingest("p0", send_time, delay)
        assert monitor.drain()  # the full window at 600
        final = monitor.finish()
        assert len(final) == 1
        assert final[0].probe_range[1] == 700

    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            MultiPathMonitor(fast_config(), max_pending=0)


class TestWarmChaining:
    def test_later_windows_warm_start_per_path(self):
        monitor = MultiPathMonitor(fast_config(), n_jobs=2)
        streams = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                   for i in range(2)}
        events = monitor.run_streams(streams)
        by_path = {}
        for event in events:
            by_path.setdefault(event.path, []).append(event)
        for path_events in by_path.values():
            analysed = [e for e in path_events if e.analysis.analyzed]
            assert not analysed[0].analysis.warm_used
            assert all(e.analysis.warm_used for e in analysed[1:])

    def test_paths_do_not_share_warm_state(self):
        # One path's verdict stream must be unaffected by monitoring a
        # second path alongside it.
        records = list(strong_dcl_stream(1500, seed=20))
        alone = MultiPathMonitor(fast_config(), n_jobs=1)
        alone_events = alone.run_streams({"p0": records})
        paired = MultiPathMonitor(fast_config(), n_jobs=1)
        paired_events = paired.run_streams({
            "p0": records,
            "noise": list(strong_dcl_stream(1500, q_max=0.04, seed=99)),
        })
        mine = [e for e in paired_events if e.path == "p0"]
        assert event_dicts(mine) == event_dicts(alone_events)


class TestDrainModes:
    def test_byte_identical_events_across_modes_and_jobs(self):
        """The parity contract: fused, pool, and auto drains emit the
        same verdict-event stream at every n_jobs."""
        streams = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                   for i in range(3)}
        expected = None
        for mode in ("pool", "fused", "auto"):
            for n_jobs in (1, 2):
                monitor = MultiPathMonitor(fast_config(), n_jobs=n_jobs,
                                           drain_mode=mode)
                got = event_dicts(monitor.run_streams(streams))
                if expected is None:
                    expected = got
                    assert len(got) > 0
                else:
                    assert got == expected, (mode, n_jobs)

    def test_fused_matches_pool_for_hmm(self):
        streams = {f"p{i}": list(strong_dcl_stream(1200, seed=30 + i))
                   for i in range(2)}
        config = fast_config(model="hmm", n_hidden=2)
        pool = MultiPathMonitor(config, drain_mode="pool")
        fused = MultiPathMonitor(config, drain_mode="fused")
        assert (event_dicts(pool.run_streams(streams))
                == event_dicts(fused.run_streams(streams)))

    def test_fused_matches_pool_at_loop_kernel_width(self):
        """A state width past the blocked kernel's limit still fuses:
        every width runs the one engine, and the events still match."""
        config = fast_config(model="hmm", n_hidden=5)
        streams = {"p0": list(strong_dcl_stream(1500, seed=20))}
        pool = MultiPathMonitor(config, drain_mode="pool")
        fused = MultiPathMonitor(config, drain_mode="fused")
        assert (event_dicts(pool.run_streams(streams))
                == event_dicts(fused.run_streams(streams)))

    def test_auto_resolves_by_backend(self):
        """There is one E-step engine, so ``auto`` always fuses."""
        for config in (fast_config(), fast_config(model="hmm", n_hidden=5)):
            assert MultiPathMonitor(config)._resolve_drain_mode() == "fused"
        assert (MultiPathMonitor(fast_config(), drain_mode="pool")
                ._resolve_drain_mode() == "pool")

    def test_validation(self):
        with pytest.raises(ValueError, match="drain_mode"):
            MultiPathMonitor(fast_config(), drain_mode="turbo")


class TestBackloggedRounds:
    def test_single_drain_resolves_full_backlog_with_warm_chaining(self):
        """One backlogged path drains all its pending windows in one
        drain(), windows in order and warm-chained across sub-rounds."""
        monitor = MultiPathMonitor(fast_config(), max_pending=8)
        for send_time, delay in strong_dcl_stream(1500, seed=20):
            monitor.ingest("p0", send_time, delay)
        assert monitor.n_pending == 4
        events = monitor.drain()
        assert monitor.n_pending == 0
        assert [e.window_index for e in events] == [0, 1, 2, 3]
        analysed = [e for e in events if e.analysis.analyzed]
        assert not analysed[0].analysis.warm_used
        assert all(e.analysis.warm_used for e in analysed[1:])
        # Byte-identical to draining after every probe (no backlog).
        fresh = MultiPathMonitor(fast_config(), max_pending=8)
        incremental = []
        for send_time, delay in strong_dcl_stream(1500, seed=20):
            fresh.ingest("p0", send_time, delay)
            incremental.extend(fresh.drain())
        assert event_dicts(events) == event_dicts(incremental)

    def test_n_pending_counter_stays_true(self):
        """The incremental counter agrees with the per-path deques
        through overflow, drains, and end-of-stream tails."""
        monitor = MultiPathMonitor(fast_config(), max_pending=2)

        def truth():
            return sum(len(s.pending) for s in monitor._paths.values())

        for send_time, delay in strong_dcl_stream(3000, seed=20):
            monitor.ingest("p0", send_time, delay)
        assert monitor.n_pending == truth() == 2
        monitor.drain()
        assert monitor.n_pending == truth() == 0
        for send_time, delay in strong_dcl_stream(700, seed=21):
            monitor.ingest("p1", send_time, delay)
        assert monitor.n_pending == truth() == 1
        assert monitor.finish()  # flushes p0 and p1 tails
        assert monitor.n_pending == truth() == 0
