"""Tests for the multi-path monitor scheduler."""

import time

import numpy as np
import pytest

from repro import obs
from repro.experiments.streams import strong_dcl_stream
from repro.models.base import EMConfig
from repro.obs import trace as trace_mod
from repro.streaming.scheduler import MultiPathMonitor
from repro.streaming.tracker import MonitorConfig, PathMonitor

from tests.streaming.fleet import (assert_matches_reference, by_path,
                                   event_dicts, observed, reference_events,
                                   run_fleet)

FAST_EM = EMConfig(tol=1e-3, max_iter=100, seed=7)


def fast_config(**overrides):
    defaults = dict(window=600, hop=300, n_hidden=1, confirm=2, memory=3,
                    gate_stationarity=False, em=FAST_EM)
    defaults.update(overrides)
    return MonitorConfig(**defaults)


def quiet_streams(n=1500, n_paths=3):
    """Loss-free paths; the last one's queue ceiling jumps mid-stream, so
    the windows straddling the jump fail the stationarity gate."""
    streams = {}
    index = np.arange(n)
    for i in range(n_paths):
        rng = np.random.default_rng([9, i])
        ceiling = (np.where(index < n // 2, 0.05, 0.12)
                   if i == n_paths - 1 else 0.1)
        delays = 0.02 + ceiling * rng.random(n)
        streams[f"q{i}"] = list(zip((index * 0.02).tolist(),
                                    delays.tolist()))
    return streams


def loss_free(n, start=0, seed=9):
    """Loss-free records ``start .. start + n``, stationary."""
    rng = np.random.default_rng([seed, start])
    index = np.arange(start, start + n)
    delays = 0.02 + 0.1 * rng.random(n)
    return list(zip((index * 0.02).tolist(), delays.tolist()))


class TestDeterminism:
    def test_identical_events_for_any_n_jobs(self):
        streams = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                   for i in range(3)}
        a = event_dicts(run_fleet(streams, fast_config(), n_jobs=1))
        b = event_dicts(run_fleet(streams, fast_config(), n_jobs=2))
        assert a == b
        assert len(a) > 0

    def test_single_path_matches_path_monitor(self):
        records = list(strong_dcl_stream(1500, seed=20))
        multi_events = run_fleet({"p0": records}, fast_config())
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
        monitor.ingest_many("p0", list(strong_dcl_stream(1800, seed=20)))
        events = monitor.finish()
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
        streams = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                   for i in range(2)}
        events = run_fleet(streams, fast_config(), n_jobs=2)
        paths = {}
        for event in events:
            paths.setdefault(event.path, []).append(event)
        for path_events in paths.values():
            analysed = [e for e in path_events if e.analysis.analyzed]
            assert not analysed[0].analysis.warm_used
            assert all(e.analysis.warm_used for e in analysed[1:])

    def test_paths_do_not_share_warm_state(self):
        # One path's verdict stream must be unaffected by monitoring a
        # second path alongside it.
        records = list(strong_dcl_stream(1500, seed=20))
        alone_events = run_fleet({"p0": records}, fast_config())
        paired_events = run_fleet({
            "p0": records,
            "noise": list(strong_dcl_stream(1500, q_max=0.04, seed=99)),
        }, fast_config())
        mine = [e for e in paired_events if e.path == "p0"]
        assert event_dicts(mine) == event_dicts(alone_events)


class TestDrainModes:
    """Each path's fused-drain events equal a ``PathMonitor`` over that
    path's records, at every ``n_jobs``, traced and with model health
    and telemetry on.  ``PathMonitor`` fits one window at a time, as the
    per-window ("pool") drain these tests once compared against did."""

    def test_byte_identical_events_across_modes_and_jobs(self):
        """Also for a fleet whose windows all skip, loss-free or
        nonstationary, and for a mixed fleet of quiet, nonstationary and
        congested paths: the same ``window`` telemetry per path, and the
        same gate and skip counters (every window is gated once, in this
        process, at ingest)."""
        congested = {f"p{i}": list(strong_dcl_stream(1500, seed=20 + i))
                     for i in range(3)}
        mixed = dict(quiet_streams(), c0=congested["p0"], c1=congested["p1"])
        gated = fast_config(gate_stationarity=True)
        reasons = {}
        for name, streams, config in (("congested", congested, fast_config()),
                                      ("quiet", quiet_streams(), gated),
                                      ("mixed", mixed, gated)):
            events, telemetry = assert_matches_reference(streams, config)
            reasons[name] = {e.analysis.reason for e in events}
            assert sum(map(len, telemetry["windows"].values())) \
                == len(events)
            checks = sum(value for (key, _), value
                         in telemetry["counters"].items()
                         if key == "repro_stationarity_checks_total")
            assert checks == (len(events) if config.gate_stationarity
                              else 0)
        assert reasons["quiet"] == {"no-losses", "nonstationary"}
        assert reasons["mixed"] >= {None, "no-losses", "nonstationary"}

    def test_fused_matches_pool_for_hmm(self):
        streams = {f"p{i}": list(strong_dcl_stream(1200, seed=30 + i))
                   for i in range(2)}
        assert_matches_reference(streams, fast_config(model="hmm",
                                                      n_hidden=2))

    def test_fused_matches_pool_at_loop_kernel_width(self):
        """A state width past the blocked kernel's limit still fuses:
        every width runs the one engine, and the events still match."""
        streams = {"p0": list(strong_dcl_stream(1500, seed=20))}
        assert_matches_reference(streams, fast_config(model="hmm",
                                                      n_hidden=5))


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


class TestMixedRounds:
    """Fused rounds holding a path's cold first window, warm windows and
    a window whose carried warm state no longer matches its alphabet."""

    PATHS = ("early", "fresh", "reshaped")

    def _config(self, kind, n_restarts, **overrides):
        return fast_config(model=kind, n_hidden=2 if kind == "hmm" else 1,
                           em=FAST_EM.replace(n_restarts=n_restarts),
                           **overrides)

    def _streams(self):
        return {name: list(strong_dcl_stream(1500, seed=40 + i))
                for i, name in enumerate(self.PATHS)}

    def _run(self, kind, n_restarts, n_jobs):
        streams = self._streams()
        monitor = MultiPathMonitor(self._config(kind, n_restarts),
                                   n_jobs=n_jobs)
        # Round one: "early" alone, so it is warm by round two.
        monitor.ingest_many("early", streams["early"][:600])
        events = monitor.drain()
        # "reshaped" runs M=4 but carries the M=5 warm state of "early",
        # as a state kept from a config with the base alphabet would.
        monitor.add_path("reshaped",
                         self._config(kind, n_restarts, n_symbols=4))
        monitor._paths["reshaped"].warm = monitor._paths["early"].warm
        # Round two: one warm, one cold first, one mismatched window.
        monitor.ingest_many("early", streams["early"][600:900])
        monitor.ingest_many("fresh", streams["fresh"][:600])
        monitor.ingest_many("reshaped", streams["reshaped"][:600])
        mixed = monitor.drain()
        mixed_drain = dict(monitor.last_drain)
        events += mixed
        for path in self.PATHS:
            start = 900 if path == "early" else 600
            events += monitor.ingest_many(path, streams[path][start:])
        events += monitor.finish()
        return mixed, mixed_drain, events

    def _reference(self, kind, n_restarts):
        """Each path through a ``PathMonitor``; "reshaped" starts from
        the warm state of "early"'s first window, as in :meth:`_run`."""
        streams = self._streams()
        config = self._config(kind, n_restarts)
        early = PathMonitor(config, path="early")
        events = [early.ingest(*record) for record in streams["early"][:600]]
        reshaped = PathMonitor(self._config(kind, n_restarts, n_symbols=4),
                               path="reshaped")
        reshaped.warm = early.warm
        events += [early.ingest(*record)
                   for record in streams["early"][600:]]
        events.append(early.finish())
        events = [e for e in events if e is not None]
        events += PathMonitor(config, path="fresh").run(streams["fresh"])
        events += reshaped.run(streams["reshaped"])
        return by_path(events)

    @pytest.mark.parametrize("n_restarts", [1, 3])
    @pytest.mark.parametrize("kind", ["mmhd", "hmm"])
    def test_fused_matches_pool_at_any_n_jobs(self, kind, n_restarts):
        """The fleet's events equal per-window fits of each path (see
        :meth:`_reference`) at ``n_jobs`` 1 and 2."""
        expected, _ = observed(lambda: self._reference(kind, n_restarts))
        for n_jobs in (1, 2):
            (mixed, mixed_drain, events), _ = observed(
                lambda: self._run(kind, n_restarts, n_jobs))
            assert by_path(events) == expected, n_jobs
        # The mixed round held what it was built to hold.
        analyses = {e.path: e.analysis for e in mixed}
        assert analyses["early"].warm_used
        for path in ("fresh", "reshaped"):
            assert not analyses[path].warm_used
            assert analyses[path].fallback_reason is None
        assert len(analyses["reshaped"].g_pmf) == 4
        # One group per alphabet; the warm row plus the cold windows'
        # restart rows.
        assert mixed_drain["mode"] == "fused"
        assert mixed_drain["groups"] == 2
        assert mixed_drain["rows"] == 1 + 2 * n_restarts

    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_first_round_is_one_cold_stack(self, n_restarts, monkeypatch):
        """N fresh paths' first windows fit as one cold stack of
        N * n_restarts rows, equal to per-window fits, without a
        per-window multi-restart fit."""
        from repro.models import batched

        n_paths = 4
        streams = {f"p{i}": list(strong_dcl_stream(600, seed=50 + i))
                   for i in range(n_paths)}
        config = fast_config(em=FAST_EM.replace(n_restarts=n_restarts))
        expected = [line for lines in reference_events(streams, config)
                    .values() for line in event_dicts(lines)]

        def per_window_cold_fit(*args, **kwargs):
            raise AssertionError("fused drain ran a per-window cold fit")

        monkeypatch.setattr(batched, "fit_restarts", per_window_cold_fit)
        fused = MultiPathMonitor(config)
        for path, records in streams.items():
            fused.ingest_many(path, records)
        events = fused.drain()
        assert event_dicts(events) == expected
        assert len(events) == n_paths
        for event in events:
            assert event.analysis.analyzed
            assert not event.analysis.warm_used
            assert event.analysis.fallback_reason is None
        assert fused.last_drain["groups"] == 1
        assert fused.last_drain["rows"] == n_paths * n_restarts

    def test_backend_fit_totals_match_across_modes(self):
        """``repro_em_backend_fits_total`` counts the same fits for one
        fused round as for its windows fitted one at a time: a path's
        first window (one cold fit), a warm window (one warm fit) and a
        warm window that falls back (its warm fit, then its cold
        fit)."""
        from repro.streaming.online_em import WarmState

        streams = {name: list(strong_dcl_stream(900, seed=70 + i))
                   for i, name in enumerate(("first", "warm", "collapse"))}
        config = self._config("mmhd", 2)
        # pi pinned to one symbol + absorbing identity transition: the
        # first observed symbol change has zero likelihood.
        degenerate = WarmState("mmhd", 5, 1, {
            "pi": np.eye(5)[0], "transition": np.eye(5),
            "loss_given_symbol": np.full(5, 0.01)})

        def backend_fits(counters):
            return {key: value for key, value in counters.items()
                    if key[0] == "repro_em_backend_fits_total"}

        monitor = MultiPathMonitor(config)
        monitor.ingest_many("warm", streams["warm"][:600])
        monitor.drain()
        monitor.add_path("collapse")
        monitor._paths["collapse"].warm = degenerate
        monitor.ingest_many("warm", streams["warm"][600:900])
        for path in ("first", "collapse"):
            monitor.ingest_many(path, streams[path][:600])
        obs.enable(clear=True)
        try:
            events = monitor.drain()
            fused = backend_fits(obs.metrics_snapshot()["counters"])
        finally:
            obs.disable()
        analyses = {e.path: e.analysis for e in events}
        assert analyses["warm"].warm_used
        assert not analyses["first"].warm_used
        assert analyses["first"].fallback_reason is None
        assert analyses["collapse"].fallback_reason == "zero-likelihood"

        # The same three windows, each fitted on its own.
        monitors = {path: PathMonitor(config, path=path)
                    for path in ("first", "warm", "collapse")}
        for record in streams["warm"][:600]:
            monitors["warm"].ingest(*record)
        monitors["collapse"].warm = degenerate
        obs.enable(clear=True)
        try:
            for path, span in (("warm", slice(600, 900)),
                               ("first", slice(0, 600)),
                               ("collapse", slice(0, 600))):
                for record in streams[path][span]:
                    monitors[path].ingest(*record)
            per_window = backend_fits(obs.metrics_snapshot()["counters"])
        finally:
            obs.disable()
        assert fused == per_window == {
            ("repro_em_backend_fits_total",
             (("kernel", "blocked"), ("model", "mmhd"))): 4.0}

    def test_lone_group_splits_over_workers(self, monkeypatch):
        """With fewer groups than workers, a group's windows split into
        contiguous per-worker stacks and the events stay those of the
        one-stack drain."""
        from repro.streaming import scheduler

        n_paths, n_restarts = 5, 2
        streams = {f"p{i}": list(strong_dcl_stream(600, seed=60 + i))
                   for i in range(n_paths)}
        config = fast_config(em=FAST_EM.replace(n_restarts=n_restarts))
        one = MultiPathMonitor(config)
        for path, records in streams.items():
            one.ingest_many(path, records)
        expected = event_dicts(one.drain())

        stacks = []
        real_map = scheduler.parallel_map

        def recording_map(fn, tasks, n_jobs=1):
            stacks.append([len(task[2]) for task in tasks])
            return real_map(fn, tasks, n_jobs=n_jobs)

        monkeypatch.setattr(scheduler, "parallel_map", recording_map)
        split = MultiPathMonitor(config, n_jobs=2)
        for path, records in streams.items():
            split.ingest_many(path, records)
        assert event_dicts(split.drain()) == expected
        assert stacks == [[3, 2]]
        assert split.last_drain["groups"] == 1
        assert split.last_drain["rows"] == n_paths * n_restarts


class TestIngestResolution:
    """A window that needs no fit resolves where its path's assembler
    cuts it, unless a window of its own path is pending."""

    def test_skip_resolves_at_ingest_when_nothing_is_pending(self):
        monitor = MultiPathMonitor(fast_config())
        assert monitor.ingest_many("q", loss_free(300)) == []
        events = monitor.ingest_many("q", loss_free(600, start=300))
        assert [e.window_index for e in events] == [0, 1]
        assert all(e.analysis.reason == "no-losses" for e in events)
        assert list(monitor.events) == events
        assert monitor.n_pending == 0
        assert monitor.drain() == []
        # The one-record form returns what it resolved too.
        for send_time, delay in loss_free(299, start=900):
            assert monitor.ingest("q", send_time, delay) == []
        (event,) = monitor.ingest("q", *loss_free(1, start=1199)[0])
        assert event.window_index == 2

    def test_skip_behind_a_pending_window_publishes_after_it(self):
        """Window 0 has losses and waits for the drain; window 1, loss
        free, is cut behind it in the same burst and waits too; window
        2, cut once the backlog is empty, resolves at ingest."""
        head = list(strong_dcl_stream(300, seed=20))
        assert any(np.isnan(delay) for _, delay in head)
        monitor = MultiPathMonitor(fast_config())
        assert monitor.ingest_many("p", head + loss_free(600, start=300)) \
            == []
        assert monitor.pending_windows == {"p": 2}
        drained = monitor.drain()
        assert [e.window_index for e in drained] == [0, 1]
        assert drained[0].analysis.analyzed
        assert drained[1].analysis.reason == "no-losses"
        (event,) = monitor.ingest_many("p", loss_free(300, start=900))
        assert event.window_index == 2
        assert event.analysis.reason == "no-losses"

    def test_drain_mode_and_jobs_keep_the_path_order(self):
        """Ingest-time skips and drained windows keep each path's window
        order at every ``n_jobs``, as per-window fits do."""
        head = list(strong_dcl_stream(300, seed=20))
        streams = {"p": head + loss_free(1200, start=300),
                   "q": loss_free(1500)}
        events, _ = assert_matches_reference(streams, fast_config())
        for path in ("p", "q"):
            indexes = [e.window_index for e in events if e.path == path]
            assert indexes == sorted(indexes) == list(range(4))

    def test_traced_ingest_resolution_has_no_queue_wait(self):
        trace_mod.enable_tracing()
        try:
            monitor = MultiPathMonitor(fast_config())
            monitor.ingest_many("q", loss_free(300))
            started = time.monotonic()
            (event,) = monitor.ingest_many("q", loss_free(300, start=300))
            elapsed = time.monotonic() - started
        finally:
            trace_mod.disable_tracing()
        stages = event.trace.stages()
        assert set(stages) == {"ingest", "queue", "fit", "publish", "total"}
        assert all(value is not None for value in stages.values())
        # Prepared and published inside the ingest call that cut it.
        assert stages["queue"] <= elapsed
        assert stages["queue"] + stages["fit"] + stages["publish"] \
            <= elapsed
        assert event.trace.drain_started == event.trace.fit_started

    def test_ingest_resolved_windows_never_fill_the_backlog(self):
        monitor = MultiPathMonitor(fast_config(), max_pending=1)
        events = monitor.ingest_many("q", loss_free(3000))
        assert len(events) == 9
        assert monitor.n_pending == 0
        assert monitor.dropped_windows == {}
        assert monitor.shed_oldest(4) == []
        # A fitting path still queues (and overflows) as before.
        monitor.ingest_many("p", list(strong_dcl_stream(900, seed=20)))
        assert monitor.pending_windows == {"q": 0, "p": 1}
        assert monitor.dropped_windows == {"p": 1}
        assert monitor.shed_oldest(4) == [("p", 1)]

