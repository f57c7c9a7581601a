"""Tests for per-window analysis, hysteresis, and the path monitor."""

import numpy as np
import pytest

from repro.core.discretize import DelayDiscretizer
from repro.experiments.streams import level_shift_stream, strong_dcl_stream
from repro.measurement.stationarity import observation_is_stationary
from repro.models.base import EMConfig
from repro.netsim.trace import PathObservation
from repro.streaming.tracker import (
    MonitorConfig,
    PathMonitor,
    VerdictTracker,
    analyze_window,
    prepare_window,
)
from repro.streaming.windows import SlidingWindowAssembler

FAST_EM = EMConfig(tol=1e-3, max_iter=100, seed=7)


def fast_config(**overrides):
    defaults = dict(window=800, hop=400, n_hidden=1, confirm=2, memory=3,
                    em=FAST_EM)
    defaults.update(overrides)
    return MonitorConfig(**defaults)


def observation_from(records):
    send_times, delays = zip(*records)
    return PathObservation(np.array(send_times), np.array(delays))


class TestMonitorConfig:
    def test_defaults_follow_the_paper_probing_rate(self):
        config = MonitorConfig()
        assert config.window == 3000
        assert config.hop == 1500
        assert (config.confirm, config.memory) == (3, 5)

    def test_identify_config_mirror(self):
        config = MonitorConfig(n_symbols=7, n_hidden=3, model="hmm",
                               beta0=0.1, em=FAST_EM)
        ident = config.identify_config()
        assert ident.n_symbols == 7
        assert ident.n_hidden == 3
        assert ident.model == "hmm"
        assert ident.beta0 == pytest.approx(0.1)
        assert ident.em is FAST_EM

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            MonitorConfig(model="markov")

    def test_bad_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="confirm"):
            MonitorConfig(confirm=0)
        with pytest.raises(ValueError, match="confirm"):
            MonitorConfig(confirm=4, memory=3)


class TestVerdictTracker:
    def test_needs_confirm_repeats_before_switching(self):
        tracker = VerdictTracker(confirm=2, memory=3)
        assert not tracker.update("strong")
        assert tracker.stable_verdict is None
        assert tracker.update("strong")
        assert tracker.stable_verdict == "strong"

    def test_single_outlier_does_not_flap(self):
        tracker = VerdictTracker(confirm=2, memory=3)
        tracker.update("strong")
        tracker.update("strong")
        assert not tracker.update("none")
        assert tracker.stable_verdict == "strong"

    def test_sustained_change_switches_once(self):
        tracker = VerdictTracker(confirm=2, memory=3)
        tracker.update("strong")
        tracker.update("strong")
        assert not tracker.update("weak")
        assert tracker.update("weak")
        assert tracker.stable_verdict == "weak"
        # A third confirmation is not a second change event.
        assert not tracker.update("weak")

    def test_confirm_one_tracks_every_window(self):
        tracker = VerdictTracker(confirm=1, memory=1)
        assert tracker.update("strong")
        assert tracker.update("none")
        assert tracker.stable_verdict == "none"

    def test_validation(self):
        with pytest.raises(ValueError):
            VerdictTracker(confirm=0, memory=3)
        with pytest.raises(ValueError):
            VerdictTracker(confirm=5, memory=3)


class TestAnalyzeWindow:
    def test_strong_window_analysed(self):
        observation = observation_from(strong_dcl_stream(800, seed=3))
        config = fast_config(gate_stationarity=False)
        analysis = analyze_window(observation, None, config)
        assert analysis.analyzed
        assert analysis.verdict == "strong"
        assert analysis.bound_seconds is not None
        assert analysis.warm_state is not None
        assert analysis.g_pmf.sum() == pytest.approx(1.0)

    def test_warm_state_threads_through(self):
        records = list(strong_dcl_stream(1200, seed=3))
        config = fast_config(gate_stationarity=False)
        first = analyze_window(observation_from(records[:800]), None, config,
                               window_index=0)
        second = analyze_window(observation_from(records[400:]),
                                first.warm_state, config, window_index=1)
        assert second.warm_used
        assert second.n_iter < first.n_iter

    def test_loss_free_window_skipped(self):
        records = [(i * 0.02, 0.02 + 0.001 * (i % 9)) for i in range(800)]
        config = fast_config(gate_stationarity=False)
        analysis = analyze_window(observation_from(records), None, config)
        assert analysis.status == "skipped"
        assert analysis.reason == "no-losses"
        assert analysis.warm_state is None

    def test_degenerate_window_skipped(self):
        # Constant delays leave the discretizer no queuing range.
        records = [(i * 0.02, 0.02) for i in range(400)]
        records[10] = (10 * 0.02, float("nan"))
        config = fast_config(gate_stationarity=False)
        analysis = analyze_window(observation_from(records), None, config)
        assert analysis.status == "skipped"
        assert analysis.reason.startswith("degenerate")

    def test_nonstationary_window_gated(self):
        # A window straddling a queue-ceiling jump fails the gate...
        records = list(level_shift_stream(800, shift_at=400, seed=3))
        observation = observation_from(records)
        gated = analyze_window(observation, None, fast_config())
        assert gated.status == "skipped"
        assert gated.reason == "nonstationary"
        # ...and is analysed anyway when the gate is off.
        ungated = analyze_window(observation, None,
                                 fast_config(gate_stationarity=False))
        assert ungated.analyzed

    def test_pure_function_same_inputs_same_outputs(self):
        observation = observation_from(strong_dcl_stream(800, seed=3))
        config = fast_config(gate_stationarity=False)
        a = analyze_window(observation, None, config, window_index=4)
        b = analyze_window(observation, None, config, window_index=4)
        assert a.log_likelihood == b.log_likelihood
        np.testing.assert_array_equal(a.g_pmf, b.g_pmf)


def prepare_reference(observation, config):
    """Reference skip decision: ``np.mean`` loss rate, the gate, then a
    full symbolization whose loss count decides ``no-losses``.  Returns
    ``(reason, loss_rate, symbols)``."""
    delays = observation.delays
    loss_rate = float(np.mean(np.isnan(delays))) if len(delays) else 0.0
    if config.gate_stationarity and not observation_is_stationary(
        observation,
        window=config.stationarity_window,
        delay_tolerance=config.delay_tolerance,
        loss_tolerance=config.loss_tolerance,
    ):
        return "nonstationary", loss_rate, None
    try:
        propagation = observation.propagation_delay
        if propagation is None:
            propagation = observation.min_delay
        seq = DelayDiscretizer(
            config.n_symbols, propagation, observation.max_delay
        ).observation_sequence(observation)
    except ValueError as exc:
        return f"degenerate: {exc}", loss_rate, None
    if seq.n_losses == 0:
        return "no-losses", loss_rate, None
    return None, loss_rate, seq.symbols


def uniform_delays(n, seed=0):
    return 0.02 + 0.05 * np.random.default_rng(seed).random(n)


def tail_observation(n_records):
    """The ``finish()`` tail window of a loss-free stream."""
    assembler = SlidingWindowAssembler(800, 400)
    delays = uniform_delays(n_records)
    assembler.extend(list(zip(np.arange(n_records) * 0.02, delays)))
    return assembler.tail().observation


def skip_case_observations():
    n = 800
    times = np.arange(n) * 0.02
    delays = uniform_delays(n)
    one_loss = delays.copy()
    one_loss[17] = np.nan
    constant_one_loss = np.full(n, 0.02)
    constant_one_loss[5] = np.nan
    return {
        "loss-free": PathObservation(times, delays),
        "loss-free-constant": PathObservation(times, np.full(n, 0.02)),
        "known-p-at-max": PathObservation(times, delays,
                                          propagation_delay=delays.max()),
        "known-p-above-max": PathObservation(
            times, delays, propagation_delay=delays.max() + 0.01),
        "known-p-at-max-one-loss": PathObservation(
            times, one_loss, propagation_delay=np.nanmax(one_loss)),
        "constant-one-loss": PathObservation(times, constant_one_loss),
        "all-lost": PathObservation(times, np.full(n, np.nan)),
        "one-loss": PathObservation(times, one_loss),
        "empty": PathObservation(np.array([]), np.array([])),
        "tail": tail_observation(1000),
        "short-tail": tail_observation(501),
    }


class TestPrepareWindowSkips:
    """Every skip reason and ``loss_rate`` bit equals the reference's,
    and windows with losses carry the reference's symbols."""

    @pytest.mark.parametrize("gate", [False, True])
    @pytest.mark.parametrize("case", sorted(skip_case_observations()))
    def test_matches_reference(self, case, gate):
        observation = skip_case_observations()[case]
        config = fast_config(gate_stationarity=gate)
        prepared = prepare_window(observation, config, window_index=3)
        reason, loss_rate, symbols = prepare_reference(observation, config)
        got = None if prepared.skip is None else prepared.skip.reason
        assert got == reason
        for value in (prepared.loss_rate,
                      getattr(prepared.skip, "loss_rate", loss_rate)):
            assert (np.float64(value).tobytes()
                    == np.float64(loss_rate).tobytes())
        if symbols is None:
            assert prepared.seq is None
        else:
            np.testing.assert_array_equal(prepared.seq.symbols, symbols)

    def test_cases_cover_every_outcome(self):
        config = fast_config(gate_stationarity=False)
        reasons = {
            case: prepare_reference(observation, config)[0]
            for case, observation in skip_case_observations().items()
        }
        assert reasons["loss-free"] == reasons["tail"] == "no-losses"
        assert reasons["short-tail"] == "no-losses"
        assert reasons["one-loss"] is None
        assert reasons["all-lost"] == reasons["empty"] == (
            "degenerate: no surviving probes in observation")
        for case in ("loss-free-constant", "known-p-at-max",
                     "known-p-above-max", "known-p-at-max-one-loss",
                     "constant-one-loss"):
            assert reasons[case].startswith("degenerate: max_delay")
        assert len(skip_case_observations()["short-tail"]) == 501


class TestPathMonitor:
    def test_events_cover_the_stream_in_order(self):
        config = fast_config(gate_stationarity=False)
        monitor = PathMonitor(config, path="p0")
        events = monitor.run(strong_dcl_stream(2100, seed=3))
        # 2100 probes, window 800 hop 400: full windows at 800, 1200,
        # 1600, 2000 plus the 100-probe tail.
        assert [e.window_index for e in events] == [0, 1, 2, 3, 4]
        assert events[-1].probe_range[1] == 2100

    def test_stable_verdict_emerges_with_hysteresis(self):
        config = fast_config(gate_stationarity=False)
        monitor = PathMonitor(config)
        events = monitor.run(strong_dcl_stream(2400, seed=3))
        analysed = [e for e in events if e.analysis.analyzed]
        assert len(analysed) >= config.confirm
        assert events[-1].stable_verdict == "strong"
        assert sum(e.changed for e in events) == 1

    def test_skipped_windows_do_not_touch_hysteresis(self):
        config = fast_config()
        monitor = PathMonitor(config)
        # The regime change makes mid-stream windows nonstationary.
        events = monitor.run(level_shift_stream(4000, shift_at=2000, seed=3))
        skipped = [e for e in events if not e.analysis.analyzed]
        assert skipped, "expected the gate to skip some windows"
        for event in skipped:
            assert event.analysis.verdict is None
            assert not event.changed

    def test_event_json_schema(self):
        import json

        config = fast_config(gate_stationarity=False)
        monitor = PathMonitor(config, path="probe-42")
        events = monitor.run(strong_dcl_stream(800, seed=3))
        payload = json.loads(json.dumps(events[0].to_dict()))
        assert payload["path"] == "probe-42"
        assert payload["window"] == 0
        assert payload["probe_range"] == [0, 800]
        assert payload["status"] == "ok"
        assert payload["verdict"] == "strong"
        assert isinstance(payload["g_pmf"], list)
        assert payload["loss_rate"] > 0
        assert payload["n_iter"] >= 1

    def test_short_stream_still_yields_a_tail_verdict(self):
        config = fast_config(gate_stationarity=False)
        monitor = PathMonitor(config)
        events = monitor.run(strong_dcl_stream(500, seed=3))
        assert len(events) == 1
        assert events[0].probe_range == (0, 500)
