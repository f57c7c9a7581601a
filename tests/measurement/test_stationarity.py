"""Tests for stationary-segment selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.stationarity import (
    WindowSummary,
    select_stationary_segment,
    summarize_windows,
)
from repro.netsim.trace import PathObservation


def observation(delays, interval=0.02):
    delays = np.asarray(delays, dtype=float)
    return PathObservation(np.arange(len(delays)) * interval, delays)


class TestSummaries:
    def test_window_count(self):
        obs = observation(np.full(1000, 0.05))
        assert len(summarize_windows(obs, window=100)) == 10

    def test_window_statistics(self):
        delays = np.concatenate([np.full(100, 0.05), np.full(100, 0.1)])
        delays[150] = np.nan
        summaries = summarize_windows(observation(delays), window=100)
        assert summaries[0].median_delay == pytest.approx(0.05)
        assert summaries[1].loss_rate == pytest.approx(0.01)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            summarize_windows(observation([0.1]), window=0)

    def test_all_loss_window_has_nan_median(self):
        summaries = summarize_windows(observation([np.nan] * 10), window=10)
        assert np.isnan(summaries[0].median_delay)


def summarize_windows_loop(observation, window):
    """Reference: one ``np.median`` per chunk over its observed probes."""
    summaries = []
    n = len(observation)
    for start in range(0, n - window + 1, window):
        stop = start + window
        chunk = observation.delays[start:stop]
        observed = chunk[~np.isnan(chunk)]
        median = float(np.median(observed)) if observed.size else float("nan")
        loss_rate = float(np.mean(np.isnan(chunk)))
        summaries.append(WindowSummary(start, stop, median, loss_rate))
    return summaries


def summary_bits(summaries):
    return [(s.start, s.stop, np.float64(s.median_delay).tobytes(),
             np.float64(s.loss_rate).tobytes()) for s in summaries]


#: Delays with ties (a coarse grid), NaN losses and fine-grained values.
delay_values = st.one_of(
    st.just(float("nan")),
    st.sampled_from([0.01, 0.02, 0.03, 0.05]),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestSummariesMatchLoop:
    @settings(max_examples=200, deadline=None)
    @given(delays=st.lists(delay_values, min_size=0, max_size=400),
           chunks=st.integers(min_value=1, max_value=8),
           window=st.one_of(st.none(), st.integers(min_value=1,
                                                   max_value=50)))
    def test_bit_identical_to_per_chunk_median(self, delays, chunks,
                                               window):
        obs = observation(delays)
        window = window or max(1, len(delays) // chunks)
        assert summary_bits(summarize_windows(obs, window)) == \
            summary_bits(summarize_windows_loop(obs, window))


class TestSelection:
    def test_selects_stable_middle(self):
        rng = np.random.default_rng(0)
        level_shift = np.concatenate([
            0.20 + rng.normal(0, 0.002, 500),   # high regime
            0.05 + rng.normal(0, 0.002, 2000),  # long stable regime
            0.30 + rng.normal(0, 0.002, 500),   # high again
        ])
        obs = observation(level_shift)
        segment, (start, stop) = select_stationary_segment(
            obs, window=250, delay_tolerance=0.2
        )
        assert 250 <= start <= 750
        assert 2000 <= stop <= 2750
        assert len(segment) == stop - start

    def test_whole_trace_returned_when_stationary(self):
        rng = np.random.default_rng(1)
        obs = observation(0.05 + rng.normal(0, 0.001, 2000))
        segment, (start, stop) = select_stationary_segment(obs, window=500)
        assert stop - start == 2000

    def test_fallback_when_nothing_qualifies(self):
        # Monotone ramp: no two consecutive windows agree.
        obs = observation(np.linspace(0.01, 1.0, 1000))
        segment, (start, stop) = select_stationary_segment(
            obs, window=100, delay_tolerance=0.01, min_windows=3
        )
        assert (start, stop) == (0, len(obs))

    def test_loss_rate_changes_break_runs(self):
        rng = np.random.default_rng(2)
        delays = 0.05 + rng.normal(0, 0.001, 2000)
        lossy = delays.copy()
        lossy[1000:1500][rng.random(500) < 0.4] = np.nan  # loss burst
        segment, (start, stop) = select_stationary_segment(
            observation(lossy), window=250, loss_tolerance=0.05
        )
        # The selected run avoids the lossy quarter.
        assert stop <= 1000 or start >= 1500

    def test_short_trace_passthrough(self):
        obs = observation([0.05, 0.06])
        segment, probe_range = select_stationary_segment(obs, window=100)
        assert probe_range == (0, 2)
