"""Tests for stationary-segment selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.stationarity import (
    WindowSummary,
    _median,
    observation_is_stationary,
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


def run_is_stationary_loop(summaries, delay_tolerance, loss_tolerance):
    """Reference: the band check over a list of summaries, with one
    ``np.median`` per band."""
    medians = np.array([s.median_delay for s in summaries])
    losses = np.array([s.loss_rate for s in summaries])
    if np.any(np.isnan(medians)):
        return False
    center = np.median(medians)
    if center <= 0:
        return False
    if np.max(np.abs(medians - center)) > delay_tolerance * center:
        return False
    loss_center = np.median(losses)
    return bool(np.max(np.abs(losses - loss_center)) <= loss_tolerance)


def is_stationary_loop(observation, window, delay_tolerance,
                       loss_tolerance):
    """Reference for :func:`observation_is_stationary`."""
    n = len(observation)
    if n == 0:
        return False
    summaries = summarize_windows_loop(
        observation, max(1, n // 4) if window is None else window)
    return bool(summaries) and run_is_stationary_loop(
        summaries, delay_tolerance, loss_tolerance)


def select_range_loop(observation, window, delay_tolerance, loss_tolerance,
                      min_windows):
    """Reference for the ``(start, stop)`` of
    :func:`select_stationary_segment`: the same greedy scan over
    summary lists."""
    summaries = summarize_windows_loop(observation, window)
    best = None
    n = len(summaries)
    start = 0
    while start < n:
        stop = start + 1
        while stop <= n and run_is_stationary_loop(
            summaries[start:stop], delay_tolerance, loss_tolerance
        ):
            stop += 1
        run_len = stop - 1 - start
        if run_len >= min_windows and (best is None
                                       or run_len > best[1] - best[0]):
            best = (start, stop - 1)
        start = max(stop - 1, start + 1)
    if best is None:
        return 0, len(observation)
    return summaries[best[0]].start, summaries[best[1] - 1].stop


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


#: Probe records as runs: all lost, tied on a coarse grid (with signed
#: zeros), or drawn from ``delay_values``.
probe_runs = st.lists(st.one_of(
    st.lists(st.just(float("nan")), min_size=1, max_size=40),
    st.lists(st.sampled_from([-0.0, 0.0, 0.02, 0.03]), min_size=1,
             max_size=40),
    st.lists(delay_values, min_size=1, max_size=40),
), max_size=8).map(lambda runs: [d for run in runs for d in run])

#: A tolerance as a value, or as a step of -1, 0 or +1 ulp from the
#: largest deviation the data shows (the exact edge of the band).
tolerances = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                       st.integers(min_value=-1, max_value=1))


def band_edges(observation, window, delay_tolerance, loss_tolerance):
    """Resolve ``tolerances`` draws against the chunks of ``window``."""
    summaries = summarize_windows_loop(observation, window)
    medians = np.array([s.median_delay for s in summaries])
    losses = np.array([s.loss_rate for s in summaries])

    def at_edge(tolerance, deviation):
        if not isinstance(tolerance, int):
            return tolerance
        if not np.isfinite(deviation):
            return 0.2
        toward = np.inf if tolerance > 0 else -np.inf
        return float(deviation if tolerance == 0
                     else np.nextafter(deviation, toward))

    delay_deviation = loss_deviation = np.nan
    if len(summaries) and not np.isnan(medians).any():
        center = np.median(medians)
        if center > 0:
            delay_deviation = np.max(np.abs(medians - center)) / center
        loss_deviation = np.max(np.abs(losses - np.median(losses)))
    return (at_edge(delay_tolerance, delay_deviation),
            at_edge(loss_tolerance, loss_deviation))


class TestGateMatchesLoop:
    """The array gate against the summary-list reference above."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
        st.sampled_from([-0.0, 0.0, 0.02, 0.05]),
        st.floats(min_value=-1.0, max_value=1.0)), min_size=1, max_size=9))
    def test_median_is_np_median_bit_for_bit(self, values):
        values = np.array(values)
        assert (np.float64(_median(values)).tobytes()
                == np.float64(np.median(values)).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(delays=probe_runs,
           window=st.one_of(st.none(), st.integers(min_value=1,
                                                   max_value=60)),
           delay_tolerance=tolerances, loss_tolerance=tolerances)
    def test_observation_is_stationary(self, delays, window,
                                       delay_tolerance, loss_tolerance):
        obs = observation(delays)
        chunk = max(1, len(delays) // 4) if window is None else window
        delay_tolerance, loss_tolerance = band_edges(
            obs, chunk, delay_tolerance, loss_tolerance)
        assert observation_is_stationary(
            obs, window, delay_tolerance, loss_tolerance
        ) == is_stationary_loop(obs, window, delay_tolerance, loss_tolerance)

    @settings(max_examples=300, deadline=None)
    @given(delays=probe_runs,
           window=st.one_of(st.none(), st.integers(min_value=1,
                                                   max_value=60)),
           delay_tolerance=tolerances, loss_tolerance=tolerances,
           min_windows=st.integers(min_value=1, max_value=4))
    def test_select_stationary_segment(self, delays, window,
                                       delay_tolerance, loss_tolerance,
                                       min_windows):
        obs = observation(delays)
        kwargs = {} if window is None else {"window": window}
        chunk = kwargs.get("window", 1000)
        delay_tolerance, loss_tolerance = band_edges(
            obs, chunk, delay_tolerance, loss_tolerance)
        segment, probe_range = select_stationary_segment(
            obs, delay_tolerance=delay_tolerance,
            loss_tolerance=loss_tolerance, min_windows=min_windows,
            **kwargs)
        assert probe_range == select_range_loop(
            obs, chunk, delay_tolerance, loss_tolerance, min_windows)
        assert len(segment) == probe_range[1] - probe_range[0]


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
