"""Tests for the sliding-window assembler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.windows import (
    ProbeWindow,
    SlidingWindowAssembler,
    iter_windows,
)

from tests.streaming.deque_assembler import DequeAssembler


def push_all(assembler, records):
    windows = []
    for send_time, delay in records:
        window = assembler.push(send_time, delay)
        if window is not None:
            windows.append(window)
    return windows


def records(n, interval=0.02):
    return [(i * interval, 0.01 + i * 1e-4) for i in range(n)]


class TestGeometry:
    def test_overlapping_windows(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        windows = push_all(assembler, records(25))
        assert [(w.start, w.stop) for w in windows] == [
            (0, 10), (5, 15), (10, 20), (15, 25),
        ]
        assert [w.index for w in windows] == [0, 1, 2, 3]
        assert all(len(w.observation.send_times) == 10 for w in windows)

    def test_hop_equal_to_window_tiles(self):
        assembler = SlidingWindowAssembler(window=10, hop=10)
        windows = push_all(assembler, records(30))
        assert [(w.start, w.stop) for w in windows] == [
            (0, 10), (10, 20), (20, 30),
        ]

    def test_window_contents_match_pushed_records(self):
        assembler = SlidingWindowAssembler(window=4, hop=2)
        recs = [(0.0, 0.1), (0.02, np.nan), (0.04, 0.3), (0.06, 0.4),
                (0.08, 0.5), (0.10, np.nan)]
        windows = push_all(assembler, recs)
        first = windows[0].observation
        np.testing.assert_allclose(first.send_times, [0.0, 0.02, 0.04, 0.06])
        assert np.isnan(first.delays[1])
        second = windows[1].observation
        np.testing.assert_allclose(second.send_times, [0.04, 0.06, 0.08, 0.10])
        assert np.isnan(second.delays[-1])

    def test_default_hop_is_half_window(self):
        assert SlidingWindowAssembler(window=100).hop == 50

    def test_counters(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        push_all(assembler, records(17))
        assert assembler.n_pushed == 17
        assert assembler.n_windows == 2


class TestTail:
    def test_tail_emits_partial_window(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        push_all(assembler, records(13))
        tail = assembler.tail()
        assert tail is not None
        assert tail.stop == 13
        assert tail.index == 1
        # Tail still spans up to `window` trailing records.
        assert tail.stop - tail.start == 10

    def test_tail_none_when_nothing_fresh(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        push_all(assembler, records(10))
        assert assembler.tail() is None

    def test_tail_none_below_min_size(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        push_all(assembler, records(11))
        assert assembler.tail(min_size=2) is None

    def test_short_stream_tail_has_nonnegative_start(self):
        # Regression: a stream shorter than one window must not produce a
        # negative start index.
        assembler = SlidingWindowAssembler(window=100, hop=50)
        push_all(assembler, records(7))
        tail = assembler.tail()
        assert tail is not None
        assert (tail.start, tail.stop) == (0, 7)

    def test_tail_is_single_shot(self):
        assembler = SlidingWindowAssembler(window=10, hop=5)
        push_all(assembler, records(13))
        assert assembler.tail() is not None
        assert assembler.tail() is None


class TestValidation:
    def test_window_too_small(self):
        with pytest.raises(ValueError, match="window"):
            SlidingWindowAssembler(window=1)

    def test_hop_out_of_range(self):
        with pytest.raises(ValueError, match="hop"):
            SlidingWindowAssembler(window=10, hop=0)
        with pytest.raises(ValueError, match="hop"):
            SlidingWindowAssembler(window=10, hop=11)


class TestIterWindows:
    def test_streams_records_into_windows(self):
        windows = list(iter_windows(records(25), window=10, hop=5))
        assert [(w.start, w.stop) for w in windows] == [
            (0, 10), (5, 15), (10, 20), (15, 25),
        ]

    def test_lazy_over_generator(self):
        def infinite():
            i = 0
            while True:
                yield i * 0.02, 0.01
                i += 1

        iterator = iter_windows(infinite(), window=10, hop=5)
        first = next(iterator)
        assert isinstance(first, ProbeWindow)
        assert (first.start, first.stop) == (0, 10)

    def test_time_range(self):
        (window,) = iter_windows(records(10), window=10, hop=10)
        lo, hi = window.time_range
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(9 * 0.02)


def window_bytes(windows):
    """Everything a window hands downstream, as comparable bytes."""
    return [
        (w.index, w.start, w.stop,
         w.observation.send_times.dtype.str,
         w.observation.send_times.tobytes(),
         w.observation.delays.dtype.str,
         w.observation.delays.tobytes())
        for w in windows
    ]


@st.composite
def burst_plans(draw):
    """A window geometry, a record stream split into bursts, a hop change
    (or none) before each burst, and the tail's ``min_size``."""
    window = draw(st.integers(min_value=2, max_value=12))
    hop = draw(st.integers(min_value=1, max_value=window))
    delay = st.one_of(st.just(float("nan")),
                      st.floats(min_value=0.0, max_value=1.0))
    delays = draw(st.lists(delay, max_size=6 * window))
    stream = [(0.02 * i, d) for i, d in enumerate(delays)]
    sizes = draw(st.lists(st.integers(min_value=0, max_value=3 * window),
                          max_size=12))
    bursts, i = [], 0
    for size in sizes:
        bursts.append(stream[i:i + size])
        i += size
    bursts.append(stream[i:])
    new_hop = st.one_of(st.none(), st.integers(min_value=1, max_value=window))
    hops = draw(st.lists(new_hop, min_size=len(bursts),
                         max_size=len(bursts)))
    min_size = draw(st.integers(min_value=1, max_value=3))
    return window, hop, bursts, hops, min_size


class TestBurstParity:
    """Bursts through the ring equal one-record pushes through the deque
    assembler it replaced, byte for byte, for every burst split."""

    @settings(max_examples=300, deadline=None)
    @given(plan=burst_plans())
    def test_any_burst_split_matches_record_pushes(self, plan):
        window, hop, bursts, hops, min_size = plan
        ring = SlidingWindowAssembler(window, hop)
        oracle = DequeAssembler(window, hop)
        got, want = [], []
        for burst, new_hop in zip(bursts, hops):
            if new_hop is not None:  # as MultiPathMonitor.set_path_hop
                ring.hop = oracle.hop = new_hop
            got.extend(ring.extend(burst))
            for send_time, delay in burst:
                emitted = oracle.push(send_time, delay)
                if emitted is not None:
                    want.append(emitted)
        got.append(ring.tail(min_size))
        want.append(oracle.tail(min_size))
        assert window_bytes(w for w in got if w is not None) == \
            window_bytes(w for w in want if w is not None)
        assert ring.n_pushed == sum(map(len, bursts))
        assert ring.n_windows == len([w for w in want if w is not None])


class TestMalformedBursts:
    @pytest.mark.parametrize("bad", [
        None, "x", (0.1,), (0.1, 0.02, 0.5), (None, 0.02), (0.1, None),
        (0.1, "x"),
    ])
    def test_raises_before_buffering_any_record(self, bad):
        assembler = SlidingWindowAssembler(window=4, hop=2)
        assembler.extend(records(3))
        with pytest.raises((TypeError, ValueError)):
            assembler.extend([(0.06, 0.01), bad, (0.1, 0.01)])
        assert assembler.n_pushed == 3
        (window,) = assembler.extend(records(4)[3:])
        np.testing.assert_array_equal(window.observation.send_times,
                                      [r[0] for r in records(4)])
