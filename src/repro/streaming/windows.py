"""Sliding probe windows over an incremental record stream.

The batch pipeline consumes a whole :class:`~repro.netsim.trace
.PathObservation` at once; the streaming subsystem instead receives probe
records in bursts (a source poll of :func:`repro.measurement.traceio
.iter_observation`, a live socket, or the simulator) and re-materialises
bounded, overlapping windows for the per-window identification step.

:class:`SlidingWindowAssembler` is the only stateful piece: it keeps the
last ``window`` records in ring arrays and emits a :class:`ProbeWindow`
every ``hop`` records, so memory stays O(window) no matter how long the
monitor runs.
"""

from __future__ import annotations

import time
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.trace import PathObservation
from repro.obs import trace as _trace

__all__ = ["ProbeWindow", "SlidingWindowAssembler", "iter_windows"]

Record = Tuple[float, float]

_FIRST, _SECOND = itemgetter(0), itemgetter(1)


class ProbeWindow:
    """One completed sliding window, ready for identification.

    Attributes
    ----------
    index:
        0-based window number (monotone per path).
    start, stop:
        Absolute probe indices ``[start, stop)`` covered by the window.
    observation:
        The window's records as the estimator-facing
        :class:`PathObservation`.
    assembled_at:
        ``time.monotonic()`` at window completion — the reference point
        for the assembly-to-verdict lag the monitor reports.
    trace:
        A :class:`repro.obs.trace.WindowTrace` stamped by the assembler
        when record-to-verdict tracing is on, ``None`` otherwise.  Rides
        next to the payload — never inside it — so verdict streams stay
        byte-identical with tracing on or off.
    """

    __slots__ = ("index", "start", "stop", "observation", "assembled_at",
                 "trace")

    def __init__(
        self, index: int, start: int, stop: int, observation: PathObservation,
        assembled_at: Optional[float] = None,
    ):
        self.index = int(index)
        self.start = int(start)
        self.stop = int(stop)
        self.observation = observation
        self.assembled_at = (
            time.monotonic() if assembled_at is None else float(assembled_at)
        )
        self.trace = None

    @property
    def time_range(self) -> Tuple[float, float]:
        """Send-time span ``(first, last)`` of the window's probes."""
        times = self.observation.send_times
        return float(times[0]), float(times[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeWindow(#{self.index}, probes [{self.start}, {self.stop}), "
            f"loss={self.observation.loss_rate:.2%})"
        )


def _columns(records: Sequence[Record]) -> Tuple[np.ndarray, np.ndarray]:
    """Checked float64 ``(send_times, delays)`` columns of a burst.

    Every record must be a pair of numbers; a record that is not (``None``,
    a missing or extra field, a non-numeric field) raises here, before
    the caller buffers any record of the burst.  ``np.asarray`` and
    ``np.fromiter`` would read ``None`` as NaN (a fake lost probe), and
    picking two fields per record would ignore a third, so the arity
    check and ``float()`` stay explicit.
    """
    n = len(records)
    if not n:
        return np.empty(0), np.empty(0)
    if set(map(len, records)) != {2}:
        raise ValueError("each probe record must be a (send_time, delay) pair")
    return (np.fromiter(map(float, map(_FIRST, records)), np.float64, n),
            np.fromiter(map(float, map(_SECOND, records)), np.float64, n))


class SlidingWindowAssembler:
    """Maintains overlapping sliding windows over a probe stream.

    The last ``window`` records live in preallocated float64 ring arrays
    (send time, delay, and an ingest stamp only while tracing is on), so
    a burst of records is buffered by slice assignment and an emitted
    window is one ordered copy of the ring.

    Parameters
    ----------
    window:
        Probes per emitted window.
    hop:
        Probes between consecutive window starts; ``hop < window`` gives
        overlapping windows (the streaming default is 50% overlap so
        congestion transitions are never split across a window boundary),
        ``hop == window`` tiles the stream.
    """

    def __init__(self, window: int, hop: Optional[int] = None):
        if window < 2:
            raise ValueError(f"window must be >= 2 probes, got {window}")
        hop = window // 2 if hop is None else int(hop)
        if not 1 <= hop <= window:
            raise ValueError(f"hop must lie in 1..window, got {hop}")
        self.window = int(window)
        self.hop = hop
        self._send_times = np.empty(self.window)
        self._delays = np.empty(self.window)
        #: Ingest stamps aligned with the record rings, NaN for records
        #: buffered before tracing was switched on; ``None`` while
        #: tracing is off.
        self._stamps: Optional[np.ndarray] = None
        self._last_stamp = 0.0
        self._n_pushed = 0
        self._n_windows = 0
        self._next_emit_at = window
        self._last_emit_stop = 0

    @property
    def n_pushed(self) -> int:
        """Total probes ingested so far."""
        return self._n_pushed

    @property
    def n_windows(self) -> int:
        """Windows emitted so far."""
        return self._n_windows

    def _recent(self, ring: np.ndarray) -> np.ndarray:
        """A fresh copy of the ring's retained records in arrival order."""
        n = self._n_pushed
        if n < self.window:
            return ring[:n].copy()
        split = n % self.window
        return np.concatenate((ring[split:], ring[:split]))

    def _emit(self) -> ProbeWindow:
        stop = self._n_pushed
        probe_window = ProbeWindow(
            index=self._n_windows,
            start=stop - min(stop, self.window),
            stop=stop,
            observation=PathObservation(
                self._recent(self._send_times), self._recent(self._delays)
            ),
        )
        if _trace._TRACING and self._stamps is not None:
            stamps = self._recent(self._stamps)
            stamps = stamps[~np.isnan(stamps)]
            if stamps.size:
                probe_window.trace = _trace.WindowTrace(
                    ingest_first=float(stamps[0]),
                    ingest_last=float(stamps[-1]),
                    assembled_at=probe_window.assembled_at,
                )
        self._n_windows += 1
        self._next_emit_at = stop + self.hop
        self._last_emit_stop = stop
        return probe_window

    def extend(self, records: Sequence[Record]) -> List[ProbeWindow]:
        """Ingest a burst of ``(send_time, delay)`` records.

        Returns the windows the burst completes, in order (often none).
        ``delay`` is the one-way delay in seconds, ``NaN`` for a lost
        probe — the same convention as :class:`PathObservation`.  A
        record that is not a numeric pair raises before any record of
        the burst is buffered.  Windows do not depend on how the stream
        is split into bursts.
        """
        send_times, delays = _columns(records)
        n = len(send_times)
        stamp = None
        if _trace._TRACING:
            # One stamp per burst from the monotonic clock, clamped
            # non-decreasing, so records arriving out of send-time order
            # (or duplicated) still trace monotonically.
            stamp = max(time.monotonic(), self._last_stamp)
            self._last_stamp = stamp
            if self._stamps is None:
                self._stamps = np.full(self.window, np.nan)
        else:
            self._stamps = None
        windows: List[ProbeWindow] = []
        done = 0
        while done < n:
            # Split at the next emit point, so each piece fits in the ring.
            take = min(n - done, self._next_emit_at - self._n_pushed)
            pos = self._n_pushed % self.window
            head = min(take, self.window - pos)
            pieces = [(slice(pos, pos + head), slice(done, done + head))]
            if take > head:  # the piece wraps round the ring's end
                pieces.append((slice(0, take - head),
                               slice(done + head, done + take)))
            for ring_slice, burst_slice in pieces:
                self._send_times[ring_slice] = send_times[burst_slice]
                self._delays[ring_slice] = delays[burst_slice]
                if stamp is not None:
                    self._stamps[ring_slice] = stamp
            self._n_pushed += take
            done += take
            if self._n_pushed >= self._next_emit_at:
                windows.append(self._emit())
        return windows

    def push(self, send_time: float, delay: float) -> Optional[ProbeWindow]:
        """Ingest one probe record; returns a window when one completes.

        The one-record case of :meth:`extend`.
        """
        windows = self.extend(((send_time, delay),))
        return windows[0] if windows else None

    def tail(self, min_size: int = 2) -> Optional[ProbeWindow]:
        """The not-yet-emitted trailing partial window, if large enough.

        Called at end-of-stream so a monitor can squeeze a final verdict
        out of the leftover probes; returns ``None`` when fewer than
        ``min_size`` new records arrived since the last emitted window
        (this also covers streams shorter than one full window, whose
        only window is the tail).
        """
        fresh = self._n_pushed - self._last_emit_stop
        if fresh < min_size or min(self._n_pushed, self.window) < min_size:
            return None
        return self._emit()


def iter_windows(
    records: Iterable[Tuple[float, float]],
    window: int,
    hop: Optional[int] = None,
) -> Iterator[ProbeWindow]:
    """Convenience: stream ``(send_time, delay)`` pairs into windows."""
    assembler = SlidingWindowAssembler(window, hop)
    iterator = iter(records)
    while True:
        burst = list(islice(iterator, assembler.hop))
        if not burst:
            return
        yield from assembler.extend(burst)
