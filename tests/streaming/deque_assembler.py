"""Reference assembler for the ring-buffer parity tests.

This is the record-at-a-time deque assembler that
:class:`repro.streaming.windows.SlidingWindowAssembler` replaced, without
its tracing stamps (the ring stamps once per burst).  A stream pushed
through it one record at a time gives the windows the ring assembler
must reproduce byte for byte, however the stream is split into bursts.
"""

from collections import deque
from typing import Optional

import numpy as np

from repro.netsim.trace import PathObservation
from repro.streaming.windows import ProbeWindow


class DequeAssembler:
    """``SlidingWindowAssembler`` semantics over deques of floats."""

    def __init__(self, window: int, hop: int):
        self.window = int(window)
        self.hop = int(hop)
        self._send_times = deque(maxlen=window)
        self._delays = deque(maxlen=window)
        self._n_pushed = 0
        self._n_windows = 0
        self._next_emit_at = window
        self._last_emit_stop = 0

    def _emit(self) -> ProbeWindow:
        stop = self._n_pushed
        probe_window = ProbeWindow(
            index=self._n_windows,
            start=stop - len(self._send_times),
            stop=stop,
            observation=PathObservation(
                np.array(self._send_times), np.array(self._delays)
            ),
        )
        self._n_windows += 1
        self._next_emit_at = stop + self.hop
        self._last_emit_stop = stop
        return probe_window

    def push(self, send_time: float, delay: float) -> Optional[ProbeWindow]:
        self._send_times.append(float(send_time))
        self._delays.append(float(delay))
        self._n_pushed += 1
        if self._n_pushed >= self._next_emit_at:
            return self._emit()
        return None

    def tail(self, min_size: int = 2) -> Optional[ProbeWindow]:
        fresh = self._n_pushed - self._last_emit_stop
        if fresh < min_size or len(self._send_times) < min_size:
            return None
        return self._emit()
