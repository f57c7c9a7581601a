"""Workload inputs: closed-loop replay sources and their record generators.

Inputs are generated lazily, one hop per poll, so generation stays a few
percent of the timed phase and ``peak_rss_mb`` measures the program
rather than a pre-built record array.  Every generator is a pure
function of the workload seed and the path index.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.streams import strong_dcl_stream
from repro.service import IngestSource

Record = Tuple[float, float]

#: Probe period of every generated stream (the paper's 20 ms).
INTERVAL = 0.02


class ReplaySource(IngestSource):
    """The replay client of one path, in a closed loop with the service.

    :class:`~repro.service.loop.FleetService` polls every bound source
    once per cycle, so this source hands over its next hop of records
    only after the previous cycle returned: a closed loop with one
    client, driven at the service's maximum rate.

    ``limit`` caps the records this source ever yields (``None`` while
    the workload is still setting up).  For every window a burst
    completes, ``stamps[(path, index)]`` receives the moment the burst
    was yielded: the start of that window's record-to-verdict latency;
    the traced run also appends it to ``ready``.
    """

    def __init__(self, path: str, generate: Callable[[int], List[Record]],
                 window: int, hop: int, stamps: Dict[Tuple[str, int], float],
                 ready: Optional[List[float]] = None):
        self.path = path
        self._generate = generate
        self.window = window
        self.hop = hop
        self.stamps = stamps
        self.ready = ready
        self.sent = 0
        self.limit: Optional[int] = None

    def expected_windows(self) -> int:
        """Windows the service assembles from the records yielded so far."""
        if self.sent < self.window:
            return 0
        return 1 + (self.sent - self.window) // self.hop

    def poll(self, max_records: int) -> List[Record]:
        n = max_records
        if self.limit is not None:
            n = min(n, self.limit - self.sent)
        if n <= 0:
            self.exhausted = True
            return []
        records = self._generate(n)
        first_window = self.expected_windows()
        self.sent += n
        if self.limit is not None and self.sent >= self.limit:
            self.exhausted = True
        completed = self.expected_windows()
        if completed > first_window:
            now = time.perf_counter()
            for index in range(first_window, completed):
                self.stamps[(self.path, index)] = now
                if self.ready is not None:
                    self.ready.append(now)
        return records


def congested_generator(seed: int, path_index: int,
                        loss_prob: float) -> Callable[[int], List[Record]]:
    """Next-``n`` records of one saturated droptail path (strong DCL)."""
    stream = strong_dcl_stream(
        1 << 62, loss_prob=loss_prob, seed=seed * 1000 + path_index)

    def generate(n: int) -> List[Record]:
        return list(itertools.islice(stream, n))

    return generate


def quiet_generator(seed: int, path_index: int,
                    jump_at: Optional[int]) -> Callable[[int], List[Record]]:
    """Next-``n`` records of a loss-free path (vectorised per hop).

    Queuing delay is uniform below a ceiling of 0.1 s; with ``jump_at``
    the ceiling is 0.05 s before that probe index and 0.12 s from it on,
    so the windows straddling the jump fail the stationarity gate.
    """
    rng = np.random.default_rng([seed, path_index])
    position = 0

    def generate(n: int) -> List[Record]:
        nonlocal position
        index = np.arange(position, position + n)
        position += n
        if jump_at is None:
            ceiling = 0.1
        else:
            ceiling = np.where(index < jump_at, 0.05, 0.12)
        delays = 0.02 + ceiling * rng.random(n)
        return list(zip((index * INTERVAL).tolist(), delays.tolist()))

    return generate
