"""Stationary-segment selection for long probe traces.

The paper's Internet experiments "select a stationary probing sequence of
20 min" from each one-hour trace — the identification method assumes the
loss/delay process is stationary over the analysed window.  This module
provides a pragmatic selector: split the trace into windows, summarise
each (median delay, loss rate), and return the longest contiguous run of
windows whose summaries stay within tolerance bands of the run's own
medians.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.netsim.trace import PathObservation

__all__ = [
    "WindowSummary",
    "summarize_windows",
    "select_stationary_segment",
    "observation_is_stationary",
]


class WindowSummary:
    """Per-window statistics used by the stationarity scan."""

    def __init__(self, start: int, stop: int, median_delay: float, loss_rate: float):
        self.start = int(start)
        self.stop = int(stop)
        self.median_delay = float(median_delay)
        self.loss_rate = float(loss_rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowSummary([{self.start}:{self.stop}), "
            f"median={self.median_delay:.4f}s, loss={self.loss_rate:.3%})"
        )


def _chunk_summaries(delays: np.ndarray, window: int):
    """Median delay and loss rate of every whole ``window``-probe chunk.

    One row sort puts each chunk's lost probes (NaN) last, so its median
    is the mean of the middle one or two observed entries, as ``np.median``
    computes it (an all-lost chunk's middle entries are NaN).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    k = len(delays) // window
    ordered = np.sort(delays[:k * window].reshape(k, window), axis=1)
    n_lost = np.isnan(ordered).sum(axis=1)
    n_observed = window - n_lost
    rows = np.arange(k)
    medians = (ordered[rows, (n_observed - 1) // 2]
               + ordered[rows, n_observed // 2]) / 2
    return medians, n_lost / window


def summarize_windows(
    observation: PathObservation, window: int
) -> List[WindowSummary]:
    """Split into ``window``-sized chunks and summarise each.

    Windows that are entirely losses get a NaN median and are never part
    of a stationary run.
    """
    medians, loss_rates = _chunk_summaries(observation.delays, window)
    return [
        WindowSummary(i * window, (i + 1) * window, median, loss_rate)
        for i, (median, loss_rate) in enumerate(zip(medians.tolist(),
                                                    loss_rates.tolist()))
    ]


def _median(values: np.ndarray):
    """``np.median`` of a NaN-free 1-D array, bit for bit: the mean of
    the middle entry or pair of a sorted copy, summed from 0.0 as
    ``np.mean`` sums (so a -0.0 median reads 0.0)."""
    ordered = np.sort(values)
    half, odd = divmod(len(ordered), 2)
    if odd:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2


def _within_bands(medians: np.ndarray, loss_rates: np.ndarray,
                  delay_tolerance: float, loss_tolerance: float) -> bool:
    """Whether a run of chunk summaries stays within the tolerance bands
    of its own medians."""
    if np.isnan(medians).any():
        return False
    center = _median(medians)
    if center <= 0:
        return False
    if np.abs(medians - center).max() > delay_tolerance * center:
        return False
    return bool(np.abs(loss_rates - _median(loss_rates)).max()
                <= loss_tolerance)


def observation_is_stationary(
    observation: PathObservation,
    window: Optional[int] = None,
    delay_tolerance: float = 0.2,
    loss_tolerance: float = 0.05,
) -> bool:
    """Whether a whole observation passes the stationarity bands.

    The observation is split into ``window``-probe chunks (default: a
    quarter of the record, so every check sees at least four summaries)
    and accepted when *all* chunk medians/loss rates stay within the
    tolerance bands of :func:`select_stationary_segment`.  The streaming
    verdict tracker gates each sliding window on this check so verdicts
    are only updated from data the paper's identification method is
    valid for.
    """
    n = len(observation)
    stationary = False
    if n:
        medians, loss_rates = _chunk_summaries(
            observation.delays, max(1, n // 4) if window is None else window)
        stationary = len(medians) > 0 and _within_bands(
            medians, loss_rates, delay_tolerance, loss_tolerance)
    obs.inc("repro_stationarity_checks_total", 1.0,
            result="stationary" if stationary else "nonstationary")
    return stationary


def select_stationary_segment(
    observation: PathObservation,
    window: int = 1000,
    delay_tolerance: float = 0.2,
    loss_tolerance: float = 0.05,
    min_windows: int = 2,
) -> Tuple[PathObservation, Tuple[int, int]]:
    """Longest contiguous stationary run of windows.

    Parameters
    ----------
    window:
        Probes per window (1000 probes = 20 s at the paper's rate).
    delay_tolerance:
        Allowed relative deviation of window median delays from the run
        median.
    loss_tolerance:
        Allowed absolute deviation of window loss rates.
    min_windows:
        Shortest acceptable run; if nothing qualifies, the full trace is
        returned (with its own index range) rather than failing — the
        caller can inspect the range to detect that fallback.

    Returns
    -------
    (segment, (start, stop)):
        The selected sub-observation and its probe index range.
    """
    medians, loss_rates = _chunk_summaries(observation.delays, window)
    n = len(medians)
    if not n:
        return observation, (0, len(observation))
    best: Optional[Tuple[int, int]] = None
    start = 0
    while start < n:
        stop = start + 1
        # Greedily extend while the run stays stationary.
        while stop <= n and _within_bands(
            medians[start:stop], loss_rates[start:stop], delay_tolerance,
            loss_tolerance,
        ):
            stop += 1
        run_len = stop - 1 - start
        if run_len >= min_windows and (best is None or run_len > best[1] - best[0]):
            best = (start, stop - 1)
        start = max(stop - 1, start + 1)
    if best is None:
        return observation, (0, len(observation))
    probe_range = (best[0] * window, best[1] * window)
    return observation.segment(*probe_range), probe_range
