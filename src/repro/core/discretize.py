"""Delay discretization (paper Sections IV-A and V-A).

End-end queuing delay is the one-way delay minus the path propagation
delay ``P``.  The queuing-delay range ``[0, D_max - P]`` is divided into
``M`` equal bins of width ``w``; symbol ``m ∈ {1..M}`` covers the interval
``((m-1) w, m w]`` (symbol 1 also absorbs exactly-zero queuing).

When ``P`` is unknown — the common case for Internet paths — the paper
approximates it by the minimum observed delay ``D_min``, and shows the
approximation error is negligible once the probing run is minutes long
(Fig. 14 demonstrates identical results for known and unknown ``P``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.models.base import LOSS, ObservationSequence
from repro.netsim.trace import PathObservation

__all__ = ["DelayDiscretizer"]


class DelayDiscretizer:
    """Maps one-way delays to delay symbols ``1..M`` and back.

    Parameters
    ----------
    n_symbols:
        The paper's ``M`` (5 for identification, 40 for the fine-grained
        bound of Fig. 7).
    propagation_delay:
        The path's constant delay component ``P`` (known or approximated
        by ``D_min``).
    max_delay:
        The largest end-end delay ``D_max``; the top of bin ``M``.
    """

    def __init__(self, n_symbols: int, propagation_delay: float, max_delay: float):
        if n_symbols < 1:
            raise ValueError(f"need at least one symbol, got {n_symbols}")
        if max_delay <= propagation_delay:
            raise ValueError(
                f"max_delay {max_delay} must exceed propagation delay "
                f"{propagation_delay} (no queuing range to discretize)"
            )
        self.n_symbols = int(n_symbols)
        self.propagation_delay = float(propagation_delay)
        self.max_delay = float(max_delay)
        self.queuing_range = self.max_delay - self.propagation_delay
        self.bin_width = self.queuing_range / self.n_symbols

    @classmethod
    def from_observation(
        cls,
        observation: PathObservation,
        n_symbols: int,
        propagation_delay: Optional[float] = None,
    ) -> "DelayDiscretizer":
        """Build a discretizer from an observed probe run.

        ``propagation_delay`` overrides; otherwise the observation's own
        known value is used if present, else the ``D_min`` approximation.
        """
        observed = observation.observed
        if observed.size == 0:
            raise ValueError("no surviving probes in observation")
        if propagation_delay is None:
            propagation_delay = observation.propagation_delay
        if propagation_delay is None:
            propagation_delay = float(observed.min())
        return cls(n_symbols, propagation_delay, float(observed.max()))

    # ------------------------------------------------------------------
    # Delay -> symbol
    # ------------------------------------------------------------------
    def symbol_of(self, delay: float) -> int:
        """Symbol (1-based) for one one-way delay value."""
        return int(self.symbols_of(np.array([delay]))[0])

    def symbols_of(self, delays: Sequence[float]) -> np.ndarray:
        """Symbols for an array of one-way delays; NaN maps to LOSS.

        Delays outside the calibration range are clipped into ``1..M``
        (a delay below ``P`` means the propagation estimate was slightly
        high; above ``D_max`` can occur when discretizing a different
        segment than the one used for calibration).
        """
        delays = np.asarray(delays, dtype=float)
        out = np.full(delays.shape, LOSS, dtype=int)
        observed = ~np.isnan(delays)
        queuing = delays[observed] - self.propagation_delay
        # The tiny slack keeps exact bin edges (q = m * w) in bin m despite
        # floating-point rounding of the division.
        symbols = np.ceil(queuing / self.bin_width - 1e-9).astype(int)
        out[observed] = np.clip(symbols, 1, self.n_symbols)
        return out

    def observation_sequence(self, observation: PathObservation) -> ObservationSequence:
        """Symbolize a full probe run into a model-ready sequence."""
        return ObservationSequence(
            self.symbols_of(observation.delays), self.n_symbols
        )

    # ------------------------------------------------------------------
    # Symbol -> delay
    # ------------------------------------------------------------------
    def queuing_upper_edge(self, symbol: int) -> float:
        """Upper edge of a symbol's queuing-delay bin, in seconds.

        This is the paper's conversion of a discretized bound ``d*`` back
        to an actual delay: ``d* · w``.
        """
        if not 1 <= symbol <= self.n_symbols:
            raise ValueError(f"symbol {symbol} outside 1..{self.n_symbols}")
        return symbol * self.bin_width

    def queuing_lower_edge(self, symbol: int) -> float:
        """Lower edge of a symbol's queuing-delay bin, in seconds."""
        if not 1 <= symbol <= self.n_symbols:
            raise ValueError(f"symbol {symbol} outside 1..{self.n_symbols}")
        return (symbol - 1) * self.bin_width

    def queuing_midpoint(self, symbol: int) -> float:
        """Midpoint of a symbol's queuing-delay bin, in seconds."""
        return 0.5 * (
            self.queuing_lower_edge(symbol) + self.queuing_upper_edge(symbol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DelayDiscretizer(M={self.n_symbols}, P={self.propagation_delay:.6f}s, "
            f"range={self.queuing_range:.6f}s, w={self.bin_width:.6f}s)"
        )
