"""A pathchar/pchar-style per-hop capacity estimator.

The paper cross-checks its Internet identifications against pchar's link
bandwidth estimates.  We provide the same independent check against the
simulator: send probes of varying sizes, record — per path *prefix* — the
minimum delay over many repetitions, and regress minimum delay against
packet size.  The slope of prefix ``i`` is ``sum_{j<=i} 8 / bandwidth_j``,
so per-hop capacity falls out of slope differences (Jacobson's pathchar
method, using one-way prefix delays instead of ICMP round trips).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # annotation only: importing the tools loads no simulator
    from repro.netsim.topology import Network

__all__ = ["PcharResult", "PcharProber"]


class PcharResult:
    """Per-hop capacity estimates plus the raw regression slopes."""

    def __init__(
        self,
        link_names: List[str],
        capacities_bps: np.ndarray,
        prefix_slopes: np.ndarray,
    ):
        self.link_names = list(link_names)
        self.capacities_bps = np.asarray(capacities_bps, dtype=float)
        self.prefix_slopes = np.asarray(prefix_slopes, dtype=float)

    def narrow_link(self) -> str:
        """Name of the minimum-capacity (narrow) link."""
        return self.link_names[int(np.argmin(self.capacities_bps))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}={cap / 1e6:.3g}Mb/s"
            for name, cap in zip(self.link_names, self.capacities_bps)
        )
        return f"PcharResult({parts})"


class PcharProber:
    """Schedules variable-size ghost probes and estimates hop capacities.

    Usage::

        prober = PcharProber(net, "src0_0", "snk3_0")
        prober.start(at=10.0)
        net.run(until=120.0)
        result = prober.estimate()

    Probes of each size are repeated ``repetitions`` times, spaced
    ``interval`` apart; per (prefix, size) the minimum delay filters out
    queuing, exactly as pathchar does.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        sizes: Optional[Sequence[int]] = None,
        repetitions: int = 32,
        interval: float = 0.05,
    ):
        self.network = network
        self.sim = network.sim
        self.path = network.path_links(src, dst)
        self.sizes = list(sizes) if sizes is not None else [64, 256, 512, 1024, 1500]
        if len(self.sizes) < 2:
            raise ValueError("need at least two probe sizes for a slope")
        self.repetitions = int(repetitions)
        self.interval = float(interval)
        self._rng = self.sim.rng(f"pchar:{src}->{dst}")
        n_hops = len(self.path)
        # min_delay[prefix, size_index]: best cumulative delay seen.
        self._min_delay = np.full((n_hops, len(self.sizes)), np.inf)
        self._sent = 0

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin probing at time ``at`` (default: now)."""
        when = self.sim.now if at is None else at
        self.sim.schedule_at(when, self._send_next)

    def _send_next(self) -> None:
        total = self.repetitions * len(self.sizes)
        if self._sent >= total:
            return
        size_index = self._sent % len(self.sizes)
        self._sent += 1
        self._launch(size_index)
        self.sim.schedule(self.interval, self._send_next)

    def _launch(self, size_index: int) -> None:
        size = self.sizes[size_index]
        state = {"elapsed": 0.0}

        def hop(hop_index: int) -> None:
            if hop_index == len(self.path):
                return
            link = self.path[hop_index]
            transit = link.probe_transit(size, self._rng)
            state["elapsed"] += transit.latency
            if state["elapsed"] < self._min_delay[hop_index, size_index]:
                self._min_delay[hop_index, size_index] = state["elapsed"]
            self.sim.schedule(transit.latency, lambda: hop(hop_index + 1))

        hop(0)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self) -> PcharResult:
        """Regress min delay vs size per prefix; difference the slopes."""
        if not np.isfinite(self._min_delay).all():
            raise ValueError("not all (prefix, size) cells measured yet")
        sizes = np.asarray(self.sizes, dtype=float)
        slopes = np.empty(len(self.path))
        for prefix in range(len(self.path)):
            slope, _ = np.polyfit(sizes, self._min_delay[prefix], 1)
            slopes[prefix] = slope
        per_hop = np.diff(slopes, prepend=0.0)
        # slope is seconds per byte of cumulative transmission: 8 / bw.
        per_hop = np.maximum(per_hop, 1e-12)
        capacities = 8.0 / per_hop
        return PcharResult(
            link_names=[link.name for link in self.path],
            capacities_bps=capacities,
            prefix_slopes=slopes,
        )
