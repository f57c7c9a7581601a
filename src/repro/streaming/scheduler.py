"""Multi-path monitor: many concurrent path monitors over one drain engine.

A production monitor watches many paths at once.  Per-window fits are the
only expensive step, and windows of *different* paths are independent, so
each drain round gathers one ready window per path and resolves them
together — through one of two engines:

* ``drain_mode="pool"`` fans the windows over
  :func:`repro.parallel.parallel_map` (the PR-1 process pool), one task
  per window;
* ``drain_mode="fused"`` stacks the warm fits of every window sharing
  ``(model kind, n_hidden, n_symbols)`` into one ragged mega-batch
  (:func:`repro.streaming.online_em.fused_streaming_fits`) and runs a
  single batched recursion per group — amortising the per-time-step
  Python dispatch across the whole fleet.  Windows the mega-batch cannot
  take (no usable warm state, or skipped by the gate) fall back to the
  per-window path inside the same round.  When
  several groups form, they are sharded over the pool — groups, not
  windows, are the parallel unit.

``drain_mode="auto"`` (the default) is ``"fused"``.  Because both
engines run the same per-window
kernel (:func:`repro.models.batched.run_hedged_fits` is the one-window
case of the fused fit), the emitted verdict-event stream is
byte-identical across every ``drain_mode`` and every ``n_jobs``.

Ordering guarantee: a :meth:`MultiPathMonitor.drain` resolves windows in
sub-rounds of one window per path; within a sub-round, paths go in
insertion order, and a path's own windows always resolve in window-index
order (warm-start chaining needs window ``n``'s parameters before window
``n + 1`` can fit).  A single :meth:`_drain_round` now chains up to
``max_pending`` consecutive sub-rounds, so one backlogged path no longer
serialises the drain into singleton rounds — the event order is the same
either way.

Flow control is bounded at both ends:

* each path holds at most ``max_pending`` completed-but-unfitted windows;
  when ingestion outruns fitting the *oldest* pending window is dropped
  (a live monitor prefers recency) and counted in :attr:`MultiPathMonitor
  .dropped_windows`;
* emitted events land in a bounded ring (:attr:`MultiPathMonitor.events`)
  in addition to being returned from :meth:`drain`, so a slow consumer
  can always catch up on the recent history without unbounded growth.

Determinism: :func:`~repro.streaming.tracker.analyze_window` is a pure
function of ``(observation, warm state, config, window index)`` and
results are applied in path order, so event streams are identical for
every ``n_jobs``.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import (Deque, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro import obs
from repro.models.telemetry import record_drain_round
from repro.parallel import parallel_map
from repro.streaming.online_em import WarmState, fused_streaming_fits
from repro.streaming.tracker import (
    MonitorConfig,
    VerdictEvent,
    VerdictTracker,
    WindowAnalysis,
    analyze_window,
    finish_window,
    prepare_window,
)
from repro.streaming.windows import ProbeWindow, SlidingWindowAssembler

__all__ = ["MultiPathMonitor", "DRAIN_MODES"]

_LOG = obs.get_logger(__name__)

#: Accepted ``drain_mode`` values (``"auto"`` resolves per config).
DRAIN_MODES = ("auto", "fused", "pool")


def _analyze_task(task) -> WindowAnalysis:
    """Fit + test one window (parallel-map worker; must stay top-level)."""
    observation, warm, config, window_index = task
    return analyze_window(observation, warm, config, window_index=window_index)


def _fused_group_task(task):
    """Mega-batch fit of one fused group (parallel-map worker; top-level).

    Returns ``(fit results, batch info)`` from
    :func:`~repro.streaming.online_em.fused_streaming_fits`.
    """
    kind, n_hidden, seqs, configs, warms = task
    return fused_streaming_fits(kind, seqs, n_hidden, configs, warms)


class _PathState:
    """Everything one monitored path carries between drains."""

    __slots__ = ("config", "assembler", "tracker", "warm", "pending",
                 "dropped")

    def __init__(self, config: MonitorConfig, max_pending: int):
        self.config = config
        self.assembler = SlidingWindowAssembler(config.window, config.hop)
        self.tracker = VerdictTracker(config.confirm, config.memory)
        self.warm: Optional[WarmState] = None
        self.pending: Deque[ProbeWindow] = deque(maxlen=max_pending)
        self.dropped = 0


class MultiPathMonitor:
    """Concurrent sliding-window monitors over many paths.

    Parameters
    ----------
    config:
        Shared :class:`MonitorConfig` for every path.
    n_jobs:
        Worker processes for the per-drain fit fan-out (``1`` = serial,
        ``-1`` = all CPUs).  Results are identical at any value.
    max_pending:
        Per-path backlog bound; overflow drops the oldest pending window.
    max_events:
        Size of the retained event ring (:attr:`events`).
    drain_mode:
        ``"fused"`` mega-batches each round's warm fits into one ragged
        batched recursion per ``(model, n_hidden, n_symbols)`` group;
        ``"pool"`` runs one pool task per window; ``"auto"`` (default)
        is ``"fused"``.  Event streams are identical in every mode.
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        n_jobs: int = 1,
        max_pending: int = 8,
        max_events: int = 1024,
        drain_mode: str = "auto",
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if drain_mode not in DRAIN_MODES:
            raise ValueError(
                f"drain_mode must be one of {DRAIN_MODES}, got {drain_mode!r}"
            )
        self.config = config or MonitorConfig()
        self.n_jobs = n_jobs
        self.max_pending = int(max_pending)
        self.drain_mode = drain_mode
        self.events: Deque[VerdictEvent] = deque(maxlen=max_events)
        self._paths: Dict[str, _PathState] = {}
        self._n_pending = 0
        #: Accounting of the most recent non-empty :meth:`_drain_round`
        #: (mode, windows, groups, rows, pad_fraction, dur_s) — the
        #: fleet service surfaces it under ``GET /fleet``.
        self.last_drain: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _state(self, path: str) -> _PathState:
        state = self._paths.get(path)
        if state is None:
            state = _PathState(self.config, self.max_pending)
            self._paths[path] = state
        return state

    def add_path(self, path: str,
                 config: Optional[MonitorConfig] = None) -> None:
        """Explicitly register a path, optionally with its own config.

        Paths also auto-register on first :meth:`ingest` with the shared
        config; this entry point is for the fleet service's runtime
        registry, which supports per-path config overrides.  Per-path
        configs still fuse: windows group by ``(model, n_hidden,
        n_symbols)``, so only paths whose overrides change those keys
        split into separate mega-batches.
        """
        if path in self._paths:
            raise ValueError(f"path {path!r} is already monitored")
        self._paths[path] = _PathState(config or self.config,
                                       self.max_pending)

    def remove_path(self, path: str) -> int:
        """Drop one path and its backlog; returns the discarded windows.

        Removal is immediate and deterministic: pending windows of the
        path never resolve, its warm state and hysteresis history are
        discarded, and a later :meth:`add_path` of the same name starts
        from scratch (the service layer's generation counters keep late
        records of the old incarnation out).
        """
        state = self._paths.pop(path, None)
        if state is None:
            raise KeyError(f"path {path!r} is not monitored")
        discarded = len(state.pending)
        self._n_pending -= discarded
        obs.set_gauge("repro_pending_windows", self._n_pending)
        return discarded

    def has_path(self, path: str) -> bool:
        """Whether the path currently holds monitor state."""
        return path in self._paths

    def path_names(self) -> List[str]:
        """Monitored paths in insertion (drain) order."""
        return list(self._paths)

    def shed_oldest(self, n_windows: int) -> List[Tuple[str, int]]:
        """Drop up to ``n_windows`` oldest pending windows fleet-wide.

        The backpressure shed primitive: one round-robin pass order —
        paths in insertion order, each losing its oldest pending window
        before any path loses a second — so the shed set is a
        deterministic function of the backlog, never of wall-clock
        timing.  Returns the ``(path, window_index)`` pairs shed.
        """
        shed: List[Tuple[str, int]] = []
        while len(shed) < n_windows:
            progressed = False
            for path, state in self._paths.items():
                if len(shed) >= n_windows:
                    break
                if state.pending:
                    window = state.pending.popleft()
                    state.dropped += 1
                    self._n_pending -= 1
                    shed.append((path, window.index))
                    progressed = True
            if not progressed:
                break
        if shed:
            obs.set_gauge("repro_pending_windows", self._n_pending)
        return shed

    def path_hops(self) -> Dict[str, int]:
        """Current window stride of every path (for stride coarsening)."""
        return {path: state.assembler.hop
                for path, state in self._paths.items()}

    def path_windows(self) -> Dict[str, int]:
        """Window length of every path (the cap for stride coarsening)."""
        return {path: state.assembler.window
                for path, state in self._paths.items()}

    def set_path_hop(self, path: str, hop: int) -> None:
        """Change one path's window stride in place.

        Takes effect from the next emitted window (the assembler
        schedules window ``n + 1`` when it emits window ``n``); the
        coarsen backpressure policy uses this to trade verdict cadence
        for drain load without losing the overlap buffer.
        """
        state = self._paths[path]
        if not 1 <= hop <= state.assembler.window:
            raise ValueError(
                f"hop must lie in 1..{state.assembler.window}, got {hop}"
            )
        state.assembler.hop = int(hop)

    def ingest(self, path: str, send_time: float, delay: float) -> None:
        """Push one probe record for one path: the one-record case of
        :meth:`ingest_many`."""
        self.ingest_many(path, ((send_time, delay),))

    def ingest_many(self, path: str,
                    records: Sequence[Tuple[float, float]]) -> None:
        """Push a burst of probe records for one path (cheap; never fits).

        The burst goes to the path's assembler as array writes; a record
        that is not a numeric ``(send_time, delay)`` pair raises before
        any record of the burst is buffered.  The pending-window total is
        maintained incrementally rather than summed across paths, so the
        cost stays flat at fleet scale.
        """
        state = self._state(path)
        windows = state.assembler.extend(records)
        for probe_window in windows:
            if len(state.pending) == state.pending.maxlen:
                state.dropped += 1
                _LOG.warning(
                    "path %r backlog full (max_pending=%d); dropping oldest "
                    "pending window %d",
                    path, self.max_pending, state.pending[0].index,
                )
                obs.inc("repro_windows_dropped_total")
            else:
                self._n_pending += 1
            state.pending.append(probe_window)
        if windows:
            obs.set_gauge("repro_pending_windows", self._n_pending)

    @property
    def n_pending(self) -> int:
        """Completed windows waiting for a :meth:`drain`."""
        return self._n_pending

    @property
    def pending_windows(self) -> Dict[str, int]:
        """Per-path count of completed windows awaiting a drain."""
        return {path: len(s.pending) for path, s in self._paths.items()}

    @property
    def dropped_windows(self) -> Dict[str, int]:
        """Per-path count of windows dropped to backlog pressure."""
        return {path: s.dropped for path, s in self._paths.items()
                if s.dropped}

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _resolve_drain_mode(self) -> str:
        """The concrete engine this monitor's rounds run on."""
        return "pool" if self.drain_mode == "pool" else "fused"

    def _take_round(self) -> List[Tuple[str, ProbeWindow]]:
        """Pop the oldest pending window of every backlogged path."""
        batch: List[Tuple[str, ProbeWindow]] = []
        for path, state in self._paths.items():
            if state.pending:
                batch.append((path, state.pending.popleft()))
        self._n_pending -= len(batch)
        if batch and any(pw.trace is not None for _, pw in batch):
            # Tracing on: the ready-queue wait ends here for every
            # window of the sub-round (they leave the queue together).
            now = time.monotonic()
            for _, pw in batch:
                if pw.trace is not None:
                    pw.trace.drain_started = now
        return batch

    def _fused_analyses(self, batch):
        """Resolve one sub-round's windows through the mega-batch engine.

        Windows are prepared (gate + discretize) in the parent, then
        partitioned: skips resolve immediately; windows without a usable
        warm state take the same per-window path (and pool fan-out) the
        pool mode uses, so first/cold windows still parallelise; the
        rest stack into one ragged mega-batch per ``(kind, n_hidden,
        n_symbols)`` group.  Groups, not windows, shard over the pool.

        Returns ``(analyses, stats)`` with ``analyses`` in batch order.
        """
        prepared = [
            prepare_window(pw.observation, self._paths[path].config, pw.index)
            for path, pw in batch
        ]
        analyses: List[Optional[WindowAnalysis]] = [None] * len(batch)
        pool_idx: List[int] = []
        groups: Dict[Tuple[str, int, int], List[int]] = {}
        for i, ((path, pw), prep) in enumerate(zip(batch, prepared)):
            if prep.skip is not None:
                analyses[i] = prep.skip
                continue
            state = self._paths[path]
            config = state.config
            warm = state.warm
            n_symbols = prep.seq.n_symbols
            if (warm is None
                    or not warm.matches(n_symbols, config.n_hidden,
                                        config.model)):
                pool_idx.append(i)
                continue
            groups.setdefault((config.model, config.n_hidden, n_symbols),
                              []).append(i)
        if pool_idx:
            tasks = [
                (batch[i][1].observation, self._paths[batch[i][0]].warm,
                 self._paths[batch[i][0]].config, batch[i][1].index)
                for i in pool_idx
            ]
            for i, analysis in zip(
                pool_idx, parallel_map(_analyze_task, tasks,
                                       n_jobs=self.n_jobs)
            ):
                analyses[i] = analysis
        group_items = list(groups.items())
        group_tasks = [
            (
                kind,
                n_hidden,
                [prepared[i].seq for i in idxs],
                [prepared[i].em for i in idxs],
                [self._paths[batch[i][0]].warm for i in idxs],
            )
            for (kind, n_hidden, _), idxs in group_items
        ]
        if len(group_tasks) > 1 and self.n_jobs != 1:
            outcomes = parallel_map(_fused_group_task, group_tasks,
                                    n_jobs=self.n_jobs)
        else:
            outcomes = [_fused_group_task(task) for task in group_tasks]
        stats = {"groups": len(group_tasks), "rows": 0, "slots": 0,
                 "padded": 0.0}
        for ((_, _, _), idxs), (results, info) in zip(group_items, outcomes):
            for i, result in zip(idxs, results):
                analyses[i] = finish_window(prepared[i], result,
                                            self._paths[batch[i][0]].config,
                                            window_index=batch[i][1].index)
            slots = info["rows"] * info["t_max"]
            stats["rows"] += info["rows"]
            stats["slots"] += slots
            stats["padded"] += info["pad_fraction"] * slots
        return analyses, stats

    def _fit_round(self, batch, mode: str):
        """Resolve one sub-round's windows; apply results in path order."""
        traces = [pw.trace for _, pw in batch if pw.trace is not None]
        if traces:
            # Windows resolved together share the batch's E-step span:
            # the per-window ``fit`` stage answers "how long was this
            # window inside the solver", not solver-seconds consumed.
            started = time.monotonic()
            for trace in traces:
                trace.fit_started = started
        if mode == "fused":
            analyses, stats = self._fused_analyses(batch)
        else:
            tasks = [
                (pw.observation, self._paths[path].warm,
                 self._paths[path].config, pw.index)
                for path, pw in batch
            ]
            analyses = parallel_map(_analyze_task, tasks, n_jobs=self.n_jobs)
            stats = {"groups": 0, "rows": 0, "slots": 0, "padded": 0.0}
        if traces:
            ended = time.monotonic()
            for trace in traces:
                trace.fit_ended = ended
        events = []
        for (path, pw), analysis in zip(batch, analyses):
            state = self._paths[path]
            if analysis.warm_state is not None:
                state.warm = analysis.warm_state
            event = state.tracker.event_for(path, pw, analysis)
            self.events.append(event)
            events.append(event)
        obs.set_gauge("repro_pending_windows", self._n_pending)
        obs.heartbeat()  # a fitted sub-round is pipeline progress
        return events, stats

    def _drain_round(self) -> List[VerdictEvent]:
        """Up to ``max_pending`` chained sub-rounds of one window per path.

        Sub-round ``k + 1`` sees the warm states sub-round ``k`` wrote,
        so a backlogged path's consecutive windows warm-chain within one
        round — in the exact order (and with the exact per-window
        results) that repeated single-window rounds would produce.
        """
        mode = self._resolve_drain_mode()
        started = time.perf_counter()
        events: List[VerdictEvent] = []
        totals = {"windows": 0, "groups": 0, "rows": 0, "slots": 0,
                  "padded": 0.0}
        for _ in range(self.max_pending):
            batch = self._take_round()
            if not batch:
                break
            sub_events, stats = self._fit_round(batch, mode)
            events.extend(sub_events)
            totals["windows"] += len(batch)
            for key in ("groups", "rows", "slots", "padded"):
                totals[key] += stats[key]
        if totals["windows"]:
            pad_fraction = (totals["padded"] / totals["slots"]
                            if totals["slots"] else 0.0)
            dur_s = time.perf_counter() - started
            self.last_drain = {
                "mode": mode,
                "windows": totals["windows"],
                "groups": totals["groups"],
                "rows": totals["rows"],
                "pad_fraction": round(pad_fraction, 6),
                "dur_s": round(dur_s, 6),
            }
            record_drain_round(
                mode,
                windows=totals["windows"],
                groups=totals["groups"],
                rows=totals["rows"],
                pad_fraction=pad_fraction,
                dur_s=dur_s,
            )
        return events

    def drain(self) -> List[VerdictEvent]:
        """Fit every pending window; returns the new events in order.

        Windows of different paths fit concurrently; a path with several
        pending windows resolves them oldest-first across chained
        sub-rounds so warm-start chaining stays sequential within the
        path (see the module docstring's ordering guarantee).
        """
        events: List[VerdictEvent] = []
        while True:
            round_events = self._drain_round()
            if not round_events:
                return events
            events.extend(round_events)

    def finish(self) -> List[VerdictEvent]:
        """Flush trailing partial windows for every path, then drain."""
        for state in self._paths.values():
            tail = state.assembler.tail()
            if tail is not None:
                if len(state.pending) < state.pending.maxlen:
                    self._n_pending += 1
                state.pending.append(tail)
        return self.drain()

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------
    def run_streams(
        self,
        streams: Mapping[str, Iterable[Tuple[float, float]]],
        drain_every: Optional[int] = None,
    ) -> List[VerdictEvent]:
        """Interleave several record streams and monitor them to the end.

        Pulls ``drain_every`` records (default: one hop) from each stream
        in round-robin, draining between bursts — the synchronous stand-in
        for feeds that arrive concurrently in a live deployment.
        """
        burst = drain_every or self.config.hop
        iterators = {path: iter(stream) for path, stream in streams.items()}
        events: List[VerdictEvent] = []
        while iterators:
            exhausted = []
            for path, iterator in iterators.items():
                records = list(islice(iterator, burst))
                if records:
                    self.ingest_many(path, records)
                if len(records) < burst:
                    exhausted.append(path)
            for path in exhausted:
                del iterators[path]
            events.extend(self.drain())
        events.extend(self.finish())
        return events
