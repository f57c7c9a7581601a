"""Multi-path monitor: many concurrent path monitors over one drain engine.

A production monitor watches many paths at once.  Per-window fits are the
only expensive step, and windows of *different* paths are independent, so
each drain round gathers one ready window per path and fits them
together: the fits of every window sharing ``(model kind, n_hidden,
n_symbols)`` stack into one ragged mega-batch
(:func:`repro.streaming.online_em.fused_streaming_fits`), and a single
batched recursion per group amortises the per-time-step Python dispatch
across the whole fleet.  Warm windows take one row each; windows without
a usable warm state (a path's first window, a shape mismatch) take
``n_restarts`` cold rows in the group's cold stack, so a service start
fits every path's first window as one stack.  Only skips stay out.
Groups shard over the process pool (:func:`repro.parallel.parallel_map`);
with fewer groups than workers, each group's windows split into
contiguous per-worker stacks, so a lone group still uses every worker.

A fused fit of a window is bit-identical to that window's own fit
(:func:`repro.models.batched.run_hedged_fits` is row-independent), so
the verdict-event stream equals the per-window reference
(:class:`~repro.streaming.tracker.PathMonitor` on each path's records)
at every ``n_jobs``.

Ordering guarantee: every window is prepared (stationarity gate +
discretization, :func:`~repro.streaming.tracker.prepare_window`) once,
where its path's assembler cuts it, inside :meth:`MultiPathMonitor
.ingest_many`.  A window that needs no fit (a ``no-losses``,
``nonstationary`` or ``degenerate`` skip) whose path has nothing pending
resolves right there: :meth:`~MultiPathMonitor.ingest_many` returns its
event, and the fleet service (:mod:`repro.service.loop`, which both
``repro monitor`` and ``repro serve`` run) publishes it before polling
the next source.  Every other window waits in its path's backlog with
its prepared result, and a skip cut behind a pending window of its own
path waits behind it, so a path's own windows always resolve in
window-index order (warm-start chaining needs window ``n``'s parameters
before window ``n + 1`` can fit).  A :meth:`~MultiPathMonitor.drain`
resolves the backlog in sub-rounds of one window per path; within a
sub-round, paths go in insertion order.  A single :meth:`_drain_round`
chains up to ``max_pending`` consecutive sub-rounds, so one backlogged
path does not serialise the drain into singleton rounds.  Across paths,
a window resolved at ingest is published before the drained windows of
the same cycle, at every ``n_jobs``.

Flow control is bounded at both ends:

* each path holds at most ``max_pending`` completed-but-unresolved
  windows (a window resolved at ingest never enters the backlog); when
  ingestion outruns fitting the *oldest* pending window is dropped (a
  live monitor prefers recency) and counted in :attr:`MultiPathMonitor
  .dropped_windows`;
* emitted events land in a bounded ring (:attr:`MultiPathMonitor.events`)
  in addition to being returned from :meth:`~MultiPathMonitor.ingest_many`
  or :meth:`~MultiPathMonitor.drain`, so a slow consumer can always catch
  up on the recent history without unbounded growth.

Determinism: :func:`~repro.streaming.tracker.prepare_window`, the fused
fit and :func:`~repro.streaming.tracker.finish_window` are pure functions
of ``(observation, warm state, config, window index)`` and results are
applied in path order, so event streams are identical for every
``n_jobs``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.models.telemetry import record_drain_round
from repro.obs.profiling import profile_phase
from repro.parallel import parallel_map, resolve_n_jobs, shard_items
from repro.streaming.online_em import WarmState, fused_streaming_fits
from repro.streaming.tracker import (
    MonitorConfig,
    PreparedWindow,
    VerdictEvent,
    VerdictTracker,
    WindowAnalysis,
    finish_window,
    prepare_window,
)
from repro.streaming.windows import ProbeWindow, SlidingWindowAssembler

__all__ = ["MultiPathMonitor"]

_LOG = obs.get_logger(__name__)


def _fused_group_task(task):
    """Mega-batch fit of one fused group (parallel-map worker; top-level).

    Returns ``(fit results, batch info)`` from
    :func:`~repro.streaming.online_em.fused_streaming_fits`.  Profiled
    as one ``window.fit`` phase, the per-window fit's phase name.
    """
    kind, n_hidden, seqs, configs, warms = task
    with profile_phase("window.fit"):
        return fused_streaming_fits(kind, seqs, n_hidden, configs, warms)


class _Pending:
    """A window waiting in its path's backlog, with its prepared stage-1
    result (the drain fits it without preparing it again)."""

    __slots__ = ("window", "prepared")

    def __init__(self, window: ProbeWindow, prepared: PreparedWindow):
        self.window = window
        self.prepared = prepared

    @property
    def index(self) -> int:
        return self.window.index


class _PathState:
    """Everything one monitored path carries between drains."""

    __slots__ = ("config", "assembler", "tracker", "warm", "pending",
                 "dropped")

    def __init__(self, config: MonitorConfig, max_pending: int):
        self.config = config
        self.assembler = SlidingWindowAssembler(config.window, config.hop)
        self.tracker = VerdictTracker(config.confirm, config.memory)
        self.warm: Optional[WarmState] = None
        self.pending: Deque[_Pending] = deque(maxlen=max_pending)
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
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        n_jobs: int = 1,
        max_pending: int = 8,
        max_events: int = 1024,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.config = config or MonitorConfig()
        self.n_jobs = n_jobs
        self.max_pending = int(max_pending)
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
                    item = state.pending.popleft()
                    state.dropped += 1
                    self._n_pending -= 1
                    shed.append((path, item.index))
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

    def ingest(self, path: str, send_time: float,
               delay: float) -> List[VerdictEvent]:
        """Push one probe record for one path: the one-record case of
        :meth:`ingest_many`."""
        return self.ingest_many(path, ((send_time, delay),))

    def ingest_many(self, path: str, records: Sequence[Tuple[float, float]]
                    ) -> List[VerdictEvent]:
        """Push a burst of probe records for one path (never fits).

        The burst goes to the path's assembler as array writes; a record
        that is not a numeric ``(send_time, delay)`` pair raises before
        any record of the burst is buffered.  Each window the burst
        completes is prepared here, once.  A skip whose path has nothing
        pending resolves at once; the other windows join the path's
        backlog for :meth:`drain`.  Returns the events of the windows
        resolved here, in window order, for the caller to publish before
        it polls the next source.
        """
        state = self._state(path)
        windows = state.assembler.extend(records)
        return self._cut(path, state, windows) if windows else []

    def _cut(self, path: str, state: _PathState,
             windows: Sequence[ProbeWindow]) -> List[VerdictEvent]:
        """Prepare freshly cut windows: resolve skips with nothing ahead
        of them, queue the rest.

        The pending-window total is maintained incrementally rather than
        summed across paths, so the cost stays flat at fleet scale.
        """
        events: List[VerdictEvent] = []
        queued = False
        for probe_window in windows:
            trace = probe_window.trace
            started = time.monotonic() if trace is not None else None
            # Called through this module's global: perfbench times the
            # preparation by wrapping ``scheduler.prepare_window``.
            prepared = prepare_window(probe_window.observation, state.config,
                                      probe_window.index)
            if prepared.skip is not None and not state.pending:
                if trace is not None:
                    # Resolved where it was cut: no queue wait, and the
                    # gate's work stands in for the fit stage.
                    trace.drain_started = trace.fit_started = started
                    trace.fit_ended = time.monotonic()
                events.append(
                    self._resolve(path, state, probe_window, prepared.skip))
                continue
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
            state.pending.append(_Pending(probe_window, prepared))
            queued = True
        if queued:
            obs.set_gauge("repro_pending_windows", self._n_pending)
        return events

    def _resolve(self, path: str, state: _PathState, probe_window: ProbeWindow,
                 analysis: WindowAnalysis) -> VerdictEvent:
        """Fold one window's analysis into its path's state; the event."""
        if analysis.warm_state is not None:
            state.warm = analysis.warm_state
        event = state.tracker.event_for(path, probe_window, analysis)
        self.events.append(event)
        return event

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
    def _take_round(self) -> List[Tuple[str, _Pending]]:
        """Pop the oldest pending window of every backlogged path."""
        batch: List[Tuple[str, _Pending]] = []
        for path, state in self._paths.items():
            if state.pending:
                batch.append((path, state.pending.popleft()))
        self._n_pending -= len(batch)
        traces = [item.window.trace for _, item in batch
                  if item.window.trace is not None]
        if traces:
            # Tracing on: the ready-queue wait ends here for every
            # window of the sub-round (they leave the queue together).
            now = time.monotonic()
            for trace in traces:
                trace.drain_started = now
        return batch

    def _fused_analyses(self, batch, analyses):
        """Fit one sub-round's unresolved windows through the mega-batch
        engine, filling their ``analyses`` slots.

        Every window whose slot is empty joins the ragged mega-batch of
        its ``(kind, n_hidden, n_symbols)`` group, warm or not: a window
        without a usable warm state (a path's first window, a shape
        mismatch) fits in the group's cold stack.  Groups shard over the
        pool, split into per-worker stacks when there are fewer groups
        than workers.  Returns the round's batch accounting.
        """
        prepared = [item.prepared for _, item in batch]
        groups: Dict[Tuple[str, int, int], List[int]] = {}
        for i, (path, _) in enumerate(batch):
            if analyses[i] is not None:
                continue
            config = self._paths[path].config
            groups.setdefault(
                (config.model, config.n_hidden, prepared[i].seq.n_symbols), []
            ).append(i)
        # Fewer groups than workers: each group's windows split into
        # contiguous per-worker stacks (rows are independent, so no fit
        # changes).
        n_shards = resolve_n_jobs(self.n_jobs) // max(1, len(groups))
        stacks = [(key, part) for key, idxs in groups.items()
                  for part in shard_items(idxs, n_shards)]
        tasks = [
            (
                kind,
                n_hidden,
                [prepared[i].seq for i in idxs],
                [prepared[i].em for i in idxs],
                [self._paths[batch[i][0]].warm for i in idxs],
            )
            for (kind, n_hidden, _), idxs in stacks
        ]
        outcomes = parallel_map(_fused_group_task, tasks, n_jobs=self.n_jobs)
        stats = {"groups": len(groups), "rows": 0, "slots": 0,
                 "padded": 0.0}
        for (_, idxs), (results, info) in zip(stacks, outcomes):
            for i, result in zip(idxs, results):
                analyses[i] = finish_window(prepared[i], result,
                                            self._paths[batch[i][0]].config,
                                            window_index=batch[i][1].index)
            slots = info["rows"] * info["t_max"]
            stats["rows"] += info["rows"]
            stats["slots"] += slots
            stats["padded"] += info["pad_fraction"] * slots
        return stats

    def _fit_round(self, batch):
        """Resolve one sub-round's windows; apply results in path order.

        Skips queued behind a pending window resolve from their prepared
        result; the other windows fit through the fused engine.
        """
        traces = [item.window.trace for _, item in batch
                  if item.window.trace is not None]
        if traces:
            # Windows resolved together share the batch's E-step span:
            # the per-window ``fit`` stage answers "how long was this
            # window inside the solver", not solver-seconds consumed.
            started = time.monotonic()
            for trace in traces:
                trace.fit_started = started
        analyses: List[Optional[WindowAnalysis]] = [
            item.prepared.skip for _, item in batch]
        stats = self._fused_analyses(batch, analyses)
        if traces:
            ended = time.monotonic()
            for trace in traces:
                trace.fit_ended = ended
        events = [self._resolve(path, self._paths[path], item.window, analysis)
                  for (path, item), analysis in zip(batch, analyses)]
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
        started = time.perf_counter()
        events: List[VerdictEvent] = []
        totals = {"windows": 0, "groups": 0, "rows": 0, "slots": 0,
                  "padded": 0.0}
        for _ in range(self.max_pending):
            batch = self._take_round()
            if not batch:
                break
            sub_events, stats = self._fit_round(batch)
            events.extend(sub_events)
            totals["windows"] += len(batch)
            for key in ("groups", "rows", "slots", "padded"):
                totals[key] += stats[key]
        if totals["windows"]:
            pad_fraction = (totals["padded"] / totals["slots"]
                            if totals["slots"] else 0.0)
            dur_s = time.perf_counter() - started
            self.last_drain = {
                "mode": "fused",
                "windows": totals["windows"],
                "groups": totals["groups"],
                "rows": totals["rows"],
                "pad_fraction": round(pad_fraction, 6),
                "dur_s": round(dur_s, 6),
            }
            record_drain_round(
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
        """Flush trailing partial windows for every path, then drain.

        A tail is cut like any other window: a skip with nothing pending
        on its path resolves first, in path order, then the drain's
        events follow.
        """
        events: List[VerdictEvent] = []
        for path, state in self._paths.items():
            tail = state.assembler.tail()
            if tail is not None:
                events.extend(self._cut(path, state, [tail]))
        events.extend(self.drain())
        return events
