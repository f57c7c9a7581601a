"""Shared parallel-execution layer for embarrassingly-parallel workloads.

Every compute-bound fan-out in the codebase — EM random restarts,
bootstrap replicates, model-order candidates, multi-seed scenario sweeps
— funnels through :func:`parallel_map`, which provides:

* a **process pool** (Python-loop-bound numerical code gains nothing from
  threads) with **worker reuse**: pools are cached per worker count and
  reused across calls, so repeated fan-outs pay the fork cost once;
* **deterministic task seeding** via :func:`task_rng` /
  :func:`task_seed`: each task derives an independent RNG stream from a
  ``(base_seed, stream, index)`` key using :class:`numpy.random.SeedSequence`
  spawn keys, so streams never collide across restarts, replicates, or
  sweeps, and the result of a task depends only on its key — never on
  which worker ran it or in what order;
* **chunking** so many small tasks amortise IPC overhead;
* a **serial fallback** for ``n_jobs=1`` that runs tasks in-process in
  task order, with no pool, no pickling, and byte-identical results to
  the parallel path (results are always reduced in task order).

Determinism contract: for a pure ``fn``, ``parallel_map(fn, items, n)``
returns the same list for every ``n``.  The test suite asserts this for
the HMM/MMHD fits and the bootstrap.

Composition with the batched E-step engine
------------------------------------------
EM restarts run through two layers: in-process restart *batching* (the
E-step engine of :mod:`repro.models.batched` stacks all restarts into
one set of parameter tensors and runs one batched forward-backward) and
this module's process pool.  They answer different questions — batching
amortises Python-loop overhead, the pool adds CPUs — and they compose:
a fit with ``n_jobs > 1`` splits its restarts into contiguous shards
(:func:`shard_items`) and each worker batches its own shard.
Because each batch row is computed independently of its batch-mates,
per-restart results are bit-identical for every sharding, preserving
the contract above.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro import obs

_LOG = obs.get_logger(__name__)

__all__ = [
    "resolve_n_jobs",
    "parallel_map",
    "shard_items",
    "task_seed",
    "task_rng",
    "seed_sequence",
    "shutdown_pools",
    "STREAM_RESTART",
    "restart_rng",
    "STREAM_BOOTSTRAP",
    "STREAM_SWEEP",
    "STREAM_SELECTION",
    "STREAM_MONITOR",
]

T = TypeVar("T")
R = TypeVar("R")

#: Stream identifiers keeping per-task seed keys disjoint across layers.
STREAM_RESTART = 1
STREAM_BOOTSTRAP = 2
STREAM_SWEEP = 3
STREAM_SELECTION = 4
STREAM_MONITOR = 5


# ----------------------------------------------------------------------
# Deterministic per-task seeding
# ----------------------------------------------------------------------
def seed_sequence(base_seed: int, *key: int) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` for one task.

    ``key`` (e.g. ``(STREAM_RESTART, restart_index)``) becomes the spawn
    key, so distinct keys yield statistically independent, non-colliding
    streams even when base seeds are consecutive integers — the failure
    mode of the old ``seed + index`` convention, where restart 3 of seed
    10 collided with restart 0 of seed 13.
    """
    return np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=tuple(int(k) for k in key)
    )


def task_seed(base_seed: int, *key: int) -> int:
    """A 128-bit integer seed derived from ``(base_seed, *key)``."""
    words = seed_sequence(base_seed, *key).generate_state(4, np.uint32)
    out = 0
    for word in words:
        out = (out << 32) | int(word)
    return out


def task_rng(base_seed: int, *key: int) -> np.random.Generator:
    """A generator on the task's independent stream."""
    return np.random.default_rng(seed_sequence(base_seed, *key))


def restart_rng(base_seed: int, restart: int) -> np.random.Generator:
    """RNG for EM restart ``restart`` of a fit seeded with ``base_seed``.

    Restart 0 keeps the historical ``default_rng(base_seed)`` stream, so
    the ubiquitous single-restart fit is bit-identical across releases
    (committed benchmark artifacts stay reproducible).  Restarts >= 1 use
    spawned streams keyed by the restart index, which cannot collide with
    each other or with nearby base seeds — unlike the old
    ``default_rng(base_seed + restart)`` convention, where restart 3 of
    seed 10 was restart 0 of seed 13.
    """
    if restart == 0:
        return np.random.default_rng(int(base_seed))
    return task_rng(base_seed, STREAM_RESTART, restart)


# ----------------------------------------------------------------------
# Pool management
# ----------------------------------------------------------------------
def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None``/``1`` mean serial; ``-1`` (or ``0``) means one worker per
    available CPU; anything else is taken literally.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs in (-1, 0):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _make_pool(n_workers: int) -> ProcessPoolExecutor:
    # fork keeps the already-imported numpy/repro modules, making worker
    # start-up cheap and PYTHONPATH-independent; fall back to the
    # platform default where fork is unavailable (e.g. Windows).
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=n_workers, mp_context=context)


def _get_pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(n_workers)
    if pool is None:
        pool = _make_pool(n_workers)
        _POOLS[n_workers] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down all cached worker pools (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _default_chunksize(n_items: int, n_workers: int) -> int:
    # ~4 chunks per worker balances scheduling slack against IPC count.
    return max(1, -(-n_items // (4 * n_workers)))


def shard_items(items: Sequence[T], n_shards: int) -> List[List[T]]:
    """Split ``items`` into at most ``n_shards`` contiguous shards.

    Shard sizes differ by at most one (earlier shards take the extra
    item) and empty shards are never produced.  Contiguity is what lets
    a sharded consumer reassemble results in item order with a plain
    concatenation — the batched EM engine relies on this to keep its
    restart-order best-of reduction independent of the shard count.
    """
    items = list(items)
    n_shards = max(1, min(int(n_shards), len(items)))
    base, extra = divmod(len(items), n_shards)
    shards: List[List[T]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        shards.append(items[start:start + size])
        start += size
    return shards


class _TelemetryTask:
    """Carry the parent's telemetry config into a worker and ship back
    the per-task metric delta.

    The worker replays the parent's config (so instrumented code inside
    ``fn`` records normally), snapshots its registry around the task,
    and returns ``(result, delta)``.  The parent merges the deltas in
    task order, which keeps merged metrics identical for every
    ``n_jobs`` — the telemetry extension of the determinism contract.
    Event sinks backed by a file path work directly from workers
    (append is line-atomic); stream sinks stay parent-local.
    """

    __slots__ = ("fn", "config")

    def __init__(self, fn: Callable, config: dict):
        self.fn = fn
        self.config = config

    def __call__(self, item):
        obs.apply_config(self.config)
        before = obs.metrics_snapshot()
        result = self.fn(item)
        return result, obs.metrics_delta(before)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: Optional[int] = 1,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, preserving item order in the result.

    ``fn`` and the items must be picklable when ``n_jobs > 1`` (define
    workers at module level).  The reduction order is the input order
    regardless of completion order, which is what makes downstream
    "best of" reductions independent of worker scheduling.
    """
    items = list(items)
    n_workers = resolve_n_jobs(n_jobs)
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _get_pool(n_workers)
    if chunksize is None:
        chunksize = _default_chunksize(len(items), n_workers)
    with_telemetry = obs.is_enabled()
    task_fn: Callable = (
        _TelemetryTask(fn, obs.current_config()) if with_telemetry else fn
    )
    try:
        mapped = list(pool.map(task_fn, items, chunksize=chunksize))
    except BrokenProcessPool:  # pragma: no cover - worker crash recovery
        _POOLS.pop(n_workers, None)
        _LOG.warning(
            "worker pool (n_workers=%d) broke; rerunning %d task(s) serially",
            n_workers, len(items),
        )
        obs.inc("repro_pool_breaks_total")
        obs.emit("pool.broken", n_workers=n_workers, n_tasks=len(items))
        return [fn(item) for item in items]
    obs.heartbeat()  # a completed pool map is pipeline progress
    if not with_telemetry:
        return mapped
    results: List[R] = []
    for result, delta in mapped:
        obs.merge_worker_metrics(delta)
        results.append(result)
    return results
