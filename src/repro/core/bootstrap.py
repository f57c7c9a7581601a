"""Uncertainty for the inferred ``Ĝ`` and the test decisions.

The paper reports point identifications; a downstream user also wants to
know how stable a verdict is on their (finite, autocorrelated) probe
record.  This module provides a **moving-block bootstrap**: resample the
observation sequence in contiguous blocks (preserving the short-range
delay correlation the MMHD feeds on), refit on each pseudo-trace, and
aggregate the resulting distributions and verdicts.

The refits warm-start shorter EM runs, so a default 20-replicate
bootstrap costs roughly as much as a few full fits.

Replicate refits are independent and fan out over ``n_jobs`` worker
processes via :mod:`repro.parallel`.  The resamples themselves are drawn
serially up front from a single RNG stream (drawing is cheap; fitting is
not), so the replicate data — and therefore the aggregate confidence
numbers — are identical for every ``n_jobs``.

Inside each worker the refit batches its own restarts through the
E-step engine (:mod:`repro.models.batched`), so pool-across-replicates
and batch-within-fit compose (see :mod:`repro.parallel`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.discretize import DelayDiscretizer
from repro.core.distributions import DelayDistribution
from repro.core.hypothesis import sdcl_test, wdcl_test
from repro.core.identify import IdentifyConfig
from repro.models.base import ObservationSequence
from repro.models.hmm import fit_hmm
from repro.models.mmhd import fit_mmhd
from repro.netsim.trace import PathObservation
from repro.parallel import parallel_map

__all__ = ["BootstrapResult", "bootstrap_identification"]


class BootstrapResult:
    """Replicate distributions plus aggregate confidence numbers."""

    def __init__(
        self,
        pmfs: np.ndarray,
        sdcl_accepts: np.ndarray,
        wdcl_accepts: np.ndarray,
        block_length: int,
    ):
        self.pmfs = np.asarray(pmfs, dtype=float)
        self.sdcl_accepts = np.asarray(sdcl_accepts, dtype=bool)
        self.wdcl_accepts = np.asarray(wdcl_accepts, dtype=bool)
        self.block_length = int(block_length)

    @property
    def n_replicates(self) -> int:
        """Number of usable bootstrap replicates."""
        return len(self.pmfs)

    @property
    def sdcl_acceptance_rate(self) -> float:
        """Fraction of replicates on which SDCL-Test accepted."""
        return float(self.sdcl_accepts.mean())

    @property
    def wdcl_acceptance_rate(self) -> float:
        """Fraction of replicates on which WDCL-Test accepted."""
        return float(self.wdcl_accepts.mean())

    def pmf_interval(self, level: float = 0.9):
        """Per-symbol (lower, upper) envelope of the replicate PMFs."""
        if not 0 < level < 1:
            raise ValueError(f"level must lie in (0, 1), got {level}")
        tail = (1.0 - level) / 2.0
        lower = np.quantile(self.pmfs, tail, axis=0)
        upper = np.quantile(self.pmfs, 1.0 - tail, axis=0)
        return lower, upper

    def summary(self) -> str:
        """Human-readable acceptance rates and 90% PMF bands."""
        lower, upper = self.pmf_interval()
        bands = " ".join(
            f"{m + 1}:[{lo:.2f},{hi:.2f}]"
            for m, (lo, hi) in enumerate(zip(lower, upper))
        )
        return (
            f"bootstrap ({self.n_replicates} replicates, "
            f"block={self.block_length}):\n"
            f"  SDCL acceptance rate: {self.sdcl_acceptance_rate:.0%}\n"
            f"  WDCL acceptance rate: {self.wdcl_acceptance_rate:.0%}\n"
            f"  G 90% bands: {bands}"
        )


def _resample_blocks(
    symbols: np.ndarray, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(symbols)
    n_blocks = int(np.ceil(n / block_length))
    starts = rng.integers(0, max(1, n - block_length + 1), size=n_blocks)
    pieces = [symbols[s:s + block_length] for s in starts]
    return np.concatenate(pieces)[:n]


def _fit_replicate(task):
    """Fit + test one bootstrap replicate (parallel-map worker).

    Replicate fits run their own restarts serially (``n_jobs=1``): the
    parallelism budget is spent across replicates, never nested.
    """
    seq, config, discretizer, replicate_seed, replicate_max_iter = task
    replicate_config = config.em.replace(
        max_iter=replicate_max_iter,
        seed=replicate_seed,
        n_restarts=1,
        n_jobs=1,
    )
    fit = fit_mmhd if config.model == "mmhd" else fit_hmm
    fitted = fit(seq, n_hidden=config.n_hidden, config=replicate_config)
    distribution = DelayDistribution(fitted.virtual_delay_pmf,
                                     discretizer=discretizer)
    sdcl = sdcl_test(distribution, tolerance=config.tolerance).accepted
    wdcl = wdcl_test(distribution, config.beta0, config.beta1,
                     tolerance=config.tolerance).accepted
    return distribution.pmf, sdcl, wdcl


def bootstrap_identification(
    observation: PathObservation,
    config: Optional[IdentifyConfig] = None,
    n_replicates: int = 20,
    block_length: Optional[int] = None,
    seed: int = 0,
    replicate_max_iter: int = 40,
    n_jobs: int = 1,
) -> BootstrapResult:
    """Moving-block bootstrap of the identification pipeline.

    Parameters
    ----------
    observation:
        The measured probe record.
    config:
        Pipeline configuration (the discretization is calibrated once on
        the full record and shared by all replicates, so the symbol grid
        is common).
    block_length:
        Resampling block size in probes; defaults to ~5 seconds of
        probing (250 samples at the paper's 20 ms), long enough to span
        typical congestion episodes.
    replicate_max_iter:
        EM cap per replicate (replicates need fewer iterations than the
        headline fit; their role is spread, not the point estimate).
    n_jobs:
        Worker processes for the replicate refits (``-1`` = all CPUs).
        The result is numerically identical for every value.
    """
    config = config or IdentifyConfig()
    if n_replicates < 1:
        raise ValueError(f"need at least one replicate, got {n_replicates}")
    discretizer = DelayDiscretizer.from_observation(
        observation, config.n_symbols,
        propagation_delay=config.propagation_delay,
    )
    base_seq = discretizer.observation_sequence(observation)
    if block_length is None:
        block_length = max(10, min(len(base_seq) // 4, 250))
    rng = np.random.default_rng(seed)

    # Draw replicate pseudo-traces serially (one RNG stream, so the data
    # does not depend on n_jobs), then fan the expensive refits out.
    tasks = []
    attempts = 0
    while len(tasks) < n_replicates and attempts < 4 * n_replicates:
        attempts += 1
        resampled = _resample_blocks(base_seq.symbols, block_length, rng)
        try:
            seq = ObservationSequence(resampled, config.n_symbols)
        except ValueError:
            continue  # a pathological resample (e.g. all losses)
        if seq.n_losses == 0:
            continue
        tasks.append(
            (seq, config, discretizer, config.em.seed + attempts,
             replicate_max_iter)
        )
    if not tasks:
        raise ValueError("no usable bootstrap replicates (too few losses?)")
    results = parallel_map(_fit_replicate, tasks, n_jobs=n_jobs)

    pmfs: List[np.ndarray] = [pmf for pmf, _, _ in results]
    sdcl_accepts = [sdcl for _, sdcl, _ in results]
    wdcl_accepts = [wdcl for _, _, wdcl in results]
    return BootstrapResult(
        pmfs=np.array(pmfs),
        sdcl_accepts=np.array(sdcl_accepts),
        wdcl_accepts=np.array(wdcl_accepts),
        block_length=block_length,
    )
