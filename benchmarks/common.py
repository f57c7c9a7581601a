"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures: it runs
the corresponding scenario(s), prints the same rows/series the paper
reports, asserts the paper's *qualitative* result, and writes the rendered
output to ``benchmarks/output/<artifact>.txt`` so the regenerated numbers
survive the run.

Scale: the paper simulates 2000 s and analyses 1000 s (50 000 probes) with
400 resampling repetitions.  The default benchmark scale is reduced so the
whole suite finishes in tens of minutes; set ``REPRO_BENCH_SCALE=paper``
to run the full horizons.  EXPERIMENTS.md records which scale produced the
committed numbers.

Parallelism: ``REPRO_N_JOBS`` sets the worker-process count the
benchmarks pass to fit/bootstrap/sweep entry points (``-1`` = all CPUs;
default ``1``, serial).  Results are numerically identical at any value —
the knob trades wall-clock for cores, never reproducibility.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.identify import IdentifyConfig
from repro.models.base import EMConfig

OUTPUT_DIR = Path(__file__).parent / "output"

#: "quick" (default) or "paper".
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: Worker processes for parallel-capable benchmark stages.
N_JOBS = int(os.environ.get("REPRO_N_JOBS", "1"))

if SCALE == "paper":
    SIM_DURATION = 1000.0
    SIM_WARMUP = 1000.0
    SWEEP_REPS = 100
    EM_TOL = 1e-4
    EM_MAX_ITER = 400
else:
    SIM_DURATION = 200.0
    SIM_WARMUP = 30.0
    SWEEP_REPS = 12
    EM_TOL = 1e-3
    EM_MAX_ITER = 120


def em_config(max_iter: int = None) -> EMConfig:
    return EMConfig(tol=EM_TOL, max_iter=max_iter or EM_MAX_ITER,
                    n_jobs=N_JOBS)


def identify_config(n_symbols: int = 5, n_hidden: int = 2,
                    model: str = "mmhd", beta0: float = 0.06,
                    beta1: float = 0.0) -> IdentifyConfig:
    return IdentifyConfig(
        n_symbols=n_symbols,
        n_hidden=n_hidden,
        model=model,
        beta0=beta0,
        beta1=beta1,
        em=em_config(),
    )


def median_iqr(values, digits: int = 4) -> dict:
    """Median and interquartile range of repeated measurements."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float),
                                   [25, 50, 75])
    return {"median": round(float(median), digits),
            "iqr": round(float(q3 - q1), digits)}


def write_artifact(name: str, text: str) -> Path:
    """Persist a rendered table/figure to benchmarks/output and echo it."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def write_bench_manifest(name: str, config=None, extra=None) -> Path:
    """Record run provenance for one benchmark next to its BENCH JSON.

    ``BENCH_<name>.manifest.json`` captures the scale, seeds, package
    versions, and git commit that produced the committed numbers, so a
    regression flagged by ``compare_bench.py`` can always be traced to
    the environment difference behind it.
    """
    from repro.obs import provenance

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"BENCH_{name}.manifest.json"
    provenance.record_run(
        f"bench:{name}", config=config, out_path=path,
        extra={"scale": SCALE, "n_jobs": N_JOBS,
               **(extra or {})},
    )
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
