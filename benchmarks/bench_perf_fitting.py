"""Fitting-performance benchmark: the E-step engine, batching, parallelism.

Times the EM fitting layer on the Table II strong-DCL probe trace:

* ``mmhd_serial_fast`` — 4-restart MMHD fit, one process, through the
  E-step engine (one 4-row restart stack of the loss-folded pass).  This
  is the number the CI smoke guards against the committed baseline.
* ``mmhd_parallel`` — same fit with ``n_jobs=4`` restart fan-out.
  ``parallel_speedup`` only exceeds 1 on multi-core machines; the JSON
  records ``cpu_count`` so readers can interpret it.
* ``hmm_serial`` — 4-restart HMM fit for cross-model context.

The ``backend_matrix`` section measures what stacking restarts buys at
the default 8-restart configuration.  Per model it times three arms: the
restarts as R one-row stacks run one after another (``one_row``), one
R-row restart stack (``stacked``, what every fit runs), and the composed
pool fan-out (``n_jobs=4``, each worker stacking its restart shard).
Rows of a stack are computed independently, so the first two arms must
be bit-identical — asserted before any speedup is reported — and
``batched_speedup = one_row_seconds / stacked_seconds``, each arm's
best of ``REPS`` runs interleaved across arms, as the serial cases and
the kernel matrix are timed.  ``--min-batched-speedup X`` turns the HMM
ratio into a CI gate.

The ``kernel_matrix`` section compares the two HMM forward-backward
kernels on the 8-restart HMM fit at hidden width 2: the blocked scan
(what width 2 runs) and the per-time-step loop kernel (what widths above
``BLOCKED_STATE_LIMIT`` run; its row patches that limit below 2, as the
tests do).  Both must pick the identical winning restart with
log-likelihoods within 1e-9 relative; ``--min-blocked-speedup X`` gates
``blocked_speedup = loop_seconds / blocked_seconds`` in CI.

The ``telemetry`` section quantifies the observability tax: per-call cost
of each disabled instrumentation entry point, the number of telemetry
touches one serial fit actually makes, the resulting disabled-mode
overhead bound (asserted < 2%), and the cost of metrics collection:
``enabled_overhead_fraction`` is the median of ``on / off - 1`` over
``TELEMETRY_PAIRS`` pairs of a metrics-off and a metrics-on fit, which
alternate the order, with its IQR beside it (plus the span-histogram
breakdown of the last metrics-on fit).

The script asserts the serial and parallel MMHD fits are numerically
identical before reporting any speedup, then writes
``benchmarks/output/BENCH_fitting.json``.  ``--check-baseline`` instead
compares the fresh serial-fast timing against the committed JSON and
exits non-zero on a >2x regression (results go to a ``.check.json``
sidecar so the committed baseline is never clobbered by CI).

Run: ``PYTHONPATH=src python benchmarks/bench_perf_fitting.py``
(``REPRO_BENCH_SCALE=paper`` for full horizons).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import common  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.discretize import DelayDiscretizer  # noqa: E402
from repro.experiments.runner import run_scenario  # noqa: E402
from repro.experiments.scenarios import strong_dcl_scenario  # noqa: E402
from repro.models import batched  # noqa: E402
from repro.models.base import SymbolStack  # noqa: E402
from repro.models.hmm import fit_hmm  # noqa: E402
from repro.models.mmhd import fit_mmhd  # noqa: E402
from repro.parallel import shutdown_pools  # noqa: E402

N_RESTARTS = 4
PARALLEL_JOBS = 4
#: Restart count of the backend matrix — the default multi-restart
#: configuration the restart-stacking speedup target is stated against.
MATRIX_RESTARTS = 8
BASELINE_PATH = common.OUTPUT_DIR / "BENCH_fitting.json"
#: CI may only tolerate this much slowdown of the guarded serial timing.
MAX_REGRESSION = 2.0
#: Acceptance bar: instrumentation left compiled into the hot paths may
#: cost at most this fraction of the serial fit while telemetry is off.
MAX_DISABLED_OVERHEAD = 0.02
#: Metrics-off / metrics-on fit pairs behind ``enabled_overhead_fraction``
#: (even, so each order opens half the pairs).  A single pair measures
#: host drift more than the metrics: three one-pair runs of one code
#: read 0.28, -0.03 and 0.02.
TELEMETRY_PAIRS = 6


def _observation_sequence():
    result = run_scenario(
        strong_dcl_scenario(1.0), seed=1,
        duration=common.SIM_DURATION, warmup=common.SIM_WARMUP,
    )
    observation = result.trace.observation()
    disc = DelayDiscretizer.from_observation(observation, 5)
    return disc.observation_sequence(observation)


#: Timed repetitions per configuration (best-of, interleaved across
#: configurations so machine drift hits every config equally).  The
#: paper scale is expensive enough that one repetition must do.
REPS = 1 if common.SCALE == "paper" else 2


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _fit_summary(fitted):
    return {
        "log_likelihood": float(fitted.log_likelihood),
        "virtual_delay_pmf": [float(p) for p in fitted.virtual_delay_pmf],
        "n_iter": int(fitted.n_iter),
        "converged": bool(fitted.converged),
    }


def _disabled_call_ns() -> dict:
    """Per-call cost (ns) of each instrumentation entry point while off."""
    n = 200_000
    cases = {
        "is_enabled": obs.is_enabled,
        "inc": lambda: obs.inc("repro_bench_total"),
        "observe": lambda: obs.observe("repro_bench_seconds", 0.1),
        "emit": lambda: obs.emit("span", name="bench"),
    }
    costs = {}
    for name, fn in cases.items():
        start = time.perf_counter()
        for _ in range(n):
            fn()
        costs[name] = (time.perf_counter() - start) / n * 1e9

    def spanned():
        with obs.span("bench"):
            pass

    start = time.perf_counter()
    for _ in range(n // 10):
        spanned()
    costs["span"] = (time.perf_counter() - start) / (n // 10) * 1e9
    return {k: round(v, 1) for k, v in costs.items()}


def _count_disabled_touches(seq, config) -> int:
    """How many telemetry call sites one disabled serial fit executes.

    Every disabled-mode site either calls ``obs.is_enabled`` or one of
    the facade entry points; counting wrappers see them all.
    """
    counted = {"n": 0}
    originals = {}

    def wrap(fn):
        def counting(*args, **kwargs):
            counted["n"] += 1
            return fn(*args, **kwargs)
        return counting

    for name in ("is_enabled", "inc", "set_gauge", "observe", "emit"):
        originals[name] = getattr(obs, name)
        setattr(obs, name, wrap(originals[name]))
    try:
        fit_mmhd(seq, n_hidden=2, config=config)
    finally:
        for name, fn in originals.items():
            setattr(obs, name, fn)
    return counted["n"]


def bench_telemetry(seq, serial_config, disabled_fit_seconds) -> dict:
    """The observability tax: disabled-mode bound + enabled-mode measure.

    The enabled-mode cost is the median (and IQR) over
    ``TELEMETRY_PAIRS`` pairs of a metrics-off and a metrics-on fit, each
    pair's overhead being ``on / off - 1``.  The pairs alternate which
    fit runs first, so a cost of going first (or second) cancels.
    """
    assert not obs.is_enabled()
    call_ns = _disabled_call_ns()
    touches = _count_disabled_touches(seq, serial_config)
    overhead_seconds = touches * max(call_ns.values()) / 1e9
    disabled_overhead = overhead_seconds / disabled_fit_seconds

    def fit():
        return fit_mmhd(seq, n_hidden=2, config=serial_config)

    def fit_with_metrics():
        obs.enable(clear=True)  # metrics only; no event sink
        try:
            elapsed = _time(fit)[0]
            return elapsed, obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.registry().clear()

    off_seconds, on_seconds = [], []
    for pair in range(TELEMETRY_PAIRS):
        if pair % 2:
            on, snapshot = fit_with_metrics()
            off_seconds.append(_time(fit)[0])
        else:
            off_seconds.append(_time(fit)[0])
            on, snapshot = fit_with_metrics()
        on_seconds.append(on)
    span_key = ("repro_span_seconds", (("name", "em.fit"),))
    _, _, span_sum, span_count = snapshot["histograms"][span_key]
    overhead = common.median_iqr(
        [on / off - 1.0 for on, off in zip(on_seconds, off_seconds)])

    return {
        "disabled_call_ns": call_ns,
        "disabled_touches_per_fit": touches,
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "disabled_overhead_ok": bool(
            disabled_overhead < MAX_DISABLED_OVERHEAD
        ),
        "enabled_pairs": TELEMETRY_PAIRS,
        "enabled_metrics_fit_seconds": common.median_iqr(on_seconds),
        "disabled_metrics_fit_seconds": common.median_iqr(off_seconds),
        "enabled_overhead_fraction": overhead["median"],
        "enabled_overhead_iqr": overhead["iqr"],
        "span_em_fit": {
            "count": span_count,
            "total_seconds": round(span_sum, 4),
        },
    }


def _same_fits(a, b) -> bool:
    """Whether two fit lists agree to the last bit."""
    return all(
        x.log_likelihoods == y.log_likelihoods
        and np.array_equal(x.virtual_delay_pmf, y.virtual_delay_pmf)
        and all(np.array_equal(p, q) for p, q in
                zip(x.model.parameters(), y.model.parameters()))
        for x, y in zip(a, b)
    )


def bench_backend_matrix(seq) -> dict:
    """R one-row stacks vs one R-row stack vs the pool, per model.

    The one-row arm runs each restart as its own stack through the cold
    driver, which yields the per-restart fits the bit-identity check
    needs; the pool row is the composed fan-out (each worker stacking
    its restart shard) through the public fitter.  Every arm is timed ``REPS`` times, interleaved
    across arms and models, and keeps its best time.
    """
    matrix = {"n_restarts": MATRIX_RESTARTS, "pool_n_jobs": PARALLEL_JOBS}
    fitters = {"hmm": fit_hmm, "mmhd": fit_mmhd}
    base = common.em_config().replace(n_restarts=MATRIX_RESTARTS, n_jobs=1)
    pooled = base.replace(n_jobs=PARALLEL_JOBS)
    arms = {
        kind: {
            "one_row": lambda kind=kind: [
                fit for r in range(MATRIX_RESTARTS)
                for fit in batched._cold_rows(kind, SymbolStack([seq]), 2,
                                              [base], [r])[0][0]],
            "stacked": lambda kind=kind: batched.batched_restart_fits(
                kind, seq, 2, base),
            "pool": lambda kind=kind: fitters[kind](seq, n_hidden=2,
                                                    config=pooled),
        }
        for kind in ("hmm", "mmhd")
    }
    seconds = {kind: dict.fromkeys(runs, float("inf"))
               for kind, runs in arms.items()}
    fits = {kind: {} for kind in arms}
    for _ in range(REPS):
        for kind, runs in arms.items():
            for arm, run in runs.items():
                elapsed, fits[kind][arm] = _time(run)
                seconds[kind][arm] = min(seconds[kind][arm], elapsed)
    for kind, best in seconds.items():
        one_row_fits, stacked_fits = fits[kind]["one_row"], \
            fits[kind]["stacked"]
        identical = _same_fits(one_row_fits, stacked_fits)
        matrix[kind] = {
            "one_row_seconds": round(best["one_row"], 4),
            "stacked_seconds": round(best["stacked"], 4),
            "pool_seconds": round(best["pool"], 4),
            "batched_speedup": round(best["one_row"] / best["stacked"], 3),
            "pool_speedup": round(best["one_row"] / best["pool"], 3),
            "best_restart": int(np.argmax(
                [f.log_likelihood for f in stacked_fits])),
            "bit_identical": bool(identical),
        }
        assert identical, (
            f"{kind}: one-row stacks and the restart stack diverged"
        )
    return matrix


def bench_kernel_matrix(seq) -> dict:
    """Loop vs blocked HMM kernels on the 8-restart width-2 fit.

    Both rows go through :func:`batched_restart_fits`, so the only thing
    that varies is the forward–backward kernel.  The kernels are
    reassociations of the same arithmetic: identical winning restart,
    log-likelihoods within 1e-9 relative.
    """
    config = common.em_config().replace(n_restarts=MATRIX_RESTARTS, n_jobs=1)
    # Width 2 runs blocked; a limit below 2 sends it to the loop kernel.
    limits = {"loop": 1, "blocked": batched.BLOCKED_STATE_LIMIT}
    matrix = {"n_restarts": MATRIX_RESTARTS}
    timings = {name: float("inf") for name in limits}
    fits = {}
    for _ in range(REPS):
        for name, limit in limits.items():
            with mock.patch.object(batched, "BLOCKED_STATE_LIMIT", limit):
                elapsed, fitted = _time(
                    lambda: batched.batched_restart_fits("hmm", seq, 2,
                                                         config)
                )
            timings[name] = min(timings[name], elapsed)
            fits[name] = fitted

    ref_logliks = np.array([f.log_likelihood for f in fits["loop"]])
    winner = int(ref_logliks.argmax())
    for name, kernel_fits in fits.items():
        logliks = np.array([f.log_likelihood for f in kernel_fits])
        rel_diff = float(np.max(
            np.abs(logliks - ref_logliks) / np.abs(ref_logliks)
        ))
        same_winner = winner == int(logliks.argmax())
        matrix[name] = {
            "seconds": round(timings[name], 4),
            "best_restart_identical": bool(same_winner),
            "loglik_rel_diff": rel_diff,
        }
        assert same_winner, (
            f"{name}: kernel picked a different winning restart"
        )
        assert rel_diff <= 1e-9, (
            f"{name}: kernel diverged from the loop kernel "
            f"(rel diff {rel_diff:.2e})"
        )
    matrix["blocked_speedup"] = round(
        timings["loop"] / timings["blocked"], 3)
    return matrix


def run_benchmark() -> dict:
    seq = _observation_sequence()
    base = common.em_config().replace(n_restarts=N_RESTARTS)

    serial_fast = base.replace(n_jobs=1)
    parallel = base.replace(n_jobs=PARALLEL_JOBS)

    # Warm the worker pool and the numpy/BLAS caches outside the timed
    # region, so the parallel number reflects steady-state fan-out (not
    # one-time fork cost) and the first timed config isn't penalised.
    warm = dict(max_iter=2, tol=1e30)
    fit_mmhd(seq, n_hidden=2, config=parallel.replace(**warm))
    fit_mmhd(seq, n_hidden=2, config=serial_fast.replace(**warm))

    cases = {
        "mmhd_serial_fast": lambda: fit_mmhd(seq, n_hidden=2,
                                             config=serial_fast),
        "mmhd_parallel": lambda: fit_mmhd(seq, n_hidden=2, config=parallel),
        "hmm_serial": lambda: fit_hmm(seq, n_hidden=2, config=serial_fast),
    }
    timings = {name: float("inf") for name in cases}
    fits = {}
    for _ in range(REPS):
        for name, fn in cases.items():
            elapsed, fitted = _time(fn)
            timings[name] = min(timings[name], elapsed)
            fits[name] = fitted
    fit_serial = fits["mmhd_serial_fast"]
    fit_parallel = fits["mmhd_parallel"]

    identical = (
        np.allclose(fit_serial.virtual_delay_pmf,
                    fit_parallel.virtual_delay_pmf, rtol=0, atol=0)
        and fit_serial.log_likelihood == fit_parallel.log_likelihood
    )
    assert identical, "serial and parallel MMHD fits diverged"

    telemetry = bench_telemetry(seq, serial_fast,
                                timings["mmhd_serial_fast"])
    assert telemetry["disabled_overhead_ok"], (
        f"disabled-telemetry overhead "
        f"{telemetry['disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )

    backend_matrix = bench_backend_matrix(seq)
    kernel_matrix = bench_kernel_matrix(seq)

    return {
        "scale": common.SCALE,
        "cpu_count": os.cpu_count(),
        "n_probes": len(seq),
        "n_losses": seq.n_losses,
        "n_restarts": N_RESTARTS,
        "parallel_n_jobs": PARALLEL_JOBS,
        "em_tol": common.EM_TOL,
        "em_max_iter": common.EM_MAX_ITER,
        "timings_seconds": {k: round(v, 4) for k, v in timings.items()},
        "parallel_speedup": round(
            timings["mmhd_serial_fast"] / timings["mmhd_parallel"], 3),
        "serial_parallel_identical": bool(identical),
        "backend_matrix": backend_matrix,
        "kernel_matrix": kernel_matrix,
        "telemetry": telemetry,
        "mmhd_fit": _fit_summary(fit_serial),
    }


def check_baseline(report: dict) -> int:
    if not BASELINE_PATH.exists():
        print(f"no committed baseline at {BASELINE_PATH}; skipping check")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != report["scale"]:
        print(f"baseline scale {baseline.get('scale')!r} != "
              f"current {report['scale']!r}; skipping check")
        return 0
    old = baseline["timings_seconds"]["mmhd_serial_fast"]
    new = report["timings_seconds"]["mmhd_serial_fast"]
    ratio = new / old
    print(f"serial MMHD fit: baseline {old:.3f}s, now {new:.3f}s "
          f"({ratio:.2f}x)")
    if ratio > MAX_REGRESSION:
        print(f"FAIL: serial fitting regressed more than "
              f"{MAX_REGRESSION:.0f}x vs the committed baseline")
        return 1
    print("OK: within the regression budget")
    return 0


def check_batched_speedup(report: dict, minimum: float) -> int:
    """CI gate on restart stacking: divergence already raised inside
    :func:`bench_backend_matrix`; here only speed can fail."""
    status = 0
    for kind in ("hmm", "mmhd"):
        speedup = report["backend_matrix"][kind]["batched_speedup"]
        print(f"{kind}: restart-stack speedup {speedup:.2f}x "
              f"(minimum {minimum:.2f}x)")
    hmm_speedup = report["backend_matrix"]["hmm"]["batched_speedup"]
    if hmm_speedup < minimum:
        print(f"FAIL: HMM restart-stack speedup {hmm_speedup:.2f}x is "
              f"below the {minimum:.2f}x floor")
        status = 1
    else:
        print("OK: restart stacking meets the speedup floor")
    return status


def check_blocked_speedup(report: dict, minimum: float) -> int:
    """CI gate on the blocked kernel: divergence already raised inside
    :func:`bench_kernel_matrix`; here only speed can fail."""
    speedup = report["kernel_matrix"]["blocked_speedup"]
    print(f"hmm: blocked kernel speedup {speedup:.2f}x "
          f"(minimum {minimum:.2f}x)")
    if speedup < minimum:
        print(f"FAIL: blocked kernel speedup {speedup:.2f}x is below "
              f"the {minimum:.2f}x floor")
        return 1
    print("OK: blocked kernel meets the speedup floor")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the committed JSON instead of replacing it",
    )
    parser.add_argument(
        "--min-batched-speedup", type=float, metavar="X",
        help="exit non-zero if the HMM one-row/stacked speedup in the "
             "backend matrix falls below X",
    )
    parser.add_argument(
        "--min-blocked-speedup", type=float, metavar="X",
        help="exit non-zero if the HMM blocked/loop kernel speedup in "
             "the kernel matrix falls below X",
    )
    args = parser.parse_args(argv)

    report = run_benchmark()
    shutdown_pools()
    print(json.dumps(report, indent=2))

    status = 0
    if args.min_batched_speedup is not None:
        status |= check_batched_speedup(report, args.min_batched_speedup)
    if args.min_blocked_speedup is not None:
        status |= check_blocked_speedup(report, args.min_blocked_speedup)
    if args.check_baseline:
        status |= check_baseline(report)
        out = BASELINE_PATH.with_suffix(".check.json")
    else:
        out = BASELINE_PATH
    common.OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {out}]")
    manifest = common.write_bench_manifest(
        "fitting", config=common.identify_config(),
    )
    print(f"[manifest written to {manifest}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
