"""What the benchmark runs and what each of its metrics is for.

``BENCHMARK.json`` holds one line per workload and each metric's name,
unit and direction; this module is the fuller record behind it: each
workload's seed use, sizes and loop type, each per-layer metric's
predicted effect, and what is out of scope.  ``run.py`` reads
the sizes from here, and ``test_perfbench.py`` checks that the two files
agree.
"""

from __future__ import annotations

from typing import Dict

#: Fleet workloads keep the ``MonitorConfig`` defaults (3000-probe
#: windows hopped by 1500), the ``repro serve`` unit of work.
WINDOW, HOP = 3000, 1500

WORKLOADS: Dict[str, dict] = {
    "fleet_congested": {
        "why": ("EM-bound steady state: each cycle is one fused drain of "
                "warm hedged fits; set-up is the serial cold first-window "
                "fits a service restart pays"),
        "loop": "closed loop, 1 replay client, one hop per path per cycle",
        "seed": ("path i replays strong_dcl_stream(loss_prob=0.3, "
                 "seed=1000*seed+i)"),
        "service": "repro serve defaults: alert rules + TSDB, no optional "
                   "observability",
        # Four paths: a fused round costs about its slowest window, and
        # with four warm windows per round one of them nearly always runs
        # to max_iter (200), so a round's EM work hardly depends on the
        # seed (with two paths, 2 of 5 seeds had rounds 30% shorter).
        # Two rounds halve what a rare short round still moves.
        "paths": 4,
        #: Measured hops per 20 s of --seconds.
        "hops_per_20s": 2,
        # loss_prob 0.3 (default 0.7) keeps the per-quarter loss rate
        # inside the default stationarity gate's 0.05 band: with 0.7,
        # 1 window in 4 was skipped, which made the EM work per run (and
        # so every timing) depend on the seed.
        "loss_prob": 0.3,
    },
    "fleet_quiet": {
        "why": ("record path and per-cycle service + observability work: "
                "loss-free paths end every window as a no-losses or "
                "nonstationary skip, so EM does no work"),
        "loop": "closed loop, 1 replay client, one hop per path per cycle",
        "seed": ("path i draws uniform queuing delay from "
                 "default_rng([seed, i]); every 8th path's queue ceiling "
                 "jumps mid-stream"),
        "service": ("repro serve --trace --health --slo default "
                    "--telemetry FILE, plus the default alert rules"),
        # Few paths, many hops: with a quarter of the window buffers
        # live, 64 paths x 56 hops varied 2% over three interleaved pairs
        # of runs on a 2-vCPU VM where 256 paths x 14 hops (the same
        # records) varied 12%.
        "paths": 64,
        "hops_per_20s": 80,
    },
    "paper_tables": {
        "why": ("the paper's batch workflow (Tables II-IV): cold M=5 "
                "restart fits through the batched engine and the M=40 "
                "bound refit through the sequential engine"),
        "loop": ("closed loop, 3 traces analysed one after another; the "
                 "median is over the 5 identify/estimate_bound calls, the "
                 "tail over the 3 traces"),
        # One fixed realization per scenario, whatever --seed says.  The
        # EM work of a single trace varies a lot across netsim seeds (at
        # 2500 probes the no-DCL fit stopped after 8 to 200 iterations
        # and a bound refit took 2.7 to 8.9 s over 11 seeds), so with
        # three traces per run the seed, not the code, set a third of
        # the run time.  Seed 1 is the ``repro simulate`` default.
        "seed": ("fixed: netsim seed 1 for every run; traces simulated "
                 "once and cached under perfbench/.cache"),
        "netsim_seed": 1,
        # name -> (verdicts that pass, the paper's table verdict).  The
        # weak trace passes with either DCL verdict: at 50-100 s of
        # probing the weak-DCL trace of some seeds (seed 5, also at 5000
        # probes, with a ground-truth G that is weak) is identified as
        # strong, so the check is the Fig. 9 criterion (a dominant link
        # is found) and the Table III departure is reported, not failed.
        "scenarios": {
            "strong": (("strong",), "strong"),
            "weak": (("weak", "strong"), "weak"),
            "none": (("none",), "none"),
        },
        #: Bound method ``estimate_bound`` must report for each verdict.
        "bound_methods": {"strong": "strong", "weak": "connected-component"},
        "probes": 2000,
        "warmup_s": 1000.0,
    },
}

#: Tiny sizes for the benchmark's own smoke test (not measurements).
SMOKE = {
    "fleet_congested": {"paths": 2, "hops": 1, "window": 600, "hop": 300},
    "fleet_quiet": {"paths": 16, "hops": 2, "window": 600, "hop": 300},
    "paper_tables": {"probes": 1000, "warmup_s": 1000.0},
}

#: How many times a run sets up (fresh processes); ``setup_s`` is the
#: median.  fleet_congested sets up once: its set-up is already the sum
#: of its paths' cold fits, and a second one would double the run.
SETUP_SAMPLES = {"fleet_congested": 1, "fleet_quiet": 3, "paper_tables": 3}

#: A traced run's top-level spans must cover its wall time to this share.
RECONCILE_TOLERANCE = 0.02


def sizes(workload: str, seconds: int, smoke: bool = False) -> dict:
    """Concrete sizes of one run; work scales with ``seconds``."""
    spec = WORKLOADS[workload]
    if workload == "paper_tables":
        out = {"probes": spec["probes"], "warmup_s": spec["warmup_s"]}
    else:
        out = {
            "paths": spec["paths"],
            "hops": max(1, round(spec["hops_per_20s"] * seconds / 20)),
            "window": WINDOW,
            "hop": HOP,
        }
    if smoke:
        out.update(SMOKE[workload])
    return out


#: name -> (unit, better, what it is)
END_TO_END = {
    "setup_s": ("s", "lower",
                "process start (before import repro) until the fleet's "
                "first outcomes / the traces are loaded; median of "
                "SETUP_SAMPLES fresh processes"),
    "records_per_s": ("1/s", "higher",
                      "probe records after set-up / wall seconds until the "
                      "last outcome is published (paper_tables: records of "
                      "the three traces / analysis seconds)"),
    "window_p50_ms": ("ms", "lower",
                      "median time from the record completing a window to "
                      "its outcome at emit_fn (paper_tables: one identify "
                      "or estimate_bound call)"),
    "window_tail_ms": ("ms", "lower",
                       "highest percentile with >= 10 samples beyond it "
                       "(the maximum below 11 samples) of each cycle's "
                       "slowest window latency; windows of one cycle share "
                       "its delays, so cycles are the independent samples "
                       "(paper_tables: each trace's identify + "
                       "estimate_bound)"),
    "peak_rss_mb": ("MB", "lower", "peak RSS of the measured process"),
}

_CONGESTED_E2E = "fleet_congested records_per_s, window_p50_ms, " \
                 "window_tail_ms"
_QUIET_E2E = "fleet_quiet records_per_s, window_*, setup_s"
_OBS_E2E = "fleet_quiet records_per_s, window_*, peak_rss_mb"
_PAPER_E2E = "paper_tables records_per_s, window_*"

#: name -> (unit, better, should move, predicted unchanged on)
LAYERS = {
    "models.fused_fit_s": ("s", "lower", _CONGESTED_E2E, "fleet_quiet"),
    "models.fused_us_per_step": ("us", "lower", _CONGESTED_E2E,
                                 "fleet_quiet"),
    "models.batch_iterations": ("count", "lower", _CONGESTED_E2E,
                                "fleet_quiet"),
    "models.occupancy": ("ratio", "higher", _CONGESTED_E2E, "fleet_quiet"),
    "streaming.pad_fraction": ("ratio", "lower", _CONGESTED_E2E,
                               "fleet_quiet"),
    "streaming.fused_rows": ("count", "lower", _CONGESTED_E2E,
                             "fleet_quiet"),
    "streaming.cold_fit_s": ("s", "lower", "fleet_congested setup_s",
                             "fleet_quiet"),
    "streaming.cold_fits": ("count", "lower", "fleet_congested setup_s",
                            "fleet_quiet"),
    "models.cold_iterations": ("count", "lower", "fleet_congested setup_s",
                               "fleet_quiet"),
    "models.cold_us_per_step": ("us", "lower", "fleet_congested setup_s",
                                "fleet_quiet"),
    "streaming.warm_ratio": ("ratio", "higher",
                             "fleet_congested records_per_s", "fleet_quiet"),
    "streaming.fallbacks": ("count", "lower",
                            "fleet_congested records_per_s", "fleet_quiet"),
    "models.converged_ratio": ("ratio", "higher",
                               "fleet_congested records_per_s",
                               "fleet_quiet"),
    "service.cycles": ("count", "lower", _QUIET_E2E,
                       "fleet_congested, paper_tables"),
    "service.cycle_s": ("s", "lower", _QUIET_E2E,
                        "fleet_congested, paper_tables"),
    "service.ingest_s": ("s", "lower", _QUIET_E2E,
                         "fleet_congested, paper_tables"),
    "service.records": ("count", "higher", _QUIET_E2E,
                        "fleet_congested, paper_tables"),
    "service.dropped_records": ("count", "lower", _QUIET_E2E,
                                "fleet_congested, paper_tables"),
    "streaming.prepare_s": ("s", "lower", _QUIET_E2E,
                            "fleet_congested, paper_tables"),
    "measurement.gate_s": ("s", "lower", _QUIET_E2E,
                           "fleet_congested, paper_tables"),
    "streaming.skipped_nonstationary": ("count", "lower", _QUIET_E2E,
                                        "fleet_congested, paper_tables"),
    "streaming.skipped_no_losses": ("count", "lower", _QUIET_E2E,
                                    "fleet_congested, paper_tables"),
    "streaming.finish_s": ("s", "lower", _QUIET_E2E,
                           "fleet_congested, paper_tables"),
    "streaming.track_s": ("s", "lower", _QUIET_E2E,
                          "fleet_congested, paper_tables"),
    "streaming.queue_wait_ms": ("ms", "lower",
                                "window_p50_ms on both fleets",
                                "paper_tables"),
    "streaming.drain_s": ("s", "lower", "window_p50_ms on both fleets",
                          "paper_tables"),
    "obs.events": ("count", "lower", _OBS_E2E,
                   "fleet_congested, paper_tables"),
    "obs.emit_s": ("s", "lower", _OBS_E2E, "fleet_congested, paper_tables"),
    "obs.tsdb_collect_s": ("s", "lower", _OBS_E2E,
                           "fleet_congested, paper_tables"),
    "obs.slo_eval_s": ("s", "lower", _OBS_E2E,
                       "fleet_congested, paper_tables"),
    "obs.alert_eval_s": ("s", "lower", _OBS_E2E,
                         "fleet_congested, paper_tables"),
    "obs.trace_store_s": ("s", "lower", _OBS_E2E,
                          "fleet_congested, paper_tables"),
    "obs.health_s": ("s", "lower", _OBS_E2E,
                     "fleet_congested, paper_tables"),
    "measurement.load_s": ("s", "lower", "paper_tables setup_s", "fleets"),
    "measurement.rows": ("count", "higher", "paper_tables setup_s",
                         "fleets"),
    "core.discretize_s": ("s", "lower", _PAPER_E2E, "fleet_quiet"),
    "models.fit_s": ("s", "lower", _PAPER_E2E, "fleet_quiet"),
    "models.fit_iterations": ("count", "lower", _PAPER_E2E, "fleet_quiet"),
    "models.fit_us_per_step": ("us", "lower", _PAPER_E2E, "fleet_quiet"),
    "core.tests_s": ("s", "lower", _PAPER_E2E, "fleet_quiet"),
    "models.bound_fit_s": ("s", "lower", _PAPER_E2E, "both fleets"),
    "models.bound_iterations": ("count", "lower", _PAPER_E2E,
                                "both fleets"),
    "models.bound_us_per_step": ("us", "lower", _PAPER_E2E, "both fleets"),
    "bench.generate_s": ("s", "lower",
                         "input generation inside the timed phase; must "
                         "stay a few percent", "-"),
    "bench.unattributed_ratio": ("ratio", "lower",
                                 "share of the traced wall time outside "
                                 "every top-level span (<= "
                                 "RECONCILE_TOLERANCE)", "-"),
    "bench.trace_overhead_ratio": ("ratio", "lower",
                                   "traced measured-phase wall / untraced "
                                   "median of the same seed", "-"),
    "process.cpu_s": ("s", "lower", "context for noise, not a target", "-"),
    "process.cpu_wall_ratio": ("ratio", "higher",
                               "context for noise, not a target", "-"),
    "host.steal_ratio": ("ratio", "lower",
                         "context for noise, not a target", "-"),
}

OUT_OF_SCOPE = [
    "n_jobs>1 scaling: the reference host has 2 shared vCPUs, so worker "
    "pools measure contention, not scaling",
    "HTTP API latency: a polling client thread would perturb the "
    "single-core fit timings",
    "netsim speed: traces are generated (and cached by seed) outside "
    "every timed interval",
]
