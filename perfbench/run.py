"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (sizes, seeds and loop types in ``perfbench/spec.py``):

* ``fleet_congested`` — strong-DCL paths through ``FleetService``: the
  EM-bound steady state of fused warm drains; set-up is the cold fits.
* ``fleet_quiet`` — many loss-free paths with the full observability
  stack: the record path and per-cycle service work, no EM.
* ``paper_tables`` — the Table II-IV netsim traces through
  ``load_observation -> identify -> estimate_bound``.

Each measurement is a fresh process (``workloads.py``) with BLAS/OpenMP
threads pinned to 1, ``n_jobs=1`` and no HTTP server.  The fleets' inputs
are made from ``--seed`` lazily, one hop per cycle; paper_tables analyses
one fixed netsim realization, simulated outside every timed interval and
cached under ``perfbench/.cache`` (see ``spec.py`` for why).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer's functions and prints the
per-layer metrics, the reconciliation of the layers' self times with the
wall time, and the tracing overhead against the untraced run of the same
seed (run first when the result cache has none).  The outputs are
checked in both modes; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 0 only when every check passed.  ``--smoke`` shrinks every size
for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

sys.path.insert(0, str(HERE))

import hostinfo  # noqa: E402
import spec  # noqa: E402

#: Every run must end within this many seconds of starting.
RUN_DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """A run that cannot produce a result (no metrics are printed)."""


def child_env() -> dict:
    """Environment of every measured process: one BLAS/OpenMP thread and
    none of the ``REPRO_*`` overrides, so the program runs its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_process(cmd, deadline: float, what: str) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to run {what}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish in time") from None
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-15:]
        raise BenchError(f"{what} exited with {proc.returncode}:\n"
                         + "\n".join(tail))


class Runner:
    """Runs the measured processes of one benchmark invocation."""

    def __init__(self, args, digest: str, work: Path):
        self.args = args
        self.digest = digest
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.size = spec.sizes(args.workload, args.seconds, smoke=args.smoke)
        self.traces_dir = None
        self._n = 0

    def prepare_inputs(self) -> None:
        if self.args.workload != "paper_tables":
            return
        size = self.size
        seed = spec.WORKLOADS["paper_tables"]["netsim_seed"]
        key = (f"seed{seed}-p{size['probes']}"
               f"-w{size['warmup_s']:g}-{self.digest}")
        target = CACHE / "traces" / key
        if not (target / "done").exists():
            tmp = target.with_name(f"{key}.tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            run_process([sys.executable, str(HERE / "make_traces.py"),
                         "--seed", str(seed),
                         "--probes", str(size["probes"]),
                         "--warmup", str(size["warmup_s"]),
                         "--out", str(tmp)],
                        self.deadline, "netsim trace generation")
            (tmp / "done").write_text("", encoding="ascii")
            if target.exists():
                shutil.rmtree(tmp)
            else:
                os.replace(tmp, target)
        self.traces_dir = target

    def measure(self, traced: bool = False, setup_only: bool = False) -> dict:
        self._n += 1
        out = self.work / f"result-{self._n}.json"
        child_work = self.work / f"proc-{self._n}"
        child_work.mkdir()
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--out", str(out), "--work-dir", str(child_work)]
        if self.traces_dir is not None:
            cmd += ["--traces-dir", str(self.traces_dir)]
        for flag, on in (("--trace", traced), ("--setup-only", setup_only),
                         ("--smoke", self.args.smoke)):
            if on:
                cmd.append(flag)
        run_process(cmd, self.deadline,
                    f"{self.args.workload} {'set-up ' if setup_only else ''}"
                    f"{'traced ' if traced else ''}process")
        shutil.rmtree(child_work, ignore_errors=True)
        return json.loads(out.read_text(encoding="utf-8"))

    # -- untraced results, kept for the traced run's comparisons --------
    def _key(self) -> dict:
        return {"workload": self.args.workload, "seed": self.args.seed,
                "seconds": self.args.seconds, "smoke": self.args.smoke,
                "source_digest": self.digest}

    def cached_untraced(self) -> list:
        path = CACHE / "results.jsonl"
        if not path.exists():
            return []
        key = self._key()
        rows = []
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if all(row.get(k) == v for k, v in key.items()):
                rows.append(row)
        return rows

    def remember_untraced(self, result: dict) -> dict:
        row = dict(self._key(), digest=result["digest"],
                   measured_s=result["measured_s"],
                   correct=not result["failed"] and not result["errors"])
        CACHE.mkdir(parents=True, exist_ok=True)
        with (CACHE / "results.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        return row


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _phase_line(name: str, phase: dict) -> str:
    steal = phase.get("steal_ratio")
    steal = "n/a" if steal is None else f"{steal:.2%}"
    return (f"phase {name}: wall {phase['wall_s']:.3f} s, "
            f"cpu {phase['cpu_s']:.3f} s, cpu/wall "
            f"{phase['cpu_wall_ratio']:.3f}, host steal {steal}")


def report_end_to_end(args, result: dict, setups: list) -> dict:
    metrics = {
        "setup_s": statistics.median(setups),
        "records_per_s": result["records_per_s"],
        "window_p50_ms": result["window_p50_ms"],
        "window_tail_ms": result["window_tail_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.workload == "paper_tables":
        p50_of = "identify/estimate_bound calls"
        tail_of = (f"n={result['tail_samples']} traces' identify + "
                   f"estimate_bound")
    else:
        p50_of = "windows"
        tail_of = (f"the slowest window of each of "
                   f"n={result['tail_samples']} cycles")
    notes = {
        "setup_s": f"median of {len(setups)} set-up(s): "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "records_per_s": f"{result['records']} records in "
                         f"{result['measured_s']:.3f} s",
        "window_p50_ms": f"n={result['latency_samples']} {p50_of}",
        "window_tail_ms": f"p{result['tail_percentile']:.2f} of {tail_of}",
        "peak_rss_mb": "measured process",
    }
    for name, value in metrics.items():
        unit, better, _ = spec.END_TO_END[name]
        print(f"metric {name} = {_fmt(value)} {unit} ({better} is better; "
              f"{notes[name]})")
    if args.workload == "paper_tables":
        print("verdicts: " + ", ".join(f"{k}={v}" for k, v in
                                       result["verdicts"].items()))
        print("calls: " + ", ".join(result["calls"]))
        for note in result["departures"]:
            print(f"note: {note}")
        print(f"workload identify_s = {_fmt(result['identify_s'])} s "
              f"(lower is better; summed over 3 traces)")
        print(f"workload bound_s = {_fmt(result['bound_s'])} s "
              f"(lower is better; summed over strong and weak)")
    return metrics


def report_layers(result: dict, refs: list) -> dict:
    layers = result["layers"]
    measured = [r["measured_s"] for r in refs]
    untraced = statistics.median(measured)
    layers["bench.trace_overhead_ratio"] = result["measured_s"] / untraced
    for name, (unit, better, _, _) in spec.LAYERS.items():
        print(f"layer {name} = {_fmt(layers.get(name, 0.0))} {unit} "
              f"({better} is better)")
    spans = result["spans"]
    print("spans (self s / total s / calls):")
    for name, span in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:28s} {span['self_s']:10.4f} {span['total_s']:10.4f} "
              f"{span['calls']:>9d}")
    wall = result["wall_s"]
    covered = sum(span["self_s"] for span in spans.values())
    print(f"reconciliation: layer self times sum to {covered:.3f} s of "
          f"{wall:.3f} s wall; unattributed "
          f"{layers['bench.unattributed_ratio']:.3%} (tolerance "
          f"{spec.RECONCILE_TOLERANCE:.0%})")
    print(f"tracing overhead: traced measured phase "
          f"{result['measured_s']:.3f} s vs untraced median "
          f"{untraced:.3f} s (n={len(measured)}) = "
          f"{layers['bench.trace_overhead_ratio']:.3f}x")
    if result.get("missing_layers"):
        print("layers not found in this program version (read 0): "
              + ", ".join(result["missing_layers"]))
    return {name: layers.get(name, 0.0) for name in spec.LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2

    # The program and the benchmark's own code both key the caches.
    digest = hostinfo.source_digest(ROOT, "src", HERE.name)
    work = CACHE / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args, digest, work)
        runner.prepare_inputs()
        if args.trace:
            refs = [r for r in runner.cached_untraced() if r["correct"]]
            if not refs:
                refs = [runner.remember_untraced(runner.measure())]
            result = runner.measure(traced=True)
        else:
            result = runner.measure()
            setups = [result["setup_s"]]
            for _ in range(spec.SETUP_SAMPLES[args.workload] - 1):
                setups.append(runner.measure(setup_only=True)["setup_s"])
            runner.remember_untraced(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = hostinfo.fingerprint(ROOT, digest)
    workload = spec.WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("host: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("sizes: " + " ".join(f"{k}={v}" for k, v in result["size"].items())
          + f"; {workload['loop']}")
    print(f"inputs: {workload['seed']}")
    for name in ("setup", "measured"):
        if name in result.get("phases", {}):
            print(_phase_line(name, result["phases"][name]))

    errors = list(result["errors"])
    if args.trace:
        metrics = report_layers(result, refs)
        if any(r["digest"] != result["digest"] for r in refs):
            errors.append("verdict payloads differ between the untraced "
                          "and traced runs")
        if result["layers"]["bench.unattributed_ratio"] \
                > spec.RECONCILE_TOLERANCE:
            errors.append("layer self times do not reconcile with the "
                          "wall time")
    else:
        metrics = report_end_to_end(args, result, setups)
    unit_of = {name: row[0] for name, row in
               {**spec.END_TO_END, **spec.LAYERS}.items()}
    print(f"checks: attempted {result['attempted']}, failed "
          f"{result['failed']}; payload digest {result['digest']} over "
          f"{result['payloads']} outcomes")
    for message in errors:
        print(f"check failed: {message}")
    correct = result["failed"] == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
