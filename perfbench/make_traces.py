"""Generate the paper_tables netsim traces for one seed (outside any timing).

``python3 perfbench/make_traces.py --seed N --probes T --warmup S --out DIR``

Writes ``strong.csv``, ``weak.csv`` and ``none.csv`` (the Table II, III
and IV headline scenarios) into ``DIR``.  ``run.py`` caches ``DIR`` by
seed, size and source digest, so each trace set is simulated once.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.runner import run_scenario  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    no_dcl_scenario,
    strong_dcl_scenario,
    weak_dcl_scenario,
)
from repro.measurement.traceio import save_observation  # noqa: E402

#: The paper's headline settings (the same factories ``repro simulate``
#: uses for ``--scenario strong|weak|none``).
SCENARIOS = {
    "strong": lambda: strong_dcl_scenario(1.0),
    "weak": lambda: weak_dcl_scenario((0.7, 0.2)),
    "none": lambda: no_dcl_scenario((0.1, 0.2)),
}

#: The probe period of the paper's probing (20 ms).
PROBE_INTERVAL = 0.02


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probes", type=int, required=True)
    parser.add_argument("--warmup", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, factory in SCENARIOS.items():
        result = run_scenario(factory(), seed=args.seed,
                              duration=args.probes * PROBE_INTERVAL,
                              warmup=args.warmup,
                              probe_interval=PROBE_INTERVAL)
        save_observation(result.trace.observation(), out / f"{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
