"""Write ``perfbench/WORKLOADS.json``: what each workload is and loads.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seed 1

Each workload runs traced in its own process (process-wide memos stay
per workload, as in a benchmark run). The record keeps, per workload,
why it was chosen, its op mix and sizes, the seed, the traced phase's
self-time share per span, the layers the phase loads (a share of at
least 2 %) and bypasses (no span at all), and the deterministic
per-layer counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "WORKLOADS.json"
#: A layer "loads" a workload when it holds this share of the phase.
LOADS = 0.02


def _one(workload: str, seed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, runner
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    result = runner.traced(wl, seed, ROOT / ".perfbench"
                           / f"trace-{workload}-{seed}.json")
    phase = sum(result["self_s"].values())
    shares = {name: round(value / phase, 4)
              for name, value in sorted(result["self_s"].items(),
                                        key=lambda kv: -kv[1])}
    counted = {name: m["value"] for name, m in result["metrics"].items()
               if m["unit"] in ("count", "ns", "ratio", "us")
               and name != "trace.overhead_ratio"
               and name != "sim.host_us_per_event"}
    return {
        "why": wl.why,
        "ops": wl.mix,
        "sizes": wl.sizes,
        "seed": seed,
        "traced_rounds": wl.trace_rounds,
        "sim_ms": result["sim_ms"],
        "phase_self_share": shares,
        "phase_loads": [name for name, share in shares.items()
                        if share >= LOADS],
        "phase_bypasses": [name for name in layers.SPAN_NAMES
                           if name not in result["self_s"]],
        "counts": counted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", help="record one workload, print JSON")
    args = parser.parse_args(argv)
    if args.only:
        print(json.dumps(_one(args.only, args.seed)))
        return 0
    record = {}
    for workload in ("scan", "pim", "htap", "serve"):
        done = subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed),
             "--only", workload],
            cwd=ROOT, capture_output=True, text=True, check=True)
        record[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
