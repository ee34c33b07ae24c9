"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads: scan, pim, htap, serve. ``--trace 0`` times a phase of
``--seconds`` (at least 100 read samples) and prints the end-to-end
metrics; ``--trace 1`` runs the workload's fixed traced rounds, prints
the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>-<seed>.json`` (Chrome trace format). The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` beside this directory; a checkout
without it is refused with exit code 2 before anything runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "pim", "htap", "serve")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"error: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    from perfbench import runner

    return runner.main(args.workload, args.seed, args.seconds,
                       bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
