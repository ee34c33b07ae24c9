"""One benchmark run: set up, warm up, time a phase, check every answer.

``--trace 0`` reports the end-to-end metrics with nothing wrapped; its
host times are scaled to a reference host speed (see
:mod:`perfbench.hostspeed`).
``--trace 1`` wraps the layers (see :mod:`perfbench.layers`), runs a
fixed number of rounds traced and the same number untraced, reports the
per-layer metrics and writes the spans as a Chrome trace.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import hostspeed, layers, stats
from .tracing import Recorder
from .workloads import WORKLOADS, Op, Outcome, Workload

#: Every end-to-end metric: (name, unit, better, bound). Their host
#: times are in reference seconds (see :mod:`perfbench.hostspeed`).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("read_ms_p50", "ms", "lower", 0.25),
    ("read_ms_p90", "ms", "lower", 0.25),
    ("sim_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: The latency class each workload's read metrics describe.
READ_KIND = {"scan": "query", "pim": "query", "htap": "query",
             "serve": "batch"}

#: A run stops taking new rounds after this long, whatever its samples.
HARD_CAP_S = 140.0

clock = time.perf_counter


def rng_for(seed: int, *parts) -> random.Random:
    """A generator seeded by ``seed`` and a purpose, stable across runs."""
    return random.Random(":".join(map(str, (seed,) + parts)))


def setup_seed(seed: int, rep: int) -> int:
    """The data seed of set-up ``rep``: the run's own seed for the first
    (kept) one, distinct others after it so no generator cache helps."""
    if rep == 0:
        return seed
    return rng_for(seed, "setup", rep).randrange(1 << 30, 1 << 31)


class Tally:
    """Op latencies per kind, units attempted and failed, simulated time.

    Given a :class:`~perfbench.hostspeed.HostSpeed`, it also keeps each
    op's kernel segment and hands the op's host time to it.
    """

    def __init__(self, speed: Optional[hostspeed.HostSpeed] = None) -> None:
        self.speed = speed
        #: (kind, host seconds, kernel segment) of every op, in order.
        self.spans: List[Tuple[str, float, int]] = []
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.sim_ns = 0.0

    def add(self, op: Op, seconds: float, units: int, wrong: int,
            sim_ns: float) -> None:
        self.latency[op.kind].append(seconds)
        self.busy_s += seconds
        if self.speed is not None:
            self.spans.append((op.kind, seconds, self.speed.segment))
            self.speed.spent(seconds)
        self.attempted += units
        self.failed += wrong
        self.sim_ns += sim_ns

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s if self.busy_s else 0.0

    def reference_latency(self) -> Dict[str, List[float]]:
        """Op latencies per kind in reference seconds; needs a kernel
        timing after the last op."""
        latency: Dict[str, List[float]] = defaultdict(list)
        for kind, seconds, segment in self.spans:
            latency[kind].append(self.speed.scale(seconds, segment))
        return latency


def run_op(wl: Workload, op: Op, tally: Tally) -> None:
    """Run one op, time only the program call, then check the answer."""
    start = clock()
    try:
        outcome: Outcome = wl.run(op)
    except Exception as error:  # a failed op is counted, the run goes on
        seconds = clock() - start
        print(f"op {op.label} raised: "
              f"{traceback.format_exception_only(type(error), error)[-1]}",
              end="", file=sys.stderr)
        units = wl.failed(op, error)
        tally.add(op, seconds, units, units, 0.0)
        return
    seconds = clock() - start
    tally.add(op, seconds, outcome.units, wl.wrong(op, outcome),
              outcome.sim_ns)


def run_round(wl: Workload, seed: int, index: int, tally: Tally,
              probe: Optional[layers.LayerProbe] = None) -> None:
    wl.begin_round()
    for number, op in enumerate(wl.round_ops(rng_for(seed, "round", index),
                                             index)):
        if probe is None:
            run_op(wl, op, tally)
            continue
        probe.recorder.op = index * 1000 + number
        run_op(wl, op, tally)
        if wl.system is not None:
            probe.harvest(wl.system)


def warm_up(wl: Workload, seed: int, tally: Tally) -> None:
    """One untimed op of each kind: lazy imports and caches fill here."""
    wl.begin_round()
    for op in wl.warm_ops(rng_for(seed, "warm")):
        run_op(wl, op, tally)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl: Workload, seed: int) -> Tuple[float, float]:
    """Set up ``wl``; its host seconds and reference seconds."""
    return hostspeed.timed(wl.setup, seed)


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    """Time the phase with nothing wrapped.

    Set-up runs once before the phase (that instance serves the ops) and
    ``setup_reps - 1`` more times on fresh instances spread evenly
    between rounds, so the reported median samples the same stretch of
    host time as the ops do. ``ops_per_s`` is the phase's ops over its
    summed op time.
    """
    setups = [timed_setup(wl, seed)]
    warm = Tally()
    warm_up(wl, seed, warm)

    speed = hostspeed.HostSpeed()
    tally = Tally(speed)
    speed.calibrate()
    read = READ_KIND[wl.name]
    need = stats.min_samples(90.0)
    started = clock()
    index = 0
    sim_ns = 0.0
    while True:
        run_round(wl, seed, index, tally)
        index += 1
        if index == wl.trace_rounds:
            sim_ns = tally.sim_ns
        elapsed = clock() - started
        due = 1 + int(min(1.0, elapsed / seconds) * (wl.setup_reps - 1))
        if len(setups) < due:
            speed.calibrate()
            while len(setups) < due:
                setups.append(timed_setup(type(wl)(),
                                          setup_seed(seed, len(setups))))
            speed.calibrate()
        if clock() - started >= HARD_CAP_S or (
                elapsed >= seconds and index >= wl.trace_rounds
                and len(tally.latency[read]) >= need):
            break
    speed.calibrate()
    wall = clock() - started
    latency = tally.reference_latency()
    busy = sum(sum(values) for values in latency.values())
    reads = stats.summarise_ms(latency[read])
    host = stats.summarise_ms(tally.latency[read])
    for kind, values in sorted(latency.items()):
        print(f"{wl.name}: {len(values)} {kind} ops, median "
              f"{statistics.median(values) * 1e3:.2f} ms (host "
              f"{statistics.median(tally.latency[kind]) * 1e3:.2f} ms)")
    print(f"{wl.name}: {index} rounds in {wall:.1f} s, read p50 "
          f"{reads['p50']:.2f} ms, p90 {reads['p90']:.2f} ms over "
          f"{reads['n']} samples ({reads['beyond']} beyond the p90); host "
          f"p50 {host['p50']:.2f} ms, p90 {host['p90']:.2f} ms")
    print(f"{wl.name}: {len(speed.kernel)} kernel timings, median "
          f"{statistics.median(speed.kernel) * 1e3:.3f} ms; "
          f"{tally.attempted / busy:.1f} ops per reference s, "
          f"{tally.ops_per_s:.1f} per host s")
    print(f"{wl.name}: set-ups, host s {[round(s[0], 3) for s in setups]},"
          f" reference s {[round(s[1], 3) for s in setups]}")
    metrics = {
        "setup_s": statistics.median(s[1] for s in setups),
        "ops_per_s": tally.attempted / busy,
        "read_ms_p50": reads["p50"],
        "read_ms_p90": reads["p90"],
        "sim_ms": sim_ns / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "attempted": tally.attempted + warm.attempted,
        "failed": tally.failed + warm.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better, _bound in END_TO_END},
    }


def traced(wl: Workload, seed: int, trace_path: Path) -> dict:
    recorder = Recorder()
    probe = layers.LayerProbe(recorder)
    warm = Tally()
    tally = Tally()
    with recorder:
        probe.install()
        root = recorder.open("setup")
        wl.setup(seed)
        recorder.close(root)
        recorder.paused = True
        warm_up(wl, seed, warm)
        recorder.paused = False
        wl.stats.clear()
        gc_before = recorder.gc_s
        probe.start()
        phase = recorder.open("phase")
        for index in range(wl.trace_rounds):
            run_round(wl, seed, index, tally, probe)
        recorder.close(phase)
        probe.stop()
        gc_s = recorder.gc_s - gc_before
    round_stats = wl.stats.copy()
    versions = wl.versions_per_live_row()
    plain = Tally()
    for index in range(wl.trace_rounds, 2 * wl.trace_rounds):
        run_round(wl, seed, index, plain)

    phase_s = recorder.spans[phase].end - recorder.spans[phase].start
    shares = recorder.subtree_self(phase)
    accounted = sum(shares.values())
    if abs(accounted - phase_s) > 1e-6 * max(1.0, phase_s):
        raise AssertionError(f"span self times sum to {accounted} s, "
                             f"the traced phase took {phase_s} s")
    txns = tally.latency.get("txn", [])
    values = layers.per_layer_metrics(recorder, phase, round_stats, {
        "storage.txn_ms_p50": (statistics.median(txns) * 1e3
                               if txns else 0.0),
        "storage.versions_per_live_row": versions,
        "py.gc_s": gc_s,
        "trace.overhead_ratio": (plain.ops_per_s / tally.ops_per_s
                                 if tally.ops_per_s else 0.0),
    })
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans = recorder.write_chrome_trace(trace_path)
    print(f"{wl.name}: traced {wl.trace_rounds} round(s), {spans} spans, "
          f"phase {phase_s:.2f} s, round sim {tally.sim_ns / 1e6:.4f} ms; "
          f"trace in {trace_path}")
    units = {name: unit for name, unit, _better in layers.PER_LAYER}
    return {
        "attempted": tally.attempted + warm.attempted + plain.attempted,
        "failed": tally.failed + warm.failed + plain.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "sim_ms": tally.sim_ns / 1e6,
        "self_s": {("bench.self" if name == "phase" else name): value
                   for name, value in shares.items()},
    }


def main(workload: str, seed: int, seconds: float, trace: bool,
         root: Path) -> int:
    wl = WORKLOADS[workload]()
    if trace:
        result = traced(wl, seed, root / ".perfbench"
                        / f"trace-{workload}-{seed}.json")
    else:
        result = end_to_end(wl, seed, seconds)
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(f"{workload}: fail_ratio "
          f"{stats.fail_ratio(report['failed'], report['attempted']):.6f} "
          f"({report['failed']} of {report['attempted']} ops)")
    print(json.dumps(report))
    return 0
