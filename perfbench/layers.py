"""Where the benchmark cuts the program into layers, and what it counts.

Spans wrap each layer's public entry points; counters wrap the two
calls the simulator's host cost scales with (event scheduling and cache
line loads). Hardware and PIM counters are read from what the program
already reports. Everything here is installed through a
:class:`~perfbench.tracing.Recorder` and removed when it exits.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Dict, List, Tuple

import repro.bench.workloads as gen
import repro.cluster.service as cluster_service
import repro.core.relmem as relmem
import repro.memsys.hierarchy as hierarchy
import repro.pim.engine as pim_engine
import repro.query.executor as executor
import repro.query.processor as processor
import repro.serve.profiles as profiles
import repro.serve.service as serve_service
import repro.sim.engine as sim_engine
import repro.storage.mvcc as mvcc
from repro.sim.fastpath import FALLBACK_TALLY, TIMING_CACHE

from . import workloads
from .tracing import Recorder

_System = relmem.RelationalMemorySystem

#: (owner, attribute, span name) for every wrapped entry point.
SPAN_POINTS: List[Tuple[object, str, str]] = [
    (gen, "make_relation", "gen.table"),
    (gen, "make_join_tables", "gen.table"),
    (gen, "make_grouped_relation", "gen.table"),
    (workloads, "order_rows", "gen.table"),
    (_System, "__init__", "core.system"),
    (_System, "load_table", "core.load"),
    (_System, "load_column_group", "core.load"),
    (_System, "register_var", "rme.configure"),
    (_System, "warm_up", "rme.configure"),
    (executor.QueryExecutor, "run_direct", "engine.cpu"),
    (executor.QueryExecutor, "run_columnar", "engine.columnar"),
    (executor.QueryExecutor, "run_rme", "engine.rme"),
    (executor.QueryExecutor, "run_pim", "engine.pim"),
    (executor.QueryExecutor, "run_pim_join", "engine.pim_join"),
    (processor.Processor, "plan", "query.plan"),
    (processor.Processor, "plan_join", "query.plan"),
    (processor.Processor, "execute", "query.exec"),
    (mvcc.TransactionManager, "begin", "storage.txn"),
    (mvcc.Transaction, "read", "storage.txn"),
    (mvcc.Transaction, "insert", "storage.txn"),
    (mvcc.Transaction, "update", "storage.txn"),
    (mvcc.TransactionManager, "commit", "storage.commit"),
    (profiles, "profile_workload", "serve.profile"),
    (serve_service.ServingSystem, "run", "serve.run"),
    (cluster_service.ClusterSystem, "run", "cluster.run"),
]

SPAN_NAMES = sorted({name for _owner, _attr, name in SPAN_POINTS})

#: (owner, attribute, counter name) for every counted call.
COUNT_POINTS: List[Tuple[object, str, str]] = [
    (sim_engine.Simulator, "schedule", "sim.events"),
    (sim_engine.Simulator, "schedule_at", "sim.events"),
    (hierarchy.MemoryHierarchy, "load_line", "memsys.load_line"),
]

#: ``BankPIM`` breakdown keys summed into each simulated-ns counter.
PIM_BREAKDOWN = {
    "pim.sim_filter_ns": ("filter_ns", "lhs_filter_ns", "rhs_filter_ns"),
    "pim.sim_build_probe_ns": ("build_ns", "probe_ns"),
    "pim.sim_readout_ns": ("readout_ns",),
    "pim.sim_gather_ns": ("gather_ns",),
}

HARDWARE = ("l1.misses", "l2.misses", "dram.accesses")


def _hardware(system) -> Tuple[int, int, int]:
    core = system.hierarchy
    dram = system.dram.stats
    return (core.l1.stats.count("misses_demand"),
            core.l2.stats.count("misses"),
            dram.count("row_hits") + dram.count("row_empty")
            + dram.count("row_misses"))


class LayerProbe:
    """Installs the wraps and keeps the counters that outlive a call.

    The program zeroes its hardware counters before each measured scan,
    so the probe harvests them just before every ``reset_stats`` and
    again after every op; only harvests while :attr:`active` count.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.counts: Counter = recorder.counts
        self.active = False
        self._seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._fastpath = (0, 0, 0)

    def install(self) -> None:
        recorder = self.recorder
        for owner, attr, name in SPAN_POINTS:
            recorder.wrap(owner, attr, name)
        for owner, attr, name in COUNT_POINTS:
            recorder.count(owner, attr, name)
        probe = self

        def harvest_first(original):
            def reset_stats(system):
                probe.harvest(system)
                original(system)
                probe._seen[system] = (0, 0, 0)
            return reset_stats

        recorder.patch(_System, "reset_stats", harvest_first)

        def add_breakdown(original):
            def run(device, *args, **kwargs):
                execution = original(device, *args, **kwargs)
                if probe.active:
                    for name, keys in PIM_BREAKDOWN.items():
                        probe.counts[name] += sum(
                            execution.breakdown.get(k, 0.0) for k in keys)
                return execution
            return run

        recorder.patch(pim_engine.BankPIM, "run", add_breakdown)
        recorder.patch(pim_engine.BankPIM, "run_join", add_breakdown)

    def harvest(self, system) -> None:
        """Add the hardware counts ``system`` gained since last seen."""
        now = _hardware(system)
        before = self._seen.get(system, (0, 0, 0))
        if self.active:
            for name, after, prior in zip(HARDWARE, now, before):
                self.counts[name] += after - prior
        self._seen[system] = now

    @staticmethod
    def _fastpath_now() -> Tuple[int, int, int]:
        return (TIMING_CACHE.hits, TIMING_CACHE.misses,
                sum(FALLBACK_TALLY.values()))

    def start(self) -> None:
        self.active = True
        self._fastpath = self._fastpath_now()

    def stop(self) -> None:
        self.active = False
        now = self._fastpath_now()
        for name, after, prior in zip(
                ("fastpath.memo_hits", "fastpath.memo_misses",
                 "fastpath.fallbacks"), now, self._fastpath):
            self.counts[name] += after - prior


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Every per-layer metric, its unit, and whether higher is better.
PER_LAYER: List[Tuple[str, str, str]] = [
    *[(f"{name}_s", "s", "lower") for name in SPAN_NAMES],
    ("bench.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("memsys.load_line", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("fastpath.memo_hits", "count", "higher"),
    ("fastpath.memo_misses", "count", "lower"),
    ("fastpath.memo_hit_ratio", "ratio", "higher"),
    ("fastpath.fallbacks", "count", "lower"),
    *[(name, "count", "lower") for name in HARDWARE],
    *[(name, "ns", "lower") for name in PIM_BREAKDOWN],
    ("query.pim_placed_ratio", "ratio", "higher"),
    ("query.rows_scanned_per_row_out", "ratio", "lower"),
    ("storage.txn_ms_p50", "ms", "lower"),
    ("storage.commits", "count", "higher"),
    ("storage.conflicts", "count", "lower"),
    ("storage.conflict_ratio", "ratio", "lower"),
    ("storage.versions_per_live_row", "ratio", "lower"),
    ("serve.req_p99_us", "us", "lower"),
    ("serve.hot_rate", "ratio", "higher"),
    ("serve.context_switches", "count", "lower"),
    ("serve.shed_rate", "ratio", "lower"),
    ("cluster.availability", "ratio", "higher"),
    ("cluster.retries", "count", "lower"),
    ("cluster.hedges", "count", "lower"),
    ("cluster.hedge_win_ratio", "ratio", "higher"),
    ("cluster.failover_routes", "count", "lower"),
    ("py.gc_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_metrics(recorder: Recorder, phase: int, stats: Counter,
                      extra: Dict[str, float]) -> Dict[str, float]:
    """Assemble every :data:`PER_LAYER` metric from one traced run.

    Span metrics are self times summed over the whole traced run (set-up
    and timed phase); ``bench.self_s`` is the phase's own time, i.e. the
    benchmark's op generation and answer checks. ``extra`` supplies the
    values the runner measured itself.
    """
    counts = recorder.counts
    own = recorder.self_by_name()
    phase_s = recorder.spans[phase].end - recorder.spans[phase].start
    hits, misses = counts["fastpath.memo_hits"], counts["fastpath.memo_misses"]
    commits, conflicts = stats["storage.commits"], stats["storage.conflicts"]
    values: Dict[str, float] = {f"{n}_s": own.get(n, 0.0) for n in SPAN_NAMES}
    values.update({
        "bench.self_s": recorder.self_times()[phase],
        "sim.events": counts["sim.events"],
        "memsys.load_line": counts["memsys.load_line"],
        "sim.host_us_per_event": _ratio(phase_s * 1e6, counts["sim.events"]),
        "fastpath.memo_hits": hits,
        "fastpath.memo_misses": misses,
        "fastpath.memo_hit_ratio": _ratio(hits, hits + misses),
        "fastpath.fallbacks": counts["fastpath.fallbacks"],
        "query.pim_placed_ratio": _ratio(stats["query.pim_placed"],
                                         stats["query.ops"]),
        "query.rows_scanned_per_row_out": _ratio(stats["query.rows_scanned"],
                                                 stats["query.rows_out"]),
        "storage.commits": commits,
        "storage.conflicts": conflicts,
        "storage.conflict_ratio": _ratio(conflicts, commits + conflicts),
        "serve.req_p99_us": _ratio(stats["serve.p99_ns"],
                                   stats["serve.batches"]) / 1e3,
        "serve.hot_rate": _ratio(stats["serve.hot_hits"],
                                 stats["serve.served"]),
        "serve.context_switches": stats["serve.context_switches"],
        "serve.shed_rate": _ratio(stats["serve.shed"],
                                  stats["serve.arrivals"]),
        "cluster.availability": _ratio(stats["cluster.served"],
                                       stats["cluster.arrivals"]),
        "cluster.retries": stats["cluster.retries"],
        "cluster.hedges": stats["cluster.hedges"],
        "cluster.hedge_win_ratio": _ratio(stats["cluster.hedge_wins"],
                                          stats["cluster.hedges"]),
        "cluster.failover_routes": stats["cluster.failover_routes"],
    })
    for name in HARDWARE + tuple(PIM_BREAKDOWN):
        values[name] = counts[name]
    values.update(extra)
    missing = [name for name, _unit, _better in PER_LAYER
               if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: values[name] for name, _unit, _better in PER_LAYER}
