"""Wall-clock benchmarking of the fast-forward replay layer.

Everything else in :mod:`repro.bench` measures *simulated* nanoseconds;
this module measures *host seconds*. Each scenario runs twice — once
cycle-level, once with ``fastpath=True`` — under ``time.perf_counter``,
and the two runs' simulated observables are compared bit-for-bit before
any speedup is reported. A fast path that changes even one simulated
cycle is a broken fast path, so :func:`run_wallclock` raises on the
first divergence rather than reporting a tainted number.

Scenarios:

* ``fig01`` — the analytical projectivity curves. No event-driven
  simulation runs here, so its speedup is ~1x by construction; it is
  included as the control that the harness itself adds no skew.
* ``fig06`` — the Figure 6 Q1 design sweep, the repository's flagship
  cycle-level experiment and the acceptance target (>= 3x).
* ``serving`` — multi-tenant profiling plus one scheduled serving run,
  compared via the report's determinism fingerprint.
* ``windowed`` — a projection larger than the reorganization buffer
  (one fast-forwarded epoch per window).
* ``multirun`` — non-contiguous columns (a multi-run geometry).
* ``pushdown`` — a hardware aggregation plus a single-lane selection.

The caches that make repeated runs fast (the descriptor timing memo and
the serving profile memo) are invalidated before each measurement, so
the numbers describe a cold process, not a warm cache.

``python -m repro perf`` and ``benchmarks/bench_wallclock.py`` are thin
front-ends over :func:`run_wallclock`; both write ``BENCH_wallclock.json``.
"""

from __future__ import annotations

import dataclasses
import json
import platform as host_platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ZCU102, PlatformConfig
from ..errors import SimulationError
from ..parallel import WORKER_CACHE_TRAFFIC
from ..sim.fastpath import FALLBACK_TALLY, TIMING_CACHE
from .figures import fig01_projectivity, fig06_q1_designs

#: The platform pair every scenario is timed under.
CYCLE_LEVEL = ZCU102
FAST_FORWARD = dataclasses.replace(ZCU102, fastpath=True)

#: The acceptance floor for the fig06 sweep in full mode.
FIG06_MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class ScenarioTiming:
    """One scenario's paired measurement.

    ``cache_hits``/``cache_misses`` count timing-memo traffic during the
    fast run; ``fallbacks`` tallies the ``fastpath_fallback_<reason>``
    bumps it caused (``repro perf --profile`` renders both).
    """

    name: str
    cycle_s: float
    fast_s: float
    identical: bool
    fastpath_hits: int
    cache_hits: int = 0
    cache_misses: int = 0
    fallbacks: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.cycle_s / self.fast_s if self.fast_s else float("inf")

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cycle_level_s": round(self.cycle_s, 4),
            "fastpath_s": round(self.fast_s, 4),
            "speedup": round(self.speedup, 3),
            "identical": self.identical,
            "fastpath_hits": self.fastpath_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 3),
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }


@dataclass
class WallclockReport:
    """The full benchmark outcome, ready for JSON or a terminal table."""

    quick: bool
    scenarios: List[ScenarioTiming]

    def scenario(self, name: str) -> ScenarioTiming:
        for timing in self.scenarios:
            if timing.name == name:
                return timing
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "benchmark": "fast-forward replay wall-clock",
            "mode": "quick" if self.quick else "full",
            "host": host_platform.platform(),
            "python": host_platform.python_version(),
            "scenarios": [t.as_dict() for t in self.scenarios],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        from .report import render_table

        rows = [
            [t.name, f"{t.cycle_s:.2f}", f"{t.fast_s:.2f}",
             f"{t.speedup:.2f}x", "yes" if t.identical else "NO",
             str(t.fastpath_hits)]
            for t in self.scenarios
        ]
        return render_table(
            ["scenario", "cycle-level s", "fastpath s", "speedup",
             "identical", "ff epochs"], rows,
        )

    def render_profile(self) -> str:
        """The ``repro perf --profile`` view: per-scenario timing-memo
        hit rates plus the process-wide fallback tally, most-frequent
        reason first — the worklist for growing fastpath coverage."""
        from .report import render_table

        rows = [
            [t.name, str(t.cache_hits), str(t.cache_misses),
             f"{t.cache_hit_rate:.0%}"]
            for t in self.scenarios
        ]
        lines = [render_table(
            ["scenario", "memo hits", "memo misses", "hit rate"], rows,
        )]
        tally: Dict[str, int] = {}
        for t in self.scenarios:
            for reason, count in t.fallbacks.items():
                tally[reason] = tally.get(reason, 0) + count
        if tally:
            fb_rows = [
                [reason, str(count)]
                for reason, count in sorted(
                    tally.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
            lines.append(render_table(
                ["fastpath fallback reason", "epochs"], fb_rows,
            ))
        else:
            lines.append("no fastpath fallbacks: every epoch fast-forwarded")
        from .runner import BASELINE_MEMO

        hits, misses = BASELINE_MEMO.snapshot()
        if hits or misses:
            lines.append(
                f"CPU-baseline measurement memo: {hits} replayed, "
                f"{misses} recorded fresh under fastpath"
            )
        return "\n".join(lines)


def _fresh_caches() -> None:
    """Start each measurement cold: no memoized timings or profiles."""
    from ..serve.profiles import PROFILE_CACHE

    TIMING_CACHE.invalidate("wallclock benchmark")
    PROFILE_CACHE.invalidate("wallclock benchmark")


def _snapshot_figure(figure) -> dict:
    return {"xs": list(figure.xs), "series": figure.series}


def _scenario_fig01(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    kwargs = dict(n_points=8, n_rows=8192) if quick else {}

    def run(platform: PlatformConfig):
        return _snapshot_figure(fig01_projectivity(
            platform=platform, jobs=jobs or 1, **kwargs
        ))

    return run


def _scenario_fig06(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    kwargs = dict(n_rows=512, widths=(1, 4, 16)) if quick else {}

    def run(platform: PlatformConfig):
        return _snapshot_figure(fig06_q1_designs(
            platform=platform, jobs=jobs or 1, **kwargs
        ))

    return run


def _scenario_serving(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    n_rows, n_requests, n_tenants = (128, 80, 2) if quick else (512, 300, 3)

    def run(platform: PlatformConfig):
        from ..serve import (
            OpenLoopWorkload,
            ServingSystem,
            default_tenants,
            profile_workload,
        )

        tenants = default_tenants(
            n_tenants=n_tenants, n_rows=n_rows, seed=7
        )
        profile = profile_workload(tenants, platform=platform, jobs=jobs)
        workload = OpenLoopWorkload(
            tenants, rate_qps=0.8 * profile.saturation_rate_qps(),
            n_requests=n_requests, seed=7,
        )
        report = ServingSystem(profile, platform=platform).run(workload)
        return {"fingerprint": report.fingerprint()}

    return run


def _scenario_windowed(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """A projection larger than the reorganization buffer: every window is
    a separate fast-forwarded epoch (previously the largest fallback)."""
    n_rows, capacity = (512, 512) if quick else (4096, 2048)

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q1
        from ..rme.designs import MLP
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        system = RelationalMemorySystem(platform, MLP,
                                        buffer_capacity=capacity)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1"], windowed=True)
        result = QueryExecutor(system).run_rme(q1("A1"), var)
        return {
            "elapsed_ns": result.elapsed_ns,
            "value": result.value,
            "windows": system.rme.n_windows,
            "switches": system.rme.stats.count("window_switches"),
        }

    return run


def _scenario_multirun(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """Non-contiguous columns (a MultiRMEConfig with several runs)."""
    n_rows = 512 if quick else 2048

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q2
        from ..rme.designs import MLP
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        system = RelationalMemorySystem(platform, MLP)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1", "A3"],
                                  allow_noncontiguous=True)
        result = QueryExecutor(system).run_rme(q2("A1", "A3"), var)
        return {"elapsed_ns": result.elapsed_ns, "value": result.value}

    return run


def _scenario_pushdown(quick: bool, jobs: Optional[int]) -> Callable[[PlatformConfig], object]:
    """Hardware pushdown sinks: an aggregation (cacheable reduction
    replay) plus a single-lane selection (content-dependent, uncached)."""
    n_rows = 128 if quick else 1024

    def run(platform: PlatformConfig):
        from .. import QueryExecutor, RelationalMemorySystem
        from ..query.queries import q1
        from ..rme.designs import MLP, PCK
        from .workloads import make_relation

        table = make_relation(n_rows=n_rows)
        agg_sys = RelationalMemorySystem(platform, MLP)
        loaded = agg_sys.load_table(table)
        avar = agg_sys.register_hw_aggregate(loaded, "A1", "sum")
        agg_sys.warm_up(avar)

        sel_sys = RelationalMemorySystem(platform, PCK)
        loaded = sel_sys.load_table(table)
        fvar = sel_sys.register_filtered_var(loaded, ["A1"], "A1", "<", 0)
        sel_sys.warm_up(fvar)
        sel_sys.flush_caches()
        result = QueryExecutor(sel_sys).run_rme(q1("A1"), fvar)
        return {
            "aggregate": agg_sys.rme.aggregate_result(),
            "agg_now": agg_sys.sim.now,
            "matches": sel_sys.rme.match_count,
            "elapsed_ns": result.elapsed_ns,
            "value": result.value,
        }

    return run


#: name -> scenario builder; order is the report order.
SCENARIOS: Dict[str, Callable[[bool, Optional[int]], Callable]] = {
    "fig01": _scenario_fig01,
    "fig06": _scenario_fig06,
    "serving": _scenario_serving,
    "windowed": _scenario_windowed,
    "multirun": _scenario_multirun,
    "pushdown": _scenario_pushdown,
}


def _measure(run: Callable[[PlatformConfig], object],
             platform: PlatformConfig) -> Tuple[float, object]:
    _fresh_caches()
    start = time.perf_counter()
    snapshot = run(platform)
    return time.perf_counter() - start, snapshot


def _timing_lookups() -> int:
    """Total timing-memo lookups observed so far, in this process *and*
    inside any pool workers (whose traffic only reaches the parent as
    merged deltas)."""
    worker = (WORKER_CACHE_TRAFFIC.counter("timing_hits").count
              + WORKER_CACHE_TRAFFIC.counter("timing_misses").count)
    return TIMING_CACHE.hits + TIMING_CACHE.misses + int(worker)


def run_wallclock(
    quick: bool = False,
    scenarios: Optional[Sequence[str]] = None,
    min_fig06_speedup: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> WallclockReport:
    """Time every scenario both ways; raise on any simulated divergence.

    ``min_fig06_speedup`` defaults to :data:`FIG06_MIN_SPEEDUP` in full
    mode and to no floor in quick mode (quick scales are too small for a
    stable ratio; CI uses quick mode purely as an equality check).

    ``jobs`` shards each scenario's sweep points across worker processes
    (see :mod:`repro.parallel`); both the cycle-level and fast-forward
    runs use the same ``jobs``, so the bit-identity comparison still
    holds point for point. ``None`` keeps the legacy single-process
    paths.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SimulationError(
            f"unknown wallclock scenarios: {', '.join(unknown)} "
            f"(choose from {', '.join(SCENARIOS)})"
        )
    if min_fig06_speedup is None and not quick:
        min_fig06_speedup = FIG06_MIN_SPEEDUP

    timings: List[ScenarioTiming] = []
    for name in names:
        run = SCENARIOS[name](quick, jobs)
        if progress:
            progress(f"{name}: cycle-level run ...")
        cycle_s, cycle_snap = _measure(run, CYCLE_LEVEL)
        if progress:
            progress(f"{name}: fast-forward run ...")
        lookups_before = _timing_lookups()
        cache_before = (TIMING_CACHE.hits, TIMING_CACHE.misses)
        tally_before = dict(FALLBACK_TALLY)
        fast_s, fast_snap = _measure(run, FAST_FORWARD)
        # One timing-memo lookup happens per fast-forwarded epoch.
        hits = _timing_lookups() - lookups_before
        fallbacks = {
            reason: count - tally_before.get(reason, 0)
            for reason, count in FALLBACK_TALLY.items()
            if count > tally_before.get(reason, 0)
        }
        identical = cycle_snap == fast_snap
        if not identical:
            raise SimulationError(
                f"wallclock scenario {name!r}: fast-forward observables "
                "diverged from the cycle-level run — the fast path is "
                "not bit-identical"
            )
        timings.append(ScenarioTiming(
            name=name, cycle_s=cycle_s, fast_s=fast_s,
            identical=identical, fastpath_hits=hits,
            cache_hits=TIMING_CACHE.hits - cache_before[0],
            cache_misses=TIMING_CACHE.misses - cache_before[1],
            fallbacks=fallbacks,
        ))
        if progress:
            progress(f"{name}: {cycle_s:.2f}s -> {fast_s:.2f}s "
                     f"({cycle_s / fast_s:.2f}x), identical")

    report = WallclockReport(quick=quick, scenarios=timings)
    if min_fig06_speedup is not None and "fig06" in names:
        achieved = report.scenario("fig06").speedup
        if achieved < min_fig06_speedup:
            raise SimulationError(
                f"fig06 wall-clock speedup {achieved:.2f}x is below the "
                f"{min_fig06_speedup:.1f}x acceptance floor"
            )
    return report
