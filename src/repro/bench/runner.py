"""The experiment runner: builds fresh systems and times access paths.

Every timing is taken on a freshly built platform (cold caches, cold
reorganization buffer) unless a *hot* measurement is requested, in which
case the projection is first pulled through the RME by a warm-up query —
the methodology behind the paper's cold/hot bars in Figure 6.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PlatformConfig, ZCU102
from ..core.relmem import RelationalMemorySystem
from ..query.engines import COLUMNAR, CPU, RME
from ..query.executor import QueryResult
from ..query.processor import Processor
from ..query.queries import Query
from ..rme.designs import ALL_DESIGNS, MLP, DesignParams
from ..storage.row_table import RowTable


@dataclass
class PathTimes:
    """All timings collected for one (query, geometry) point."""

    direct_ns: float = 0.0
    columnar_ns: float = 0.0
    cold_ns: Dict[str, float] = field(default_factory=dict)  #: design -> ns
    hot_ns: Dict[str, float] = field(default_factory=dict)
    direct_cache: Dict[str, Dict[str, float]] = field(default_factory=dict)
    rme_cache: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def normalized_to_direct(self) -> Dict[str, float]:
        """Every series divided by the direct time (Figure 6's y-axis)."""
        base = self.direct_ns or 1.0
        out = {"Direct": 1.0}
        if self.columnar_ns:
            out["Columnar"] = self.columnar_ns / base
        for name, value in self.cold_ns.items():
            out[f"{name} cold"] = value / base
        for name, value in self.hot_ns.items():
            out[f"{name} hot"] = value / base
        return out


@dataclass
class FigureResult:
    """One reproduced figure: x values plus named series."""

    fig_id: str
    title: str
    x_label: str
    xs: List
    series: Dict[str, List[float]]
    y_label: str = "time (ns)"
    notes: str = ""

    def normalized(self, baseline: str = "Direct") -> "FigureResult":
        """Divide every series pointwise by ``baseline`` (per x value)."""
        base = self.series[baseline]
        series = {
            name: [v / b if b else 0.0 for v, b in zip(values, base)]
            for name, values in self.series.items()
        }
        return FigureResult(
            fig_id=self.fig_id,
            title=self.title + f" (normalized to {baseline})",
            x_label=self.x_label,
            xs=list(self.xs),
            series=series,
            y_label=f"time / {baseline}",
            notes=self.notes,
        )

    def ratio(self, numerator: str, denominator: str) -> List[float]:
        num, den = self.series[numerator], self.series[denominator]
        return [n / d if d else 0.0 for n, d in zip(num, den)]


#: Recorded CPU-baseline measurements, keyed by everything they depend
#: on: the platform with ``fastpath`` stripped (the flag only changes the
#: RME engine), the buffer capacity, the scan kind, the packed table
#: bytes, every field of the query (expressions by ``repr``: their
#: ``__eq__`` is identity, so a rebuilt template would never hit), and
#: the fetch column list. The direct and
#: columnar paths contain no RME epochs, so the fast-forward layer cannot
#: collapse them from inside; instead they are *recorded* the first time
#: they run (at cycle level — any run populates the memo) and *replayed*
#: verbatim when ``platform.fastpath`` is set. Replay is trivially
#: bit-identical: the stored :class:`QueryResult` is the cycle-level one.
_BASELINE_MEMO: Dict[tuple, QueryResult] = {}
_BASELINE_MEMO_MAX = 128

#: Hit/miss tallies for the ``repro perf --profile`` report.
BASELINE_MEMO_TALLY: Dict[str, int] = {"hits": 0, "misses": 0}


def _baseline_key(
    platform: PlatformConfig,
    buffer_capacity: Optional[int],
    kind: str,
    table: RowTable,
    query: Query,
    columns: Optional[Sequence[str]] = None,
) -> tuple:
    return (
        dataclasses.replace(platform, fastpath=False),
        buffer_capacity,
        kind,
        table.name,
        table.raw_bytes(),
        repr(query),
        tuple(columns) if columns is not None else None,
    )


def _baseline_replay(key: tuple, fastpath: bool) -> Optional[QueryResult]:
    """The recorded measurement for ``key``, if replay is allowed."""
    if not fastpath:
        return None
    result = _BASELINE_MEMO.get(key)
    if result is None:
        BASELINE_MEMO_TALLY["misses"] += 1
        return None
    BASELINE_MEMO_TALLY["hits"] += 1
    # Shallow-copy so a caller mutating ``cache_stats`` cannot poison the
    # recording for later replays.
    return dataclasses.replace(
        result, cache_stats={k: dict(v) for k, v in result.cache_stats.items()}
    )


def _baseline_record(key: tuple, result: QueryResult) -> None:
    if len(_BASELINE_MEMO) >= _BASELINE_MEMO_MAX:
        _BASELINE_MEMO.pop(next(iter(_BASELINE_MEMO)))
    _BASELINE_MEMO[key] = result


class ExperimentRunner:
    """Times queries over every access path on freshly built platforms."""

    def __init__(
        self,
        platform: PlatformConfig = ZCU102,
        designs: Sequence[DesignParams] = ALL_DESIGNS,
        buffer_capacity: Optional[int] = None,
    ):
        self.platform = platform
        self.designs = tuple(designs)
        self.buffer_capacity = buffer_capacity

    # -- one-path timings ----------------------------------------------------------
    def _system(self, design: DesignParams) -> RelationalMemorySystem:
        kwargs = {}
        if self.buffer_capacity is not None:
            kwargs["buffer_capacity"] = self.buffer_capacity
        return RelationalMemorySystem(self.platform, design, **kwargs)

    def time_direct(self, table: RowTable, query: Query) -> QueryResult:
        """Time the all-CPU tree: row-store scan, no transfers.

        A deterministic baseline with no RME epochs: under
        ``platform.fastpath`` a previously recorded run of the same
        (platform, table, query) is replayed instead of re-simulated.
        """
        key = _baseline_key(self.platform, self.buffer_capacity, "direct",
                            table, query)
        replay = _baseline_replay(key, self.platform.fastpath)
        if replay is not None:
            return replay
        system = self._system(MLP)
        loaded = system.load_table(table)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=CPU)
        result = processor.execute(plan.relation, loaded=loaded)
        _baseline_record(key, result)
        return result

    def time_columnar(
        self, table: RowTable, query: Query, group_columns: Optional[Sequence[str]] = None
    ) -> QueryResult:
        """Time the tree with its fetch placed on the columnar copy.

        ``group_columns`` widens the fetch projection beyond the query's
        footprint (the projectivity sweeps scan wider groups on purpose).
        Like :meth:`time_direct`, recorded runs are replayed under
        ``platform.fastpath``.
        """
        columns = list(group_columns or query.columns())
        key = _baseline_key(self.platform, self.buffer_capacity,
                            "columnar", table, query, columns)
        replay = _baseline_replay(key, self.platform.fastpath)
        if replay is not None:
            return replay
        system = self._system(MLP)
        loaded = system.load_table(table)
        columnar = system.load_column_group(table, columns)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=COLUMNAR,
                              fetch_columns=columns)
        result = processor.execute(plan.relation, loaded=loaded,
                                   columnar=columnar)
        _baseline_record(key, result)
        return result

    def time_rme(
        self,
        table: RowTable,
        query: Query,
        design: DesignParams = MLP,
        hot: bool = False,
        group_columns: Optional[Sequence[str]] = None,
    ) -> QueryResult:
        """Time the canonical RME tree (fetch behind explicit transfers)."""
        system = self._system(design)
        loaded = system.load_table(table)
        columns = list(group_columns or query.columns())
        var = system.register_var(loaded, columns)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=RME,
                              fetch_columns=columns)
        if hot:
            system.warm_up(var)
            system.flush_caches()
        return processor.execute(plan.relation, var=var)

    # -- the full sweep point ---------------------------------------------------------
    def measure_paths(
        self,
        table: RowTable,
        query: Query,
        group_columns: Optional[Sequence[str]] = None,
        include_columnar: bool = True,
        designs: Optional[Sequence[DesignParams]] = None,
        include_hot: bool = True,
    ) -> PathTimes:
        """Direct + columnar + per-design cold/hot timings for one point."""
        times = PathTimes()
        direct = self.time_direct(table, query)
        times.direct_ns = direct.elapsed_ns
        times.direct_cache = direct.cache_stats
        if include_columnar:
            times.columnar_ns = self.time_columnar(
                table, query, group_columns
            ).elapsed_ns
        for design in designs or self.designs:
            cold = self.time_rme(table, query, design, hot=False,
                                 group_columns=group_columns)
            times.cold_ns[design.name] = cold.elapsed_ns
            if include_hot:
                hot = self.time_rme(table, query, design, hot=True,
                                    group_columns=group_columns)
                times.hot_ns[design.name] = hot.elapsed_ns
                times.rme_cache = hot.cache_stats
        return times
