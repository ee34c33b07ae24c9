"""The query executor: functional answers plus simulated timing.

For each query the executor does two things:

1. **Compute the answer** with the pure-Python operators of
   :mod:`repro.query.ops` over the table's actual values (applying MVCC
   visibility when an ephemeral variable carries a snapshot).
2. **Price the execution** by replaying the query's memory access pattern
   on the simulated platform: a strided scan over the row-store (direct),
   a packed scan over a columnar copy, or a packed scan over the
   ephemeral region served by the RME — one segment per pass, with the
   per-row compute cost derived from the query's expression tree and the
   measured predicate selectivity.

This split keeps results byte-verifiable (the RME's packed buffer is
checked against software projections in the test suite) while the timing
reflects the co-design's memory behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.access_path import AccessPath
from ..core.ephemeral import EphemeralVariable
from ..core.relmem import (
    LoadedColumnGroup,
    LoadedIndex,
    LoadedTable,
    RelationalMemorySystem,
)
from ..errors import FaultError, QueryError, SimulationError
from ..memsys.cpu import ScanSegment
from . import ops
from .expr import key_range
from .queries import HASH_BUILD_NS, HASH_PROBE_NS, Query

#: CPU cost (ns) of the binary search inside one B+-tree node.
_NODE_SEARCH_NS = 2.7


@dataclass
class JoinScan:
    """One executed join input-pair: the joined rows plus the bill.

    The processor finalises this into a :class:`QueryResult` after
    applying the operators above the Join node; ``rhs_rows`` (surviving
    right-side rows) is the denominator of the reported selectivity.
    """

    rows: List[Dict[str, Any]]
    elapsed_ns: float
    rows_scanned: int
    rhs_rows: int
    path: AccessPath
    state: str


@dataclass
class QueryResult:
    """Everything one execution produced."""

    query: str
    path: AccessPath
    value: Any
    elapsed_ns: float
    rows_scanned: int
    selectivity: float
    state: str  #: "cold" / "hot" for the RME path, "-" otherwise
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ns_per_row(self) -> float:
        return self.elapsed_ns / self.rows_scanned if self.rows_scanned else 0.0


class QueryExecutor:
    """Runs queries over a loaded table via any access path."""

    def __init__(self, system: RelationalMemorySystem):
        self.system = system
        #: Lazily-built :class:`repro.pim.BankPIM` device for run_pim.
        self._pim = None

    # -- public entry points ------------------------------------------------------
    def run_direct(
        self, query: Query, loaded: LoadedTable, flush: bool = True
    ) -> QueryResult:
        """Scan the row-oriented base table (the paper's Direct Access)."""
        offset, width = loaded.schema.covering_group(query.columns())
        value, selectivity, n_rows = self._answer(query, loaded)
        compute = query.row_compute_ns(selectivity)
        segment = ScanSegment(
            start=loaded.base_addr + offset,
            n_elems=n_rows,
            elem_size=width,
            stride=loaded.schema.row_size,
            compute_ns=compute,
            name=f"direct:{query.name}",
        )
        elapsed = self._measure([segment] * query.passes, flush)
        return self._result(query, AccessPath.DIRECT_ROW, value, elapsed,
                            n_rows, selectivity, "-")

    def run_columnar(
        self,
        query: Query,
        loaded: LoadedTable,
        columnar: LoadedColumnGroup,
        flush: bool = True,
    ) -> QueryResult:
        """Scan a materialised columnar copy (the Columnar baseline)."""
        needed = query.columns()
        missing = [c for c in needed if c not in columnar.columns]
        if missing:
            raise QueryError(
                f"columnar copy {columnar.name!r} lacks columns {missing}"
            )
        value, selectivity, n_rows = self._answer(query, loaded)
        compute = query.row_compute_ns(selectivity)
        segment = ScanSegment(
            start=columnar.base_addr,
            n_elems=columnar.n_rows,
            elem_size=columnar.width,
            stride=columnar.width,
            compute_ns=compute,
            name=f"columnar:{query.name}",
        )
        elapsed = self._measure([segment] * query.passes, flush)
        return self._result(query, AccessPath.COLUMNAR, value, elapsed,
                            n_rows, selectivity, "-")

    def run_rme(
        self,
        query: Query,
        var: EphemeralVariable,
        flush: bool = True,
    ) -> QueryResult:
        """Scan through the ephemeral variable (cold or hot as it stands).

        An unrecoverable fault mid-scan follows :meth:`_fault_fallback`;
        the answer came from the variable's visible versions, so the
        degraded re-scan is staleness-free.
        """
        needed = query.columns()
        missing = [c for c in needed if c not in var.group_schema]
        if missing:
            raise QueryError(
                f"ephemeral view {var.name!r} lacks columns {missing}"
            )
        self.system.activate(var)
        state = "hot" if var.is_hot else "cold"
        answer = self._answer(query, var.loaded, var)
        value, selectivity, n_rows = answer
        compute = query.row_compute_ns(selectivity)
        segments = var.scan_segment(compute, query.passes)
        start_ns = self.system.sim.now
        try:
            elapsed = self._measure(segments, flush)
        except FaultError as error:
            wasted = self.system.sim.now - start_ns
            self._fault_fallback(error, "rme", wasted)
            return self._degraded(query, var.loaded, answer, wasted)
        if self.system.faults is not None:
            audited = self._audit_rme(query, var, answer, elapsed)
            if audited is not None:
                return audited
        return self._result(query, AccessPath.RME, value, elapsed,
                            n_rows, selectivity, state)

    def run_pim(
        self, query: Query, loaded: LoadedTable, flush: bool = True
    ) -> QueryResult:
        """Evaluate the query inside the DRAM banks (bank-level PIM).

        Selection compiles onto the in-bank comparator array, aggregation
        onto the in-bank accumulator; only the merged selection bitmap or
        an aggregate register line crosses the AXI boundary, plus — for
        projection queries — the CPU's point-gather of the matching rows.
        An unrecoverable in-bank fault follows :meth:`_fault_fallback`.
        """
        device = self._device()
        self._reset(flush)
        try:
            execution = device.run(query, loaded)
        except FaultError as error:
            self._fault_fallback(error, "pim", device.last_wasted_ns)
            return self._degraded(query, loaded, self._answer(query, loaded),
                                  device.last_wasted_ns)
        return self._result(query, AccessPath.PIM, execution.value,
                            execution.elapsed_ns, execution.n_rows,
                            execution.selectivity, "-")

    def run_pim_join(
        self,
        on: str,
        lhs_query: Query,
        lhs_loaded: LoadedTable,
        rhs_query: Query,
        rhs_loaded: LoadedTable,
        flush: bool = True,
    ) -> JoinScan:
        """Hash-join two plain tables inside the DRAM banks.

        Both sides filter at the banks, the smaller surviving side
        builds per-bank hash tables, the larger side probes them; only
        matched row-id pairs cross the AXI boundary before the CPU
        gathers the joined rows. An unrecoverable in-bank fault follows
        :meth:`_fault_fallback`: the join is recomputed in software over
        two direct re-scans, with state ``"degraded"``.
        """
        device = self._device()
        self._reset(flush)
        try:
            execution = device.run_join(on, lhs_query, lhs_loaded,
                                        rhs_query, rhs_loaded)
        except FaultError as error:
            self._fault_fallback(error, "pim", device.last_wasted_ns)
            elapsed, sides = device.last_wasted_ns, []
            for query, loaded in ((lhs_query, lhs_loaded),
                                  (rhs_query, rhs_loaded)):
                value, selectivity, _ = self._answer(query, loaded)
                elapsed += self._fallback_rescan_ns(query, loaded, selectivity)
                sides.append(_row_dicts(query, value))
            return _software_join(on, sides, elapsed,
                                  lhs_loaded.table.n_rows
                                  + rhs_loaded.table.n_rows, "degraded")
        return JoinScan(
            rows=execution.rows,
            elapsed_ns=execution.elapsed_ns,
            rows_scanned=execution.n_rows,
            rhs_rows=execution.rhs_rows,
            path=AccessPath.PIM,
            state="-",
        )

    def run_rme_pushdown(
        self,
        query: Query,
        var: EphemeralVariable,
        flush: bool = True,
    ) -> QueryResult:
        """Scan a *filtered* ephemeral view (selection pushdown).

        The variable's hardware comparator must implement the query's
        predicate (build it with
        :meth:`RelationalMemorySystem.register_filtered_var` from the same
        condition); the CPU then scans only matching rows and spends no
        cycles on the comparison.
        """
        from ..core.ephemeral import FilteredEphemeralVariable

        if not isinstance(var, FilteredEphemeralVariable):
            raise QueryError("run_rme_pushdown needs a filtered ephemeral view")
        self.system.activate(var)
        state = "hot" if var.is_hot else "cold"
        # Functional: the view is pre-filtered; apply any residual predicate
        # for safety (a no-op when it matches the hardware comparator).
        names = var.group_schema.names
        rows = [dict(zip(names, row)) for row in var.values()]
        kept = ops.filter_rows(rows, query.predicate)
        value = self._finalize(query, kept)
        n_rows = var.loaded.table.n_rows
        selectivity = len(kept) / n_rows if n_rows else 0.0
        # Timing: matching rows only, and no predicate cost on the CPU.
        segments = var.scan_segment(query.work_cost_ns(), query.passes)
        elapsed = self._measure(segments, flush)
        return self._result(query, AccessPath.RME, value, elapsed,
                            n_rows, selectivity, state)

    def run_rme_hw_aggregate(self, var: EphemeralVariable, flush: bool = True) -> QueryResult:
        """Read a PL-computed aggregate: one register line of traffic.

        The variable comes from
        :meth:`RelationalMemorySystem.register_hw_aggregate`; cold, the
        read stalls until the engine's fetch stream drains (the whole
        aggregation happens in hardware), hot it is a single buffer hit.
        """
        from ..core.ephemeral import HWAggregateVariable

        if not isinstance(var, HWAggregateVariable):
            raise QueryError("run_rme_hw_aggregate needs a HW-aggregate view")
        self.system.activate(var)
        state = "hot" if self.system.rme.pushdown_done and self.system.is_active(var) else "cold"
        value = var.expected_result()
        segments = var.scan_segment()
        elapsed = self._measure(segments, flush)
        agg = var.hw_aggregation
        n_rows = var.loaded.table.n_rows
        return self._result(
            Query(name=f"hw_{agg.func}", sql=f"PL {agg.func} pushdown",
                  select=("__register__",)),
            AccessPath.RME, value, elapsed, n_rows, 1.0, state,
        )

    def run_rme_hw_group_by(self, var: EphemeralVariable, flush: bool = True) -> QueryResult:
        """Read a PL-computed GROUP BY table: one 16-byte entry per group."""
        from ..core.ephemeral import HWGroupByVariable

        if not isinstance(var, HWGroupByVariable):
            raise QueryError("run_rme_hw_group_by needs a HW group-by view")
        self.system.activate(var)
        state = "hot" if self.system.rme.pushdown_done and self.system.is_active(var) else "cold"
        value = var.expected_result()
        elapsed = self._measure(var.scan_segment(), flush)
        cfg = var.hw_group_by
        n_rows = var.loaded.table.n_rows
        return self._result(
            Query(name=f"hw_groupby_{cfg.func}",
                  sql=f"PL {cfg.func} GROUP BY pushdown",
                  select=("__groups__",)),
            AccessPath.RME, value, elapsed, n_rows, 1.0, state,
        )

    def run_index(
        self,
        query: Query,
        loaded: LoadedTable,
        loaded_index: LoadedIndex,
        flush: bool = True,
    ) -> QueryResult:
        """Probe a B+-tree and fetch only the qualifying rows.

        The query's predicate must impose a simple range on the indexed
        column; the index narrows the scan to matching rows (a point
        access per match), which wins only for very selective queries —
        the trade-off Section 4 describes.
        """
        index = loaded_index.index
        if query.predicate is None:
            raise QueryError("the index path needs a selective predicate")
        bounds = key_range(query.predicate, index.column)
        if bounds is None:
            raise QueryError(
                f"predicate {query.predicate!r} does not impose a range on "
                f"indexed column {index.column!r}"
            )
        low, high, inclusive = bounds
        # Rows appended after the tree was built (versions committed
        # since) are not in it: each is considered too, one point touch
        # apiece, and the residual filter and visibility mask decide.
        row_ids = index.range(low, high, inclusive) + list(
            range(loaded_index.covered_rows, loaded.table.n_rows))

        # Functional answer over exactly the matched rows. The tree holds
        # physical row ids, so on an MVCC table only the versions visible
        # at the snapshot qualify.
        columns = query.columns()
        tuples = loaded.table.project_values(columns)
        visible = (loaded.versioned.visibility_mask(loaded.current_ts())
                   if loaded.versioned is not None else None)
        matched = [dict(zip(columns, tuples[i])) for i in row_ids
                   if i < len(tuples) and (visible is None or visible[i])]
        kept = ops.filter_rows(matched, query.predicate)  # residual filter
        value = self._finalize(query, kept)
        n_rows = loaded.table.n_rows
        selectivity = len(kept) / n_rows if n_rows else 0.0

        # Timing: root-to-leaf probe + leaf chain + one row touch per match.
        self._reset(flush)
        probe = loaded_index.probe_points(low if low is not None else high)
        leaves = loaded_index.leaf_points(low, high)
        offset, width = loaded.schema.covering_group(columns)
        row_size = loaded.schema.row_size
        fetches = [
            (loaded.base_addr + rid * row_size + offset, width) for rid in row_ids
        ]
        elapsed = self.system.measure_points(probe + leaves, _NODE_SEARCH_NS)
        elapsed += self.system.measure_points(
            fetches, query.work_cost_ns() + query.predicate_cost_ns()
        )
        return self._result(query, AccessPath.INDEX, value, elapsed,
                            n_rows, selectivity, "-")

    def run(
        self,
        query: Query,
        loaded: Optional[LoadedTable],
        path: AccessPath,
        var: Optional[EphemeralVariable] = None,
        columnar: Optional[LoadedColumnGroup] = None,
        index: Optional[LoadedIndex] = None,
        flush: bool = True,
    ) -> QueryResult:
        """The one scan dispatch: run ``query`` on ``path``.

        Every binding a path needs is checked here — the ephemeral
        ``var`` (RME), the ``loaded`` row table (every other path), the
        ``columnar`` copy, the B+-tree ``index`` — and a missing one
        raises :class:`~repro.errors.QueryError`.
        """
        if path is AccessPath.RME:
            var = _bound(var, "the RME path needs an ephemeral variable "
                              "(var=...)")
            return self.run_rme(query, var, flush)
        loaded = _bound(loaded, f"the {path.value} path needs a loaded "
                                "table (loaded=...)")
        if path is AccessPath.DIRECT_ROW:
            return self.run_direct(query, loaded, flush)
        if path is AccessPath.COLUMNAR:
            columnar = _bound(columnar, "the columnar path needs a "
                                        "materialised copy (columnar=...)")
            return self.run_columnar(query, loaded, columnar, flush)
        if path is AccessPath.INDEX:
            index = _bound(index, "the index path needs a loaded index "
                                  "(index=...)")
            return self.run_index(query, loaded, index, flush)
        if path is AccessPath.PIM:
            return self.run_pim(query, loaded, flush)
        raise QueryError(f"unknown access path {path!r}")

    def run_join(
        self,
        query: Query,
        on: str,
        sides: Sequence[Tuple[Query, Optional[LoadedTable]]],
        path: AccessPath,
        flush: bool = True,
    ) -> QueryResult:
        """The join dispatch: join two bound inputs on ``path``.

        ``sides`` holds each input's ``(query, loaded)`` pair; ``query``
        carries the operators above the Join — its predicate filters the
        joined rows, its aggregate or select shapes the value. The CPU
        hash-joins two measured row scans (:meth:`run_direct`); the PIM
        engine runs :meth:`run_pim_join`. A missing table binding raises
        :class:`~repro.errors.QueryError`.
        """
        (lhs_query, lhs_loaded), (rhs_query, rhs_loaded) = [
            (side_query, _bound(loaded, f"the join's {name} input needs a "
                                        "tables={leaf: loaded} binding"))
            for name, (side_query, loaded) in zip(("lhs", "rhs"), sides)
        ]
        if path is AccessPath.PIM:
            scan = self.run_pim_join(on, lhs_query, lhs_loaded, rhs_query,
                                     rhs_loaded, flush)
        elif path is AccessPath.DIRECT_ROW:
            lhs = self.run_direct(lhs_query, lhs_loaded, flush)
            rhs = self.run_direct(rhs_query, rhs_loaded, flush=False)
            scan = _software_join(
                on, [_row_dicts(lhs_query, lhs.value),
                     _row_dicts(rhs_query, rhs.value)],
                lhs.elapsed_ns + rhs.elapsed_ns,
                lhs.rows_scanned + rhs.rows_scanned, "-")
        else:
            raise QueryError(f"joins execute on the CPU or in the banks, "
                             f"not on the {path.value} path")
        kept = ops.filter_rows(scan.rows, query.predicate)
        selectivity = len(scan.rows) / scan.rhs_rows if scan.rhs_rows else 0.0
        return self._result(query, scan.path, self._finalize(query, kept),
                            scan.elapsed_ns, scan.rows_scanned, selectivity,
                            scan.state)

    # -- functional evaluation -----------------------------------------------------
    def _answer(
        self,
        query: Query,
        loaded: LoadedTable,
        var: Optional[EphemeralVariable] = None,
    ):
        """Returns ``(value, selectivity, physical_rows_scanned)``.

        The scan always walks every *physical* row (superseded MVCC
        versions included — that is what sits in memory); the answer only
        uses versions visible at the snapshot, matching what the RME
        regenerates for ephemeral variables.
        """
        columns = query.columns()
        rows = self._rows(loaded, columns, var)
        n_rows = loaded.table.n_rows
        kept = ops.filter_rows(rows, query.predicate)
        selectivity = len(kept) / n_rows if n_rows else 0.0
        return self._finalize(query, kept), selectivity, n_rows

    @staticmethod
    def _finalize(query: Query, kept: List[Dict[str, Any]]) -> Any:
        """Aggregate / group / project the filtered rows."""
        if query.group_by is not None:
            return ops.group_aggregate(
                kept, query.group_by, query.aggregate, query.agg_expr
            )
        if query.aggregate is not None:
            values = [query.agg_expr.eval(row) for row in kept]
            return ops.aggregate(query.aggregate, values)
        return ops.project(kept, query.select)

    @staticmethod
    def _rows(
        loaded: LoadedTable,
        columns: Sequence[str],
        var: Optional[EphemeralVariable],
    ) -> List[Dict[str, Any]]:
        if var is not None:
            names = var.group_schema.names
            return [dict(zip(names, row)) for row in var.values()]
        tuples = loaded.table.project_values(list(columns))
        rows = [dict(zip(columns, row)) for row in tuples]
        if loaded.versioned is not None:
            # A row-at-a-time engine checks the begin/end timestamps while
            # scanning; only currently-valid versions contribute.
            mask = loaded.versioned.visibility_mask(loaded.current_ts())
            rows = [row for row, visible in zip(rows, mask) if visible]
        return rows

    # -- fault handling ------------------------------------------------------------
    def _fault_fallback(self, error: FaultError, engine: str,
                        wasted_ns: float) -> None:
        """The one fault-fallback contract (RME scan, PIM scan, PIM join).

        Called from the ``except FaultError`` of a measured run, it

        1. bumps ``<engine>_faults``, ``wasted_ns`` and ``fault_<Error>``;
        2. drains the wreckage (and, for the RME, de-activates the
           engine so the next access reconfigures);
        3. re-raises unless ``recovery.cpu_fallback`` is set;
        4. bumps ``cpu_fallbacks``.

        The caller then prices the CPU re-scan and marks the result
        ``"degraded"``; the wasted simulated time stays on the bill.
        """
        faults = self.system.faults
        faults.stats.bump(f"{engine}_faults")
        faults.stats.bump("wasted_ns", wasted_ns)
        faults.stats.bump(f"fault_{type(error).__name__}")
        self._drain_fault_wreckage()
        if engine == "rme":
            self.system.deactivate()
        if not faults.recovery.cpu_fallback:
            raise error
        faults.stats.bump("cpu_fallbacks")

    def _drain_fault_wreckage(self) -> None:
        """Run the simulator to empty after a fault escaped a measure.

        Other in-flight processes (prefetch fills stalled on the failed
        session) were woken with the same exception; each surfaces from a
        later ``sim.run`` and must be absorbed before the next clean
        measurement."""
        while True:
            try:
                self.system.sim.run()
            except FaultError:
                self.system.faults.stats.bump("wreckage_drained")
                continue
            return

    def _degraded(self, query: Query, loaded: LoadedTable, answer,
                  spent_ns: float) -> QueryResult:
        """``answer`` re-served by the CPU: ``spent_ns`` plus a re-scan."""
        value, selectivity, n_rows = answer
        rescan = self._fallback_rescan_ns(query, loaded, selectivity)
        return self._result(query, AccessPath.DIRECT_ROW, value,
                            spent_ns + rescan, n_rows, selectivity,
                            "degraded")

    def _fallback_rescan_ns(self, query: Query, loaded: LoadedTable,
                            selectivity: float) -> float:
        """Price the degraded-mode base-table re-scan (no cache flush —
        the fault interrupted a run already in progress)."""
        offset, width = loaded.schema.covering_group(query.columns())
        segment = ScanSegment(
            start=loaded.base_addr + offset,
            n_elems=loaded.table.n_rows,
            elem_size=width,
            stride=loaded.schema.row_size,
            compute_ns=query.row_compute_ns(selectivity),
            name=f"fallback:{query.name}",
        )
        return self._measure([segment] * query.passes, flush=False)

    def _audit_rme(self, query, var, answer, elapsed):
        """End-to-end check of the packed projection after a clean scan.

        Catches corruption that slipped past ECC, descriptor CRC and
        buffer parity (escaped multi-bit flips, checks disabled by
        policy). Returns a replacement result when the projection is
        corrupt, else None. Only plain full projections are auditable —
        windowed and pushdown variables never hold the whole projection.
        """
        faults = self.system.faults
        if (var.windowed or getattr(var, "pushdown", None) is not None
                or not self.system.is_active(var)):
            return None
        try:
            actual = self.system.rme.packed_bytes()
        except SimulationError:
            return None
        if actual == var.expected_packed_bytes():
            return None
        faults.stats.bump("corrupt_projections")
        if faults.recovery.crc_checks:
            # The software checksum pass catches it: re-answer from the
            # base table and make the next access reconfigure.
            faults.stats.bump("crc_catches")
            self.system.deactivate()
            return self._degraded(query, var.loaded, answer, elapsed)
        # Undetected with checks off: the CPU really computes over the
        # corrupted bytes. Decode what the buffer holds and answer from
        # that — wrong on purpose, flagged for the chaos harness.
        faults.stats.bump("silent_corruptions")
        _, selectivity, n_rows = answer
        corrupted = self._decode_packed(query, var, actual)
        return self._result(query, AccessPath.RME, corrupted, elapsed,
                            n_rows, selectivity, "corrupt")

    def _decode_packed(self, query: Query, var: EphemeralVariable,
                       packed: bytes):
        """Evaluate the query over raw packed buffer bytes."""
        schema = var.group_schema
        width = schema.row_size
        rows = [
            dict(zip(schema.names, schema.unpack_row(packed[off:off + width])))
            for off in range(0, len(packed) - width + 1, width)
        ]
        kept = ops.filter_rows(rows, query.predicate)
        return self._finalize(query, kept)

    # -- timing ------------------------------------------------------------------------
    def _device(self):
        """The lazily-built :class:`repro.pim.BankPIM` of this system."""
        from ..pim import BankPIM

        if self._pim is None or self._pim.system is not self.system:
            self._pim = BankPIM(self.system)
        return self._pim

    def _reset(self, flush: bool) -> None:
        if flush:
            self.system.flush_caches()
        self.system.reset_stats()

    def _measure(self, segments: Sequence[ScanSegment], flush: bool) -> float:
        self._reset(flush)
        return self.system.measure(segments)

    def _result(self, query, path, value, elapsed, n_rows, selectivity, state):
        return QueryResult(
            query=query.name,
            path=path,
            value=value,
            elapsed_ns=elapsed,
            rows_scanned=n_rows,
            selectivity=selectivity,
            state=state,
            cache_stats=self.system.cache_stats(),
        )


def _bound(binding, message: str):
    """``binding``, or a :class:`QueryError` saying what is missing."""
    if binding is None:
        raise QueryError(message)
    return binding


def _row_dicts(query: Query, values) -> List[Dict[str, Any]]:
    """A projection's tuples back as ``{column: value}`` rows."""
    return [dict(zip(query.select, row)) for row in values]


def _software_join(on: str, sides, elapsed_ns: float, rows_scanned: int,
                   state: str) -> JoinScan:
    """The software join step of the CPU join and the degraded PIM join.

    One functional definition (:func:`ops.hash_join`) plus the per-row
    hash build/probe surcharge on top of the scans' ``elapsed_ns``.
    """
    lhs, rhs = sides
    return JoinScan(
        rows=ops.hash_join(lhs, rhs, on),
        elapsed_ns=(elapsed_ns + HASH_BUILD_NS * len(lhs)
                    + HASH_PROBE_NS * len(rhs)),
        rows_scanned=rows_scanned,
        rhs_rows=len(rhs),
        path=AccessPath.DIRECT_ROW,
        state=state,
    )
