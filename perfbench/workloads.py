"""The four benchmark workloads.

Each workload is one closed-loop client in one thread. It builds its
inputs from the seed, hands the program only generated rows and
queries, and checks every answer against :mod:`perfbench.oracle`.

Ops come in *rounds*: a round is a shuffled, fixed-composition list
(every template on every engine, the same selectivity cells), so two
seeds differ only in columns, constants and order, and a partial round
never skews the op mix. The first ``trace_rounds`` rounds are the same
for a seed in every run and carry the deterministic metrics (``sim_ms``
and every per-layer count).
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

# Every layer is imported here, before any clock starts: a lazy import
# inside a timed op would be charged to that op.
import repro.cluster.service  # noqa: F401
import repro.pim  # noqa: F401
import repro.serve.service  # noqa: F401
from repro.bench import workloads as gen
from repro.cluster import ClusterSystem
from repro.config import ZCU102, CacheGeometry
from repro.core import AccessPath, RelationalMemorySystem
from repro.errors import WriteConflictError
from repro.faults import FaultPlan
from repro.query.engines import COLUMNAR, CPU, RME
from repro.query.expr import Col
from repro.query.processor import Processor
from repro.query.queries import Query, q1, q2, q3, q4, q5, q6, q7
from repro.rme import MLP
from repro.serve import OpenLoopWorkload, ServingSystem, TenantSpec
from repro.serve import profiles
from repro.storage import Schema, TransactionManager, VersionedRowTable
from repro.storage.schema import Column, int32

from .oracle import JoinSpec, Pred, ScanSpec, evaluate, join, same_answer


@dataclass
class Op:
    """One op: ``kind`` is its latency class ("query", "txn", "batch")."""

    kind: str
    label: str
    args: Tuple[Any, ...]


@dataclass
class Outcome:
    answer: Any
    sim_ns: float = 0.0
    units: int = 1  #: ops this call completes (requests in a serve batch)


def _rows(table) -> List[Dict[str, Any]]:
    names = table.schema.names
    return [dict(zip(names, values)) for values in table.scan()]


def _rows_out(answer: Any) -> int:
    return len(answer) if isinstance(answer, (list, dict)) else 1


class Workload:
    name = ""
    why = ""
    mix = ""
    sizes = ""
    #: Timed set-up repetitions per run (the median is reported).
    setup_reps = 1
    #: Rounds behind ``sim_ms`` and the traced run (a fixed count, so
    #: simulated time and counts repeat exactly for a seed).
    trace_rounds = 2

    def __init__(self) -> None:
        #: Deterministic model counts, reset by the runner per phase.
        self.stats: Counter = Counter()
        #: The platform the last op ran on (for hardware counters).
        self.system: Optional[RelationalMemorySystem] = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def warm_ops(self, rng: random.Random) -> List[Op]:
        """One op of each kind, run untimed before the phase."""
        raise NotImplementedError

    def round_ops(self, rng: random.Random, index: int) -> List[Op]:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Reset per-round state (only htap has any)."""

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def wrong(self, op: Op, outcome: Outcome) -> int:
        """How many of the outcome's units answered wrongly."""
        raise NotImplementedError

    def failed(self, op: Op, error: BaseException) -> int:
        """How many units an op that raised ``error`` cost."""
        return 1

    def versions_per_live_row(self) -> float:
        """Physical row versions per live row (0 without MVCC tables)."""
        return 0.0


# ---------------------------------------------------------------------------
# scan: the paper's Q1-Q7 on the cpu, columnar and rme engines
# ---------------------------------------------------------------------------

#: 4,096 rows x 16 int32 = 256 KiB, exactly the L2 below, so Q7's
#: second pass contends for it as a 1 MiB relation does on the 1 MiB L2
#: of the stock platform, at a quarter of the host cost per query.
SCAN_ROWS = 4096
SCAN_PLATFORM = dataclasses.replace(
    ZCU102, fastpath=True, l2=CacheGeometry(256 * 1024, 16))
_SCAN_COLS = ("A1", "A2", "A3", "A4")
_SCAN_ENGINES = (CPU, COLUMNAR, RME)
_SCAN_TEMPLATES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")


def scan_query(template: str, cols: Tuple[str, ...], k: int
               ) -> Tuple[Query, ScanSpec]:
    """The program's query and the oracle's spec for one scan op."""
    a, b, c = cols[0], cols[1], cols[2]
    if template == "Q1":
        return q1(a), ScanSpec(select=(a,))
    if template == "Q2":
        return q2(a, b, k), ScanSpec(select=(a,), where=Pred(b, ">", k))
    if template == "Q3":
        return q3((a, b)), ScanSpec(select=(a, b))
    if template == "Q4":
        return q4(a), ScanSpec(agg="sum", agg_of=(a,))
    if template == "Q5":
        return q5(a, b, k), ScanSpec(agg="sum", agg_of=(a,),
                                     where=Pred(b, "<", k))
    if template == "Q6":
        return q6(a, b, c, k), ScanSpec(agg="avg", agg_of=(a,), group_by=b,
                                        where=Pred(c, "<", k))
    if template == "Q7":
        return q7(a), ScanSpec(agg="std", agg_of=(a,))
    raise ValueError(f"unknown template {template!r}")


class ScanWorkload(Workload):
    name = "scan"
    why = ("the paper's Q1-Q7 on the cpu, columnar and rme engines over an "
           "L2-sized relation: the simulator's hottest path (memsys + sim "
           "DES + fastpath memo)")
    mix = ("Q1-Q7 x {cpu, columnar, rme}, each pair once per round (21 ops), "
           "shuffled; consecutive columns from A1-A4, constants within "
           "+-50k of the median")
    sizes = ("S: 4,096 rows x 16 int32 (256 KiB) on ZCU102 with fastpath, "
             "MLP and a 256 KiB L2; columnar copy of A1-A4")
    setup_reps = 12

    def setup(self, seed: int) -> None:
        table = gen.make_relation(SCAN_ROWS, n_cols=16, seed=seed, name="S")
        system = RelationalMemorySystem(SCAN_PLATFORM, MLP)
        self.loaded = system.load_table(table)
        self.columnar = system.load_column_group(table, list(_SCAN_COLS))
        self.system = system
        self.processor = Processor(system)
        self.table = table
        self._vars: Dict[Tuple[str, ...], Any] = {}
        self._oracle_rows: Optional[List[Dict[str, Any]]] = None

    def _op(self, rng: random.Random, template: str, engine) -> Op:
        # Columns are consecutive from a random first one, so every draw
        # has the same widths and gaps; constants keep selectivity near
        # one half. Seeds then move which data is read, not how much.
        first = rng.randrange(len(_SCAN_COLS) - 2)
        cols = _SCAN_COLS[first:first + 3]
        k = rng.randint(-50_000, 50_000)
        return Op("query", f"{template}@{engine.name}",
                  (template, cols, k, engine))

    def warm_ops(self, rng):
        return [self._op(rng, "Q5", engine) for engine in _SCAN_ENGINES]

    def round_ops(self, rng, index):
        ops = [self._op(rng, t, e) for t in _SCAN_TEMPLATES
               for e in _SCAN_ENGINES]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        template, cols, k, engine = op.args
        query, _spec = scan_query(template, cols, k)
        var = None
        if engine == RME:
            # One ephemeral variable per column list, reused: registering
            # a fresh one per query would grow the memory map every op.
            columns = tuple(query.columns())
            var = self._vars.get(columns)
            if var is None:
                var = self.system.register_var(
                    self.loaded, list(columns), allow_noncontiguous=True)
                self._vars[columns] = var
        plan = self.processor.plan(query, self.loaded, columnar=self.columnar,
                                   engine=engine)
        result = self.processor.execute(plan.relation, loaded=self.loaded,
                                        var=var, columnar=self.columnar)
        self.stats["query.ops"] += 1
        self.stats["query.rows_scanned"] += result.rows_scanned
        self.stats["query.rows_out"] += _rows_out(result.value)
        return Outcome(result.value, result.elapsed_ns)

    def wrong(self, op, outcome):
        if self._oracle_rows is None:
            self._oracle_rows = _rows(self.table)
        template, cols, k, _engine = op.args
        _query, spec = scan_query(template, cols, k)
        return 0 if same_answer(outcome.answer,
                                evaluate(self._oracle_rows, spec)) else 1


# ---------------------------------------------------------------------------
# pim: in-bank selections, grouped sums and joins under cost-based placement
# ---------------------------------------------------------------------------

PIM_FACT_ROWS = 8192
PIM_GROUP_ROWS = 8192
PIM_GROUPS = 32
#: Low-selectivity cells, where the banks win.
PIM_LOW_CELLS = (0.001, 0.005, 0.01)
#: Ops per kind per round at the low cells; each round adds one
#: full-probe op (alternately a selection and a join), where the CPU wins.
PIM_LOW_PER_KIND = 10


def _threshold(ordered: List[int], sel: float, jitter: int) -> int:
    """The ``k`` for which ``F1 < k`` keeps ``sel`` of the rows, give or
    take ``jitter`` rows. It is read off this seed's own sorted ``F1``
    values, so every seed's ops filter as many rows (a threshold on the
    value range would leave a 0.1 % cell with 8 +- 3 rows per seed)."""
    rank = round(sel * len(ordered)) + jitter
    if sel >= 1.0 or rank >= len(ordered):
        return ordered[-1] + 1
    return ordered[max(rank, 0)]


def pim_specs(kind: str, k: int):
    """The program's queries and the oracle's spec for one pim op."""
    if kind == "select":
        query = Query(name="pim_select",
                      sql=f"SELECT K, A1 FROM F WHERE F1 < {k}",
                      select=("K", "A1"), predicate=Col("F1") < k)
        return (query,), ScanSpec(select=("K", "A1"), where=Pred("F1", "<", k))
    if kind == "group":
        query = Query(name="pim_group",
                      sql=f"SELECT SUM(A1) FROM G WHERE F1 < {k} GROUP BY G",
                      select=(), aggregate="sum", agg_expr=Col("A1"),
                      predicate=Col("F1") < k, group_by="G")
        return (query,), ScanSpec(agg="sum", agg_of=("A1",), group_by="G",
                                  where=Pred("F1", "<", k))
    if kind == "join":
        lhs = Query(name="dim", sql="SELECT K, D1 FROM D", select=("K", "D1"))
        rhs = Query(name="fact", sql=f"SELECT K, A1 FROM F WHERE F1 < {k}",
                    select=("K", "A1"), predicate=Col("F1") < k)
        spec = JoinSpec("K", ScanSpec(select=("K", "D1")),
                        ScanSpec(select=("K", "A1"), where=Pred("F1", "<", k)))
        return (lhs, rhs), spec
    raise ValueError(f"unknown pim op kind {kind!r}")


class PimWorkload(Workload):
    name = "pim"
    why = ("selections, grouped sums and joins placed by the cost model, "
           "mostly at <=1% selectivity where the banks win, plus one "
           "full-probe op per round where the CPU wins")
    mix = ("per round 10 selections, 10 grouped SUMs and 10 dim-fact joins "
           "at 0.1/0.5/1 % selectivity (+-4 rows) plus one full-probe "
           "selection or join; the generator's selectivity is the "
           "placement hint")
    sizes = ("fact 8,192 rows and dim 1,024 rows (make_join_tables); "
             "grouped 8,192 rows x 32 groups")
    setup_reps = 12
    trace_rounds = 4

    def setup(self, seed: int) -> None:
        dim, fact = gen.make_join_tables(PIM_FACT_ROWS, seed=seed)
        grouped = gen.make_grouped_relation(PIM_GROUP_ROWS, PIM_GROUPS,
                                            seed=seed, name="G")
        system = RelationalMemorySystem()
        self.dim = system.load_table(dim)
        self.fact = system.load_table(fact)
        self.grouped = system.load_table(grouped)
        self.system = system
        self.processor = Processor(system)
        self._tables = (dim, fact, grouped)
        self._oracle_rows = None
        self._f1: Optional[Dict[str, List[int]]] = None

    def _op(self, rng, kind: str, sel: float) -> Op:
        if self._f1 is None:  # first drawn in the untimed warm-up
            _dim, fact, grouped = self._tables
            self._f1 = {name: sorted(row["F1"] for row in _rows(table))
                        for name, table in (("F", fact), ("G", grouped))}
        ordered = self._f1["G" if kind == "group" else "F"]
        k = _threshold(ordered, sel, rng.randint(-4, 4))
        return Op("query", f"{kind}@{sel:g}", (kind, sel, k))

    def warm_ops(self, rng):
        return [self._op(rng, "select", 0.01), self._op(rng, "group", 0.01),
                self._op(rng, "join", 0.01), self._op(rng, "select", 1.0),
                self._op(rng, "join", 1.0)]

    def round_ops(self, rng, index):
        ops = [self._op(rng, kind, PIM_LOW_CELLS[i % len(PIM_LOW_CELLS)])
               for kind in ("select", "group", "join")
               for i in range(PIM_LOW_PER_KIND)]
        ops.append(self._op(rng, ("select", "join")[index % 2], 1.0))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, sel, k = op.args
        queries, _spec = pim_specs(kind, k)
        proc = self.processor
        if kind == "join":
            plan = proc.plan_join("K", queries[0], self.dim, queries[1],
                                  self.fact, rhs_selectivity=sel)
            result = proc.execute(plan.relation, tables={
                self.dim.name: self.dim, self.fact.name: self.fact})
        else:
            loaded = self.fact if kind == "select" else self.grouped
            plan = proc.plan(queries[0], loaded, selectivity=sel)
            result = proc.execute(plan.relation, loaded=loaded)
        self.stats["query.ops"] += 1
        self.stats["query.pim_placed"] += result.path == AccessPath.PIM
        self.stats["query.rows_scanned"] += result.rows_scanned
        self.stats["query.rows_out"] += _rows_out(result.value)
        return Outcome(result.value, result.elapsed_ns)

    def wrong(self, op, outcome):
        if self._oracle_rows is None:
            self._oracle_rows = tuple(_rows(t) for t in self._tables)
        dim_rows, fact_rows, grouped_rows = self._oracle_rows
        kind, _sel, k = op.args
        _queries, spec = pim_specs(kind, k)
        if kind == "join":
            want = join(dim_rows, fact_rows, spec)
        else:
            want = evaluate(fact_rows if kind == "select" else grouped_rows,
                            spec)
        return 0 if same_answer(outcome.answer, want) else 1


# ---------------------------------------------------------------------------
# htap: MVCC write transactions beside revenue scans of the growing table
# ---------------------------------------------------------------------------

HTAP_ROWS = 2048
HTAP_STATUSES = 5
_ORDER_COLS = ("O_ID", "CUST", "QTY", "PRICE", "STATUS")
#: One round: this many write transactions, then a read, repeated.
HTAP_TXNS_PER_READ = 3
HTAP_READS = 8
#: Of a round's transaction slots, this many are overlapping pairs.
HTAP_PAIRS = 2
#: Reads cycle through these engines. An rme read costs about twice a
#: cpu read in host time; two to one keeps both read percentiles inside
#: the rme mode instead of on the gap between the two modes.
HTAP_READ_ENGINES = (RME, RME, CPU)


def order_rows(n: int, seed: int) -> List[Tuple[int, ...]]:
    """The generated orders: key, customer, quantity, price, status."""
    rng = random.Random(seed)
    return [(i, rng.randrange(1000), rng.randint(1, 50),
             rng.randint(1, 10_000), rng.randrange(HTAP_STATUSES))
            for i in range(n)]


def revenue(k: int) -> Tuple[Query, ScanSpec]:
    query = Query(name="revenue",
                  sql=f"SELECT SUM(QTY*PRICE) FROM orders WHERE STATUS < {k}",
                  select=(), aggregate="sum",
                  agg_expr=Col("QTY") * Col("PRICE"),
                  predicate=Col("STATUS") < k)
    return query, ScanSpec(agg="sum", agg_of=("QTY", "PRICE"),
                           where=Pred("STATUS", "<", k))


def bumped(row: Tuple[int, ...], step: int) -> Tuple[int, ...]:
    """The update a transaction writes over ``row``."""
    key, cust, qty, price, status = row
    return (key, cust, qty % 50 + step, price, (status + step) % HTAP_STATUSES)


class HtapWorkload(Workload):
    name = "htap"
    why = ("small MVCC transactions (with first-committer-wins conflicts) "
           "interleaved with revenue scans that reload the grown table; "
           "fastpath off, so the epoch memo is bypassed")
    mix = ("per round 24 write transactions (2 of them overlapping pairs) "
           "and 8 revenue reads, two on rme for each on cpu; every round "
           "starts from the generated table")
    sizes = ("orders: 2,048 rows x 5 int32 plus MVCC timestamps; a "
             "transaction makes 2 point reads, 2 updates and 1 insert")
    #: A set-up here is ~20 ms, so many spread-out samples steady it.
    setup_reps = 40

    def setup(self, seed: int) -> None:
        self._initial = order_rows(HTAP_ROWS, seed)
        self.begin_round()
        # Ready for the first read: the orders table resident in memory.
        self.system = RelationalMemorySystem()
        self.system.load_table(self.table, manager=self.manager)

    def begin_round(self) -> None:
        """Every round starts from the generated orders table."""
        schema = Schema([Column(name, int32()) for name in _ORDER_COLS])
        self.table = VersionedRowTable("orders", schema)
        for row in self._initial:
            self.table.insert(row, ts=0)
        self.manager = TransactionManager(self.table)
        #: The committed state as the benchmark expects it.
        self.reference = {row[0]: row for row in self._initial}

    def _txn_op(self, rng, n_keys: int) -> Op:
        k1, k2 = rng.sample(range(n_keys), 2)
        new = (n_keys, rng.randrange(1000), rng.randint(1, 50),
               rng.randint(1, 10_000), rng.randrange(HTAP_STATUSES))
        return Op("txn", "txn", (k1, k2, new))

    def _read_op(self, engine, k: int) -> Op:
        return Op("query", f"read@{engine.name}", (engine, k))

    def warm_ops(self, rng):
        return [self._txn_op(rng, HTAP_ROWS),
                Op("txn", "pair", (rng.randrange(HTAP_ROWS),)),
                self._read_op(RME, 2), self._read_op(CPU, 2)]

    def round_ops(self, rng, index):
        n_slots = HTAP_READS * HTAP_TXNS_PER_READ
        pairs = set(rng.sample(range(n_slots), HTAP_PAIRS))
        ops: List[Op] = []
        n_keys = HTAP_ROWS  # keys are never deleted; each txn adds one
        for slot in range(n_slots):
            if slot in pairs:
                ops.append(Op("txn", "pair", (rng.randrange(n_keys),)))
            else:
                ops.append(self._txn_op(rng, n_keys))
                n_keys += 1
            if slot % HTAP_TXNS_PER_READ == HTAP_TXNS_PER_READ - 1:
                read = slot // HTAP_TXNS_PER_READ
                engine = HTAP_READ_ENGINES[read % len(HTAP_READ_ENGINES)]
                # Statuses below k: the cycle 1..4 covers 20-80 % of rows.
                ops.append(self._read_op(engine,
                                         1 + read % (HTAP_STATUSES - 1)))
        return ops

    # -- ops ------------------------------------------------------------------
    def run(self, op):
        if op.kind == "query":
            engine, k = op.args
            query, _spec = revenue(k)
            # sync_table refuses growth past the mapped region, so every
            # read loads the grown table into a fresh platform.
            system = RelationalMemorySystem()
            loaded = system.load_table(self.table, manager=self.manager)
            var = None
            if engine == RME:
                var = system.register_var(loaded, list(query.columns()),
                                          allow_noncontiguous=True)
            processor = Processor(system)
            plan = processor.plan(query, loaded, engine=engine)
            result = processor.execute(plan.relation, loaded=loaded, var=var)
            self.system = system
            self.stats["query.ops"] += 1
            self.stats["query.rows_scanned"] += result.rows_scanned
            self.stats["query.rows_out"] += 1
            return Outcome(result.value, result.elapsed_ns)
        if op.label == "pair":
            return Outcome(self._pair(*op.args))
        return Outcome(self._txn(*op.args))

    def _txn(self, k1: int, k2: int, new: Tuple[int, ...]):
        """Two point reads, two updates and one insert, retried on conflict."""
        for attempt in range(3):
            txn = self.manager.begin()
            a, b = txn.read(k1), txn.read(k2)
            txn.update(k1, bumped(a, 1))
            txn.update(k2, bumped(b, 2))
            txn.insert(new)
            try:
                txn.commit()
            except WriteConflictError:
                self.stats["storage.conflicts"] += 1
                continue
            self.stats["storage.commits"] += 1
            return ("txn", a, b, attempt)
        raise RuntimeError("transaction kept conflicting")

    def _pair(self, key: int):
        """Two transactions from one snapshot update ``key``: the second
        to commit must lose (first-committer-wins) and win on retry."""
        first, second = self.manager.begin(), self.manager.begin()
        seen = first.read(key)
        first.update(key, bumped(seen, 1))
        second.update(key, bumped(second.read(key), 3))
        first.commit()
        self.stats["storage.commits"] += 1
        try:
            second.commit()
        except WriteConflictError:
            self.stats["storage.conflicts"] += 1
            retry = self.manager.begin()
            retry.update(key, bumped(retry.read(key), 3))
            retry.commit()
            self.stats["storage.commits"] += 1
            return ("pair", seen, True)
        self.stats["storage.commits"] += 1
        return ("pair", seen, False)

    # -- the reference: a committed-state dict -------------------------------
    def wrong(self, op, outcome):
        ref = self.reference
        if op.kind == "query":
            _engine, k = op.args
            _query, spec = revenue(k)
            want = evaluate((dict(zip(_ORDER_COLS, row))
                             for row in ref.values()), spec)
            return 0 if same_answer(outcome.answer, want) else 1
        if op.label == "pair":
            (key,) = op.args
            _tag, seen, lost = outcome.answer
            ok = seen == ref[key] and lost
            ref[key] = bumped(bumped(ref[key], 1), 3)
            return 0 if ok else 1
        k1, k2, new = op.args
        _tag, a, b, attempt = outcome.answer
        ok = (a == ref[k1] and b == ref[k2] and attempt == 0
              and new[0] not in ref)
        ref[k1] = bumped(ref[k1], 1)
        ref[k2] = bumped(ref[k2], 2)
        ref[new[0]] = new
        return 0 if ok else 1

    def versions_per_live_row(self) -> float:
        return self.table.n_versions / self.table.live_count()


# ---------------------------------------------------------------------------
# serve: open-loop request streams through the serving and cluster tiers
# ---------------------------------------------------------------------------

SERVE_TENANTS = 3
SERVE_ROWS = 1024
SERVE_REQUESTS = 2000
#: Fewer cluster requests per batch, so a cluster batch costs about the
#: host time of a serving batch and batch latencies stay unimodal.
CLUSTER_REQUESTS = 1400
SERVE_PLATFORM = dataclasses.replace(ZCU102, fastpath=True)
#: Node crashes per simulated ms in the cluster batches.
CLUSTER_CRASH_RATE = 3.0
#: Each tenant's templates: the program's query and the oracle's spec.
SERVE_TEMPLATES = (
    ("project", q1("A3"), ScanSpec(select=("A3",))),
    ("filter", q2("A1", "A2", 0), ScanSpec(select=("A1",),
                                          where=Pred("A2", ">", 0))),
    ("sum", q4("A1"), ScanSpec(agg="sum", agg_of=("A1",))),
)


class ServeWorkload(Workload):
    name = "serve"
    why = ("seeded request batches alternating a 2-port ServingSystem at "
           "0.8x saturation and a 2-node replicated ClusterSystem at 1.6x "
           "that rate under node crashes")
    mix = ("per round one ServingSystem batch of 2,000 requests and one "
           "ClusterSystem batch of 1,400 requests")
    sizes = ("3 tenants x 1,024-row S, templates q1/q2/q4; cluster of 2 "
             "nodes, replication 2, 3 node crashes per simulated ms")
    setup_reps = 4
    trace_rounds = 6

    def setup(self, seed: int) -> None:
        self.tenants = [
            TenantSpec(name=f"tenant{i}",
                       table=gen.make_relation(SERVE_ROWS, n_cols=16,
                                               seed=seed * 8 + i,
                                               name=f"tenant{i}"),
                       templates=tuple((name, query) for name, query, _spec
                                       in SERVE_TEMPLATES))
            for i in range(SERVE_TENANTS)
        ]
        self.profile = profiles.profile_workload(self.tenants,
                                                 platform=SERVE_PLATFORM)
        self.rate = 0.8 * self.profile.saturation_rate_qps()
        self._golden: Optional[Dict[Tuple[str, str], Any]] = None

    def _op(self, rng, tier: str) -> Op:
        return Op("batch", tier, (tier, rng.randrange(2**31)))

    def warm_ops(self, rng):
        return [self._op(rng, "serve"), self._op(rng, "cluster")]

    def round_ops(self, rng, index):
        return [self._op(rng, "serve"), self._op(rng, "cluster")]

    def run(self, op):
        tier, seed = op.args
        if tier == "serve":
            system = ServingSystem(self.profile, policy="multi-port",
                                   n_ports=2, platform=SERVE_PLATFORM)
            report = system.run(OpenLoopWorkload(
                self.tenants, rate_qps=self.rate,
                n_requests=SERVE_REQUESTS, seed=seed))
            for name in ("arrivals", "served", "shed", "hot_hits",
                         "context_switches", "p99_ns"):
                self.stats[f"serve.{name}"] += getattr(report, name)
            self.stats["serve.batches"] += 1
        else:
            rate = 1.6 * self.rate
            plan = FaultPlan.node_poisson(
                duration_ns=1e9 * CLUSTER_REQUESTS / rate, n_nodes=2,
                rates_per_ms={"node_crash": CLUSTER_CRASH_RATE}, seed=seed)
            system = ClusterSystem(self.profile, n_nodes=2, replication=2,
                                   policy="multi-port", n_ports=2,
                                   platform=SERVE_PLATFORM, fault_plan=plan)
            report = system.run(OpenLoopWorkload(
                self.tenants, rate_qps=rate, n_requests=CLUSTER_REQUESTS,
                seed=seed))
            for name in ("arrivals", "served", "retries", "hedges",
                         "hedge_wins", "failover_routes"):
                self.stats[f"cluster.{name}"] += getattr(report, name)
        return Outcome(report, report.duration_ns, units=report.arrivals)

    def wrong(self, op, outcome):
        if self._golden is None:
            self._golden = {}
            for tenant in self.tenants:
                rows = _rows(tenant.table)
                for name, _query, spec in SERVE_TEMPLATES:
                    self._golden[(tenant.name, name)] = evaluate(rows, spec)
        report = outcome.answer
        if op.args[0] == "serve":
            answered = [r for r in report.records if not (r.shed or r.failed)]
        else:
            answered = [r for r in report.records
                        if r.state in ("served", "degraded")]
        verdicts: Dict[Tuple[int, str, str], bool] = {}
        bad = 0
        for record in answered:
            # Requests of one template share one answer object; judge
            # each distinct object once.
            key = (id(record.value), record.tenant, record.template)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = same_answer(
                    record.value, self._golden[(record.tenant,
                                                record.template)])
            bad += not verdict
        return bad

    def failed(self, op, error):
        return SERVE_REQUESTS if op.args[0] == "serve" else CLUSTER_REQUESTS


WORKLOADS = {w.name: w for w in (ScanWorkload, PimWorkload, HtapWorkload,
                                 ServeWorkload)}
