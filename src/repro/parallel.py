"""repro.parallel — sharded multi-process execution with deterministic merging.

Every sweep in :mod:`repro.bench` and the serving profiler decompose into
*shards*: self-contained tasks (one Figure-6 geometry point, one
ext-serving load factor, one (tenant, template) profiling pair) that each
build a fresh simulated platform from ``t = 0`` and therefore produce the
same bits no matter which process runs them. This module is the dispatch
layer that fans those shards across ``--jobs N`` worker processes and
folds the results back together:

* :func:`parallel_map` — the ordered, seeded process-pool map. ``jobs=1``
  executes every shard inline **in shard order**; that run is the
  reference, and any ``jobs=N`` run merges to bit-identical output
  because results are placed by shard index, never by completion order.
* **Batched dispatch** — tasks are pickled to workers in contiguous
  batches (amortizing serialization), and each batch ships its results
  back together with the worker's cache-traffic delta.
* **Persistent pools** — worker pools are keyed by ``jobs`` and kept
  alive across :func:`parallel_map` calls, so fork cost and warm-cache
  shipping are paid once per process instead of once per sweep (the
  regression that made ``--jobs 2`` *lose* on small hosts). A pool
  broken by a worker crash is discarded and rebuilt;
  :func:`shutdown_pools` (registered via ``atexit``) reaps them at exit.
* **Warm cache shipping** — the parent's warm
  :class:`~repro.memo.Memo` entries (the epoch-timing and profile memos)
  are exported once per pool and absorbed by every worker at start-up,
  so workers skip the epoch-signature learning the parent already paid
  for. Shipping is a pure warm-up: absorbed entries can only be *hits*
  for keys the parent already resolved, never different values. (A
  persistent pool ships at creation; workers keep learning their own
  entries afterwards.)
* **Measured break-even** — the one run-time choice between inline and
  the pool. It times the first shard inline (the reference loop body,
  so the result is merged bit-identically at index 0), estimates the
  remaining work, and compares the parallel *savings* — ``work x (1 -
  1/min(jobs, usable cores))`` — against the measured dispatch
  overheads: pool spin-up (measured at first creation, zero once a
  persistent pool exists) plus the pool's measured batch round-trip.
  Hosts where ``min(jobs, cores) <= 1`` can never win, so the dispatch
  stays inline — which is what makes ``--jobs 2`` on a 1-core runner
  cost the same as ``--jobs 1``. Where ``fork`` is missing the pool
  spawns its workers instead, and the probe prices it the same way.
* **Budgeted worker-restart** — a crashed worker (OOM-killed, signalled)
  surfaces as ``BrokenProcessPool``; the pool is rebuilt and the lost
  batches resubmitted at most :data:`_MAX_RESTARTS` times, then the
  surviving batches run inline. Ordinary task exceptions propagate
  immediately — they are deterministic and retrying cannot help.

Merging of telemetry rides on the instrument algebra added for this
layer: ``Counter``/``Gauge``/``Histogram``/``StatSet`` ``merge()`` and
:meth:`repro.sim.MetricsRegistry.merged` (log-linear histogram buckets
add exactly, so merged percentiles equal single-process percentiles).
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .sim.stats import StatSet

T = TypeVar("T")
R = TypeVar("R")

#: Set in worker processes by the pool initializer: nested parallel_map
#: calls inside a worker always run inline instead of forking grandchildren.
_IN_WORKER = False

#: With fewer items than this a multi-job dispatch runs inline without
#: even probing: pool spin-up dominates tiny sweeps (the wall-clock
#: benchmark measured 0.97x at two items).
_INLINE_BELOW = 4
#: Batches per worker: small batches keep heterogeneous shards
#: load-balanced without pickling per task.
_BATCHES_PER_WORKER = 4
#: Pool rebuilds after worker crashes before the rest runs inline.
_MAX_RESTARTS = 2

#: Cumulative cache traffic that happened inside worker processes. The
#: parent's own ``TIMING_CACHE``/``PROFILE_CACHE`` counters never see
#: that traffic, so accounting that used to read those counters (the
#: wall-clock benchmark's per-epoch tally) reads deltas of this instead.
#: Inline execution is deliberately excluded — it already shows up in the
#: parent's counters.
WORKER_CACHE_TRAFFIC = StatSet("parallel.worker_cache")


def resolve_jobs(jobs: Optional[int]) -> int:
    """An explicit ``jobs`` value, or the host's usable core count."""
    if jobs is not None:
        if jobs < 1:
            from .errors import ConfigurationError

            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        return jobs
    return multiprocessing.cpu_count() or 1


def derive_seed(base: int, *parts) -> int:
    """A stable per-shard seed mixed from ``base`` and the shard identity.

    CRC-mixing (not ``base + index``) keeps sibling shards' random
    streams uncorrelated while staying reproducible across processes and
    platforms.
    """
    text = ":".join([str(base)] + [str(p) for p in parts])
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# cache shipping + worker-side execution
# ---------------------------------------------------------------------------


def _shipped_memos():
    """``(name, memo)`` for every memo shipped to workers; the name
    prefixes its traffic counters (``timing_hits``, ``profile_misses``)."""
    from .serve.profiles import PROFILE_CACHE
    from .sim.fastpath import TIMING_CACHE

    return (("timing", TIMING_CACHE), ("profile", PROFILE_CACHE))


def _export_caches() -> Dict[str, list]:
    """The parent's warm memo entries, ready to pickle to workers."""
    return {name: memo.export_entries() for name, memo in _shipped_memos()}


def _worker_init(shipment: Dict[str, list]) -> None:
    """Pool initializer: mark the process as a worker and warm its caches."""
    global _IN_WORKER
    _IN_WORKER = True
    for name, memo in _shipped_memos():
        memo.absorb(shipment[name])


def _execute_batch(fn: Callable[[T], R], items: Sequence[T]) -> Tuple[List[R], Dict[str, int]]:
    """Run one batch in order; returns results plus the cache-traffic delta.

    Runs identically inline (``jobs=1``) and in a worker — this shared
    body *is* the determinism argument: there is no parallel-only code
    path around the task function.
    """
    memos = _shipped_memos()
    before = [memo.snapshot() for _name, memo in memos]
    results = [fn(item) for item in items]
    delta = {}
    for (name, memo), snapshot in zip(memos, before):
        hits, misses = memo.delta_since(snapshot)
        delta[f"{name}_hits"] = hits
        delta[f"{name}_misses"] = misses
    return results, delta


def _record_delta(stats: StatSet, delta: Dict[str, int]) -> None:
    for name, value in delta.items():
        if value:
            stats.bump(name, value)
    lookups = delta["timing_hits"] + delta["timing_misses"]
    if lookups:
        stats.bump("timing_lookups", lookups)


def _make_batches(n_items: int, jobs: int) -> List[range]:
    """Contiguous index batches, about :data:`_BATCHES_PER_WORKER` per
    worker."""
    batch_size = max(1, -(-n_items // (jobs * _BATCHES_PER_WORKER)))
    return [range(lo, min(lo + batch_size, n_items))
            for lo in range(0, n_items, batch_size)]


def _fork_available() -> bool:
    """Whether this platform can fork workers (vs re-importing via spawn)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _mp_context():
    return multiprocessing.get_context(
        "fork" if _fork_available() else "spawn"
    )


# ---------------------------------------------------------------------------
# persistent pools + the measured break-even probe
# ---------------------------------------------------------------------------

#: Live worker pools, keyed by ``n_jobs``. A pool outlives the
#: parallel_map call that created it, so fork cost and cache shipping
#: amortize across a whole benchmark run.
_POOLS: Dict[int, ProcessPoolExecutor] = {}
#: Measured per-pool costs: ``spinup_s`` (creation + first round-trip)
#: and ``roundtrip_s`` (one no-op batch through a warm pool).
_POOL_META: Dict[int, Dict[str, float]] = {}

#: Break-even priors, used only until a real measurement replaces them:
#: forking a pool of an already-large parent typically costs a few
#: hundred ms; a warm-pool round-trip a few ms.
_SPINUP_PRIOR_S = 0.3
_ROUNDTRIP_PRIOR_S = 0.01
#: Estimated savings must exceed the measured overhead by this factor
#: before the dispatch leaves the inline reference loop (the first-item
#: timing is a single noisy sample).
_PROBE_MARGIN = 2.0


def _probe_echo(x):
    """The no-op task used to measure pool round-trip latency."""
    return x


def _usable_cores() -> int:
    return multiprocessing.cpu_count() or 1


def _process_overhead_s(n_jobs: int) -> Tuple[float, float]:
    """``(spin-up still to pay, per-batch round-trip)`` for the
    ``n_jobs`` pool.

    Zero spin-up once the persistent pool exists; before the first pool
    of this process is forked, the spin-up estimate is the prior (every
    later estimate is the worst measured spin-up, which tracks parent
    size growth).
    """
    meta = _POOL_META.get(n_jobs)
    if meta is not None:
        return 0.0, meta["roundtrip_s"]
    spinups = [m["spinup_s"] for m in _POOL_META.values()]
    roundtrips = [m["roundtrip_s"] for m in _POOL_META.values()]
    return (
        max(spinups) if spinups else _SPINUP_PRIOR_S,
        max(roundtrips) if roundtrips else _ROUNDTRIP_PRIOR_S,
    )


def _get_pool(n_jobs: int) -> ProcessPoolExecutor:
    """The persistent ``n_jobs`` pool, created (and measured) on demand."""
    pool = _POOLS.get(n_jobs)
    if pool is not None:
        return pool
    shipment = _export_caches()
    start = time.perf_counter()
    pool = ProcessPoolExecutor(
        max_workers=n_jobs,
        mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(shipment,),
    )
    # One no-op round-trip: forces worker start-up into the measured
    # spin-up figure and yields the warm per-batch round-trip estimate.
    mid = time.perf_counter()
    pool.submit(_probe_echo, None).result()
    end = time.perf_counter()
    _POOLS[n_jobs] = pool
    _POOL_META[n_jobs] = {
        "spinup_s": end - start,
        "roundtrip_s": max(end - mid, 1e-6),
    }
    return pool


def _discard_pool(n_jobs: int) -> None:
    pool = _POOLS.pop(n_jobs, None)
    _POOL_META.pop(n_jobs, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def shutdown_pools() -> int:
    """Shut down every persistent worker pool; returns how many."""
    n = len(_POOLS)
    for n_jobs in list(_POOLS):
        _discard_pool(n_jobs)
    return n


atexit.register(shutdown_pools)


def _probe_mode(rest_work_s: float, n_jobs: int, stats: StatSet) -> str:
    """``"process"`` or ``"inline"``, from measured overheads and the
    sampled work.

    ``rest_work_s`` is the estimated inline cost of the still-unexecuted
    shards (first-shard time x count). The parallel *savings* bound is
    ``work x (1 - 1/effective)`` with ``effective = min(jobs, cores)`` —
    an upper bound that assumes perfect scaling, compared against the
    measured dispatch overheads with a safety margin. A host where
    ``effective <= 1`` cannot win no matter the overheads.
    """
    effective = min(n_jobs, _usable_cores())
    if effective > 1:
        savings = rest_work_s * (1.0 - 1.0 / effective)
        spinup, roundtrip = _process_overhead_s(n_jobs)
        if savings > (spinup + roundtrip) * _PROBE_MARGIN:
            return "process"
    stats.bump("probe_inline")
    return "inline"


# ---------------------------------------------------------------------------
# the ordered process-pool map
# ---------------------------------------------------------------------------


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    stats: Optional[StatSet] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, sharded across ``jobs`` processes.

    The determinism contract: the returned list is ordered by item index,
    results are merged in index order regardless of worker completion
    order, and ``jobs=1`` (or one item, or a nested call inside a worker)
    runs the exact same batch body inline — so ``jobs=N`` output is
    bit-identical to ``jobs=1`` for any deterministic ``fn``.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) and so must the items and results.
    Sweeps of at least :data:`_INLINE_BELOW` items time the first shard
    inline and hand the rest to the persistent pool only when the
    measured break-even says it pays (see :func:`_probe_mode`). Worker
    crashes are retried by discarding and rebuilding the pool at most
    :data:`_MAX_RESTARTS` times; when the budget is spent the surviving
    batches run inline rather than failing the sweep. Task exceptions
    propagate unchanged on first occurrence.

    ``stats`` (optional) receives dispatch telemetry: task/batch counts,
    worker restarts, inline fallbacks, the chosen executor
    (``mode_inline``/``mode_process``) and the workers' cache-traffic
    deltas (``timing_hits``/``timing_lookups``/...).
    """
    if stats is None:
        stats = StatSet("parallel")  # recorded, then discarded
    items = list(items)
    n_jobs = resolve_jobs(jobs)
    stats.set_gauge("jobs", n_jobs)
    if items:
        stats.bump("tasks", len(items))

    chosen = "inline"
    prefix: List[R] = []
    if _IN_WORKER or n_jobs <= 1 or len(items) <= 1:
        pass
    elif len(items) < _INLINE_BELOW:
        # Too small for the probe itself to be worth a timing sample.
        stats.bump("parallel_inline_fallback")
    else:
        # The probe: run the first shard inline and time it. This is the
        # reference loop body, so the result merges bit-identically at
        # index 0 whatever handles the rest.
        start = time.perf_counter()
        prefix, delta = _execute_batch(fn, items[:1])
        item_s = time.perf_counter() - start
        _record_delta(stats, delta)
        stats.bump("batches")
        chosen = _probe_mode(item_s * (len(items) - 1), n_jobs, stats)
        items = items[1:]
    stats.bump("mode_" + chosen)
    if chosen == "inline":
        results, delta = _execute_batch(fn, items)
        _record_delta(stats, delta)
        stats.bump("batches")
        return prefix + results

    results: List[Optional[R]] = [None] * len(items)
    pending: List[range] = _make_batches(len(items), n_jobs)
    restarts_left = _MAX_RESTARTS

    while pending:
        try:
            pool = _get_pool(n_jobs)
            futures = {
                pool.submit(_execute_batch, fn, [items[i] for i in span]):
                span
                for span in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    span = futures[future]
                    batch_results, delta = future.result()
                    for index, value in zip(span, batch_results):
                        results[index] = value
                    _record_delta(stats, delta)
                    _record_delta(WORKER_CACHE_TRAFFIC, delta)
                    stats.bump("batches")
                    pending.remove(span)
        except BrokenProcessPool:
            # A worker died mid-batch (OOM kill, stray signal). Discard
            # the broken pool, rebuild, and resubmit whatever is still
            # pending, within the restart budget.
            _discard_pool(n_jobs)
            if restarts_left > 0:
                restarts_left -= 1
                stats.bump("worker_restarts")
                continue
            # Budget spent: degrade to inline execution instead of
            # failing the sweep (the analogue of the CPU fallback).
            stats.bump("inline_fallbacks")
            for span in list(pending):
                batch_results, delta = _execute_batch(
                    fn, [items[i] for i in span]
                )
                for index, value in zip(span, batch_results):
                    results[index] = value
                _record_delta(stats, delta)
                stats.bump("batches")
                pending.remove(span)
    return prefix + results  # type: ignore[operator]


__all__ = [
    "derive_seed",
    "parallel_map",
    "resolve_jobs",
    "shutdown_pools",
]
