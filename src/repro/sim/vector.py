"""Optional numpy acceleration for bulk statistics replay.

The fast-forward layer (:mod:`repro.sim.fastpath`) replays thousands of
per-descriptor observations into counters and log-linear histograms. The
bit-identity contract constrains what may be vectorized:

* **Bucket indices, counts, extremes** — order-free integer/compare
  operations; computed in bulk (numpy when importable, batch Python
  otherwise) with results identical to element-by-element replay.
* **Float totals** — float addition is not associative, so a total is in
  general accumulated by the same sequential loop the event-driven path
  runs. Two *exact* shortcuts are taken when provably lossless: adding
  ``0.0`` to a non-negative total is the identity, and runs of values
  that are small multiples of ``1/_DYADIC_SCALE`` (the platform's timing
  grid) are summed in integer arithmetic, which is exact below 2**53.

The numpy import is routed through one monkeypatchable gate
(:func:`numpy_or_none`) shared by the fastpath and the PIM engine, so the
equivalence tests can force the pure-Python path by patching ``_NUMPY``.
"""

from __future__ import annotations

import math
from typing import Optional

#: Sentinel: the numpy import has not been attempted yet.
_UNSET = object()

#: Cached numpy module, ``None`` (unavailable), or :data:`_UNSET`.
#: Tests monkeypatch this to ``None`` to force the pure-Python paths.
_NUMPY = _UNSET


def numpy_or_none():
    """The numpy module if importable, else ``None`` (cached)."""
    global _NUMPY
    if _NUMPY is _UNSET:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on environment
            numpy = None
        _NUMPY = numpy
    return _NUMPY


#: Timing values in this simulator land on a coarse dyadic grid (PL cycles
#: of 10 ns, DRAM timings in whole ns, AXI hops in halves); scaling by 16
#: makes them integers, where addition is exact.
_DYADIC_SCALE = 16
#: Integer magnitude below which float arithmetic on scaled values is exact.
_EXACT_LIMIT = float(2**53)


def _sum_run_exact(total: float, value: float, n: int) -> Optional[float]:
    """``total`` after ``n`` sequential ``+= value``, or None if inexact.

    Exact cases: ``value == 0.0`` (identity on a non-negative total), and
    dyadic-grid values where the whole computation fits integer float
    range — there each intermediate sum is exactly representable, so the
    sequential loop and the closed form produce the same bits.
    """
    if value == 0.0:
        # -0.0 + 0.0 == +0.0 flips the sign bit; totals here are sums of
        # non-negative durations, but guard anyway.
        if total == 0.0 and math.copysign(1.0, total) < 0.0:
            return None
        return total
    scaled_total = total * _DYADIC_SCALE
    scaled_value = float(value) * _DYADIC_SCALE  # values may be ints
    if not (scaled_total.is_integer() and scaled_value.is_integer()):
        return None
    if abs(scaled_value) >= _EXACT_LIMIT:
        return None  # the float conversion above may already have rounded
    # Integer arithmetic from here: every intermediate sum of the loop is
    # monotone between start and end (constant-sign step), so bounding
    # |start| and |end| below 2**53 bounds them all; each is then exactly
    # representable and each float add of the loop is exact.
    start_int = int(scaled_total)
    end_int = start_int + n * int(scaled_value)
    if abs(end_int) >= _EXACT_LIMIT or abs(start_int) >= _EXACT_LIMIT:
        return None
    return float(end_int) / _DYADIC_SCALE


def add_total(start: float, values) -> float:
    """``start`` after sequentially adding every value, bit-identically.

    Runs of equal values are collapsed through :func:`_sum_run_exact`
    where exact; everything else falls back to the element loop.
    """
    total = start
    i = 0
    n = len(values)
    while i < n:
        value = values[i]
        j = i + 1
        while j < n and values[j] == value:
            j += 1
        run = j - i
        shortcut = _sum_run_exact(total, value, run)
        if shortcut is None:
            for _ in range(run):
                total += value
        else:
            total = shortcut
        i = j
    return total


def bulk_add(counter, values) -> None:
    """Replay ``counter.add(v) for v in values`` bit-identically."""
    if not values:
        return
    counter.total = add_total(counter.total, values)
    counter.count += len(values)


def bulk_add_repeated(counter, n: int, value: float) -> None:
    """Replay ``n`` calls of ``counter.add(value)`` bit-identically."""
    if n <= 0:
        return
    shortcut = _sum_run_exact(counter.total, value, n)
    if shortcut is None:
        total = counter.total
        for _ in range(n):
            total += value
        counter.total = total
    else:
        counter.total = shortcut
    counter.count += n


def _bucket_counts_numpy(np, positive, subbuckets: int) -> dict:
    """Per-bucket counts of the positive observations, numpy path.

    The bucket expression mirrors :meth:`repro.sim.stats.Histogram.observe`
    operation for operation (``frexp``, the left-associated float product,
    truncation toward zero), so the keys are bit-identical to the scalar
    path.
    """
    arr = np.asarray(positive, dtype=np.float64)
    mantissa, exponent = np.frexp(arr)
    sub = ((mantissa - 0.5) * 2 * subbuckets).astype(np.int64)
    sub = np.minimum(sub, subbuckets - 1)
    packed = exponent.astype(np.int64) * (2 * subbuckets) + sub
    keys, counts = np.unique(packed, return_counts=True)
    width = 2 * subbuckets
    return {
        (int(k) // width, int(k) % width): int(c)
        for k, c in zip(keys, counts)
    }


def _bucket_counts_python(positive, subbuckets: int) -> dict:
    counts: dict = {}
    frexp = math.frexp
    top = subbuckets - 1
    for value in positive:
        mantissa, exponent = frexp(value)
        sub = int((mantissa - 0.5) * 2 * subbuckets)
        key = (exponent, sub if sub < top else top)
        counts[key] = counts.get(key, 0) + 1
    return counts


def bulk_observe(histogram, values) -> None:
    """Replay ``histogram.observe(v) for v in values`` bit-identically.

    ``count``, ``min``/``max``, underflow and bucket tallies are order-free
    and computed in bulk; ``total`` goes through :func:`add_total`, which
    preserves the sequential float-accumulation order (with exact-run
    shortcuts only).
    """
    n = len(values)
    if not n:
        return
    histogram.count += n
    histogram.total = add_total(histogram.total, values)
    lo = min(values)
    hi = max(values)
    if histogram.min is None or lo < histogram.min:
        histogram.min = lo
    if histogram.max is None or hi > histogram.max:
        histogram.max = hi
    if hi <= 0:
        histogram._underflow += n
        return
    if lo <= 0:
        positive = [value for value in values if value > 0]
        histogram._underflow += n - len(positive)
    else:
        positive = values
    np = numpy_or_none()
    if np is not None and len(positive) >= 32:
        fresh = _bucket_counts_numpy(np, positive, histogram.subbuckets)
    else:
        fresh = _bucket_counts_python(positive, histogram.subbuckets)
    buckets = histogram._buckets
    for key, count in fresh.items():
        buckets[key] = buckets.get(key, 0) + count


#: Minimum row count before the numpy comparator path pays for its
#: array setup; below this the per-row Python loop wins.
_COMPARATOR_MIN_ROWS = 32

#: Comparator ops as array predicates (exact integer compares — results
#: match the scalar path bit for bit).
_CMP_OPS = {
    "<": lambda v, c: v < c,
    "<=": lambda v, c: v <= c,
    "==": lambda v, c: v == c,
    "!=": lambda v, c: v != c,
    ">=": lambda v, c: v >= c,
    ">": lambda v, c: v > c,
}


def comparator_bits(blob: bytes, n_rows: int, row_size: int, offset: int,
                    width: int, op: str, constant: int) -> Optional[int]:
    """Bulk-evaluate one comparator over packed rows; a bitmap int or None.

    ``blob`` is ``n_rows`` uniform packed rows concatenated; the field is
    a ``width``-byte little-endian signed integer at ``offset`` within
    each row. Returns the little-endian selection bits (bit ``i`` = row
    ``i`` matched) or ``None`` when the bulk path does not apply (numpy
    absent, too few rows, an op or constant outside int64 range) — the
    caller then runs the scalar loop. Comparisons are exact int64
    operations, so a non-None result is bit-identical to the scalar path.
    """
    np = numpy_or_none()
    if np is None or n_rows < _COMPARATOR_MIN_ROWS:
        return None
    if op not in _CMP_OPS or not -(2 ** 63) <= constant < 2 ** 63:
        return None
    if len(blob) != n_rows * row_size:
        return None
    rows = np.frombuffer(blob, dtype=np.uint8).reshape(n_rows, row_size)
    field = rows[:, offset:offset + width]
    unsigned = np.zeros(n_rows, dtype=np.uint64)
    for byte in range(width):
        unsigned |= field[:, byte].astype(np.uint64) << np.uint64(8 * byte)
    if width == 8:
        values = unsigned.view(np.int64)
    else:
        values = unsigned.astype(np.int64)
        sign_bit = np.int64(1) << np.int64(8 * width - 1)
        values = np.where(values >= sign_bit,
                          values - (sign_bit << np.int64(1)), values)
    mask = _CMP_OPS[op](values, constant)
    packed = np.packbits(mask, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")

