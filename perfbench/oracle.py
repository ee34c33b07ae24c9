"""A plain-Python reference evaluator for every answer the benchmark checks.

It shares no code with the program's query layer: each workload
describes an op twice, once as the program's ``Query``/plan and once as
a :class:`ScanSpec` or :class:`JoinSpec` here, both built from the same
generated parameters. Rows are dicts from column name to value, read
from the generated tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Row = Dict[str, Any]


@dataclass(frozen=True)
class Pred:
    """``column op value`` with ``op`` one of ``<`` and ``>``."""

    column: str
    op: str
    value: int

    def holds(self, row: Row) -> bool:
        if self.op == "<":
            return row[self.column] < self.value
        if self.op == ">":
            return row[self.column] > self.value
        raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class ScanSpec:
    """One single-table query: filter, then project, aggregate or group.

    The aggregate's input is the product of the ``agg_of`` columns (one
    column for a plain ``SUM(A1)``).
    """

    select: Tuple[str, ...] = ()
    where: Optional[Pred] = None
    agg: Optional[str] = None
    agg_of: Tuple[str, ...] = ()
    group_by: Optional[str] = None

    def columns(self) -> Tuple[str, ...]:
        """Columns a join side carries: its selection, then its filter."""
        extra = (self.where.column,) if self.where is not None else ()
        return self.select + tuple(c for c in extra if c not in self.select)


@dataclass(frozen=True)
class JoinSpec:
    """``lhs ⋈[on] rhs``: each side filtered, rows in probe (rhs) order."""

    on: str
    lhs: ScanSpec
    rhs: ScanSpec


def _product(row: Row, columns: Sequence[str]) -> Any:
    value = 1
    for column in columns:
        value *= row[column]
    return value


def _fold(agg: str, values: List[Any]) -> Any:
    if agg == "sum":
        return sum(values)
    if agg == "count":
        return len(values)
    if agg == "avg":
        return sum(values) / len(values)
    if agg == "std":
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values)
                         / (len(values) - 1))
    raise ValueError(f"unknown aggregate {agg!r}")


def evaluate(rows: Iterable[Row], spec: ScanSpec) -> Any:
    """The answer of ``spec`` over ``rows``.

    A projection is a row-ordered list of tuples, an aggregate a scalar,
    and a grouped aggregate a dict from group key to value.
    """
    kept = [r for r in rows if spec.where is None or spec.where.holds(r)]
    if spec.group_by is not None:
        groups: Dict[Any, List[Any]] = {}
        for row in kept:
            groups.setdefault(row[spec.group_by], []).append(
                _product(row, spec.agg_of))
        return {key: _fold(spec.agg, vals) for key, vals in groups.items()}
    if spec.agg is not None:
        return _fold(spec.agg, [_product(r, spec.agg_of) for r in kept])
    return [tuple(r[c] for c in spec.select) for r in kept]


def join(lhs_rows: Iterable[Row], rhs_rows: Iterable[Row],
         spec: JoinSpec) -> List[Tuple[Any, ...]]:
    """A dict join: the key once, then the other columns of both sides."""
    lhs_cols = [c for c in spec.lhs.columns() if c != spec.on]
    rhs_cols = [c for c in spec.rhs.columns()
                if c != spec.on and c not in lhs_cols]
    by_key: Dict[Any, List[Row]] = {}
    for row in lhs_rows:
        if spec.lhs.where is None or spec.lhs.where.holds(row):
            by_key.setdefault(row[spec.on], []).append(row)
    out = []
    for row in rhs_rows:
        if spec.rhs.where is not None and not spec.rhs.where.holds(row):
            continue
        for match in by_key.get(row[spec.on], ()):
            out.append((row[spec.on],)
                       + tuple(match[c] for c in lhs_cols)
                       + tuple(row[c] for c in rhs_cols))
    return out


def same_answer(got: Any, want: Any) -> bool:
    """Exact equality, except floats agree to 1e-9 relative.

    Dicts compare key sets exactly; sequences compare element-wise in
    order (row order is part of a projection's answer).
    """
    if type(got) is type(want) and got == want:
        return True
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_answer(got[k], want[k]) for k in want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same_answer(g, w) for g, w in zip(got, want)))
    return got == want
