import math

from perfbench.oracle import (JoinSpec, Pred, ScanSpec, evaluate, join,
                              same_answer)

ROWS = [
    {"A": 1, "B": 10, "G": 0},
    {"A": 2, "B": -5, "G": 1},
    {"A": 3, "B": 7, "G": 0},
    {"A": 6, "B": 0, "G": 1},
]


def test_projection_keeps_row_order():
    assert evaluate(ROWS, ScanSpec(select=("B", "A"))) == [
        (10, 1), (-5, 2), (7, 3), (0, 6)]
    assert evaluate(ROWS, ScanSpec(select=("A",),
                                   where=Pred("B", ">", 0))) == [(1,), (3,)]


def test_aggregates_by_hand():
    assert evaluate(ROWS, ScanSpec(agg="sum", agg_of=("A",))) == 12
    assert evaluate(ROWS, ScanSpec(agg="sum", agg_of=("A", "B"))) == 21
    assert evaluate(ROWS, ScanSpec(agg="sum", agg_of=("A",),
                                   where=Pred("B", "<", 8))) == 11
    assert evaluate(ROWS, ScanSpec(agg="avg", agg_of=("A",))) == 3.0
    # Sample deviation of 1, 2, 3, 6: mean 3, squares 4+1+0+9 over 3.
    assert evaluate(ROWS, ScanSpec(agg="std", agg_of=("A",))) == \
        math.sqrt(14 / 3)


def test_grouped_aggregate_by_hand():
    assert evaluate(ROWS, ScanSpec(agg="avg", agg_of=("A",),
                                   group_by="G")) == {0: 2.0, 1: 4.0}
    assert evaluate(ROWS, ScanSpec(agg="sum", agg_of=("A",), group_by="G",
                                   where=Pred("B", ">", -1))) == {0: 4, 1: 6}


def test_dict_join_in_probe_order():
    dim = [{"K": 0, "D": 100}, {"K": 1, "D": 101}, {"K": 2, "D": 102}]
    fact = [{"K": 2, "A": 7, "F": 5}, {"K": 0, "A": 8, "F": -3},
            {"K": 2, "A": 9, "F": 1}, {"K": 5, "A": 1, "F": 0}]
    spec = JoinSpec("K", ScanSpec(select=("K", "D")),
                    ScanSpec(select=("K", "A"), where=Pred("F", "<", 4)))
    assert join(dim, fact, spec) == [(0, 100, 8, -3), (2, 102, 9, 1)]


def test_same_answer_rules():
    assert same_answer(0.1 + 0.2, 0.3)
    assert not same_answer(0.31, 0.3)
    assert same_answer({1: 2.0000000000001}, {1: 2.0})
    assert not same_answer({1: 2.0}, {1: 2.0, 2: 1.0})
    assert same_answer([(1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert not same_answer([(3, 4), (1, 2)], [(1, 2), (3, 4)])
    assert not same_answer(None, 0.0)
    assert same_answer(5, 5) and not same_answer(5, 6)
