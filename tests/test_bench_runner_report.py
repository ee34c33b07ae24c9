"""Tests for the experiment runner and the report rendering."""

import pytest

from repro.bench import ExperimentRunner, FigureResult, make_relation, render_figure, render_table
from repro.bench.report import to_csv
from repro.query import q1, q4
from repro.rme.designs import MLP


@pytest.fixture(scope="module")
def small_table():
    return make_relation(128, n_cols=16, col_width=4)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(designs=(MLP,))


def test_time_direct_and_rme(runner, small_table):
    direct = runner.time_direct(small_table, q4())
    cold = runner.time_rme(small_table, q4(), MLP, hot=False)
    hot = runner.time_rme(small_table, q4(), MLP, hot=True)
    assert direct.value == cold.value == hot.value
    assert cold.state == "cold" and hot.state == "hot"
    assert hot.elapsed_ns < cold.elapsed_ns


def test_measure_paths_collects_everything(runner, small_table):
    times = runner.measure_paths(small_table, q1())
    assert times.direct_ns > 0
    assert times.columnar_ns > 0
    assert set(times.cold_ns) == {"MLP"}
    assert set(times.hot_ns) == {"MLP"}
    norm = times.normalized_to_direct()
    assert norm["Direct"] == 1.0
    assert norm["Columnar"] < 1.0


def test_baseline_memo_replays_only_under_fastpath(small_table):
    """The CPU-baseline memo records every run but replays only when the
    platform sets ``fastpath`` — and the replay is the recorded result."""
    import dataclasses

    from repro.bench import runner as runner_mod
    from repro.config import ZCU102

    runner_mod._BASELINE_MEMO.clear()
    before = dict(runner_mod.BASELINE_MEMO_TALLY)

    cycle = ExperimentRunner(platform=ZCU102, designs=(MLP,))
    first = cycle.time_direct(small_table, q1())
    second = cycle.time_direct(small_table, q1())
    # Cycle-level runs never replay (no tally movement), but both record.
    assert runner_mod.BASELINE_MEMO_TALLY == before
    assert second.elapsed_ns == first.elapsed_ns

    fast = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=True), designs=(MLP,)
    )
    replayed = fast.time_direct(small_table, q1())
    assert runner_mod.BASELINE_MEMO_TALLY["hits"] == before["hits"] + 1
    assert replayed.elapsed_ns == first.elapsed_ns
    assert replayed.value == first.value

    # A different query is a different key: recorded fresh, not replayed.
    other = fast.time_columnar(small_table, q1())
    assert runner_mod.BASELINE_MEMO_TALLY["misses"] == before["misses"] + 1
    assert other.elapsed_ns > 0

    # Mutating a replayed result must not poison later replays.
    replayed.cache_stats.setdefault("L1", {})["poisoned"] = 1.0
    clean = fast.time_direct(small_table, q1())
    assert "poisoned" not in clean.cache_stats.get("L1", {})


def test_baseline_memo_keys_on_the_whole_query():
    """Queries differing only in predicate must not share a replay."""
    import dataclasses

    from repro.bench import runner as runner_mod
    from repro.config import ZCU102
    from repro.query import Col, Query

    table = make_relation(256, n_cols=4)
    fast = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=True), designs=(MLP,)
    )

    def adhoc(k):
        return Query(name="adhoc", sql="", select=("A1",),
                     predicate=Col("A2") > k)

    some = fast.time_direct(table, adhoc(0))
    none = fast.time_direct(table, adhoc(10**9))
    assert some.value and none.value == []
    assert fast.time_columnar(table, adhoc(10**9)).value == []
    # A rebuilt but identical template still replays.
    hits = runner_mod.BASELINE_MEMO_TALLY["hits"]
    assert fast.time_direct(table, adhoc(0)).value == some.value
    assert runner_mod.BASELINE_MEMO_TALLY["hits"] == hits + 1


def test_figure_result_normalization():
    fig = FigureResult(
        fig_id="X", title="t", x_label="x", xs=[1, 2],
        series={"Direct": [10.0, 20.0], "RME": [5.0, 5.0]},
    )
    norm = fig.normalized("Direct")
    assert norm.series["Direct"] == [1.0, 1.0]
    assert norm.series["RME"] == [0.5, 0.25]
    assert fig.ratio("Direct", "RME") == [2.0, 4.0]


def test_render_table_alignment():
    text = render_table(["a", "metric"], [[1, 2.5], [100, 0.001]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # all same width


def test_render_figure_contains_series_and_notes():
    fig = FigureResult(
        fig_id="Figure 99", title="demo", x_label="width", xs=[1, 2],
        series={"Direct": [10.0, 20.0], "RME": [5.0, 5.0]}, notes="hello",
    )
    text = render_figure(fig)
    assert "Figure 99" in text and "Direct" in text and "hello" in text
    normalized = render_figure(fig, normalized_to="Direct")
    assert "normalized to Direct" in normalized


def test_to_csv_roundtrips_values():
    fig = FigureResult(
        fig_id="X", title="t", x_label="x", xs=[1, 2],
        series={"A": [1.5, 2.5]},
    )
    csv = to_csv(fig)
    lines = csv.splitlines()
    assert lines[0] == "x,A"
    assert lines[1] == "1,1.5"
