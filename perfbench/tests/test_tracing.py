import itertools

import pytest

from perfbench import layers
from perfbench.runner import Tally, run_round
from perfbench.tracing import Recorder
from perfbench.workloads import HtapWorkload, PimWorkload, ScanWorkload


def _originals():
    return [vars(owner).get(attr, getattr(owner, attr))
            for owner, attr, _name in layers.SPAN_POINTS + layers.COUNT_POINTS]


def _round(workload_cls, traced):
    workload = workload_cls()
    workload.setup(7)
    tally = Tally()
    if not traced:
        run_round(workload, 7, 0, tally)
        return tally, None, None
    with Recorder() as recorder:
        probe = layers.LayerProbe(recorder)
        probe.install()
        probe.start()
        phase = recorder.open("phase")
        run_round(workload, 7, 0, tally, probe)
        recorder.close(phase)
        probe.stop()
    return tally, recorder, phase


@pytest.mark.parametrize("workload_cls",
                         [ScanWorkload, PimWorkload, HtapWorkload])
def test_wrappers_leave_results_bit_identical(workload_cls):
    before = _originals()
    plain, _, _ = _round(workload_cls, traced=False)
    traced, recorder, phase = _round(workload_cls, traced=True)
    assert _originals() == before  # every wrapper was removed
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted
    assert traced.sim_ns == plain.sim_ns  # same sim_ms, to the bit
    phase_s = recorder.spans[phase].end - recorder.spans[phase].start
    assert sum(recorder.subtree_self(phase).values()) == pytest.approx(
        phase_s, rel=1e-9)
    assert recorder.counts["sim.events"] > 0


def test_self_time_subtracts_children():
    ticks = itertools.count()
    recorder = Recorder(clock=lambda: float(next(ticks)))
    root = recorder.open("root")      # t=0
    child = recorder.open("child")    # t=1
    grand = recorder.open("grand")    # t=2
    recorder.close(grand)             # t=3
    recorder.close(child)             # t=4
    other = recorder.open("child")    # t=5
    recorder.close(other)             # t=6
    recorder.close(root)              # t=7
    assert recorder.self_times() == [7 - 3 - 1, 3 - 1, 1, 1]
    assert recorder.self_by_name() == {"root": 3, "child": 3, "grand": 1}
    assert recorder.subtree_self(child) == {"child": 2, "grand": 1}
    assert sum(recorder.subtree_self(root).values()) == 7


def test_spans_must_close_in_order():
    recorder = Recorder()
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_paused_recorder_records_nothing():
    class Target:
        def work(self):
            return 42

    with Recorder() as recorder:
        recorder.wrap(Target, "work", "layer.work")
        recorder.count(Target, "work", "calls")
        recorder.paused = True
        assert Target().work() == 42
        recorder.paused = False
        assert Target().work() == 42
    assert [s.name for s in recorder.spans] == ["layer.work"]
    assert recorder.counts["calls"] == 1
    assert "work" in vars(Target) and Target().work() == 42


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    import json

    from perfbench import runner

    path = tmp_path / "trace.json"
    result = runner.traced(PimWorkload(), 3, path)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _u, _b in layers.PER_LAYER]
    assert metrics["engine.pim_s"]["value"] > 0
    assert metrics["engine.rme_s"]["value"] == 0  # pim bypasses the RME
    assert metrics["fastpath.memo_hits"]["value"] == 0
    assert 0 < metrics["query.pim_placed_ratio"]["value"] < 1
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"phase", "engine.pim", "query.exec"}
    assert all("op" in e["args"] and "parent" in e["args"] for e in spans)
