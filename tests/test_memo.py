"""The one bounded memo type: ``repro.memo.Memo``.

Every process-wide cache (epoch timings, workload profiles, CPU
baselines, packed generated tables) is an instance of it, so the worker
cache shipping in ``repro.parallel`` and every hit/miss report share one
protocol.
"""

from repro.bench import runner, workloads
from repro.memo import Memo
from repro.serve.profiles import PROFILE_CACHE, PROFILE_CACHE_STATS
from repro.sim.fastpath import TIMING_CACHE
from repro.sim.stats import StatSet


def test_every_process_wide_memo_is_a_memo():
    memos = {
        "timing": (TIMING_CACHE, 256),
        "profile": (PROFILE_CACHE, 16),
        "baseline": (runner.BASELINE_MEMO, 128),
        "packed": (workloads._PACKED_CACHE, 64),
    }
    for name, (memo, bound) in memos.items():
        assert type(memo) is Memo, name
        assert memo.max_entries == bound, name
    assert PROFILE_CACHE.stats is PROFILE_CACHE_STATS


def test_export_then_absorb_is_warm_up_not_traffic():
    source = Memo(8)
    for i in range(5):
        source.put(("key", i), i * 10)
    source.get(("key", 0))
    source.get(("missing",))
    fresh = Memo(8)
    assert fresh.absorb(source.export_entries()) == 5
    assert (fresh.hits, fresh.misses) == (0, 0)
    assert len(fresh) == 5
    # Existing keys win, and re-absorbing adds nothing.
    fresh.put(("key", 1), "local")
    assert fresh.absorb(source.export_entries()) == 0
    assert fresh.get(("key", 1)) == "local"


def test_absorb_respects_the_bound():
    source = Memo(8)
    for i in range(8):
        source.put(i, i)
    small = Memo(3)
    small.absorb(source.export_entries())
    assert len(small) == 3
    assert small.get(0) is None and small.get(7) == 7  # FIFO: oldest out


def test_put_on_a_present_key_does_not_evict():
    memo = Memo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    memo.put("a", 3)
    assert len(memo) == 2
    assert memo.get("a") == 3 and memo.get("b") == 2


def test_snapshot_delta_and_mirrored_stats():
    stats = StatSet("memo")
    memo = Memo(4, stats=stats)
    memo.put("k", "v")
    snap = memo.snapshot()
    assert memo.get("k") == "v"
    assert memo.get("absent") is None
    assert memo.delta_since(snap) == (1, 1)
    assert memo.hit_rate == 0.5
    assert stats.counter("hits").count == 1
    assert stats.counter("misses").count == 1
    assert stats.gauge("hit_rate").value == 0.5
    assert memo.invalidate("done") == 1
    assert len(memo) == 0
