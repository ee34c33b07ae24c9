"""The serving-layer profile memo: ``repro.serve.profiles.PROFILE_CACHE``.

Profiling a workload is the expensive, cycle-accurate part of serving
start-up, so ``profile_workload`` memoizes whole results under a content
fingerprint. These tests pin the contract: identical inputs hit, any
content change (table bytes, templates, platform, design, capacity)
misses, weights are refreshed on hits without invalidating, and the hit
rate is exported as a gauge in every serving report.
"""

import dataclasses

import pytest

from repro.config import ZCU102
from repro.memo import Memo
from repro.query.queries import q1, q4
from repro.rme.designs import BSL
from repro.serve import (
    PROFILE_CACHE,
    PROFILE_CACHE_STATS,
    OpenLoopWorkload,
    ServingSystem,
    TenantSpec,
    default_tenants,
    profile_workload,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    PROFILE_CACHE.invalidate("test isolation")
    yield
    PROFILE_CACHE.invalidate("test isolation")


def _tenants(n_rows=128, seed=7):
    return default_tenants(n_tenants=2, n_rows=n_rows, seed=seed)


def test_identical_workload_hits():
    tenants = _tenants()
    before_hits = PROFILE_CACHE.hits
    first = profile_workload(tenants)
    second = profile_workload(tenants)
    assert PROFILE_CACHE.hits == before_hits + 1
    assert second.profiles is first.profiles
    assert second.tenants == tuple(tenants)


def test_hit_preserves_caller_weights():
    tenants = _tenants()
    profile_workload(tenants)
    reweighted = tuple(
        dataclasses.replace(t, weight=t.weight * (i + 2))
        for i, t in enumerate(tenants)
    )
    hits = PROFILE_CACHE.hits
    cached = profile_workload(reweighted)
    assert PROFILE_CACHE.hits == hits + 1  # weights are not part of the key
    assert cached.tenants == reweighted  # but the caller's weights win


def test_content_changes_miss():
    tenants = _tenants()
    profile_workload(tenants)
    misses = PROFILE_CACHE.misses

    # Different table bytes (another seed) must re-profile.
    profile_workload(_tenants(seed=8))
    assert PROFILE_CACHE.misses == misses + 1

    # A different template set must re-profile.
    retemplated = tuple(
        dataclasses.replace(t, templates=(("sum", q4("A1")),))
        for t in tenants
    )
    profile_workload(retemplated)
    assert PROFILE_CACHE.misses == misses + 2

    # Platform, design and buffer capacity are all part of the key.
    profile_workload(tenants, platform=dataclasses.replace(ZCU102, fastpath=True))
    profile_workload(tenants, design=BSL)
    profile_workload(tenants, buffer_capacity=4096)
    assert PROFILE_CACHE.misses == misses + 5


def test_cached_profile_serves_identically():
    tenants = _tenants()
    fresh = profile_workload(tenants)
    cached = profile_workload(tenants)
    reports = []
    for profile in (fresh, cached):
        workload = OpenLoopWorkload(tenants, rate_qps=2000.0,
                                    n_requests=40, seed=11)
        reports.append(ServingSystem(profile).run(workload).fingerprint())
    assert reports[0] == reports[1]


def test_hit_rate_exported_as_gauge():
    tenants = _tenants()
    profile_workload(tenants)
    profile_workload(tenants)
    assert PROFILE_CACHE_STATS.gauge("hit_rate").value == PROFILE_CACHE.hit_rate
    assert PROFILE_CACHE.hit_rate > 0.0
    workload = OpenLoopWorkload(tenants, rate_qps=2000.0,
                                n_requests=20, seed=3)

    # The report's gauges are *per-run* deltas: a snapshot taken before
    # this run's profiling lookup attributes exactly that one hit.
    snap = PROFILE_CACHE.snapshot()
    report = ServingSystem(
        profile_workload(tenants), cache_snapshot=snap
    ).run(workload)
    scope = report.metrics.as_dict()["profile_cache"]
    assert scope["hits"]["value"] == 1.0
    assert scope["misses"]["value"] == 0.0
    assert scope["hit_rate"]["value"] == 1.0


def test_hit_rate_gauge_is_per_run_not_lifetime():
    """A run whose window saw no lookups reports 0, never the lifetime
    rate the process accumulated before it (the bug this pins)."""
    tenants = _tenants()
    profile = profile_workload(tenants)
    profile_workload(tenants)  # lifetime hit_rate is now > 0
    assert PROFILE_CACHE.hit_rate > 0.0
    workload = OpenLoopWorkload(tenants, rate_qps=2000.0,
                                n_requests=20, seed=3)
    report = ServingSystem(profile).run(workload)  # snapshot at init
    scope = report.metrics.as_dict()["profile_cache"]
    assert scope["hits"]["value"] == 0.0
    assert scope["misses"]["value"] == 0.0
    assert scope["hit_rate"]["value"] == 0.0
    assert scope["hit_rate"]["value"] != PROFILE_CACHE.hit_rate


def test_cache_bounded_fifo():
    cache = Memo(max_entries=3)
    for i in range(8):
        cache.put(("key", i), object())
    assert len(cache) == 3
    assert cache.get(("key", 0)) is None  # evicted
    assert cache.get(("key", 7)) is not None


def test_single_query_costs_unchanged_by_cache_path():
    """A memo hit must return the same numbers a fresh profile measures."""
    spec = _tenants()[0]
    solo = (dataclasses.replace(spec, templates=(("scan", q1("A1")),)),)
    first = profile_workload(solo)
    second = profile_workload(solo)
    key = (solo[0].name, "scan")
    assert second.profile(*key) is first.profile(*key)
    p = first.profile(*key)
    assert p.cold_ns > p.hot_ns > 0.0
