"""End-to-end tests for the serving loop: profiles, SLOs, correctness."""

import pytest

from repro import QueryExecutor, RelationalMemorySystem
from repro.errors import ConfigurationError
from repro.serve import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ServingSystem,
    default_tenants,
    profile_workload,
)

N_ROWS = 128


@pytest.fixture(scope="module")
def specs():
    return default_tenants(n_tenants=2, n_rows=N_ROWS)


@pytest.fixture(scope="module")
def profile(specs):
    return profile_workload(specs)


def open_loop(specs, profile, factor=0.8, n=120, seed=7, **kwargs):
    return OpenLoopWorkload(
        specs, rate_qps=factor * profile.saturation_rate_qps(),
        n_requests=n, seed=seed, **kwargs,
    )


# -- profiles -----------------------------------------------------------------------


def test_profiles_cover_every_template(specs, profile):
    for spec in specs:
        for template, _query in spec.templates:
            entry = profile.profile(spec.name, template)
            assert entry.program_ns > 0
            assert entry.cold_ns > entry.hot_ns > 0
    with pytest.raises(ConfigurationError):
        profile.profile("tenant0", "nope")
    with pytest.raises(ConfigurationError):
        profile.profile("nobody", "sum")


def test_profile_descriptors_distinct_within_tenant(profile, specs):
    spec = specs[0]
    descriptors = {
        profile.profile(spec.name, name).descriptor
        for name, _query in spec.templates
    }
    assert len(descriptors) == len(spec.templates)


def test_profiled_answers_match_fresh_executor(specs, profile):
    """The golden values served to clients are byte-identical to what a
    fresh single-query executor computes for the same query."""
    for spec in specs:
        system = RelationalMemorySystem()
        loaded = system.load_table(spec.table)
        executor = QueryExecutor(system)
        for template, query in spec.templates:
            entry = profile.profile(spec.name, template)
            direct = executor.run_direct(query, loaded)
            assert entry.value == direct.value


# -- serving ------------------------------------------------------------------------


def test_serving_answers_and_accounting(specs, profile):
    report = ServingSystem(profile, policy="fcfs").run(
        open_loop(specs, profile)
    )
    assert report.arrivals == 120
    assert report.served + report.shed == report.arrivals
    served = [r for r in report.records if not r.shed]
    assert len(served) == report.served
    for record in served:
        entry = profile.profile(record.tenant, record.template)
        # Served answers are the executor's answers, byte for byte.
        assert record.value == entry.value
        # The three accounted pieces recompose the request's life exactly.
        assert record.state in ("hot", "cold")
        assert record.exec_ns == entry.hot_ns
        if record.state == "cold":
            assert record.reconfig_ns == pytest.approx(
                entry.program_ns + entry.fill_ns
            )
            assert record.reconfig_ns + record.exec_ns == pytest.approx(
                entry.program_ns + entry.cold_ns
            )
        else:
            assert record.reconfig_ns == 0.0
        assert record.finish_ns == pytest.approx(
            record.arrival_ns + record.queue_ns
            + record.reconfig_ns + record.exec_ns
        )


def test_serving_metrics_registry(specs, profile):
    system = ServingSystem(profile, policy="fcfs")
    report = system.run(open_loop(specs, profile))
    snapshot = system.metrics.as_dict()
    assert snapshot["slo"]["latency_ns"]["count"] == report.served
    for spec in specs:
        scope = snapshot[f"tenant.{spec.name}"]
        assert scope["arrivals"]["count"] == report.tenant(spec.name).arrivals
    with pytest.raises(ConfigurationError):
        report.tenant("nobody")


def test_tiny_queue_sheds_overload(specs, profile):
    report = ServingSystem(profile, policy="fcfs", queue_depth=2).run(
        open_loop(specs, profile, factor=3.0)
    )
    assert report.shed > 0
    assert report.served + report.shed == report.arrivals
    assert 0 < report.shed_rate < 1
    assert report.max_backlog <= 2
    for record in report.records:
        if record.shed:
            assert record.finish_ns == 0.0 and record.value is None


def test_policies_rank_as_expected_at_saturation(specs, profile):
    """The acceptance sweep in miniature: at saturation the multi-port
    scheduler strictly beats single-port FCFS on p99, and context
    switching recovers hot-buffer hits."""
    workload = open_loop(specs, profile, factor=1.3, n=200)
    reports = {
        policy: ServingSystem(profile, policy=policy, queue_depth=48)
        .run(workload)
        for policy in ("fcfs", "ctx-switch", "multi-port")
    }
    assert reports["multi-port"].p99_ns < reports["fcfs"].p99_ns
    assert reports["ctx-switch"].hot_rate > reports["fcfs"].hot_rate
    for report in reports.values():
        assert report.arrivals == 200


def test_closed_loop_serves_budget(specs, profile):
    report = ServingSystem(profile, policy="ctx-switch").run(
        ClosedLoopWorkload(
            specs, n_clients=5, n_requests=60, think_ns=2_000, seed=3
        )
    )
    assert report.arrival == "closed"
    assert report.served == 60
    assert report.shed == 0  # at most n_clients requests are ever queued
    assert report.duration_ns > 0


def test_serving_system_validation(specs, profile):
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="lifo")
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="fcfs", n_ports=2)
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="multi-port", n_ports=0)


def test_serving_system_rejects_bad_queue_depth_and_quantum(profile):
    # Checked at construction, not first inside run().
    with pytest.raises(ConfigurationError, match="queue depth must be >= 1"):
        ServingSystem(profile, queue_depth=0)
    with pytest.raises(ConfigurationError, match="quantum must be >= 1"):
        ServingSystem(profile, policy="ctx-switch", quantum=0)
    # The quantum only drives the ctx-switch policy.
    ServingSystem(profile, policy="fcfs", quantum=0)


def test_workload_must_match_profile(specs):
    narrow = profile_workload(specs[:1])
    with pytest.raises(ConfigurationError):
        ServingSystem(narrow).run(
            OpenLoopWorkload(specs, rate_qps=10_000, n_requests=5)
        )


def test_serving_from_tenant_specs_directly(specs):
    """Passing specs instead of a profile profiles them on the fly."""
    report = ServingSystem(specs, policy="fcfs").run(
        OpenLoopWorkload(specs, rate_qps=20_000, n_requests=20)
    )
    assert report.served == 20
