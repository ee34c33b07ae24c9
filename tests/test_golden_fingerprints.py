"""Golden serve and cluster fingerprints: the request lifecycle is contractual.

``tests/golden/serve_cluster_fingerprints.json`` pins the exact
``fingerprint()`` of every cell in a fixed matrix of serving and cluster
runs:

* ``ServingSystem``: every scheduler policy x every arrival shape x
  {fault-free, faults with the default recovery, faults with no
  recovery};
* ``ClusterSystem``: both routings x {no fault plan, node crashes, a
  crash + slow + lag storm} x {failover and hedging on, both off}.

A fingerprint carries cycle counts, queue lengths, shed and retry
decisions and (for the cluster) the whole failover event log, so a diff
here means the serving or cluster timing semantics changed. Fix the
regression or, if the change is an intentional model revision,
regenerate the fixture with

    PYTHONPATH=src python -m tests.test_golden_fingerprints --regenerate

and explain the change in the commit message. The test itself never
writes the fixture.
"""

import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "golden" / "serve_cluster_fingerprints.json"

SERVE_POLICIES = ("fcfs", "ctx-switch", "multi-port")
SERVE_ARRIVALS = ("poisson", "bursty", "closed")
SERVE_FAULTS = ("clean", "faults-recovery", "faults-no-recovery")
CLUSTER_ROUTINGS = ("consistent-hash", "range")
CLUSTER_PLANS = ("none", "node-crash", "storm")
CLUSTER_MODES = ("failover-hedging", "bare")

#: Poisson node-fault rates per simulated ms for each cluster plan. The
#: windows are short and the slow factor steep, so a 200-request run
#: sees crashes, health ejections, failovers, CPU degradation and (in the
#: storm) hedged requests.
_PLAN_RATES = {
    "node-crash": {"node_crash": 5.0},
    "storm": {"node_crash": 5.0, "node_slow": 10.0, "replica_lag": 10.0},
}
_SEED = 11


def _tenants_and_profile():
    from repro.serve import default_tenants, profile_workload

    tenants = default_tenants(n_tenants=2, n_rows=128, seed=_SEED)
    return tenants, profile_workload(tenants)


def _serve_fingerprint(tenants, profile, policy, arrival, faults):
    from repro.faults import NO_RECOVERY
    from repro.serve import ClosedLoopWorkload, OpenLoopWorkload, ServingSystem

    if arrival == "closed":
        workload = ClosedLoopWorkload(
            tenants, n_clients=6, n_requests=80, think_ns=5_000, seed=_SEED
        )
    else:
        workload = OpenLoopWorkload(
            tenants, rate_qps=1.2 * profile.saturation_rate_qps(),
            n_requests=120, arrival=arrival, seed=_SEED,
        )
    kwargs = {}
    if faults != "clean":
        kwargs["fault_rate"] = 0.2
    if faults == "faults-no-recovery":
        kwargs["recovery"] = NO_RECOVERY
    system = ServingSystem(profile, policy=policy, queue_depth=16, **kwargs)
    return system.run(workload).fingerprint()


def _cluster_fingerprint(tenants, profile, routing, plan, mode):
    from repro.cluster import ClusterSystem
    from repro.faults import FaultPlan
    from repro.serve import OpenLoopWorkload

    n_nodes, n_requests = 2, 200
    rate = 0.7 * n_nodes * profile.saturation_rate_qps()
    fault_plan = None
    if plan != "none":
        fault_plan = FaultPlan.node_poisson(
            duration_ns=1e9 * n_requests / rate, n_nodes=n_nodes,
            rates_per_ms=_PLAN_RATES[plan], seed=_SEED,
            crash_ns=80_000.0, slow_ns=300_000.0, slow_factor=7,
            lag_ns=50_000.0,
        )
    enabled = mode == "failover-hedging"
    system = ClusterSystem(
        profile, n_nodes=n_nodes, routing=routing, policy="multi-port",
        queue_depth=16, fault_plan=fault_plan,
        failover=enabled, hedging=enabled, hedge_min_samples=4,
    )
    workload = OpenLoopWorkload(
        tenants, rate_qps=rate, n_requests=n_requests, seed=_SEED
    )
    return system.run(workload).fingerprint()


def _cells():
    cells = [
        ("serve", policy, arrival, faults)
        for policy in SERVE_POLICIES
        for arrival in SERVE_ARRIVALS
        for faults in SERVE_FAULTS
    ]
    cells += [
        ("cluster", routing, plan, mode)
        for routing in CLUSTER_ROUTINGS
        for plan in CLUSTER_PLANS
        for mode in CLUSTER_MODES
    ]
    return cells


def _key(cell) -> str:
    return "/".join(cell)


def _fingerprint(tenants, profile, cell):
    tier, *axes = cell
    run = _serve_fingerprint if tier == "serve" else _cluster_fingerprint
    return run(tenants, profile, *axes)


def _jsonable(fingerprint):
    """The fingerprint as it reads back from the fixture file."""
    return json.loads(json.dumps(fingerprint))


@pytest.fixture(scope="module")
def golden():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "PYTHONPATH=src python -m tests.test_golden_fingerprints --regenerate"
    )
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def workload_profile():
    return _tenants_and_profile()


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden) == sorted(_key(cell) for cell in _cells())


@pytest.mark.parametrize("cell", _cells(), ids=_key)
def test_golden_fingerprint(golden, workload_profile, cell):
    tenants, profile = workload_profile
    assert _jsonable(_fingerprint(tenants, profile, cell)) == golden[_key(cell)]


def _regenerate() -> None:
    tenants, profile = _tenants_and_profile()
    snapshot = {
        _key(cell): _jsonable(_fingerprint(tenants, profile, cell))
        for cell in _cells()
    }
    FIXTURE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(snapshot)} fingerprints)")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.test_golden_fingerprints --regenerate")
    _regenerate()
