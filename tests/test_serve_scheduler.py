"""Unit tests for the configuration-port scheduler policies."""

import pytest

from repro.errors import ConfigurationError
from repro.serve import Port, make_scheduler
from repro.serve.workload import Request
from repro.sim import StatSet


def request(index, tenant="t0"):
    return Request(index=index, tenant=tenant, template="q", arrival_ns=0.0)


def build(policy, n_ports=1, queue_depth=8, quantum=2):
    ports = [Port(index=i) for i in range(n_ports)]
    stats = StatSet("scheduler")
    sched = make_scheduler(
        policy, ports, queue_depth, stats,
        descriptor_of=lambda r: r.tenant, quantum=quantum,
    )
    return sched, ports, stats


def drain(sched, port_index=0):
    out = []
    while True:
        req = sched.pop(port_index)
        if req is None:
            return out
        out.append(req)


# -- construction -------------------------------------------------------------------


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        build("lifo")


def test_bad_shapes_rejected():
    with pytest.raises(ConfigurationError):
        build("fcfs", queue_depth=0)
    with pytest.raises(ConfigurationError):
        make_scheduler("fcfs", [], 4, StatSet("s"), lambda r: None)
    with pytest.raises(ConfigurationError):
        build("ctx-switch", quantum=0)


# -- admission control (shared by every policy) -------------------------------------


@pytest.mark.parametrize("policy", ["fcfs", "ctx-switch", "multi-port"])
def test_admission_bounds_backlog_and_sheds(policy):
    sched, _ports, stats = build(policy, n_ports=1, queue_depth=3)
    admitted = [sched.admit(request(i, tenant=f"t{i % 2}")) for i in range(5)]
    assert admitted == [True, True, True, False, False]
    assert sched.backlog() == 3
    assert stats.count("admitted") == 3
    assert stats.count("shed") == 2
    assert stats.gauge("backlog").max == 3
    # Draining frees capacity again.
    assert sched.pop(0) is not None
    assert sched.admit(request(9))


# -- fcfs ---------------------------------------------------------------------------


def test_fcfs_strict_arrival_order():
    sched, _, _ = build("fcfs")
    for i in range(5):
        sched.admit(request(i, tenant=f"t{i % 3}"))
    assert [r.index for r in drain(sched)] == [0, 1, 2, 3, 4]


# -- ctx-switch ---------------------------------------------------------------------


def test_ctx_switch_batches_per_descriptor():
    sched, _, _ = build("ctx-switch", quantum=4)
    # Perfectly interleaved arrivals: a b a b a b a b
    for i in range(8):
        sched.admit(request(i, tenant="ab"[i % 2]))
    order = [r.tenant for r in drain(sched)]
    # The port drains one descriptor's batch before rotating.
    assert order == ["a", "a", "a", "a", "b", "b", "b", "b"]


def test_ctx_switch_quantum_preempts_long_queues():
    sched, _, stats = build("ctx-switch", quantum=2, queue_depth=16)
    for i in range(6):
        sched.admit(request(i, tenant="a"))
    sched.admit(request(6, tenant="b"))
    order = [r.tenant for r in drain(sched)]
    # After two 'a's the port must visit 'b' before finishing the rest.
    assert order[:3] == ["a", "a", "b"]
    assert order.count("a") == 6
    assert stats.count("rotations") >= 2


def test_ctx_switch_skips_empty_descriptors():
    sched, _, _ = build("ctx-switch", quantum=1)
    sched.admit(request(0, tenant="a"))
    assert sched.pop(0).tenant == "a"
    sched.admit(request(1, tenant="b"))
    assert sched.pop(0).tenant == "b"
    assert sched.pop(0) is None


# -- multi-port ---------------------------------------------------------------------


def test_multi_port_prefers_descriptor_affinity():
    sched, ports, _ = build("multi-port", n_ports=2, queue_depth=16)
    ports[0].descriptor = "a"
    ports[1].descriptor = "b"
    for i, tenant in enumerate(["a", "b", "a", "b"]):
        sched.admit(request(i, tenant=tenant))
    assert [r.tenant for r in (sched.pop(0), sched.pop(0))] == ["a", "a"]
    assert [r.tenant for r in (sched.pop(1), sched.pop(1))] == ["b", "b"]


def test_multi_port_idle_port_steals():
    sched, ports, stats = build("multi-port", n_ports=2, queue_depth=16)
    ports[0].descriptor = "a"
    ports[1].descriptor = "b"
    for i in range(4):
        sched.admit(request(i, tenant="a"))  # all routed to port 0
    assert sched.pop(1) is not None  # port 1 has nothing of its own
    assert stats.count("steals") == 1
    assert sched.backlog() == 3


def test_multi_port_balances_unknown_descriptors():
    sched, _, _ = build("multi-port", n_ports=2, queue_depth=16)
    for i in range(4):
        sched.admit(request(i, tenant=f"t{i}"))  # nobody holds these
    assert len(drain(sched, 0)) + len(drain(sched, 1)) == 4


# -- the shared port step -----------------------------------------------------------


def test_program_port_charges_switches_and_not_hot_hits():
    from types import SimpleNamespace

    from repro.serve.scheduler import program_port

    profile = SimpleNamespace(descriptor="a", program_ns=3.0, fill_ns=5.0)
    port, stats = Port(index=0), StatSet("scheduler")
    assert program_port(port, profile, stats) == 8.0
    assert program_port(port, profile, stats) == 0.0
    assert port.descriptor == "a" and port.switches == 1
    assert stats.count("context_switches") == 1
    assert stats.count("hot_hits") == 1


def test_wakeup_resumes_one_parked_event_per_kick():
    from repro.serve.scheduler import Wakeup
    from repro.sim import Simulator

    wakeup = Wakeup(Simulator())
    wakeup.kick()  # nobody parked: a no-op
    first = wakeup.wait()
    assert wakeup.wait() is first and not first.triggered
    wakeup.kick()
    assert first.triggered
    assert wakeup.wait() is not first
