"""RME schedulers: who gets the configuration port next.

The prototype exposes *one* configuration port: at any instant the engine
holds one ephemeral descriptor, and pointing it somewhere else costs a
register-programming sequence plus a full projection regeneration. With
many tenants in flight this port is the contended resource, and the
policy that multiplexes it dominates tail latency:

* **fcfs** — a single bounded FIFO, requests served strictly in arrival
  order. Interleaved tenants force a descriptor switch on almost every
  request (the worst case the paper's single-query prototype never
  faces).
* **ctx-switch** — round-robin over *descriptors*: requests queue per
  descriptor and the port drains up to ``quantum`` of them before
  rotating, amortising each reconfiguration over a batch — the
  "context-switching the RME" design sketched in the paper's future
  work.
* **multi-port** — ``n_ports`` engine contexts, each holding its own
  descriptor (the multiple-configuration-port extension). Arrivals are
  dispatched to a port already holding their descriptor when possible,
  otherwise to the shortest queue; idle ports steal from the longest
  backlog so the extra capacity is never wasted.

All policies apply the same admission control: when the total backlog
reaches ``queue_depth`` waiting requests, new arrivals are *shed* (the
client gets an immediate rejection instead of an unbounded queueing
delay).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim import Event, Simulator, StatSet
from .workload import Request

if TYPE_CHECKING:
    from .profiles import QueryProfile

#: Policy names accepted by :func:`make_scheduler` and the CLI.
POLICIES = ("fcfs", "ctx-switch", "multi-port")


def policy_names() -> List[str]:
    """Scheduler policy names, for CLI help text and usage errors.

    Mirrors :func:`repro.query.engines.engine_names`: the CLI lists
    policies from here, so a policy added to :data:`POLICIES` and
    :func:`make_scheduler` shows up in ``--help`` and error messages
    without touching the CLI.
    """
    return list(POLICIES)


@dataclass
class Port:
    """One engine context: the descriptor it currently holds."""

    index: int
    descriptor: Optional[object] = None
    served: int = 0
    switches: int = 0


def program_port(port: Port, profile: "QueryProfile", stats: StatSet) -> float:
    """Point ``port`` at ``profile``'s descriptor; the reconfiguration ns.

    A port already holding the descriptor is hot and costs nothing. A
    switch costs register programming plus the projection regeneration
    the new descriptor forces — the step every serving and cluster port
    takes before it scans.
    """
    if port.descriptor != profile.descriptor:
        port.descriptor = profile.descriptor
        port.switches += 1
        stats.bump("context_switches")
        return profile.program_ns + profile.fill_ns
    stats.bump("hot_hits")
    return 0.0


class Wakeup:
    """One event idle port loops park on until :meth:`kick` resumes them."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        if self._event is None or self._event.triggered:
            self._event = self.sim.event()
        return self._event

    def kick(self) -> None:
        if self._event is not None and not self._event.triggered:
            self._event.succeed()


class SchedulerPolicy:
    """Shared bookkeeping: bounded admission, backlog gauge, shed counts."""

    name = "?"

    def __init__(
        self,
        ports: List[Port],
        queue_depth: int,
        stats: StatSet,
        descriptor_of: Callable[[Request], object],
    ):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue depth must be >= 1, got {queue_depth}"
            )
        if not ports:
            raise ConfigurationError("scheduler needs at least one port")
        self.ports = ports
        self.queue_depth = queue_depth
        self.stats = stats
        self.descriptor_of = descriptor_of

    # -- the policy surface --------------------------------------------------
    def admit(self, request: Request) -> bool:
        """Enqueue ``request`` or shed it; returns True when admitted."""
        if self.backlog() >= self.queue_depth:
            self.stats.bump("shed")
            return False
        self._enqueue(request)
        self.stats.bump("admitted")
        self._note_backlog()
        return True

    def pop(self, port_index: int) -> Optional[Request]:
        """The next request port ``port_index`` should serve (or None)."""
        request = self._dequeue(port_index)
        if request is not None:
            self._note_backlog()
        return request

    def backlog(self) -> int:
        raise NotImplementedError

    def _enqueue(self, request: Request) -> None:
        raise NotImplementedError

    def _dequeue(self, port_index: int) -> Optional[Request]:
        raise NotImplementedError

    def _note_backlog(self) -> None:
        self.stats.set_gauge("backlog", self.backlog())


class FCFSScheduler(SchedulerPolicy):
    """One global FIFO; strict arrival order; no descriptor awareness."""

    name = "fcfs"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue: Deque[Request] = deque()

    def backlog(self) -> int:
        return len(self._queue)

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self, port_index: int) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None


class CtxSwitchScheduler(SchedulerPolicy):
    """Round-robin over descriptors with a drain quantum.

    Requests queue per descriptor; the port stays on one descriptor for
    up to ``quantum`` consecutive requests (or until its queue drains),
    then rotates to the next descriptor with waiting work. Batching
    amortises the reconfiguration cost the paper identifies as the cost
    of ephemeral context switches.
    """

    name = "ctx-switch"

    def __init__(self, *args, quantum: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        if quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        self._queues: Dict[object, Deque[Request]] = {}
        self._rotation: List[object] = []  #: descriptors in first-seen order
        self._current: Optional[object] = None
        self._used = 0  #: requests drained from the current descriptor

    def backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _enqueue(self, request: Request) -> None:
        key = self.descriptor_of(request)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            self._rotation.append(key)
        queue.append(request)

    def _dequeue(self, port_index: int) -> Optional[Request]:
        current = self._queues.get(self._current)
        if current and self._used < self.quantum:
            self._used += 1
            return current.popleft()
        nxt = self._next_descriptor()
        if nxt is None:
            return None
        if nxt != self._current:
            self.stats.bump("rotations")
        self._current = nxt
        self._used = 1
        return self._queues[nxt].popleft()

    def _next_descriptor(self) -> Optional[object]:
        """The next descriptor (cyclic, after the current one) with work."""
        if not self._rotation:
            return None
        start = 0
        if self._current in self._rotation:
            start = self._rotation.index(self._current) + 1
        n = len(self._rotation)
        for step in range(n):
            key = self._rotation[(start + step) % n]
            if self._queues[key]:
                return key
        return None


class MultiPortScheduler(SchedulerPolicy):
    """Per-port queues with descriptor affinity and work stealing."""

    name = "multi-port"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: List[Deque[Request]] = [deque() for _ in self.ports]

    def backlog(self) -> int:
        return sum(len(q) for q in self._queues)

    def _enqueue(self, request: Request) -> None:
        key = self.descriptor_of(request)
        matching = [
            p.index for p in self.ports if p.descriptor == key
        ]
        candidates = matching or [p.index for p in self.ports]
        best = min(candidates, key=lambda i: (len(self._queues[i]), i))
        self._queues[best].append(request)

    def _dequeue(self, port_index: int) -> Optional[Request]:
        own = self._queues[port_index]
        if own:
            return own.popleft()
        victim = max(
            range(len(self._queues)), key=lambda i: (len(self._queues[i]), -i)
        )
        if self._queues[victim]:
            self.stats.bump("steals")
            return self._queues[victim].popleft()
        return None


def check_policy(policy: str) -> None:
    """Reject a policy name that is not in :data:`POLICIES`."""
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown scheduler policy {policy!r} "
            f"(choose from {', '.join(POLICIES)})"
        )


def make_scheduler(
    policy: str,
    ports: List[Port],
    queue_depth: int,
    stats: StatSet,
    descriptor_of: Callable[[Request], object],
    quantum: int = 8,
) -> SchedulerPolicy:
    """Instantiate the named policy (see :data:`POLICIES`)."""
    check_policy(policy)
    if policy == "ctx-switch":
        return CtxSwitchScheduler(
            ports, queue_depth, stats, descriptor_of, quantum=quantum
        )
    cls = FCFSScheduler if policy == "fcfs" else MultiPortScheduler
    return cls(ports, queue_depth, stats, descriptor_of)
