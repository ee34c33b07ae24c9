"""Workload generation for the query-serving subsystem.

The paper's prototype answers one ephemeral query at a time; Section 8
lists *concurrent queries* as future work. This module models the client
side of that gap: many tenants, each owning a base relation and a handful
of parameterized query templates, submitting requests against the shared
engine.

Two traffic shapes are supported, both fully seeded:

* **open-loop** streams (:class:`OpenLoopWorkload`) — arrivals happen at
  generator-chosen instants regardless of completions. ``poisson``
  arrivals draw i.i.d. exponential gaps at the requested rate; ``bursty``
  arrivals send compressed back-to-back bursts separated by idle gaps
  that preserve the same long-run rate (the heavy-traffic shape that
  exposes queueing cliffs).
* **closed-loop** streams (:class:`ClosedLoopWorkload`) — a fixed
  population of clients that think, submit one request, and block until
  it completes (interactive traffic; the arrival process adapts to the
  service rate).

Open-loop schedules are materialised up front (:meth:`OpenLoopWorkload
.schedule`), which makes determinism trivial to test and lets the service
loop replay the exact same arrival sequence under every scheduler policy.
Closed-loop arrivals depend on completions, so they are driven by client
processes inside the serving simulation instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..query.queries import Query, q1, q2, q4
from ..storage.row_table import RowTable

#: Arrival shapes understood by :class:`OpenLoopWorkload`.
OPEN_LOOP_SHAPES = ("poisson", "bursty")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a base relation plus its query templates.

    ``templates`` maps a template name to the :class:`Query` it runs;
    every template over the same column group shares one ephemeral
    descriptor, so the template set determines how often the engine's
    configuration port must be re-programmed.
    """

    name: str
    table: RowTable
    templates: Tuple[Tuple[str, Query], ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.templates:
            raise ConfigurationError(f"tenant {self.name!r} has no templates")
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} weight must be positive, got {self.weight}"
            )
        names = [name for name, _query in self.templates]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant {self.name!r} has duplicate template names"
            )

    def template_names(self) -> List[str]:
        return [name for name, _query in self.templates]

    def query(self, template: str) -> Query:
        for name, query in self.templates:
            if name == template:
                return query
        raise ConfigurationError(
            f"tenant {self.name!r} has no template {template!r}"
        )


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: who asks what, and when."""

    index: int
    at_ns: float
    tenant: str
    template: str


@dataclass
class Request:
    """One request's life through the serving system (filled in as it runs)."""

    index: int
    tenant: str
    template: str
    arrival_ns: float
    shed: bool = False
    port: int = -1
    state: str = ""  #: "hot" / "cold" once served
    start_ns: float = 0.0
    queue_ns: float = 0.0
    reconfig_ns: float = 0.0
    exec_ns: float = 0.0
    finish_ns: float = 0.0
    value: object = None
    retries: int = 0  #: fault-recovery re-executions this request paid
    degraded: bool = False  #: answered via the CPU row-scan fallback
    failed: bool = False  #: no answer produced (faults, recovery off)

    @property
    def latency_ns(self) -> float:
        """Arrival-to-answer latency (0 while in flight or shed)."""
        return self.finish_ns - self.arrival_ns if self.finish_ns else 0.0


class _Mix:
    """Weighted (tenant, template) sampling shared by both workload kinds."""

    def __init__(self, tenants: Sequence[TenantSpec]):
        if not tenants:
            raise ConfigurationError("a workload needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")
        self.tenants = list(tenants)
        self._weights = [t.weight for t in tenants]

    def sample(self, rng: random.Random) -> Tuple[str, str]:
        tenant = rng.choices(self.tenants, weights=self._weights)[0]
        template, _query = tenant.templates[rng.randrange(len(tenant.templates))]
        return tenant.name, template


class OpenLoopWorkload:
    """An open-loop arrival stream: Poisson or bursty, seeded.

    ``rate_qps`` is the long-run arrival rate in requests per *simulated*
    second. Bursty traffic sends ``burst_size`` requests back to back
    (gaps compressed by ``burst_factor``) and then idles long enough to
    keep the same average rate.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        rate_qps: float,
        n_requests: int,
        arrival: str = "poisson",
        burst_size: int = 8,
        burst_factor: float = 20.0,
        seed: int = 7,
    ):
        if arrival not in OPEN_LOOP_SHAPES:
            raise ConfigurationError(
                f"unknown open-loop arrival shape {arrival!r} "
                f"(choose from {', '.join(OPEN_LOOP_SHAPES)})"
            )
        if rate_qps <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate_qps}")
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if burst_size < 1 or burst_factor <= 1.0:
            raise ConfigurationError(
                "bursty traffic needs burst_size >= 1 and burst_factor > 1"
            )
        self.mix = _Mix(tenants)
        self.rate_qps = rate_qps
        self.n_requests = n_requests
        self.arrival = arrival
        self.burst_size = burst_size
        self.burst_factor = burst_factor
        self.seed = seed

    def schedule(self) -> List[Arrival]:
        """The full arrival sequence, materialised deterministically."""
        rng = random.Random(self.seed)
        mean_gap_ns = 1e9 / self.rate_qps
        arrivals: List[Arrival] = []
        now = 0.0
        for index in range(self.n_requests):
            if self.arrival == "poisson":
                now += rng.expovariate(1.0) * mean_gap_ns
            else:  # bursty
                if index % self.burst_size == 0 and index > 0:
                    # Idle long enough to restore the long-run rate: the
                    # whole burst "owes" burst_size mean gaps, of which it
                    # consumed only the compressed intra-burst ones.
                    compressed = (self.burst_size - 1) / self.burst_factor
                    owed = self.burst_size - compressed
                    now += rng.expovariate(1.0) * mean_gap_ns * owed
                else:
                    now += rng.expovariate(1.0) * mean_gap_ns / self.burst_factor
            tenant, template = self.mix.sample(rng)
            arrivals.append(Arrival(index, now, tenant, template))
        return arrivals

    def drive(self, sim, arrive: Callable[[Request], None],
              done: Callable[[], None]):
        """A simulator process replaying :meth:`schedule` in simulated time.

        At each arrival's instant ``arrive`` receives a fresh
        :class:`Request`; ``done`` runs once the schedule is exhausted.
        """
        for arrival in self.schedule():
            gap = arrival.at_ns - sim.now
            if gap > 0:
                yield sim.timeout(gap)
            arrive(Request(
                index=arrival.index,
                tenant=arrival.tenant,
                template=arrival.template,
                arrival_ns=sim.now,
            ))
        done()


class ClosedLoopWorkload:
    """A closed-loop population: ``n_clients`` think/submit/wait loops.

    Each client draws exponential think times with mean ``think_ns``;
    the shared ``n_requests`` budget bounds the run. The serving system
    turns this description into client processes (arrivals depend on
    completions, so there is no pre-computable schedule).
    """

    arrival = "closed"

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        n_clients: int,
        n_requests: int,
        think_ns: float = 50_000.0,
        seed: int = 7,
    ):
        if n_clients < 1:
            raise ConfigurationError("closed loop needs at least one client")
        if n_requests <= 0:
            raise ConfigurationError("n_requests must be positive")
        if think_ns < 0:
            raise ConfigurationError("think time must be >= 0")
        self.mix = _Mix(tenants)
        self.n_clients = n_clients
        self.n_requests = n_requests
        self.think_ns = think_ns
        self.seed = seed

    def client_rngs(self) -> List[random.Random]:
        """One independent, deterministically seeded stream per client."""
        master = random.Random(self.seed)
        return [random.Random(master.randrange(2**63))
                for _ in range(self.n_clients)]


def default_tenants(
    n_tenants: int = 3,
    n_rows: int = 1024,
    n_cols: int = 16,
    seed: int = 42,
) -> List[TenantSpec]:
    """A ready-made multi-tenant population over benchmark relations.

    Each tenant owns its own relation S (distinct data seed) and three
    templates spanning three distinct column groups — a projection
    (``q1``), a selective projection (``q2``) and an aggregate (``q4``) —
    so consecutive requests from different templates genuinely contend
    for the configuration port.
    """
    from ..bench.workloads import make_relation

    if n_tenants < 1:
        raise ConfigurationError("need at least one tenant")
    if n_cols < 3:
        raise ConfigurationError("default templates need at least 3 columns")
    tenants = []
    for i in range(n_tenants):
        table = make_relation(
            n_rows, n_cols=n_cols, seed=seed + i, name=f"tenant{i}"
        )
        tenants.append(
            TenantSpec(
                name=f"tenant{i}",
                table=table,
                templates=(
                    ("project", q1("A3")),
                    ("filter", q2(col="A1", sel_col="A2", k=0)),
                    ("sum", q4("A1")),
                ),
            )
        )
    return tenants
