"""One simulated serving node: ports, scheduler, health and replication.

A :class:`ClusterNode` is the cluster tier's view of one full serving
stack (engine + configuration ports + admission queue). It owns its own
:class:`~repro.sim.MetricsRegistry` — per-node latency histograms merge
into the cluster rollup through the PR 5 algebra, so cluster percentiles
are bit-equal to an unsharded run observing the same latencies.

Fault state is plain data mutated by the cluster's fault driver:

* ``down_until`` / ``crash_epoch`` — a ``node_crash`` outage window; the
  epoch counter lets the serve loop detect a crash that struck mid-scan.
* ``slow_until`` / ``slow_factor`` — a ``node_slow`` (AXI-storm) window
  scaling every service time on the node.
* ``lag_windows`` — ``replica_lag`` windows during which the node's
  replication watermark freezes.

The replication watermark itself is *arithmetic*, not a process: the
node syncs from its primaries every ``sync_interval_ns`` except while
crashed or lagged, so :meth:`synced_at` reconstructs the watermark for
any instant deterministically (and in O(windows), not O(ticks)).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..faults import CircuitBreaker
from ..sim import MetricsRegistry, Simulator
from ..serve.scheduler import SchedulerPolicy, Wakeup


class ClusterNode:
    """State and plumbing for one node of a :class:`ClusterSystem`."""

    def __init__(self, index: int, sim: Simulator,
                 breaker: Optional[CircuitBreaker]):
        self.index = index
        self.name = f"node{index}"
        self.metrics = metrics = MetricsRegistry(self.name)
        self.slo_stats = metrics.scope("slo")
        self.node_stats = metrics.scope("node")
        self.sched_stats = metrics.scope("scheduler")
        self.breaker = breaker
        #: Idle port loops park here until an attempt is dispatched.
        self.wakeup = Wakeup(sim)
        # Wired by the cluster after construction (it owns the policy).
        self.scheduler: Optional[SchedulerPolicy] = None
        # Fault state.
        self.down_until = 0.0
        self.crash_started = -1.0
        self.crash_epoch = 0
        self.slow_until = 0.0
        self.slow_factor = 1.0
        self.down_windows: List[Tuple[float, float]] = []
        self.lag_windows: List[Tuple[float, float]] = []
        # Health-probe view (updated by the cluster's watch processes).
        self.marked_down = False
        # Serving counters mirrored outside the registry for cheap access.
        self.served = 0

    # -- fault-state queries -------------------------------------------------
    def is_down(self, now: float) -> bool:
        return now < self.down_until

    def service_scale(self, now: float) -> float:
        return self.slow_factor if now < self.slow_until else 1.0

    def _blocking_window(self, t: float) -> Optional[Tuple[float, float]]:
        """The down/lag window covering instant ``t``, if any."""
        for start, end in self.down_windows:
            if start <= t < end:
                return (start, end)
        for start, end in self.lag_windows:
            if start <= t < end:
                return (start, end)
        return None

    def synced_at(self, now: float, sync_interval_ns: float) -> float:
        """The node's replication watermark at ``now``.

        The latest sync tick at or before ``now`` that did not land
        inside a crash or lag window; ticks inside a window collapse to
        the last clean tick before the window opened.
        """
        tick = math.floor(now / sync_interval_ns) * sync_interval_ns
        # Each iteration jumps below one blocking window, so this
        # terminates after at most len(windows) + 1 rounds.
        for _ in range(len(self.down_windows) + len(self.lag_windows) + 1):
            if tick <= 0.0:
                return 0.0
            window = self._blocking_window(tick)
            if window is None:
                return tick
            start = window[0]
            below = math.floor(start / sync_interval_ns) * sync_interval_ns
            if below >= tick:
                below = tick - sync_interval_ns
            tick = below
        return max(0.0, tick)

    def staleness_at(self, now: float, sync_interval_ns: float) -> float:
        """How far behind the primaries a read off this replica is."""
        return max(0.0, now - self.synced_at(now, sync_interval_ns))
