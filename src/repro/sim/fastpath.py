"""Fast-forward replay of fetch epochs, batched per descriptor run.

A steady-state RME scan is extraordinarily regular: the Requestor emits
one descriptor per PL cycle, every descriptor walks the same
issue-port → AXI → DRAM → AXI → extractor → write-port pipeline, and all
shared state (port reservations, DRAM bank/bus reservations, the credit
pool) is touched in a provably reconstructible order. The cycle-level
path spends ~30 simulator events per descriptor discovering timestamps
this module computes with plain arithmetic.

:func:`compute_epoch` replays the whole descriptor stream as one or two
flat loops. It is a *transcription* of the generator pipeline, not a
model of it: every timestamp is produced by the same float expressions,
in the same order, that the event-driven path would evaluate —
``now + ((start + cost) - now)`` instead of the mathematically equal
``start + cost``, because float addition is not associative and the
contract is bit-identical simulated time.

Two ladders share the arithmetic:

* the **uniform ladder** — the original PR-4 specialization for
  homogeneous single-run projections, where every descriptor has the
  same burst/width and all shared state is visited in row order;
* the **general ladder** — per-descriptor bursts/widths/costs covering
  windowed row ranges, multi-run geometries, rows that straddle bus
  beats, and pushdown sinks. Its correctness rests on ordering lemmas
  transcribed from the event engine: descriptor *dispatches* are
  nondecreasing in emission order (so issue-port and DRAM reservations
  replay in index order); DRAM completion times are strictly increasing
  (so DRAM-side statistics replay in index order); and the extractor
  completion times ``t5``, which *can* invert under heterogeneous
  bursts, determine write-port order via a stable sort (equal ``t5``
  resolve to emission order because the underlying simulator events were
  scheduled in that order at the same instant).

Pushdown epochs come in two flavours. **Reductions** (aggregation /
group-by) are content-independent in *timing* — the accumulator sink
adds one PL cycle per row and never touches the write port — so they
memoize like projections; the accumulator itself is fed fresh bytes at
commit time. **Row filters** have content-dependent timing (only
matching rows occupy the write port), so they are recomputed per
activation and never enter :data:`TIMING_CACHE`; they are covered only
for single-lane designs, where the commit stage is trivially in order.

The timing of a cacheable epoch depends only on the platform, design,
geometry, row window and the start state of the shared reservations —
never on table *content*. :data:`TIMING_CACHE` memoizes
:class:`EpochTiming` records under exactly that key; payload bytes are
always re-read from memory at commit time.

Bulk statistic replay routes through :mod:`repro.sim.vector` — numpy-
vectorized bucket math when numpy is importable, batch Python loops
otherwise, bit-identical either way.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..memo import Memo
from .vector import bulk_add, bulk_add_repeated, bulk_observe

#: Epoch replay modes (mirrors the engine's eligibility analysis).
MODE_PROJECT = "project"
MODE_REDUCTION = "reduction"
MODE_ROWFILTER = "rowfilter"


class EpochTiming:
    """The timing record of one fetch epoch.

    Per-descriptor observation lists are kept in the exact order the
    cycle-level path accumulates them (see the ordering lemmas in the
    module docstring), so the commit step can replay histogram
    observations and float counter accumulations bit-identically.

    ``bursts``/``widths``/``write_costs`` are ``None`` for uniform
    epochs (use the scalar ``burst``/``col_width``/``write_cost``) and
    per-descriptor lists for general ones.
    """

    __slots__ = (
        "t0",  #: epoch activation instant the absolute times below assume
        "n", "mode", "cacheable",
        "burst", "col_width", "write_cost",
        "bursts", "widths", "write_costs",
        "credit_waits", "port_waits", "dram_waits", "dram_service",
        "service_obs", "read_bytes", "beats",
        "row_hits", "row_empty", "row_misses",
        "spans",  #: (w_addr, r_addr, read_bytes, lead_skip, write_end, width)
        "line_schedule",  #: line_idx -> completion instant (project modes)
        "feeds",  #: (r_addr, read_bytes, lead_skip, width) in feed order
        "matches",  #: (offset, row_bytes, write_end) in commit order
        "pd_matches", "pd_cursor",
        "t_fin",
        "final_banks",  #: (open_row, ready_at) per bank
        "final_bus_free", "final_issue_free", "final_wp_free",
        "pipeline_end",
    )

    def __init__(self) -> None:
        self.t0 = 0.0
        self.n = 0
        self.mode = MODE_PROJECT
        self.cacheable = True
        self.burst = 0
        self.col_width = 0
        self.write_cost = 0.0
        self.bursts: Optional[List[int]] = None
        self.widths: Optional[List[int]] = None
        self.write_costs: Optional[List[float]] = None
        self.credit_waits: List[float] = []
        self.port_waits: List[float] = []
        self.dram_waits: List[float] = []
        self.dram_service: List[float] = []
        self.service_obs: List[float] = []
        self.read_bytes: List[int] = []
        self.beats: List[int] = []
        self.row_hits = 0
        self.row_empty = 0
        self.row_misses = 0
        self.spans: List[Tuple[int, int, int, int, float, int]] = []
        self.line_schedule: Dict[int, float] = {}
        self.feeds: List[Tuple[int, int, int, int]] = []
        self.matches: List[Tuple[int, bytes, float]] = []
        self.pd_matches = 0
        self.pd_cursor = 0
        self.t_fin = 0.0
        self.final_banks: List[Tuple[int, float]] = []
        self.final_bus_free = 0.0
        self.final_issue_free = 0.0
        self.final_wp_free = 0.0
        self.pipeline_end = 0.0


#: The process-wide signature memo shared by every system instance. Keys
#: embed the complete start state (platform, design, geometry, row
#: window, activation time, DRAM/port reservations), so a stale hit is
#: impossible by construction; ``invalidate`` exists for the events that
#: change simulation *behaviour* wholesale (arming a fault injector or
#: attaching a tracer), after which previously learned signatures
#: describe a machine that no longer exists. Keys and records are built
#: from primitives, so ``export_entries`` pickles to worker processes.
TIMING_CACHE = Memo(256)

#: Process-wide tally of fallback reasons (reason -> count) across every
#: engine instance, fed by :meth:`RMEngine._start_current_window`;
#: ``repro perf --profile`` diffs it per scenario to show coverage gaps.
FALLBACK_TALLY: Dict[str, int] = {}


def epoch_key(engine, rows=None, w_bias: int = 0,
              mode: str = MODE_PROJECT) -> tuple:
    """The complete timing-relevant start state of an epoch.

    Device reservations enter the key *relative to now* and clamped at
    zero: every consumer of a reservation takes ``max(arrival, free_at)``
    with ``arrival >= now``, so any reservation at-or-before the
    activation instant is timing-equivalent to "free now", and a future
    one matters only by its distance. Keying on the clamped offsets (and
    not on ``sim.now`` itself) makes the memo *relocatable*: the same
    epoch re-activated at a different absolute time hits, and the cached
    record is translated by :func:`rebase` on replay. The time grid is
    dyadic (every latency parameter is a multiple of 2**-4 ns), so the
    translation arithmetic is exact and replay stays bit-identical.
    """
    geometry = engine.geometry
    dram = engine.dram
    now = engine.sim.now
    return (
        engine.platform,
        engine.design,
        geometry.base_addr,
        geometry.bus_bytes,
        geometry.row_size,
        geometry.row_count,
        geometry.col_width,
        getattr(geometry, "col_offset", None),
        getattr(geometry.config, "runs", None),
        engine.fetch_pool.read_limit,
        tuple((bank.open_row, max(0.0, bank.ready_at - now))
              for bank in dram._banks),
        max(0.0, dram._bus_free_at - now),
        max(0.0, engine.fetch_pool.issue_port_free_at - now),
        max(0.0, engine.monitor._write_port_free_at - now),
        None if rows is None else (rows.start, rows.stop),
        w_bias,
        mode,
        engine._pushdown if mode == MODE_REDUCTION else None,
    )


def rebase(timing: EpochTiming, delta: float) -> EpochTiming:
    """A copy of ``timing`` translated ``delta`` ns along the time axis.

    Durations, counts, addresses and payload layouts are left alone;
    every absolute instant (span completion, line visibility, device end
    reservations, the pipeline-drain marker) is shifted. The original —
    typically a live memo entry — is never mutated.
    """
    out = EpochTiming()
    for slot in EpochTiming.__slots__:
        setattr(out, slot, getattr(timing, slot))
    out.t0 = timing.t0 + delta
    out.spans = [
        (w, r, rb, skip, end + delta, width)
        for w, r, rb, skip, end, width in timing.spans
    ]
    out.line_schedule = {
        line: end + delta for line, end in timing.line_schedule.items()
    }
    out.matches = [
        (offset, row_bytes, end + delta)
        for offset, row_bytes, end in timing.matches
    ]
    out.t_fin = timing.t_fin + delta
    out.final_banks = [
        (open_row, ready_at + delta)
        for open_row, ready_at in timing.final_banks
    ]
    out.final_bus_free = timing.final_bus_free + delta
    out.final_issue_free = timing.final_issue_free + delta
    out.final_wp_free = timing.final_wp_free + delta
    out.pipeline_end = timing.pipeline_end + delta
    return out


def _uniform_eligible(engine, rows, w_bias: int, mode: str) -> bool:
    """Whether the original homogeneous row-ordered ladder applies."""
    if mode != MODE_PROJECT or rows is not None or w_bias:
        return False
    geometry = engine.geometry
    if getattr(geometry.config, "runs", None) is not None:
        return False
    return geometry.row_count == 1 or not geometry.row_size % geometry.bus_bytes


def compute_epoch(engine, rows=None, w_bias: int = 0,
                  mode: str = MODE_PROJECT, pushdown=None) -> EpochTiming:
    """Replay the descriptor stream arithmetically from the current state.

    Pure with respect to the engine's *timing* state: reads the shared
    reservations, mutates nothing. Row-filter epochs additionally read
    table content (matching rows alone occupy the write port).
    """
    if _uniform_eligible(engine, rows, w_bias, mode):
        timing = _compute_uniform(engine)
    else:
        timing = _compute_general(engine, rows, w_bias, mode, pushdown)
    timing.t0 = engine.sim.now
    return timing


def _compute_uniform(engine) -> EpochTiming:
    """The homogeneous ladder: one burst length, pure arithmetic stream.

    Every expression below mirrors a specific line of the cycle-level
    path (requestor pace/credits, the fetch worker, the DRAM reservation
    math, the monitor write port); see those modules for the hardware
    rationale — this loop intentionally adds none of it.
    """
    sim = engine.sim
    platform = engine.platform
    design = engine.design
    geometry = engine.geometry
    pool = engine.fetch_pool
    dram = engine.dram

    t0 = sim.now
    pace = platform.pl_cycles(platform.requestor_cycles)
    issue_cost = platform.pl_cycles(platform.pl_dram_issue_cycles)
    axi_ns = pool.axi.latency_ns
    read_limit = pool.read_limit
    col_width = geometry.col_width
    # All descriptors share one burst length (eligibility guarantees it).
    burst = geometry.descriptor(0).burst
    extract_ns = platform.pl_cycles(platform.extractor_cycles + (burst - 1))
    if design.packer:
        fraction = col_width / platform.cache_line
        write_cost = platform.pl_cycles(platform.packer_line_write_cycles) * min(
            1.0, fraction
        )
    else:
        write_cost = platform.pl_cycles(platform.monitor_write_cycles)
    serial = design.serial_write
    workers = design.outstanding_txns
    capacity = max(2, 2 * workers)

    t = dram.t
    t_controller = t.t_controller
    t_cas = t.t_cas
    t_ccd = t.t_ccd
    t_rcd = t.t_rcd
    t_rp = t.t_rp
    t_beat = t.t_beat
    dram_bus = t.bus_bytes
    row_buffer_bytes = t.row_buffer_bytes
    n_banks = t.n_banks

    # Start state of every shared reservation.
    banks = [[bank.open_row, bank.ready_at] for bank in dram._banks]
    bus_free = dram._bus_free_at
    issue_free = pool.issue_port_free_at
    wp_free = engine.monitor._write_port_free_at
    lane_free = [t0] * workers  # already a heap: all equal

    timing = EpochTiming()
    timing.burst = burst
    timing.col_width = col_width
    timing.write_cost = write_cost
    credit_waits = timing.credit_waits
    port_waits = timing.port_waits
    dram_waits = timing.dram_waits
    dram_service = timing.dram_service
    service_obs = timing.service_obs
    read_bytes_list = timing.read_bytes
    beats_list = timing.beats
    spans = timing.spans

    retires: List[float] = []
    previous_emit = t0
    # Homogeneity makes the descriptor stream a pure arithmetic
    # progression: constant burst/lead, read address advancing by the row
    # size, write address by the column width. The loop increments
    # integers instead of materialising descriptor objects — same values,
    # a fraction of the interpreter work.
    first = geometry.descriptor(0)
    lead_skip = first.lead_skip
    wanted = first.read_bytes
    r_addr = first.r_addr
    w_addr = 0
    row_size = geometry.row_size
    single_lane = workers == 1
    lane_free_one = t0
    for index in range(geometry.row_count):
        # Requestor: one descriptor per PL cycle, gated by fetch credits
        # (granted inside the retiring worker's callback, same timestamp).
        emit_ready = previous_emit + pace
        if index >= capacity:
            blocked_until = retires[index - capacity]
            emitted = emit_ready if emit_ready >= blocked_until else blocked_until
        else:
            emitted = emit_ready
        credit_waits.append(emitted - emit_ready)
        previous_emit = emitted
        # Store hand-off: the earliest-free lane takes the descriptor.
        free_at = lane_free_one if single_lane else heappop(lane_free)
        dispatch = emitted if emitted >= free_at else free_at
        clip = read_limit - r_addr
        read_bytes = wanted if wanted <= clip else clip
        # Issue port reservation + resume (FetchUnitPool._reserve_issue_port).
        start_issue = dispatch if dispatch >= issue_free else issue_free
        issue_free = start_issue + issue_cost
        t1 = dispatch + ((start_issue + issue_cost) - dispatch)
        # PL->DRAM AXI hop.
        t2 = t1 + axi_ns
        # DRAM reservation math (DRAM.access), evaluated at now == t2.
        block = r_addr // row_buffer_bytes
        bank = banks[block % n_banks]
        row_id = block // n_banks
        beats = (r_addr + read_bytes - 1) // dram_bus - r_addr // dram_bus + 1
        arrive = t2 + t_controller
        ready_at = bank[1]
        start = arrive if arrive >= ready_at else ready_at
        open_row = bank[0]
        if open_row == row_id:
            first_beat_ready = start + t_cas
            occupancy = t_ccd
            timing.row_hits += 1
        elif open_row < 0:
            first_beat_ready = start + t_rcd + t_cas
            occupancy = t_rcd + t_ccd
            timing.row_empty += 1
        else:
            first_beat_ready = start + t_rp + t_rcd + t_cas
            occupancy = t_rp + t_rcd + t_ccd
            timing.row_misses += 1
        bank[0] = row_id
        transfer_start = first_beat_ready if first_beat_ready >= bus_free else bus_free
        transfer_end = transfer_start + beats * t_beat
        bus_free = transfer_end
        command_done = start + occupancy
        bus_tail = transfer_end - beats * t_beat
        bank[1] = command_done if command_done >= bus_tail else bus_tail
        service = transfer_end - t2
        dram_service.append(service)
        t3 = t2 + service
        dram_waits.append(t3 - t2)
        # DRAM->PL AXI hop, then the Column Extractor.
        t4 = t3 + axi_ns
        t5 = t4 + extract_ns
        # Monitor write port (MonitorBypass.write), reserved at now == t5.
        start_write = t5 if t5 >= wp_free else wp_free
        end_write = start_write + write_cost
        wp_free = end_write
        port_waits.append(start_write - t5)
        t6 = t5 + (end_write - t5)
        # Serial designs retire when the write lands; MLP retires at spawn
        # and lets the writer run on.
        finish = t6 if serial else t5
        if single_lane:
            lane_free_one = finish
        else:
            heappush(lane_free, finish)
        retires.append(finish)
        service_obs.append(finish - dispatch)
        read_bytes_list.append(read_bytes)
        beats_list.append(beats)
        spans.append((w_addr, r_addr, read_bytes, lead_skip, t6, col_width))
        r_addr += row_size
        w_addr += col_width

    timing.n = geometry.row_count
    timing.final_banks = [(bank[0], bank[1]) for bank in banks]
    timing.final_bus_free = bus_free
    timing.final_issue_free = issue_free
    timing.final_wp_free = wp_free
    timing.pipeline_end = spans[-1][4] if spans else t0
    # Packed lines complete when the store covering their last byte
    # retires; uniform spans tile the projection in col_width chunks.
    line_size = platform.cache_line
    valid = timing.n * col_width
    schedule = timing.line_schedule
    for line_idx in range(-(-valid // line_size) if valid else 0):
        end_abs = (line_idx + 1) * line_size
        if end_abs > valid:
            end_abs = valid
        schedule[line_idx] = spans[(end_abs - 1) // col_width][4]
    return timing


def _line_schedule(spans, line_size: int) -> Dict[int, float]:
    """Per-line completion instants from spans in write-commit order.

    Replicates the reorganization buffer's byte accounting: a line
    completes at the write that brings its filled-byte count to target
    (write-end times are strictly increasing along the port chain, so
    the completing write is simply the one that fills the line).
    """
    valid = 0
    for span in spans:
        valid += span[5]
    fill: Dict[int, int] = {}
    schedule: Dict[int, float] = {}
    for w_addr, _r_addr, _rb, _lead, end, width in spans:
        first = w_addr // line_size
        last = (w_addr + width - 1) // line_size
        for line_idx in range(first, last + 1):
            lo = line_idx * line_size
            hi = lo + line_size
            got = min(w_addr + width, hi) - max(w_addr, lo)
            have = fill.get(line_idx, 0) + got
            fill[line_idx] = have
            target = valid - lo
            if target > line_size:
                target = line_size
            if have >= target and line_idx not in schedule:
                schedule[line_idx] = end
    return schedule


def _compute_general(engine, rows, w_bias: int, mode: str,
                     pushdown) -> EpochTiming:
    """The general ladder: per-descriptor bursts, widths and sinks.

    Phase 1 walks descriptors in emission order, resolving requestor
    pacing, credit gating (a min-heap of already-known retire times — any
    not-yet-computed retire provably exceeds the release that unblocks
    the current emission), lane hand-off, the issue port, DRAM, the
    extractor and the per-mode tail. Phase 2 (parallel-write designs
    only) replays the write port in stable ``t5`` order.
    """
    sim = engine.sim
    platform = engine.platform
    design = engine.design
    geometry = engine.geometry
    pool = engine.fetch_pool
    dram = engine.dram

    t0 = sim.now
    pace = platform.pl_cycles(platform.requestor_cycles)
    issue_cost = platform.pl_cycles(platform.pl_dram_issue_cycles)
    axi_ns = pool.axi.latency_ns
    read_limit = pool.read_limit
    serial = design.serial_write
    workers = design.outstanding_txns
    capacity = max(2, 2 * workers)
    single_lane = workers == 1
    cache_line = platform.cache_line
    # The pushdown sink charges one PL cycle per row before deciding.
    sink_ns = platform.pl_cycles(1.0)

    extractor_cycles = platform.extractor_cycles
    pl_cycles = platform.pl_cycles
    extract_memo: Dict[int, float] = {}
    packer = design.packer
    packer_base = pl_cycles(platform.packer_line_write_cycles)
    flat_write_cost = pl_cycles(platform.monitor_write_cycles)
    cost_memo: Dict[int, float] = {}

    def write_cost_for(nbytes: int) -> float:
        cost = cost_memo.get(nbytes)
        if cost is None:
            if packer:
                cost = packer_base * min(1.0, nbytes / cache_line)
            else:
                cost = flat_write_cost
            cost_memo[nbytes] = cost
        return cost

    t = dram.t
    t_controller = t.t_controller
    t_cas = t.t_cas
    t_ccd = t.t_ccd
    t_rcd = t.t_rcd
    t_rp = t.t_rp
    t_beat = t.t_beat
    dram_bus = t.bus_bytes
    row_buffer_bytes = t.row_buffer_bytes
    n_banks = t.n_banks

    banks = [[bank.open_row, bank.ready_at] for bank in dram._banks]
    bus_free = dram._bus_free_at
    issue_free = pool.issue_port_free_at
    wp_free = engine.monitor._write_port_free_at
    lane_free = [t0] * workers
    lane_free_one = t0

    descriptors = list(geometry.descriptors(rows))
    n = len(descriptors)

    timing = EpochTiming()
    timing.mode = mode
    timing.n = n
    timing.cacheable = mode != MODE_ROWFILTER
    bursts = timing.bursts = []
    widths = timing.widths = []
    write_costs = timing.write_costs = [] if mode != MODE_REDUCTION else None
    credit_waits = timing.credit_waits
    port_waits = timing.port_waits
    dram_waits = timing.dram_waits
    dram_service = timing.dram_service
    read_bytes_list = timing.read_bytes
    beats_list = timing.beats
    spans = timing.spans
    matches = timing.matches

    memory = dram.memory if mode == MODE_ROWFILTER else None
    pd_cursor = 0
    pd_matches = 0

    retire_heap: List[float] = []
    retires: List[float] = []
    dispatches: List[float] = []
    t5s: List[float] = []
    previous_emit = t0

    for index, d in enumerate(descriptors):
        emit_ready = previous_emit + pace
        if index >= capacity:
            blocked_until = heappop(retire_heap)
            emitted = emit_ready if emit_ready >= blocked_until else blocked_until
        else:
            emitted = emit_ready
        credit_waits.append(emitted - emit_ready)
        previous_emit = emitted
        free_at = lane_free_one if single_lane else heappop(lane_free)
        dispatch = emitted if emitted >= free_at else free_at
        r_addr = d.r_addr
        wanted = d.burst * d.bus_bytes
        clip = read_limit - r_addr
        read_bytes = wanted if wanted <= clip else clip
        start_issue = dispatch if dispatch >= issue_free else issue_free
        issue_free = start_issue + issue_cost
        t1 = dispatch + ((start_issue + issue_cost) - dispatch)
        t2 = t1 + axi_ns
        block = r_addr // row_buffer_bytes
        bank = banks[block % n_banks]
        row_id = block // n_banks
        beats = (r_addr + read_bytes - 1) // dram_bus - r_addr // dram_bus + 1
        arrive = t2 + t_controller
        ready_at = bank[1]
        start = arrive if arrive >= ready_at else ready_at
        open_row = bank[0]
        if open_row == row_id:
            first_beat_ready = start + t_cas
            occupancy = t_ccd
            timing.row_hits += 1
        elif open_row < 0:
            first_beat_ready = start + t_rcd + t_cas
            occupancy = t_rcd + t_ccd
            timing.row_empty += 1
        else:
            first_beat_ready = start + t_rp + t_rcd + t_cas
            occupancy = t_rp + t_rcd + t_ccd
            timing.row_misses += 1
        bank[0] = row_id
        transfer_start = first_beat_ready if first_beat_ready >= bus_free else bus_free
        transfer_end = transfer_start + beats * t_beat
        bus_free = transfer_end
        command_done = start + occupancy
        bus_tail = transfer_end - beats * t_beat
        bank[1] = command_done if command_done >= bus_tail else bus_tail
        service = transfer_end - t2
        dram_service.append(service)
        t3 = t2 + service
        dram_waits.append(t3 - t2)
        t4 = t3 + axi_ns
        burst = d.burst
        extract_ns = extract_memo.get(burst)
        if extract_ns is None:
            extract_ns = extract_memo[burst] = pl_cycles(
                extractor_cycles + (burst - 1)
            )
        t5 = t4 + extract_ns
        width = d.col_width

        if mode == MODE_PROJECT:
            if serial:
                cost = write_cost_for(width)
                start_write = t5 if t5 >= wp_free else wp_free
                end_write = start_write + cost
                wp_free = end_write
                port_waits.append(start_write - t5)
                write_costs.append(cost)
                t6 = t5 + (end_write - t5)
                spans.append(
                    (d.w_addr - w_bias, r_addr, read_bytes, d.lead_skip, t6, width)
                )
                finish = t6
            else:
                finish = t5  # writer spawned; port replayed in phase 2
        elif mode == MODE_REDUCTION:
            finish = t5 + sink_ns
        else:  # MODE_ROWFILTER — single-lane by eligibility, strictly in order
            t5b = t5 + sink_ns
            payload = memory.read(r_addr, read_bytes)
            useful = payload[d.lead_skip : d.lead_skip + width]
            if pushdown.matches(useful):
                offset = pd_cursor
                pd_cursor += len(useful)
                pd_matches += 1
                cost = write_cost_for(len(useful))
                start_write = t5b if t5b >= wp_free else wp_free
                end_write = start_write + cost
                wp_free = end_write
                port_waits.append(start_write - t5b)
                write_costs.append(cost)
                t6w = t5b + (end_write - t5b)
                matches.append((offset, useful, t6w))
                finish = t6w
            else:
                finish = t5b

        if single_lane:
            lane_free_one = finish
        else:
            heappush(lane_free, finish)
        heappush(retire_heap, finish)
        retires.append(finish)
        dispatches.append(dispatch)
        t5s.append(t5)
        read_bytes_list.append(read_bytes)
        beats_list.append(beats)
        bursts.append(burst)
        widths.append(width)

    # Phase 2: parallel-write designs replay the write port (and the
    # service_ns observations that share its event ordering) in stable
    # t5 order; serial designs already did everything in index order.
    service_obs = timing.service_obs
    if mode == MODE_PROJECT and not serial and n:
        order = sorted(range(n), key=t5s.__getitem__)
        for i in order:
            d = descriptors[i]
            width = d.col_width
            cost = write_cost_for(width)
            arrival = t5s[i]
            start_write = arrival if arrival >= wp_free else wp_free
            end_write = start_write + cost
            wp_free = end_write
            port_waits.append(start_write - arrival)
            write_costs.append(cost)
            t6 = arrival + (end_write - arrival)
            spans.append(
                (d.w_addr - w_bias, d.r_addr, read_bytes_list[i],
                 d.lead_skip, t6, width)
            )
            service_obs.append(retires[i] - dispatches[i])
    elif mode == MODE_REDUCTION and not single_lane and n:
        order = sorted(range(n), key=t5s.__getitem__)
        for i in order:
            d = descriptors[i]
            timing.feeds.append(
                (d.r_addr, read_bytes_list[i], d.lead_skip, d.col_width)
            )
            service_obs.append(retires[i] - dispatches[i])
    else:
        for i in range(n):
            service_obs.append(retires[i] - dispatches[i])
        if mode == MODE_REDUCTION:
            for i in range(n):
                d = descriptors[i]
                timing.feeds.append(
                    (d.r_addr, read_bytes_list[i], d.lead_skip, d.col_width)
                )

    timing.final_banks = [(bank[0], bank[1]) for bank in banks]
    timing.final_bus_free = bus_free
    timing.final_issue_free = issue_free
    timing.final_wp_free = wp_free
    timing.pd_matches = pd_matches
    timing.pd_cursor = pd_cursor
    if mode == MODE_PROJECT:
        timing.pipeline_end = wp_free if n else t0
        timing.line_schedule = _line_schedule(spans, cache_line)
    else:
        # The supervisor finalises when the last worker returns — the
        # maximum retire time (workers pick up STOP at their last retire).
        timing.t_fin = max(retires) if retires else t0
        timing.pipeline_end = timing.t_fin
    return timing


def _noop(_arg) -> None:
    """Placeholder for the cycle-level path's final drain event."""


# Back-compat aliases for the PR-4 replay helpers (now in repro.sim.vector).
_accumulate = bulk_add
_accumulate_repeated = bulk_add_repeated
_observe_all = bulk_observe


def fast_forward(engine, rows=None, w_bias: int = 0,
                 mode: str = MODE_PROJECT) -> None:
    """Commit one fast-forwarded epoch onto the live system.

    The engine has already created its Requestor (processes unstarted)
    and verified eligibility. After this returns, every piece of state
    the cycle-level pipeline would eventually have produced is in place:
    device reservations, statistics, the filled reorganization buffer
    (or accumulator / selection output for pushdown epochs), and a
    completion schedule the Monitor consults so lines still become
    *visible* at their true completion times.
    """
    sim = engine.sim
    pool = engine.fetch_pool
    dram = engine.dram
    monitor = engine.monitor
    buffer = engine.buffer
    stats = engine.stats

    if mode == MODE_ROWFILTER:
        # Content-dependent timing: computed fresh, never memoized.
        timing = compute_epoch(engine, rows, w_bias, mode, engine._pushdown)
        stats.bump("fastpath_uncacheable")
    else:
        key = epoch_key(engine, rows, w_bias, mode)
        timing = TIMING_CACHE.get(key)
        if timing is None:
            timing = compute_epoch(engine, rows, w_bias, mode, engine._pushdown)
            TIMING_CACHE.put(key, timing)
            stats.bump("fastpath_cache_misses")
        else:
            if timing.t0 != sim.now:
                # Relocatable hit: the signature matched at a different
                # activation instant; translate the record to now.
                timing = rebase(timing, sim.now - timing.t0)
            stats.bump("fastpath_cache_hits")
        stats.set_gauge("fastpath_cache_hit_rate", TIMING_CACHE.hit_rate)

    n = timing.n
    # Device end states: the reservations the last descriptor leaves behind.
    for bank, (open_row, ready_at) in zip(dram._banks, timing.final_banks):
        bank.open_row = open_row
        bank.ready_at = ready_at
    dram._bus_free_at = timing.final_bus_free
    dram.guard_until = timing.pipeline_end
    pool.issue_port_free_at = timing.final_issue_free
    monitor._write_port_free_at = timing.final_wp_free

    # Statistics, replayed in the exact accumulation order of the
    # event-driven path (observation lists are pre-ordered by the
    # compute step's ordering lemmas).
    requestor_stats = engine.requestor.stats
    bulk_add_repeated(requestor_stats.counter("descriptors"), n, 1.0)
    if timing.bursts is None:
        bulk_add_repeated(requestor_stats.counter("burst_beats"), n, timing.burst)
    else:
        bulk_add(requestor_stats.counter("burst_beats"), timing.bursts)
    bulk_observe(requestor_stats.histogram("credit_wait_ns"), timing.credit_waits)

    fetch_stats = pool.stats
    bulk_add_repeated(fetch_stats.counter("descriptors"), n, 1.0)
    bulk_add(fetch_stats.counter("bytes_fetched"), timing.read_bytes)
    if timing.widths is None:
        bulk_add_repeated(fetch_stats.counter("bytes_useful"), n, timing.col_width)
    else:
        bulk_add(fetch_stats.counter("bytes_useful"), timing.widths)
    bulk_observe(fetch_stats.histogram("dram_wait_ns"), timing.dram_waits)
    bulk_observe(fetch_stats.histogram("service_ns"), timing.service_obs)

    dram_stats = dram.stats
    if timing.row_hits:
        bulk_add_repeated(dram_stats.counter("row_hits"), timing.row_hits, 1.0)
    if timing.row_empty:
        bulk_add_repeated(dram_stats.counter("row_empty"), timing.row_empty, 1.0)
    if timing.row_misses:
        bulk_add_repeated(dram_stats.counter("row_misses"), timing.row_misses, 1.0)
    bulk_add_repeated(dram_stats.counter("requests_rme"), n, 1.0)
    bulk_add(dram_stats.counter("bytes_rme"), timing.read_bytes)
    bulk_add(dram_stats.counter("beats"), timing.beats)
    bulk_add(dram_stats.counter("service_ns"), timing.dram_service)
    bulk_observe(dram_stats.histogram("service_latency_ns"), timing.dram_service)

    monitor_stats = monitor.stats
    if timing.write_costs is not None:
        writes = len(timing.write_costs)
        bulk_add_repeated(monitor_stats.counter("writes"), writes, 1.0)
        bulk_add(monitor_stats.counter("write_port_busy_ns"), timing.write_costs)
        bulk_observe(monitor_stats.histogram("port_wait_ns"), timing.port_waits)
    elif mode == MODE_PROJECT:
        bulk_add_repeated(monitor_stats.counter("writes"), n, 1.0)
        bulk_add_repeated(
            monitor_stats.counter("write_port_busy_ns"), n, timing.write_cost
        )
        bulk_observe(monitor_stats.histogram("port_wait_ns"), timing.port_waits)

    memory = dram.memory
    if mode == MODE_PROJECT:
        _commit_projection(engine, timing, memory, buffer, monitor,
                           monitor_stats)
    elif mode == MODE_REDUCTION:
        _commit_reduction(engine, timing, memory, buffer, monitor, stats)
    else:
        _commit_rowfilter(engine, timing, buffer, monitor, monitor_stats,
                          stats)
    sim.schedule_at(timing.pipeline_end, _noop)


def _commit_projection(engine, timing, memory, buffer, monitor,
                       monitor_stats) -> None:
    """Fill the reorganization buffer and install the visibility schedule.

    Payload bytes are read fresh (content may differ between activations
    with identical timing signatures), then pushed through the real
    buffer accounting so write/line bookkeeping and capacity checks
    behave exactly as in the cycle-level path.
    """
    spans = timing.spans
    if spans:
        # One bulk read covering every span, sliced per descriptor into
        # the packed projection image, then installed in one store.
        blob_base = min(span[1] for span in spans)
        blob_end = 0
        valid = 0
        for span in spans:
            end = span[1] + span[2]
            if end > blob_end:
                blob_end = end
            valid += span[5]
        blob = memory.read(blob_base, blob_end - blob_base)
        image = bytearray(valid)
        for w_addr, r_addr, _read_bytes, lead_skip, _end, width in spans:
            start = (r_addr - blob_base) + lead_skip
            image[w_addr : w_addr + width] = blob[start : start + width]
        buffer.fill_fastforward(bytes(image))
        # The cycle-level path bumps the buffer's write counter once per
        # descriptor-sized store; replicate that bit-exactly.
        writes_counter = buffer.stats.counter("writes")
        if timing.widths is None:
            bulk_add_repeated(writes_counter, len(spans), float(timing.col_width))
        else:
            bulk_add(writes_counter, [span[5] for span in spans])
        bulk_add_repeated(
            monitor_stats.counter("lines_completed"),
            len(timing.line_schedule), 1.0,
        )
    # Lines become *visible* per this schedule; the drain marker keeps
    # ``sim.run()``'s final timestamp identical to the event-driven drain.
    monitor.install_fastforward(dict(timing.line_schedule), timing.pipeline_end)


def _commit_reduction(engine, timing, memory, buffer, monitor, stats) -> None:
    """Feed the PL accumulator and deposit the result register line(s).

    The timing record is content-independent; the accumulator is fed the
    freshly read row bytes here, in the exact order the fetch lanes
    would have delivered them.
    """
    accumulator = engine._pd_accumulator
    feeds = timing.feeds
    if feeds:
        blob_base = min(feed[0] for feed in feeds)
        blob_end = max(feed[0] + feed[1] for feed in feeds)
        blob = memory.read(blob_base, blob_end - blob_base)
        feed = accumulator.feed
        for r_addr, _read_bytes, lead_skip, width in feeds:
            start = (r_addr - blob_base) + lead_skip
            feed(blob[start : start + width])
    bulk_add_repeated(stats.counter("pd_rows_seen"), timing.n, 1.0)
    engine._pd_finalized = True
    payload = accumulator.register_payload()
    if payload:
        monitor.complete_now(0, payload)
    monitor.finalize(len(payload))
    stats.bump("pushdown_finalized")
    # Result lines become visible when the supervisor would have
    # finalised the stream — the last worker's retirement.
    schedule = {line_idx: timing.t_fin for line_idx in range(buffer.n_lines)}
    monitor.install_fastforward(schedule, timing.pipeline_end)


def _commit_rowfilter(engine, timing, buffer, monitor, monitor_stats,
                      stats) -> None:
    """Commit the matching rows and the end-of-stream truncation."""
    schedule: Dict[int, float] = {}
    lines_completed = monitor_stats.counter("lines_completed")
    for offset, row_bytes, end in timing.matches:
        for line_idx in buffer.write(offset, row_bytes):
            lines_completed.count += 1
            lines_completed.total += 1.0
            schedule[line_idx] = end
    bulk_add_repeated(stats.counter("pd_rows_seen"), timing.n, 1.0)
    engine._pd_next_row = timing.n
    engine._pd_cursor = timing.pd_cursor
    engine._pd_matches = timing.pd_matches
    engine._pd_finalized = True
    for line_idx in buffer.truncate(timing.pd_cursor):
        lines_completed.count += 1
        lines_completed.total += 1.0
        schedule[line_idx] = timing.t_fin
    stats.bump("pushdown_finalized")
    monitor.install_fastforward(schedule, timing.pipeline_end)
