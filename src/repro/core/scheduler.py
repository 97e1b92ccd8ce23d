"""Slack-aware wakeup machinery (Sec. IV).

This module holds the scheduler-side building blocks the core simulator
drives each cycle:

* :func:`consumer_avail_tick` / :func:`wake_cycle` — when a producer's
  tag broadcast wakes a consumer, and when the consumer's operand is
  actually usable (transparent CI vs synchronous latching edge);
* :class:`ReadyQueues` — wakeup bookkeeping: consumers become
  select-eligible when their *watched* tags have broadcast (all sources
  in the Illustrative design / baseline; only the predicted-last parent
  in the Operational design);
* :class:`GPCandidate` collection — Eager Grandparent Wakeup: children
  that may issue *in the same cycle as their parent* to catch its slack
  (Sec. IV-B), subject to the slack-threshold condition (Sec. IV-C
  step 10) and, under MOS, the single-cycle fit condition.

Selection itself (oldest-first, skewed) lives in
:mod:`repro.core.select`.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.isa.opcodes import OpClass
from repro.obs.events import Event, EventKind
from repro.pipeline.uop import OPCLASS_INDEX, Uop, UopState

from .config import RecycleMode
from .ticks import TickBase


def consumer_avail_tick(producer: Uop, consumer: Uop) -> int:
    """The tick at which *consumer* can use *producer*'s value.

    Transparent producer → transparent consumer rides the open-FF bypass
    and sees the value at the producer's completion instant; any
    synchronous endpoint waits for the next clock edge, where the FF
    turns opaque and latches (Sec. III).
    """
    if producer.transparent and consumer.transparent:
        return producer.avail_tick
    return producer.sync_avail


def wake_cycle(producer: Uop, consumer: Uop, base: TickBase) -> int:
    """Earliest cycle *consumer* may issue once *producer* has issued.

    Tag broadcast happens in the producer's issue cycle, so the consumer
    can issue no earlier than ``issue + 1``; producers with longer
    latencies broadcast later so the consumer arrives at its execution
    stage just as the value becomes usable.  The consumer needs the
    operand ``latency_cycles`` after issue (1 for ALU ops; the
    accumulate stage of a VMLA comes ``simd_multicycle_latency`` later,
    which is what makes back-to-back accumulate chains run at one per
    cycle — the late-forwarding behaviour of Sec. V).
    """
    avail = consumer_avail_tick(producer, consumer)
    return max(producer.issue_cycle + 1,
               base.cycle_of(avail) - consumer.latency_cycles)


class ReadyQueues:
    """Wakeup + pending-request state for the select stage.

    Consumers whose watched tags have all broadcast are *scheduled* to
    wake at their computed wake cycle; each simulated cycle the core
    drains that cycle's wakeups into per-FU-class pending queues, kept
    in age (sequence-number) order for oldest-first selection.

    The structure is indexed for the per-cycle hot loop:

    * wake buckets live in a ``cycle -> [uops]`` map with a min-heap of
      bucket cycles, so :meth:`advance_to` touches only due buckets;
    * per-class pending queues are seq-sorted lists addressed by the
      uop's :data:`~repro.pipeline.uop.OPCLASS_INDEX` (no enum hashing),
      and :meth:`remove` is an O(1) tombstone (``uop.in_ready`` flips
      off; the slot is compacted lazily) instead of a list ``pop``;
    * a uop is never queued twice: re-waking a tombstoned entry
      resurrects its existing slot, which also makes duplicate
      ``schedule_wake`` calls harmless.
    """

    __slots__ = ("_wake_at", "_wake_heap", "_queues", "_seqs", "_dead",
                 "live_total", "obs")

    def __init__(self) -> None:
        n_classes = len(OPCLASS_INDEX)
        self._wake_at: Dict[int, List[Uop]] = {}
        self._wake_heap: List[int] = []
        self._queues: List[List[Uop]] = [[] for _ in range(n_classes)]
        self._seqs: List[List[int]] = [[] for _ in range(n_classes)]
        self._dead: List[int] = [0] * n_classes
        #: live (selectable) entries across every class — the hot loop's
        #: "is there anything to select?" check
        self.live_total = 0
        #: event sink (attached by the simulator on traced runs)
        self.obs = None

    def schedule_wake(self, uop: Uop, cycle: int) -> None:
        bucket = self._wake_at.get(cycle)
        if bucket is None:
            self._wake_at[cycle] = [uop]
            heappush(self._wake_heap, cycle)
        else:
            bucket.append(uop)

    def advance_to(self, cycle: int) -> None:
        """Drain wakeups due at or before *cycle* into the queues."""
        heap = self._wake_heap
        if not heap or heap[0] > cycle:
            return
        obs = self.obs
        wake_at = self._wake_at
        while heap and heap[0] <= cycle:
            for uop in wake_at.pop(heappop(heap)):
                if uop.state is not UopState.DISPATCHED or uop.in_ready:
                    continue
                if obs is not None:
                    obs.emit(Event(EventKind.WAKEUP, cycle, uop.seq,
                                   {"fu": uop.fu_class.value}))
                idx = uop.cls_idx
                seqs = self._seqs[idx]
                pos = bisect_left(seqs, uop.seq)
                if pos < len(seqs) and seqs[pos] == uop.seq:
                    # resurrect this uop's tombstoned slot (seqs are
                    # unique, so an equal seq is the same uop)
                    self._dead[idx] -= 1
                else:
                    seqs.insert(pos, uop.seq)
                    self._queues[idx].insert(pos, uop)
                uop.in_ready = True
                self.live_total += 1

    def lane(self, idx: int) -> List[Uop]:
        """The class-*idx* queue list for the simulator's select lanes.

        Returned by reference (compaction mutates it in place, so the
        simulator may prebuild lane tuples once and keep them); iterate
        it skipping entries whose ``in_ready`` flag is off.  Compaction
        is amortised: tombstones are reclaimed once enough accumulate.
        """
        if self._dead[idx] > 8:
            self._compact(idx)
        return self._queues[idx]

    def _compact(self, idx: int) -> None:
        queue = self._queues[idx]
        live = [u for u in queue
                if u.in_ready and u.state is UopState.DISPATCHED]
        queue[:] = live
        self._seqs[idx][:] = [u.seq for u in live]
        self._dead[idx] = 0

    def pending(self, op_class: OpClass) -> List[Uop]:
        """Live pending requests, oldest first (lazily pruned)."""
        idx = OPCLASS_INDEX[op_class]
        queue = self._queues[idx]
        for uop in queue:
            if not (uop.in_ready and uop.state is UopState.DISPATCHED):
                self._compact(idx)
                break
        return list(queue)

    def remove(self, uop: Uop) -> None:
        if not uop.in_ready:
            return
        uop.in_ready = False
        self._dead[uop.cls_idx] += 1
        self.live_total -= 1

    def has_any_pending(self) -> bool:
        return any(u.in_ready and u.state is UopState.DISPATCHED
                   for queue in self._queues for u in queue)


def eager_issue_allowed(parent: Uop, child: Uop, *, mode: RecycleMode,
                        threshold: int, base: TickBase) -> bool:
    """May *child* issue in *parent*'s issue cycle (EGPW grant check)?

    Checks the paper's step-10 conditions against the parent timing
    resolved earlier this cycle:

    a. recycling is enabled (REDSOC or MOS fusion),
    b. the parent completes inside its arrival cycle (no extra-cycle
       hold — otherwise a conventional next-cycle wakeup already catches
       the slack) with a completion instant within the slack threshold,
    c. (MOS only) the child's execution must also fit before the same
       clock edge — MOS has no transparent boundary crossing.

    The FU-availability and other-source checks are the caller's job.
    """
    if mode is RecycleMode.BASELINE:
        return False
    if not (parent.transparent and child.transparent):
        return False
    arrival_end = base.cycle_start(base.cycle_of(parent.start_tick) + 1)
    if parent.end_tick >= arrival_end:
        # the parent either crosses the edge (a conventional next-cycle
        # wakeup already catches its CI) or ends exactly on it (no slack)
        return False
    ci = parent.end_tick % base.ticks_per_cycle
    if mode is RecycleMode.MOS:
        return parent.end_tick + child.ex_ticks <= arrival_end
    return ci <= threshold


def other_sources_ready(child: Uop, *, arrival_cycle: int,
                        base: TickBase) -> bool:
    """All of *child*'s sources issued & usable within its arrival cycle.

    Used to validate a speculative (GP-woken) issue before granting —
    with skewed global arbitration this check is what keeps
    GP-mispeculation at zero (Sec. IV-D).
    """
    deadline = base.cycle_start(arrival_cycle + 1)
    for src in child.sources:
        if src is None or src.state is UopState.COMMITTED:
            continue
        if src.issue_cycle is None:
            return False
        if consumer_avail_tick(src, child) >= deadline:
            return False
    return True


def last_source_avail(child: Uop, base: TickBase) -> int:
    """Max availability tick over all live sources (the MAX logic)."""
    avail = 0
    for src in child.sources:
        if src is None or src.state is UopState.COMMITTED:
            continue
        avail = max(avail, consumer_avail_tick(src, child))
    return avail


def unissued_sources(child: Uop) -> List[Uop]:
    return [src for src in child.sources
            if src is not None and src.state is not UopState.COMMITTED
            and src.issue_cycle is None]


def constraining_parent(child: Uop, start_tick: int) -> Optional[Uop]:
    """The transparent source whose CI equals the child's start tick.

    This identifies the producer whose slack the child recycled — used
    for transparent-sequence chaining (Fig. 11).
    """
    for src in child.sources:
        if (src is not None and src.transparent and child.transparent
                and src.avail_tick == start_tick):
            return src
    return None
