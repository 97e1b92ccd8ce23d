"""Trace lowering: flatten a dynamic trace into parallel columns.

The dynamic instruction stream is fully known before timing starts
(the functional interpreter already ran), so — in the spirit of
ahead-of-time analyzers like OSACA — everything the timing model would
re-derive per uop can be computed **once per trace**:

* **columns** — per-entry scalars (`pc`, `op_width`, `mem_addr`, FU
  class index, slack-LUT/static-instruction index, ...) land in flat
  ``array('q')`` / ``bytearray`` columns instead of per-uop objects;
* **static dataflow** — an architectural-register RAT walk over the
  trace yields, for every entry, the exact producer seqs its dispatch
  rename would resolve (the RAT never rewinds: dispatch is
  trace-ordered), the youngest older overlapping store
  (``order_dep``), and the forward dependents list.

The lowering is *config-independent* (no mode/threshold/width-predictor
state leaks in) and memoized on the trace object, so one trace swept
over a cores × modes grid lowers exactly once.

Correctness notes (the equivalences the compiled backend relies on):

* producer filtering by "committed at dispatch time" stays dynamic —
  the static lists hold every producer, supersets are safe because all
  consumers gate on liveness at dispatch;
* a load's ``order_dep`` is the globally youngest older overlapping
  store; whenever the dynamic model would have found *no* in-flight
  store, this one is already committed and every use of it is a no-op
  (stores commit in order);
* ``dependents`` lists include not-yet-dispatched consumers; backends
  must gate notification/GP-candidacy on "already dispatched".
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import Cond, OpClass, Opcode
from repro.pipeline.trace import Trace
from repro.pipeline.uop import OPCLASS_INDEX

@dataclass
class LoweredTrace:
    """Flat-column view of one dynamic trace (see module docstring)."""

    trace: Trace
    n: int
    # -- per-dynamic-entry columns -------------------------------------
    pc: array
    next_pc: array
    op_width: array
    mem_addr: array          # -1 when the entry touches no memory
    mem_size: array
    cls_idx: array           # OPCLASS_INDEX of the FU class
    static_idx: array        # index into `instrs` (the slack-LUT index)
    taken: bytearray
    is_store: bytearray
    is_cond_branch: bytearray   # conditional B: the gshare-visible ops
    # -- static dataflow ------------------------------------------------
    producers: Tuple[Tuple[int, ...], ...]
    order_dep: array         # seq of the youngest older overlapping store
    dependents: Tuple[Tuple[int, ...], ...]
    # -- static instruction table --------------------------------------
    instrs: Tuple            # unique static instructions
    static_pcs: array        # pc of each static instruction

    def entry_tuple(self, i: int) -> tuple:
        """Round-trip view of entry *i* (tested against the Trace)."""
        return (self.instrs[self.static_idx[i]], self.pc[i],
                self.next_pc[i], bool(self.taken[i]), self.op_width[i],
                None if self.mem_addr[i] < 0 else self.mem_addr[i],
                self.mem_size[i], bool(self.is_store[i]),
                tuple(OPCLASS_INDEX)[self.cls_idx[i]])


def _static_io(instr, memo: Dict[int, tuple]) -> tuple:
    """(source regs, dest regs) of a static instruction, memoized."""
    io = memo.get(id(instr))
    if io is None:
        io = memo[id(instr)] = (tuple(instr.sources()),
                                tuple(instr.dests()))
    return io


def lower_trace(trace: Trace) -> LoweredTrace:
    """Lower *trace*; memoized on the trace object."""
    cached = getattr(trace, "_lowered", None)
    if cached is not None:
        return cached

    entries = trace.entries
    n = len(entries)
    col_pc = array("q", bytes(8 * n))
    col_next_pc = array("q", bytes(8 * n))
    col_width = array("q", bytes(8 * n))
    col_addr = array("q", bytes(8 * n))
    col_size = array("q", bytes(8 * n))
    col_cls = array("q", bytes(8 * n))
    col_static = array("q", bytes(8 * n))
    col_taken = bytearray(n)
    col_store = bytearray(n)
    col_condbr = bytearray(n)
    col_order = array("q", bytes(8 * n))

    instrs: List = []
    static_pcs = array("q")
    static_of_pc: Dict[int, int] = {}
    io_memo: Dict[int, tuple] = {}

    producers: List[Tuple[int, ...]] = []
    dependents: List[List[int]] = [[] for _ in range(n)]
    rat: Dict = {}
    last_store_at: Dict[int, int] = {}

    for i, entry in enumerate(entries):
        instr = entry.instr
        pc = entry.pc
        sidx = static_of_pc.get(pc)
        if sidx is None:
            sidx = static_of_pc[pc] = len(instrs)
            instrs.append(instr)
            static_pcs.append(pc)
        col_pc[i] = pc
        col_next_pc[i] = entry.next_pc
        col_width[i] = entry.op_width
        col_addr[i] = -1 if entry.mem_addr is None else entry.mem_addr
        col_size[i] = entry.mem_size or 0
        col_cls[i] = OPCLASS_INDEX[entry.cls]
        col_static[i] = sidx
        col_taken[i] = 1 if entry.taken else 0
        col_store[i] = 1 if entry.is_store else 0
        col_condbr[i] = 1 if (entry.cls is OpClass.BRANCH
                              and instr.op is Opcode.B
                              and instr.cond is not Cond.AL) else 0

        # rename: the last trace-order writer of each source register
        src_regs, dst_regs = _static_io(instr, io_memo)
        srcs: List[int] = []
        for reg in src_regs:
            p = rat.get(reg)
            if p is not None and p not in srcs:
                srcs.append(p)
        producers.append(tuple(srcs))
        for p in srcs:
            dependents[p].append(i)

        # memory disambiguation: youngest older overlapping store
        order = -1
        cls = entry.cls
        if cls is OpClass.LOAD and entry.mem_addr is not None:
            lo = entry.mem_addr
            for b in range(lo, lo + (entry.mem_size or 0)):
                s = last_store_at.get(b, -1)
                if s > order:
                    order = s
        col_order[i] = order
        if order >= 0 and order not in srcs:
            dependents[order].append(i)
        if entry.is_store and entry.mem_addr is not None:
            lo = entry.mem_addr
            for b in range(lo, lo + (entry.mem_size or 0)):
                last_store_at[b] = i
        for reg in dst_regs:
            rat[reg] = i

    lowered = LoweredTrace(
        trace=trace, n=n,
        pc=col_pc, next_pc=col_next_pc, op_width=col_width,
        mem_addr=col_addr, mem_size=col_size, cls_idx=col_cls,
        static_idx=col_static, taken=col_taken, is_store=col_store,
        is_cond_branch=col_condbr,
        producers=tuple(producers), order_dep=col_order,
        dependents=tuple(tuple(d) for d in dependents),
        instrs=tuple(instrs), static_pcs=static_pcs)
    try:
        trace._lowered = lowered
    except AttributeError:
        pass          # Trace without __dict__: lowering stays uncached
    return lowered


#: modules whose source participates in compiled-result cache keys
_LOWERING_SOURCES = ("lower.py", "compiled.py",
                     "../pipeline/codegen.py")
_digest_memo: Optional[str] = None


def lowering_digest() -> str:
    """Digest of the lowering + compiled-backend source.

    Folded into campaign cache keys so that editing the compiled
    backend can never serve a stale cached result (the engine name
    alone would not catch a bug fix inside the same engine).
    """
    global _digest_memo
    if _digest_memo is None:
        h = hashlib.sha256()
        here = Path(__file__).parent
        for name in _LOWERING_SOURCES:
            path = here / name
            if path.is_file():
                h.update(name.encode())
                h.update(path.read_bytes())
        _digest_memo = h.hexdigest()[:16]
    return _digest_memo


__all__ = ["LoweredTrace", "lower_trace", "lowering_digest"]
