"""Dynamic-trace generation: the functional-first half of the simulator.

The timing simulator is *trace-driven*: the program is first executed
functionally, recording one :class:`TraceEntry` per dynamic instruction
(opcode, register dataflow, actual operand width, memory address, branch
outcome).  The cycle-level model then replays this trace through the
pipeline structures.

This methodology is exact for ReDSOC because slack recycling is a pure
*timing* mechanism — it never changes architectural results (the paper's
design is timing non-speculative).  Branch and width mispredictions are
still modelled faithfully: the predictors run against the recorded
outcomes and their penalties are charged in the timing model; only
wrong-path *fetch bandwidth* is approximated by the redirect penalty.

Generation is tiered.  A basic block is interpreted one instruction at
a time through :func:`execute` until its :data:`HOT_THRESHOLD`-th
execution; from then on it runs as a step function compiled by
:mod:`repro.pipeline.codegen`.  Compiling a block costs ~80–140 µs per
static instruction and saves ~9–11 µs per dynamic one, so a block pays
for itself after 8–15 runs: straight-line code and short loops
stay interpreted, long-running loop bodies are compiled.  Both tiers
produce bit-identical entries and state, and both honour
``max_instructions`` exactly: a hot block that would cross the cap is
interpreted instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import Reg, RegisterFile
from repro.isa.semantics import execute

from .codegen import block_ends, compile_block

#: a block's first ``HOT_THRESHOLD - 1`` executions are interpreted and
#: it is compiled for the next one; 16 generated the serve and campaign
#: benchmark programs fastest among 1–24 (EXPERIMENTS.md)
HOT_THRESHOLD = 16


@dataclass
class TraceEntry:
    """One dynamic instruction with its functional outcome."""

    __slots__ = ("instr", "pc", "next_pc", "taken", "op_width", "mem_addr",
                 "mem_size", "is_store", "cls")

    instr: Instruction
    pc: int
    next_pc: int
    taken: bool
    op_width: int
    mem_addr: Optional[int]
    mem_size: int
    is_store: bool

    def __post_init__(self) -> None:
        # not a field: the op class is derived, cached per entry so the
        # fetch/dispatch hot paths read a slot instead of a property
        self.cls = self.instr.cls


@dataclass
class Trace:
    """A complete dynamic trace plus the final architectural state."""

    name: str
    entries: List[TraceEntry]
    final_regs: Dict
    final_mem: Dict

    def __len__(self) -> int:
        return len(self.entries)

    def arch_state(self) -> Dict:
        return {"regs": self.final_regs, "mem": self.final_mem}


def generate_trace(program: Program, *,
                   init_regs: Optional[Dict[Reg, int]] = None,
                   max_instructions: int = 5_000_000) -> Trace:
    """Functionally execute *program* and record its dynamic trace."""
    return _generate(program, init_regs, max_instructions, HOT_THRESHOLD)


def generate_trace_compiled(
        program: Program, *,
        init_regs: Optional[Dict[Reg, int]] = None,
        max_instructions: int = 5_000_000) -> Trace:
    """:func:`generate_trace` with every block compiled on its first
    execution: the differential oracle's codegen-only leg."""
    return _generate(program, init_regs, max_instructions, 1)


def _generate(program: Program, init_regs: Optional[Dict[Reg, int]],
              max_instructions: int, hot_threshold: int) -> Trace:
    program.validate()
    regs = RegisterFile()
    for reg, value in (init_regs or {}).items():
        regs.write(reg, value)
    mem = program.build_memory()
    entries: List[TraceEntry] = []
    append = entries.append
    write_reg = regs.write
    write_mem = mem.write
    # this module's binding, read per run: repro.verify.defects patches it
    ex = execute
    # globals of the compiled blocks: the run's mutable state
    ns: Dict[str, object] = {
        "I": regs._int, "B": mem._bytes, "Bg": mem._bytes.get,
        "ap": append, "TE": TraceEntry, "regs": regs, "mem": mem,
        "ex": ex, "wr": write_reg, "mw": write_mem,
    }
    instrs = program.instructions
    ends = block_ends(program)
    heat: Dict[int, int] = {}
    #: hot leader pc -> (step function, block length)
    table: Dict[int, Tuple[Callable, int]] = {}

    pc = program.entry
    F = regs._flags
    count = 0
    while True:
        step = table.get(pc)
        if step is None and pc in ends:
            runs = heat[pc] = heat.get(pc, 0) + 1
            if runs >= hot_threshold:
                end = ends[pc]
                step = table[pc] = (compile_block(instrs, pc, end, ns),
                                    end - pc)
        if step is not None and count + step[1] <= max_instructions:
            pc, F = step[0](F)
            count += step[1]
            if pc < 0:
                break
            continue
        # cold tier: interpret one instruction
        if count >= max_instructions:
            raise RuntimeError(
                f"{program.name!r} exceeded {max_instructions} "
                "instructions")
        instr = instrs[pc]
        regs._flags = F
        result = ex(instr, regs, mem, pc)
        append(TraceEntry(instr, pc, result.next_pc, result.taken,
                          result.op_width, result.mem_addr,
                          result.mem_size, result.is_store))
        count += 1
        for reg, value in result.writes.items():
            write_reg(reg, value)
        if result.is_store:
            write_mem(result.mem_addr, result.store_value, result.mem_size)
        F = regs._flags
        if result.halted:
            break
        pc = result.next_pc
    regs._flags = F
    return Trace(name=program.name, entries=entries,
                 final_regs=regs.snapshot(), final_mem=mem.snapshot())
