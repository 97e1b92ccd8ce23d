"""Trace-generation codegen: basic blocks as specialized step functions.

:func:`repro.isa.semantics.execute` interprets one instruction at a time
through a generic dispatch — an :class:`ExecResult` allocation, a dict
of register writes and a chain of opcode tests per dynamic instruction.
This module lowers a static basic block (a straight-line run ended by a
branch or ``HALT``, at most :data:`MAX_BLOCK_LEN` long) instead: the
block becomes one Python step function whose body inlines the semantics
of its instructions — register indices, immediates, shift amounts and
effective widths of constants are baked in as literals, and the function
appends finished :class:`~repro.pipeline.trace.TraceEntry` records
directly.  The tiered generator in :mod:`repro.pipeline.trace` calls
``pc, flags = step(flags)`` once a block is hot.

Fidelity contract: a block's entries and state updates are
**bit-identical** to interpreting it.  Ops without a specialized
template (SIMD, vector memory, register-amount shifts) call the
interpreter *inside* the generated block, so a block is never rejected;
its exotic instructions just run at interpreter speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, OpClass, Opcode, ShiftOp
from repro.isa.program import Program
from repro.isa.registers import RegClass, WORD_MASK
from repro.isa.semantics import effective_width

_M = WORD_MASK          # 0xFFFFFFFF, emitted as a literal

#: opcodes with a specialized template; everything else (SIMD, vector
#: load/store) takes the in-block interpreter fallback
_ALU_LOGICAL = {Opcode.AND, Opcode.ORR, Opcode.EOR, Opcode.BIC,
                Opcode.MVN, Opcode.MOV, Opcode.TST, Opcode.TEQ}
_ALU_ARITH = {Opcode.ADD, Opcode.SUB, Opcode.RSB, Opcode.ADC,
              Opcode.SBC, Opcode.RSC, Opcode.CMP, Opcode.CMN}
_SHIFTS = {Opcode.LSL: ShiftOp.LSL, Opcode.LSR: ShiftOp.LSR,
           Opcode.ASR: ShiftOp.ASR, Opcode.ROR: ShiftOp.ROR}
_FLAG_FREE_DESTS = {Opcode.TST, Opcode.TEQ, Opcode.CMP, Opcode.CMN}

#: branch condition → bool expression over the packed NZCV nibble ``F``
#: (N:3, Z:2, C:1, V:0); ``None`` marks the unconditional case
_COND_EXPR = {
    Cond.AL: None,
    Cond.EQ: "(F & 4) != 0",
    Cond.NE: "(F & 4) == 0",
    Cond.LT: "(((F >> 3) ^ F) & 1) != 0",
    Cond.GE: "(((F >> 3) ^ F) & 1) == 0",
    Cond.GT: "(F & 4) == 0 and (((F >> 3) ^ F) & 1) == 0",
    Cond.LE: "(F & 4) != 0 or (((F >> 3) ^ F) & 1) != 0",
    Cond.CS: "(F & 2) != 0",
    Cond.CC: "(F & 2) == 0",
    Cond.MI: "(F & 8) != 0",
    Cond.PL: "(F & 8) == 0",
}


def _uses_vector_regs(instr: Instruction) -> bool:
    return any(reg is not None and reg.cls is not RegClass.INT
               for reg in (instr.rd, instr.rn, instr.rm, instr.ra,
                           instr.rs))


def _inline_supported(instr: Instruction) -> bool:
    """Can *instr* be specialized, or does it need the interpreter?"""
    op = instr.op
    if op in (Opcode.NOP, Opcode.HALT):
        return True
    if _uses_vector_regs(instr):
        return False
    if op in (Opcode.B, Opcode.BL):
        return isinstance(instr.target, int)
    if op in _SHIFTS:
        return instr.rm is None      # register-amount shifts fall back
    if op is Opcode.RRX:
        return False                 # standalone RRX is rare; fall back
    if op in _ALU_LOGICAL or op in _ALU_ARITH:
        return True
    if op in (Opcode.MUL, Opcode.MLA, Opcode.SDIV, Opcode.UDIV):
        return True
    if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
        return True
    if op in (Opcode.LDR, Opcode.LDRB):
        return True
    if op in (Opcode.STR, Opcode.STRB):
        return instr.rs is not None
    return False


def _ew(v: int, floor: int) -> int:
    """Effective width of the masked word *v*, at least ``floor + 1``.

    A call rather than an inline expression: SPEC-like blocks compile
    ~30% faster, and the compiled code runs within ~10% of the inline
    form's speed.
    """
    bl = ((v ^ 4294967295) if v & 2147483648 else v).bit_length()
    return (bl if bl > floor else floor) + 1


def _ew2(a: int, b: int) -> int:
    """The wider effective width of the masked words *a* and *b*."""
    wa = ((a ^ 4294967295) if a & 2147483648 else a).bit_length()
    wb = ((b ^ 4294967295) if b & 2147483648 else b).bit_length()
    return (wa if wa > wb else wb) + 1


#: helpers the generated code calls, bound into every block
_HELPERS = {"W": _ew, "W2": _ew2}


def _signed_expr(name: str) -> str:
    return f"(({name} - 4294967296) if {name} & 2147483648 else {name})"


def _fold_shift(raw: int, shift: ShiftOp, amount: int) -> Tuple[int, str]:
    """Constant-fold a shift whose carry does not depend on carry-in."""
    from repro.isa.semantics import _apply_shift

    value, carry = _apply_shift(raw, shift, amount, False)
    return value, ("True" if carry else "False")


def _emit_shift(lines: List[str], raw: str, shift: ShiftOp,
                amount: int) -> Tuple[str, str]:
    """Emit code computing ``_apply_shift(raw, shift, amount, C)``.

    *raw* is a temp holding a masked 32-bit value; *amount* is the
    compile-time shift amount.  Returns ``(value_expr, carry_expr)``.
    """
    amount &= 0xFF
    if shift is ShiftOp.NONE or (amount == 0 and shift is not ShiftOp.RRX):
        return raw, "(F >> 1) & 1"
    if shift is ShiftOp.LSL:
        if amount >= 33:
            return "0", "False"
        return (f"(({raw} << {amount}) & 4294967295)",
                f"(({raw} << {amount}) >> 32) & 1")
    if shift is ShiftOp.LSR:
        if amount > 32:
            return "0", "False"
        return (f"({raw} >> {amount})",
                f"({raw} >> {amount - 1}) & 1")
    if shift is ShiftOp.ASR:
        amount = min(amount, 32)
        lines.append(f"    _s = {_signed_expr(raw)}")
        return (f"((_s >> {amount}) & 4294967295)",
                f"(_s >> {amount - 1}) & 1")
    if shift is ShiftOp.ROR:
        amount %= 32
        if amount == 0:
            return raw, f"{raw} >> 31"
        lines.append(f"    _s = (({raw} >> {amount}) | "
                     f"({raw} << {32 - amount})) & 4294967295")
        return "_s", "_s >> 31"
    # RRX: rotate right through carry by one
    return (f"(({raw} >> 1) | (((F >> 1) & 1) << 31))",
            f"{raw} & 1")


@dataclass
class _Op2:
    """The evaluated flexible second operand of one static instruction."""

    value: str      # expression for the post-shift masked value
    carry: str      # shifter carry-out expression (flag updates only)
    raw_bl: Optional[int]   # bit_length of a constant raw operand ...
    raw: Optional[str]      # ... or the temp holding the raw register


def _emit_operand2(lines: List[str], instr: Instruction) -> _Op2:
    if instr.rm is not None:
        lines.append(f"    _p = I[{instr.rm.index}]")
        value, carry = _emit_shift(lines, "_p", instr.shift,
                                   instr.shift_amt)
        return _Op2(value=value, carry=carry, raw_bl=None, raw="_p")
    raw = (instr.imm or 0) & _M
    raw_bl = effective_width(raw) - 1
    shift, amount = instr.shift, instr.shift_amt & 0xFF
    if shift is ShiftOp.NONE or (amount == 0 and shift is not ShiftOp.RRX):
        return _Op2(value=str(raw), carry="(F >> 1) & 1",
                    raw_bl=raw_bl, raw=None)
    if shift is ShiftOp.RRX:
        value, carry = _emit_shift(lines, str(raw), shift, amount)
        return _Op2(value=value, carry=carry, raw_bl=raw_bl, raw=None)
    value, carry = _fold_shift(raw, shift, amount)
    return _Op2(value=str(value), carry=carry, raw_bl=raw_bl, raw=None)


def _width_max_expr(rn_temp: Optional[str], op2: _Op2) -> str:
    """Expression for ``max(ew(rn), ew(raw op2))`` per the interpreter."""
    if rn_temp is None:
        if op2.raw is None:
            return str(op2.raw_bl + 1)
        return f"W({op2.raw}, 0)"
    if op2.raw is None:
        return f"W({rn_temp}, {op2.raw_bl})"
    return f"W2({rn_temp}, {op2.raw})"


def _entry(pc: int, next_pc, taken: str, width: str, mem_addr: str,
           mem_size: int, is_store: str) -> str:
    return (f"    ap(TE(i{pc}, {pc}, {next_pc}, {taken}, {width}, "
            f"{mem_addr}, {mem_size}, {is_store}))")


def _logical_F(result: str, carry: str) -> str:
    return (f"    F = (({result} >> 31) << 3) | (0 if {result} else 4) "
            f"| (2 if {carry} else 0) | (F & 1)")


def _emit_result(lines: List[str], instr: Instruction, pc: int,
                 width: str, value: str) -> None:
    """Record the entry, then write *value* to ``rd`` unless the op
    only sets flags; leaves the result in ``_r`` when flags need it."""
    flags = instr.set_flags or instr.op in _FLAG_FREE_DESTS
    if flags:
        lines.append(f"    _r = {value}")
        value = "_r"
    lines.append(_entry(pc, pc + 1, "False", width, "None", 0, "False"))
    if instr.op not in _FLAG_FREE_DESTS:
        lines.append(f"    I[{instr.rd.index}] = {value}")


def _emit_alu(lines: List[str], instr: Instruction, pc: int) -> None:
    op = instr.op
    if instr.rn is not None:
        lines.append(f"    _a = I[{instr.rn.index}]")
        rn_temp = "_a"
    else:
        # rn reads as zero in the interpreter; width ignores it
        if op not in (Opcode.MOV, Opcode.MVN):
            lines.append("    _a = 0")
        rn_temp = None

    if op in _SHIFTS:
        # standalone shift with an immediate amount
        value, carry = _emit_shift(lines, "_a", _SHIFTS[op],
                                   instr.imm or 0)
        _emit_result(lines, instr, pc, "W(_a, 0)", value)
        if instr.set_flags:
            lines.append(_logical_F("_r", carry))
        return

    op2 = _emit_operand2(lines, instr)
    width = _width_max_expr(rn_temp, op2)

    if op in _ALU_LOGICAL:
        expr = {
            Opcode.AND: f"_a & {op2.value}", Opcode.TST: f"_a & {op2.value}",
            Opcode.ORR: f"_a | {op2.value}",
            Opcode.EOR: f"_a ^ {op2.value}", Opcode.TEQ: f"_a ^ {op2.value}",
            Opcode.BIC: f"_a & ({op2.value} ^ 4294967295)",
            Opcode.MVN: f"{op2.value} ^ 4294967295",
            Opcode.MOV: f"{op2.value}",
        }[op]
        _emit_result(lines, instr, pc, width, expr)
        if instr.set_flags or op in (Opcode.TST, Opcode.TEQ):
            lines.append(_logical_F("_r", op2.carry))
        return

    # arithmetic group: everything is an add of (x, y, cin)
    cin = {Opcode.ADD: "0", Opcode.CMN: "0", Opcode.SUB: "1",
           Opcode.CMP: "1", Opcode.RSB: "1",
           Opcode.ADC: "((F >> 1) & 1)", Opcode.SBC: "((F >> 1) & 1)",
           Opcode.RSC: "((F >> 1) & 1)"}[op]
    if op in (Opcode.ADD, Opcode.CMN, Opcode.ADC):
        x, y = "_a", op2.value
    elif op in (Opcode.SUB, Opcode.CMP, Opcode.SBC):
        x, y = "_a", f"({op2.value}) ^ 4294967295"
    else:   # RSB / RSC: op2 - rn
        x, y = f"({op2.value})", "_a ^ 4294967295"
    if not (instr.set_flags or op in (Opcode.CMP, Opcode.CMN)):
        carry = "" if cin == "0" else f" + {cin}"
        _emit_result(lines, instr, pc, width,
                     f"(({x}) + ({y}){carry}) & 4294967295")
        return
    lines.append(f"    _x = {x}")
    lines.append(f"    _y = {y}")
    lines.append(f"    _u = _x + _y + {cin}")
    lines.append("    _r = _u & 4294967295")
    lines.append(_entry(pc, pc + 1, "False", width, "None", 0, "False"))
    if op not in _FLAG_FREE_DESTS:
        lines.append(f"    I[{instr.rd.index}] = _r")
    if instr.set_flags or op in (Opcode.CMP, Opcode.CMN):
        lines.append(f"    _sv = {_signed_expr('_x')} + "
                     f"{_signed_expr('_y')} + {cin}")
        lines.append(
            "    F = ((_r >> 31) << 3) | (0 if _r else 4) "
            "| (2 if _u > 4294967295 else 0) "
            "| (0 if -2147483648 <= _sv < 2147483648 else 1)")


def _emit_muldiv(lines: List[str], instr: Instruction, pc: int) -> None:
    lines.append(f"    _a = I[{instr.rn.index}]")
    lines.append(f"    _b = I[{instr.rm.index}]")
    op = instr.op
    if op is Opcode.MUL:
        value = "(_a * _b) & 4294967295"
    elif op is Opcode.MLA:
        value = f"(_a * _b + I[{instr.ra.index}]) & 4294967295"
    elif op is Opcode.UDIV:
        value = "(_a // _b) & 4294967295 if _b else 0"
    else:   # SDIV truncates toward zero via float division, like the
        # interpreter — replicated expression-for-expression
        lines.append(f"    _sa = {_signed_expr('_a')}")
        lines.append(f"    _sb = {_signed_expr('_b')}")
        value = "(int(_sa / _sb) if _sb else 0) & 4294967295"
    _emit_result(lines, instr, pc, "W2(_a, _b)", value)


def _emit_fp(lines: List[str], instr: Instruction, pc: int) -> None:
    lines.append(f"    _a = I[{instr.rn.index}]")
    lines.append(f"    _b = I[{instr.rm.index}]")
    lines.append(f"    _fa = {_signed_expr('_a')} / 65536.0")
    lines.append(f"    _fb = {_signed_expr('_b')} / 65536.0")
    expr = {Opcode.FADD: "_fa + _fb", Opcode.FSUB: "_fa - _fb",
            Opcode.FMUL: "_fa * _fb",
            Opcode.FDIV: "(_fa / _fb if _fb else 0.0)"}[instr.op]
    _emit_result(lines, instr, pc, "32",
                 f"int(({expr}) * 65536.0) & 4294967295")


def _emit_addr(lines: List[str], instr: Instruction) -> None:
    parts = []
    if instr.rn is not None:
        parts.append(f"I[{instr.rn.index}]")
    if instr.rm is not None:
        parts.append(f"I[{instr.rm.index}] * {instr.scale}"
                     if instr.scale != 1 else f"I[{instr.rm.index}]")
    if instr.imm:
        parts.append(str(instr.imm))
    expr = " + ".join(parts) or "0"
    lines.append(f"    _ad = ({expr}) & 4294967295")


def _emit_mem(lines: List[str], instr: Instruction, pc: int) -> None:
    op = instr.op
    _emit_addr(lines, instr)
    if op is Opcode.LDR:
        lines.append("    _v = Bg(_ad, 0) | (Bg(_ad + 1, 0) << 8) | "
                     "(Bg(_ad + 2, 0) << 16) | (Bg(_ad + 3, 0) << 24)")
        lines.append(_entry(pc, pc + 1, "False", "W(_v, 0)",
                            "_ad", 4, "False"))
        lines.append(f"    I[{instr.rd.index}] = _v")
    elif op is Opcode.LDRB:
        lines.append("    _v = Bg(_ad, 0)")
        lines.append(_entry(pc, pc + 1, "False", "W(_v, 0)",
                            "_ad", 1, "False"))
        lines.append(f"    I[{instr.rd.index}] = _v")
    elif op is Opcode.STR:
        lines.append(f"    _sv = I[{instr.rs.index}]")
        lines.append(_entry(pc, pc + 1, "False", "32", "_ad", 4, "True"))
        lines.append("    B[_ad] = _sv & 255")
        lines.append("    B[_ad + 1] = (_sv >> 8) & 255")
        lines.append("    B[_ad + 2] = (_sv >> 16) & 255")
        lines.append("    B[_ad + 3] = (_sv >> 24) & 255")
    else:   # STRB
        lines.append(_entry(pc, pc + 1, "False", "32", "_ad", 1, "True"))
        lines.append(f"    B[_ad] = I[{instr.rs.index}] & 255")


def _emit_branch(lines: List[str], instr: Instruction, pc: int) -> None:
    target = instr.target
    link = (f"    I[{instr.rd.index}] = {(pc + 1) & _M}"
            if instr.op is Opcode.BL and instr.rd is not None else None)
    cond = _COND_EXPR[instr.cond]
    if cond is None:
        lines.append(_entry(pc, target, "True", "32", "None", 0, "False"))
        if link:
            lines.append(link)
        lines.append(f"    return {target}, F")
        return
    lines.append(f"    if {cond}:")
    lines.append("    " + _entry(pc, target, "True", "32", "None", 0,
                                 "False"))
    if link:
        lines.append("    " + link)
    lines.append(f"        return {target}, F")
    lines.append(_entry(pc, pc + 1, "False", "32", "None", 0, "False"))
    if link:
        lines.append(link)
    lines.append(f"    return {pc + 1}, F")


def _emit_fallback(lines: List[str], pc: int) -> None:
    """Interpret one exotic instruction in place, state fully synced."""
    lines.append("    regs._flags = F")
    lines.append(f"    _res = ex(i{pc}, regs, mem, {pc})")
    lines.append(f"    ap(TE(i{pc}, {pc}, _res.next_pc, _res.taken, "
                 "_res.op_width, _res.mem_addr, _res.mem_size, "
                 "_res.is_store))")
    lines.append("    for _rg, _vl in _res.writes.items():")
    lines.append("        wr(_rg, _vl)")
    lines.append("    if _res.is_store:")
    lines.append("        mw(_res.mem_addr, _res.store_value, "
                 "_res.mem_size)")
    lines.append("    F = regs._flags")


def _emit_instr(lines: List[str], instr: Instruction, pc: int) -> None:
    op = instr.op
    if op is Opcode.NOP:
        lines.append(_entry(pc, pc + 1, "False", "32", "None", 0, "False"))
        return
    if op is Opcode.HALT:
        lines.append(_entry(pc, pc + 1, "False", "32", "None", 0, "False"))
        lines.append("    return -1, F")
        return
    if not _inline_supported(instr):
        _emit_fallback(lines, pc)
        return
    cls = instr.cls
    if cls is OpClass.BRANCH:
        _emit_branch(lines, instr, pc)
    elif cls in (OpClass.LOAD, OpClass.STORE):
        _emit_mem(lines, instr, pc)
    elif cls in (OpClass.MUL, OpClass.DIV):
        _emit_muldiv(lines, instr, pc)
    elif cls is OpClass.FP:
        _emit_fp(lines, instr, pc)
    else:
        _emit_alu(lines, instr, pc)


#: straight-line specialization cap: longer runs are split so a
#: generated step function stays small enough for CPython's compiler to
#: digest (compiling gromacs' 202-instruction block whole raised peak
#: RSS by 3.6 MB, against 0.8 MB in pieces of this size)
MAX_BLOCK_LEN = 64


def block_ends(program: Program) -> Dict[int, int]:
    """Map each basic-block leader pc to its end pc (exclusive).

    Leaders are the entry, every branch target and every pc after a
    branch or ``HALT``; a block runs to the next leader, and blocks
    longer than :data:`MAX_BLOCK_LEN` are split, each piece a block of
    its own.  Control only ever enters a block at its leader.
    """
    instrs = program.instructions
    n = len(instrs)
    leaders = {0, program.entry}
    for pc, instr in enumerate(instrs):
        if instr.cls is OpClass.BRANCH:
            if isinstance(instr.target, int):
                leaders.add(instr.target)
            leaders.add(pc + 1)
        elif instr.op is Opcode.HALT:
            leaders.add(pc + 1)
    starts = sorted(pc for pc in leaders if 0 <= pc < n)
    ends: Dict[int, int] = {}
    for start, stop in zip(starts, starts[1:] + [n]):
        while stop - start > MAX_BLOCK_LEN:
            ends[start] = start + MAX_BLOCK_LEN
            start += MAX_BLOCK_LEN
        ends[start] = stop
    return ends


def compile_block(instrs: Sequence[Instruction], start: int, end: int,
                  ns: Dict[str, object]) -> Callable:
    """Compile the block ``instrs[start:end]`` into a step function.

    *ns* carries the run's mutable state (see
    :func:`repro.pipeline.trace.generate_trace`) and becomes the
    function's globals.  The function itself is popped back out of
    *ns*, so the namespace never refers to what refers to it: a
    finished run's entries are freed by reference counting alone.
    """
    name = f"_b{start}"
    args = ", ".join(f"i{p}=i{p}" for p in range(start, end))
    lines = [f"def {name}(F, I=I, B=B, Bg=Bg, ap=ap, TE=TE, W=W, W2=W2, "
             f"{args}):"]
    for pc in range(start, end):
        ns[f"i{pc}"] = instrs[pc]
        _emit_instr(lines, instrs[pc], pc)
    last = instrs[end - 1]
    if last.cls is not OpClass.BRANCH and last.op is not Opcode.HALT:
        lines.append(f"    return {end}, F")
    ns.update(_HELPERS)
    exec(compile("\n".join(lines), f"<block:{start}>", "exec"), ns)
    return ns.pop(name)


__all__ = ["MAX_BLOCK_LEN", "block_ends", "compile_block"]
