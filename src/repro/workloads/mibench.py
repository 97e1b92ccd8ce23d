"""MiBench-like kernels written natively in the micro-ISA.

The paper's embedded suite (Fig. 10/13): ``bitcnt``, ``crc``,
``strsearch``, ``gsm`` and ``corners``.  These are real implementations
of the same algorithms — their dataflow (logic/shift-heavy, narrow
operands, few memory operations) is what produces MiBench's ~60 %
high-slack ALU mix and the paper's largest speedups (bitcount > 40 % on
the BIG core).

Every builder takes a ``scale`` knob controlling the dynamic instruction
count and returns a validated :class:`~repro.isa.program.Program`.
"""

from __future__ import annotations

import random

from repro.isa import Asm, Cond, Program, ShiftOp, r


def bitcount(scale: int = 60) -> Program:
    """Count set bits of `scale` pseudo-random words (MiBench bitcnt).

    The classic shift-and-mask loop: almost pure single-cycle ALU work
    on narrowing operands — the paper's best case (< 5 % memory ops,
    ~60 % high-slack ALU).
    """
    rng = random.Random(0xB17C0)
    values = [rng.getrandbits(32) for _ in range(scale)]
    a = Asm("bitcount")
    a.data_words(0x1000, values)
    a.mov(r(1), 0x1000)        # cursor
    a.mov(r(2), scale)         # remaining words
    a.mov(r(3), 0)             # total population count
    a.label("word")
    a.ldr(r(4), r(1))
    a.mov(r(6), 16)            # fixed-count inner loop (2 bits/round):
    a.label("bits")            # counted exit -> perfectly predictable
    # the classic ARM popcount idiom: the shifted-out bit lands in the
    # carry flag and an ADC folds it into the count — 2 ops per bit
    a.lsr(r(4), r(4), 1, s=True)
    a.adc(r(3), r(3), 0)
    a.lsr(r(4), r(4), 1, s=True)
    a.adc(r(3), r(3), 0)
    a.subs(r(6), r(6), 1)
    a.b("bits", cond=Cond.NE)
    a.add(r(1), r(1), 4)
    a.subs(r(2), r(2), 1)
    a.b("word", cond=Cond.NE)
    a.halt()
    return a.finish()


def _crc_table() -> list:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        table.append(crc)
    return table


def crc32(scale: int = 220) -> Program:
    """Table-driven CRC-32 over `scale` bytes (the MiBench algorithm).

    Per byte: ``crc = table[(crc ^ data) & 0xFF] ^ (crc >> 8)`` — a
    loop-carried chain of xor/and/shift plus one table load, the
    logic-dominated dataflow that makes crc a strong recycling case
    without being pure ALU.
    """
    rng = random.Random(0xC3C32)
    data = bytes(rng.getrandbits(8) for _ in range(scale))
    a = Asm("crc32")
    a.data(0x1000, data)
    a.data_words(0x2000, _crc_table())
    a.mov(r(1), 0x1000)
    a.mov(r(2), scale)
    a.mvn(r(3), 0)             # crc = 0xFFFFFFFF
    a.mov(r(7), 0x2000)        # table base
    a.label("byte")
    a.ldrb(r(4), r(1))
    a.eor(r(5), r(3), r(4))
    a.and_(r(5), r(5), 0xFF)
    a.ldr(r(6), r(7), index=r(5), scale=4)
    a.lsr(r(3), r(3), 8)
    a.eor(r(3), r(3), r(6))
    a.add(r(1), r(1), 1)
    a.subs(r(2), r(2), 1)
    a.b("byte", cond=Cond.NE)
    a.halt()
    return a.finish()


def stringsearch(scale: int = 18) -> Program:
    """Naive substring search (MiBench stringsearch).

    Byte loads + compares + short-circuit branches over a synthetic
    haystack; moderate memory traffic with narrow ALU work.
    """
    rng = random.Random(0x57065)
    needle = b"redsoc"
    haystack = bytearray(
        rng.choice(b"abcdefgh") for _ in range(64 * scale))
    for k in range(scale // 3 + 1):  # plant a few real matches
        pos = rng.randrange(0, len(haystack) - len(needle))
        haystack[pos:pos + len(needle)] = needle
    # rolling-hash prefilter (Rabin-Karp style): the window hash
    # h_i = XOR_k needle_window[i+k] << (n-1-k) is updated per position
    # with two flexible-shift XORs — an exact, loop-carried chain — and
    # only hash hits fall back to the byte-by-byte check
    n = len(needle)
    target = 0
    for k, byte in enumerate(needle):
        target ^= byte << (n - 1 - k)

    a = Asm("stringsearch")
    a.data(0x1000, bytes(haystack))
    a.data(0x800, needle)
    a.mov(r(1), 0x1000)                    # window cursor
    a.mov(r(2), len(haystack) - n)
    a.mov(r(3), 0)                         # match count
    a.mov(r(9), target)
    a.mov(r(5), 0)                         # rolling hash state
    for k in range(n):                     # prime the first full window
        a.ldrb(r(6), r(1), k)
        a.lsl(r(5), r(5), 1)
        a.eor(r(5), r(5), r(6))
    a.label("outer")
    a.cmp(r(5), r(9))
    a.b("advance", cond=Cond.NE)           # almost always taken
    a.mov(r(4), 0)                         # hash hit: verify bytes
    a.mov(r(8), 0x800)
    a.label("verify")
    a.ldrb(r(10), r(1), index=r(4))
    a.ldrb(r(11), r(8), index=r(4))
    a.cmp(r(10), r(11))
    a.b("advance", cond=Cond.NE)
    a.add(r(4), r(4), 1)
    a.cmp(r(4), len(needle))
    a.b("verify", cond=Cond.NE)
    a.add(r(3), r(3), 1)                   # full match
    a.label("advance")
    # roll the window: h = ((h ^ out << (n-1)) << 1) ^ in, both steps
    # as flexible-operand (shift-modified) XORs — an exact, serial,
    # loop-carried hash-update chain
    a.ldrb(r(6), r(1), 0)                  # outgoing byte
    a.ldrb(r(7), r(1), n)                  # incoming byte
    a.eor(r(5), r(5), r(6), shift=ShiftOp.LSL, shift_amt=n - 1)
    a.eor(r(5), r(7), r(5), shift=ShiftOp.LSL, shift_amt=1)
    a.add(r(1), r(1), 1)
    a.subs(r(2), r(2), 1)
    a.b("outer", cond=Cond.NE)
    a.halt()
    return a.finish()


def gsm(scale: int = 40) -> Program:
    """GSM short-term analysis lattice filter (MiBench gsm).

    The lattice is genuinely serial: each stage's output feeds the next
    stage's multiply *and* the running term, so per sample the critical
    path alternates multiply → renormalising shift → accumulate.  The
    shift/add links between multiplies are where ReDSOC recycles.
    """
    rng = random.Random(0x65E1)
    samples = [rng.randrange(-(1 << 14), 1 << 14) & 0xFFFFFFFF
               for _ in range(scale * 8)]
    coeffs = [rng.randrange(-(1 << 13), 1 << 13) & 0xFFFFFFFF
              for _ in range(8)]
    a = Asm("gsm")
    a.data_words(0x1000, samples)
    a.data_words(0x800, coeffs)
    a.mov(r(1), 0x1000)
    # one sample at least: a zero count would wrap at the loop bottom
    a.mov(r(2), max(scale * 8 - 8, 1))
    a.mov(r(3), 0)                         # accumulator
    a.label("sample")
    a.mov(r(4), 0x800)
    a.mov(r(5), 8)                         # lattice stage counter
    a.ldr(r(6), r(1))                      # stage input (the sample)
    a.label("tap")
    a.ldr(r(8), r(4))                      # reflection coefficient
    a.mul(r(9), r(6), r(8))                # serial: uses stage output
    a.asr(r(9), r(9), 15)                  # Q15 renormalise
    a.add(r(6), r(6), r(9))                # stage output feeds stage k+1
    a.and_(r(6), r(6), 0xFFFF)             # keep the value 16-bit
    a.add(r(4), r(4), 4)
    a.subs(r(5), r(5), 1)
    a.b("tap", cond=Cond.NE)
    # saturate once per sample; with Q13 coefficients the clamp is a
    # rarely-taken branch (predictable), as in the compiled codec
    a.mov(r(10), 1)
    a.lsl(r(10), r(10), 15)
    a.cmp(r(6), r(10))
    a.b("nosat", cond=Cond.LT)
    a.sub(r(6), r(10), 1)
    a.label("nosat")
    a.add(r(3), r(3), r(6))
    a.add(r(1), r(1), 4)
    a.subs(r(2), r(2), 1)
    a.b("sample", cond=Cond.NE)
    a.halt()
    return a.finish()


def corners(scale: int = 12) -> Program:
    """SUSAN-style corner detector (MiBench corners).

    SUSAN's real inner loop maps each |brightness difference| through a
    precomputed similarity lookup table and accumulates the responses:
    a serial add chain fed by dependent table loads, with the
    |difference| computed via the branchless sign-mask idiom.
    """
    rng = random.Random(0xC04E5)
    width = 32
    rows = 4 * scale
    image = bytes(rng.getrandbits(8) for _ in range(width * rows))
    # similarity LUT: 100 for close brightness, decaying to 0
    lut = bytes(max(0, 100 - 3 * d) for d in range(256))
    a = Asm("corners")
    a.data(0x1000, image)
    a.data(0x3000, lut)
    a.mov(r(1), 0x1000 + width)            # cursor (skip first row)
    a.mov(r(2), width * (rows - 2) - 2)    # pixels to scan
    a.mov(r(3), 0)                         # corner count
    a.mov(r(12), 0x3000)                   # LUT base
    a.mov(r(11), 150)                      # geometric threshold
    a.label("pixel")
    a.ldrb(r(4), r(1))                     # centre
    a.mov(r(6), 0)                         # usan response
    neighbourhood = (-width - 1, -width, -width + 1, -1, 1,
                     width - 1, width, width + 1)
    for offset in neighbourhood:           # 8-neighbourhood
        a.ldrb(r(5), r(1), offset)
        a.sub(r(7), r(5), r(4))
        a.asr(r(9), r(7), 31)              # sign mask
        a.eor(r(7), r(7), r(9))
        a.sub(r(7), r(7), r(9))            # abs diff
        a.ldrb(r(8), r(12), index=r(7))    # similarity response
        a.add(r(6), r(6), r(8))            # usan accumulation chain
    a.cmp(r(6), r(11))                     # C set when usan >= thresh
    a.sbc(r(9), r(9), r(9))                # 0 if usan>=t else -1
    a.sub(r(3), r(3), r(9))                # corners += (usan < t)
    a.add(r(1), r(1), 1)
    a.subs(r(2), r(2), 1)
    a.b("pixel", cond=Cond.NE)
    a.halt()
    return a.finish()


#: Builder registry in the paper's Fig. 10/13 order.
MIBENCH = {
    "corners": corners,
    "strsearch": stringsearch,
    "gsm": gsm,
    "crc": crc32,
    "bitcnt": bitcount,
}
