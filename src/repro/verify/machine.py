"""Abstract machine state for the leak checker.

A :class:`PathState` is everything one execution path owns: the
register file (of :class:`~repro.verify.taint.AbsValue`), a concrete
memory overlay, the warm-line set standing in for the cache hierarchy,
and the return-stack. Forking a window copies the state, so windows
never perturb the architectural walk — the same isolation the pipeline
gets from its checkpoint/squash machinery, for the price of a dict copy.

The cache model is three-state per line: *cold* (never filled, or
evicted), *pending* (an access started the fill fewer than
:data:`FILL_SETTLE_STEPS` architectural steps ago — the memory latency,
in instruction-count units), and *warm* (fill settled; loads hit).  A
load from a cold or pending line is a memory-level miss: it stalls —
opening a runahead window and making its result ``slow`` — and its
value is unavailable (INV) inside a transient window.  The pending
state matters: a flushed line written by a store (write-allocate) and
read moments later is still a miss — exactly how the rsb-flush gadget
turns a ``ret`` into the stalling load even though the ``call`` just
wrote the line.  ``clflush`` evicts.  The model has no sets, ways, or
inclusion — the cycle simulator owns that fidelity, and the cross-check
harness (:mod:`repro.verify.crosscheck`) keeps the two honest against
each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import (ALU_EVAL, BRANCH_EVAL, WORD_BYTES, Opcode,
                                as_word, to_signed64, to_unsigned64)
from ..isa.registers import NUM_ARCH_REGS, REG_SP, REG_ZERO
from .taint import AbsValue, ZERO, clean, combine

#: Cache-line granularity of the warm/cold model (the hierarchy's line).
LINE_BYTES = 64

#: Architectural steps a fill stays *pending* before the line is warm —
#: the memory latency in instruction-count units.  Any value above the
#: few-instruction flush/store/ret gaps the gadgets use and below the
#: shortest settle sled (the attacks' delay loops run ~1800 steps)
#: reproduces the simulator's hit/miss decisions.
FILL_SETTLE_STEPS = 100


_MASK64 = (1 << 64) - 1
#: Word-aligned 64-bit address mask.
_WORD_ADDR = _MASK64 & ~(WORD_BYTES - 1)

# Opcodes compared per step, bound once (an ``Opcode.X`` lookup costs
# more than the comparison it feeds).
_RDTSC = Opcode.RDTSC
_FADD, _FSUB, _FMUL = Opcode.FADD, Opcode.FSUB, Opcode.FMUL
_FP_ARITH = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
_FCVT, _FMOV = Opcode.FCVT, Opcode.FMOV
_VADD, _VMUL = Opcode.VADD, Opcode.VMUL
_VSPLAT, _VEXTRACT = Opcode.VSPLAT, Opcode.VEXTRACT


def line_of(addr: int) -> int:
    return addr & ~(LINE_BYTES - 1)


class PathState:
    """Register file, memory overlay, fill map and RSB for one path.

    Invariant: ``regs[REG_ZERO]`` is always :data:`ZERO` --
    :meth:`write_reg` never writes it -- so a register read is a plain
    ``regs[reg]``.
    """

    __slots__ = ("regs", "mem", "fills", "pending", "rsb", "pc", "halted",
                 "steps")

    def __init__(self, regs: List[AbsValue], mem: Dict[int, AbsValue],
                 fills: Dict[int, int], rsb: List[int], pc: int = 0):
        self.regs = regs
        self.mem = mem
        #: line -> architectural step its fill started (see module doc).
        self.fills = fills
        #: Lines whose fill is in flight inside this window — reads stay
        #: INV for the remainder of the window (the stalling line and
        #: every runahead prefetch it shadows).
        self.pending: Set[int] = set()
        self.rsb = rsb
        self.pc = pc
        self.halted = False
        self.steps = 0

    @classmethod
    def initial(cls, image=None, initial_sp: Optional[int] = None,
                secret_addrs: Tuple[int, ...] = ()) -> "PathState":
        regs = [ZERO] * NUM_ARCH_REGS
        if initial_sp is not None:
            regs[REG_SP] = clean(to_unsigned64(initial_sp))
        mem: Dict[int, AbsValue] = {}
        if image is not None:
            for addr, value in image.initial_words().items():
                mem[addr] = clean(value)
        return cls(regs=regs, mem=mem, fills={}, rsb=[], pc=0)

    def fork(self) -> "PathState":
        """Copy-on-fork snapshot for a transient window."""
        child = PathState(regs=list(self.regs), mem=dict(self.mem),
                          fills=dict(self.fills), rsb=list(self.rsb),
                          pc=self.pc)
        child.pending = set(self.pending)
        return child

    # -- registers ---------------------------------------------------------

    def write_reg(self, reg: int, value: AbsValue) -> None:
        if reg != REG_ZERO:
            self.regs[reg] = value

    # -- memory ------------------------------------------------------------

    def read_word(self, addr: int) -> AbsValue:
        value = self.mem.get(addr)
        return value if value is not None else ZERO

    def write_word(self, addr: int, value: AbsValue) -> None:
        self.mem[addr] = value

    def is_warm(self, addr: int, now: int) -> bool:
        """Fill settled: a load at arch step ``now`` hits."""
        started = self.fills.get(line_of(addr))
        return started is not None and now - started >= FILL_SETTLE_STEPS

    def touch(self, addr: int, now: int) -> None:
        """Record an access: starts a fill on a cold line (re-touching
        a pending or warm line does not restart its fill)."""
        self.fills.setdefault(line_of(addr), now)

    def flush(self, addr: int) -> None:
        self.fills.pop(line_of(addr), None)


def as_int(value) -> int:
    """Unsigned 64-bit view of a register or memory value (a vector
    reads as its lane 0, an unset value as 0)."""
    if type(value) is int:
        return value & _MASK64
    if isinstance(value, tuple):
        value = value[0]
    return as_word(value or 0)


def alu_result(instr, state: PathState, step_count: int) -> AbsValue:
    """Evaluate a non-memory, non-branch instruction with taint join.

    The ``ALU_EVAL`` opcodes (most checker steps) take a path
    specialised by source count: registers are read straight from
    ``state.regs`` (see :class:`PathState`), and a result none of whose
    sources carries taint, INV or slow is a bare ``AbsValue`` -- what
    :func:`~repro.verify.taint.combine` builds in that case.
    """
    fn = ALU_EVAL[instr.op]
    regs = state.regs
    srcs = instr.srcs
    if fn is not None:
        n = instr.n_srcs
        if not n:
            return AbsValue(fn(0, None, instr.imm))
        x = regs[srcs[0]]
        a = x.val
        a = a & _MASK64 if type(a) is int else as_int(a)
        if n == 1:
            val = fn(a, None, instr.imm)
            if x.taint or x.inv or x.slow:
                return combine(val, (x,), state.pc)
            return AbsValue(val)
        y = regs[srcs[1]]
        b = y.val
        b = b & _MASK64 if type(b) is int else as_int(b)
        val = fn(a, b, instr.imm)
        if n == 2 and not (x.taint or x.inv or x.slow or
                           y.taint or y.inv or y.slow):
            return AbsValue(val)
        return combine(val, [regs[r] for r in srcs], state.pc)
    opcode = instr.opcode
    if opcode is _RDTSC:
        return clean(step_count)
    sources = [regs[r] for r in srcs]
    if opcode in _FP_ARITH:
        a, b = float(sources[0].val or 0), float(sources[1].val or 0)
        if opcode is _FADD:
            val = a + b
        elif opcode is _FSUB:
            val = a - b
        elif opcode is _FMUL:
            val = a * b
        else:
            val = a / b if b else float("inf")
    elif opcode is _FCVT:
        val = float(to_signed64(as_int(sources[0].val)))
    elif opcode is _FMOV:
        val = float(sources[0].val or 0)
    elif opcode is _VADD or opcode is _VMUL:
        a = _as_vec(sources[0].val)
        b = _as_vec(sources[1].val)
        if opcode is _VADD:
            val = (to_unsigned64(a[0] + b[0]), to_unsigned64(a[1] + b[1]))
        else:
            val = (to_unsigned64(a[0] * b[0]), to_unsigned64(a[1] * b[1]))
    elif opcode is _VSPLAT:
        lane = as_int(sources[0].val)
        val = (lane, lane)
    elif opcode is _VEXTRACT:
        val = _as_vec(sources[0].val)[instr.imm & 1]
    else:
        return ZERO     # nop / fence / halt produce nothing
    return combine(val, sources, state.pc)


def _as_vec(value):
    if isinstance(value, tuple):
        return value
    return (as_int(value), as_int(value))


def mem_addr(instr, state: PathState) -> AbsValue:
    """Effective address value (base + imm) with annotations joined."""
    base = state.regs[instr.srcs[1] if instr.store else instr.srcs[0]]
    val = base.val
    val = ((val if type(val) is int else as_int(val)) + instr.imm) & _WORD_ADDR
    return AbsValue(val, base.taint, base.inv, base.slow, base.chain)


def branch_taken(instr, a: AbsValue, b: AbsValue) -> bool:
    x, y = a.val, b.val
    return BRANCH_EVAL[instr.op](
        x & _MASK64 if type(x) is int else as_int(x),
        y & _MASK64 if type(y) is int else as_int(y))
