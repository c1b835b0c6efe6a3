"""The checker's ALU evaluation against an independent oracle.

No registered target uses FP, vector, MUL/DIV or SLT ops, so the golden
report fixtures cannot catch a broken fast path in
:func:`repro.verify.machine.alu_result` for them.  This pins every
opcode it handles twice over:

* **value** -- equal to what the reference interpreter
  (:func:`repro.isa.interpreter.run_program`) leaves in the destination
  register of a small ``li``/op program;
* **annotations** -- over clean, tainted, INV and slow sources, the
  ``taint``/``inv``/``slow``/``chain`` of the result equal the
  :func:`repro.verify.taint.combine` join.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import BRANCH_OPS, MEM_OPS, WORD_BYTES, Opcode
from repro.isa.interpreter import run_program
from repro.isa.memory_image import MemoryImage
from repro.isa.registers import NUM_ARCH_REGS
from repro.verify.machine import PathState, alu_result
from repro.verify.taint import ZERO, AbsValue, clean, combine

INT_BINARY = ("add", "sub", "and", "or", "xor", "sll", "srl", "slt",
              "sltu", "mul", "div", "rem")
INT_IMMEDIATE = ("addi", "andi", "ori", "xori", "slli", "srli", "slti",
                 "muli")

# r1/r2 and f1/f2 hold A/B; x1 = (A, B) and x2 = (B, A).
#: One case per line form: the op line (destination r3/f3/x3).
OP_LINES = (
    ["li r3, {imm}", "mov r3, r1"]
    + [f"{m} r3, r1, r2" for m in INT_BINARY]
    + [f"{m} r3, r1, {{imm}}" for m in INT_IMMEDIATE]
    + [f"{m} f3, f1, f2" for m in ("fadd", "fsub", "fmul", "fdiv")]
    + ["fcvt f3, r1", "fmov f3, f1", "vadd x3, x1, x2", "vmul x3, x1, x2",
       "vsplat x3, r1", "vextract r3, x1, 0", "vextract r3, x1, 1"]
)

VALUES = (0, 7, -3, 70, 1 << 63, 123_456_789_012_345)
IMMEDIATES = (0, 5, -2, 70)

#: Opcodes alu_result evaluates: everything but control flow, memory,
#: and nop/fence/halt.  rdtsc reads a clock (the interpreter's is its
#: step count, the checker's its own), so its value is pinned apart.
HANDLED = {op for op in Opcode
           if op not in BRANCH_OPS and op not in MEM_OPS
           and op not in (Opcode.NOP, Opcode.FENCE, Opcode.HALT)}


def _program(op_line: str, a: int, b: int, imm: int):
    image = MemoryImage()
    image.alloc_array("vec", 4)
    source = f"""
        li r1, {a}
        li r2, {b}
        fcvt f1, r1
        fcvt f2, r2
        li r5, @vec
        store r1, r5, 0
        store r2, r5, {WORD_BYTES}
        store r2, r5, {2 * WORD_BYTES}
        store r1, r5, {3 * WORD_BYTES}
        vload x1, r5, 0
        vload x2, r5, {2 * WORD_BYTES}
        {op_line.format(imm=imm)}
        halt
    """
    program = assemble(source, memory_image=image)
    return program, image, len(program.instructions) - 2


def _state_from(registers) -> PathState:
    regs = [ZERO] + [clean(value) for value in registers[1:]]
    state = PathState(regs=regs, mem={}, fills={}, rsb=[])
    state.pc = 0x40
    return state


def _same(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return type(got) is type(want) and got == want


def test_op_lines_cover_every_handled_opcode_but_rdtsc():
    covered = {assemble(f"{line.format(imm=0)}\nhalt").instructions[0].opcode
               for line in OP_LINES}
    assert covered == HANDLED - {Opcode.RDTSC}


@pytest.mark.parametrize("line", OP_LINES)
def test_value_matches_the_reference_interpreter(line):
    imms = IMMEDIATES if "{imm}" in line else (0,)
    for a, b, imm in itertools.product(VALUES, VALUES, imms):
        program, image, index = _program(line, a, b, imm)
        ref = run_program(program, memory_image=image)
        instr = program.instructions[index]
        got = alu_result(instr, _state_from(ref.registers), 1).val
        want = ref.registers[instr.dest]
        assert _same(got, want), (line, a, b, imm, got, want)


SOURCE_KINDS = {
    "clean": {},
    "taint": {"taint": frozenset({"secret"}), "chain": (0x10,)},
    "taint2": {"taint": frozenset({"key"}), "chain": (0x20, 0x24)},
    "inv": {"inv": True},
    "slow": {"slow": True},
    "taint+inv+slow": {"taint": frozenset({"secret"}), "inv": True,
                       "slow": True, "chain": (0x30,)},
}


@pytest.mark.parametrize("line", OP_LINES)
def test_annotations_equal_the_combine_join(line):
    program, image, index = _program(line, 7, -3, 5)
    ref = run_program(program, memory_image=image)
    instr = program.instructions[index]
    base = _state_from(ref.registers)
    want_val = alu_result(instr, base, 1).val
    for kinds in itertools.product(SOURCE_KINDS, repeat=instr.n_srcs):
        state = _state_from(ref.registers)
        for reg, kind in zip(instr.srcs, kinds):
            state.regs[reg] = AbsValue(state.regs[reg].val,
                                       **SOURCE_KINDS[kind])
        got = alu_result(instr, state, 1)
        sources = [state.regs[reg] for reg in instr.srcs]
        want = combine(want_val, sources, state.pc)
        assert _same(got.val, want_val), (line, kinds)
        assert (got.taint, got.inv, got.slow, got.chain) == \
            (want.taint, want.inv, want.slow, want.chain), (line, kinds)


def test_rdtsc_reads_the_step_clock_and_is_clean():
    instr = assemble("rdtsc r3\nhalt").instructions[0]
    state = _state_from([0] * NUM_ARCH_REGS)
    got = alu_result(instr, state, 17)
    assert got.val == 17 and not (got.taint or got.inv or got.slow)


@pytest.mark.parametrize("mnemonic", ("nop", "fence", "halt"))
def test_no_result_ops_produce_zero(mnemonic):
    instr = assemble(f"{mnemonic}\nhalt").instructions[0]
    assert alu_result(instr, _state_from([0] * NUM_ARCH_REGS), 1) is ZERO


def test_register_zero_reads_as_zero_on_the_fast_path():
    """``regs[REG_ZERO]`` is ZERO by invariant; the fast path reads
    ``regs`` directly and relies on it."""
    program = assemble("addi r3, r0, 5\nadd r4, r0, r0\nhalt")
    state = _state_from([0] * NUM_ARCH_REGS)
    state.write_reg(0, clean(99))   # discarded, like the pipeline's r0
    assert state.regs[0] is ZERO
    assert alu_result(program.instructions[0], state, 1).val == 5
    assert alu_result(program.instructions[1], state, 1).val == 0
