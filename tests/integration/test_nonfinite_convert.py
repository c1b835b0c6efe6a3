"""A non-finite float read as an integer: every executor finishes.

``fdiv`` by zero yields infinity (and ``inf - inf`` NaN); storing that
with ``fstore`` and reading it back with an integer ``load`` converts a
float with no integer value.  All three executors -- the reference
interpreter, the cycle-level ``Core`` and the leak checker -- convert
through :func:`repro.isa.instructions.as_word`, which maps it to x86's
"integer indefinite" instead of raising.
"""

from __future__ import annotations

import math

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import INT_INDEFINITE, as_word
from repro.isa.interpreter import run_program
from repro.isa.memory_image import MemoryImage
from repro.isa.registers import parse_reg
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.verify import check_program

#: FP lines leaving a non-finite value in f3 (f1 = 1.0, f2 = 0.0).
NONFINITE = {
    "inf": ["fdiv f3, f1, f2"],
    "-inf": ["fsub f4, f2, f1", "fdiv f3, f4, f2"],
    "nan": ["fdiv f4, f1, f2", "fsub f3, f4, f4"],
}


def _case(lines):
    image = MemoryImage()
    image.alloc_array("buf", 1)
    image.alloc_array("secret", 1)
    body = "\n".join(lines)
    source = f"""
        li r1, 1
        fcvt f1, r1
        fcvt f2, r0
        {body}
        li r2, @buf
        fstore f3, r2
        load r3, r2
        add r4, r3, r1
        halt
    """
    return assemble(source, memory_image=image), image


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_as_word_maps_nonfinite_to_integer_indefinite(value):
    assert as_word(value) == INT_INDEFINITE == 0x8000000000000000


def test_as_word_keeps_finite_conversions():
    assert as_word(-1) == (1 << 64) - 1
    assert as_word(-1.5) == (1 << 64) - 1
    assert as_word(2.9) == 2
    assert as_word(1e30) == int(1e30) & ((1 << 64) - 1)


@pytest.mark.parametrize("kind", sorted(NONFINITE))
def test_every_executor_finishes_and_interpreter_and_core_agree(kind):
    program, image = _case(NONFINITE[kind])
    r3, r4 = parse_reg("r3"), parse_reg("r4")

    ref = run_program(program, memory_image=image)
    assert ref.registers[r3] == INT_INDEFINITE
    assert ref.registers[r4] == INT_INDEFINITE + 1

    core = Core(program, memory_image=image, config=CoreConfig.paper())
    core.run(max_cycles=100_000)
    assert core.halted
    regs, _ = core.architectural_state()
    assert regs[r3] == ref.registers[r3]
    assert regs[r4] == ref.registers[r4]

    result = check_program(program, image,
                           secret_addrs=[image.address_of("secret")])
    assert result.clean
