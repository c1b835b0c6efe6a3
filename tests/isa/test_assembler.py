"""Unit tests for the two-pass assembler."""

import pytest

from repro.isa import (AssemblyError, MemoryImage, Opcode, assemble, int_reg,
                       REG_SP)


class TestBasicParsing:
    def test_empty_source(self):
        program = assemble("")
        assert len(program) == 0

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("""
        # a comment

            nop   # trailing comment
        """)
        assert len(program) == 1
        assert program.instructions[0].opcode is Opcode.NOP

    def test_li_immediate_forms(self):
        program = assemble("""
            li r1, 42
            li r2, 0x10
            li r3, -7
        """)
        assert [i.imm for i in program] == [42, 16, -7]

    def test_three_reg_op(self):
        program = assemble("add r3, r1, r2")
        instr = program.instructions[0]
        assert instr.opcode is Opcode.ADD
        assert instr.dest == int_reg(3)
        assert instr.srcs == (int_reg(1), int_reg(2))

    def test_load_offset_defaults_to_zero(self):
        program = assemble("load r1, r2")
        assert program.instructions[0].imm == 0

    def test_store_has_no_dest(self):
        program = assemble("store r1, r2, 8")
        instr = program.instructions[0]
        assert instr.dest is None
        assert instr.srcs == (int_reg(1), int_reg(2))
        assert instr.imm == 8

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate r1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError, match="expects"):
            assemble("add r1, r2")


class TestLabels:
    def test_forward_and_backward_targets(self):
        program = assemble("""
        top:
            beq r1, r0, done
            jmp top
        done:
            halt
        """)
        beq, jmp, halt = program.instructions
        assert beq.target == program.address_of("done") == 8
        assert jmp.target == program.address_of("top") == 0
        assert halt.opcode is Opcode.HALT

    def test_label_on_same_line_as_instruction(self):
        program = assemble("start: nop")
        assert program.address_of("start") == 0
        assert len(program) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("a:\na:\nnop")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblyError, match="unknown label"):
            assemble("jmp nowhere")


class TestSymbols:
    def test_symbol_resolution(self):
        image = MemoryImage()
        addr = image.alloc_array("array1", 4)
        program = assemble("li r1, @array1", memory_image=image)
        assert program.instructions[0].imm == addr

    def test_symbol_with_offset(self):
        image = MemoryImage()
        addr = image.alloc_array("buf", 4)
        program = assemble("li r1, @buf+16", memory_image=image)
        assert program.instructions[0].imm == addr + 16

    def test_unknown_symbol(self):
        with pytest.raises(AssemblyError, match="unknown symbol"):
            assemble("li r1, @missing", symbols={})

    def test_symbols_and_image_are_exclusive(self):
        with pytest.raises(ValueError):
            assemble("nop", symbols={}, memory_image=MemoryImage())


class TestDirectives:
    def test_repeat_expands(self):
        program = assemble(".repeat 5, nop\nhalt")
        assert len(program) == 6
        assert all(i.opcode is Opcode.NOP for i in program.instructions[:5])

    def test_repeat_zero(self):
        program = assemble(".repeat 0, nop\nhalt")
        assert len(program) == 1

    def test_repeat_preserves_label_addresses(self):
        program = assemble("""
            .repeat 3, nop
        after:
            halt
        """)
        assert program.address_of("after") == 12

    def test_bad_repeat_count(self):
        with pytest.raises(AssemblyError):
            assemble(".repeat x, nop")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble(".align 8")

class TestRepeatRuns:
    """A ``.repeat`` is parsed once and its copies share one Instruction;
    errors, line numbers and label addresses stay as if every copy were
    its own line."""

    def test_bad_mnemonic_reports_directive_line(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic") as info:
            assemble("nop\nnop\n.repeat 4, bogus r1\nhalt")
        assert info.value.lineno == 3

    def test_pass_one_error_is_raised_first(self):
        # The duplicate label sits on a later line than the bad repeat
        # body, but labels are collected before any statement is parsed.
        with pytest.raises(AssemblyError, match="duplicate label") as info:
            assemble(".repeat 2, bogus\nx: nop\nx: halt")
        assert info.value.lineno == 3

    def test_earlier_parse_error_wins(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic") as info:
            assemble("frob\n.repeat 2, bogus")
        assert info.value.lineno == 1

    def test_repeat_zero_never_parses_body(self):
        program = assemble(".repeat 0, bogus\nhalt")
        assert [i.opcode for i in program] == [Opcode.HALT]

    def test_repeat_jump_resolves_forward_label(self):
        program = assemble(".repeat 3, jmp later\nnop\nlater: halt")
        assert program.address_of("later") == 16
        assert [i.target for i in program.instructions[:3]] == [16] * 3
        assert all(i.opcode is Opcode.JMP for i in program.instructions[:3])

    def test_labels_after_repeats_keep_addresses(self):
        program = assemble("""
        start:
            .repeat 5, nop
        mid: li r1, 1
            .repeat 0, nop
            .repeat 2, addi r1, r1, 1
        end:
            halt
        """)
        assert program.labels == {"start": 0, "mid": 20, "end": 32}
        assert len(program) == 9
        assert program.fetch(20).opcode is Opcode.LI
        assert program.fetch(32).opcode is Opcode.HALT

    def test_copies_equal_separately_written_lines(self):
        repeated = assemble("top: .repeat 3, addi r2, r2, 7\nbne r2, r0, top")
        written = assemble("top: addi r2, r2, 7\naddi r2, r2, 7\n"
                           "addi r2, r2, 7\nbne r2, r0, top")
        assert repeated.instructions == written.instructions
        assert repeated.labels == written.labels


def _instruction_fields(program):
    return [(i.opcode, i.dest, i.srcs, i.imm, i.target)
            for i in program.instructions]


def test_shared_instructions_survive_simulation_and_checking():
    """The copies of a ``.repeat`` are one shared Instruction, so nothing
    downstream may mutate an instruction: run a sled program through the
    runahead core and the leak checker and compare every field."""
    from repro.pipeline import Core, CoreConfig
    from repro.verify import check_program
    from repro.verify.crosscheck import make_defense_controller
    from repro.verify.targets import build_target

    case = build_target("stale-store")
    sled = case.program.instructions
    assert len({id(i) for i in sled}) < len(sled) - 1000   # runs are shared
    before = _instruction_fields(case.program)
    core = Core(case.program, memory_image=case.image,
                config=CoreConfig.paper(),
                runahead=make_defense_controller("original"),
                initial_sp=case.initial_sp, warm_icache=True)
    core.run(max_cycles=200_000)
    assert core.halted
    check_program(case.program, case.image, secret_addrs=case.secret_addrs,
                  initial_sp=case.initial_sp, defense="original")
    assert _instruction_fields(case.program) == before


class TestCallRet:
    def test_call_and_ret_use_stack_pointer(self):
        program = assemble("call f\nf: ret")
        call, ret = program.instructions
        assert call.dest == REG_SP
        assert call.srcs == (REG_SP,)
        assert call.target == 4
        assert ret.dest == REG_SP
        assert ret.srcs == (REG_SP,)


class TestScopeMetadata:
    def test_forward_branch_scope_is_fallthrough_body(self):
        program = assemble("""
            bge r1, r2, end
            nop
            nop
        end:
            halt
        """)
        assert program.scope_end(0) == program.address_of("end")

    def test_backward_branch_has_no_scope(self):
        program = assemble("""
        top:
            nop
            bne r1, r0, top
            halt
        """)
        assert program.scope_end(4) is None

    def test_non_branch_has_no_scope(self):
        program = assemble("nop")
        assert program.scope_end(0) is None
