"""Tests for the functional simulator: semantics, delay slots, tracing.

Every case is a hand-computed golden: its expected values are worked out
from the MIPS-I definition, not from either engine.  :func:`run` executes
each program on both engines, so the goldens are the independent check
on the one emitter that defines instruction semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.isa import Assembler, Instruction
from repro.isa.opcodes import SPECS_BY_MNEMONIC
from repro.machine import Machine

EXIT = """
    li $v0, 10
    syscall
"""

#: ``block_mode`` values every golden runs under: the per-instruction
#: stepping engine and the basic-block superop engine.
ENGINES = (False, True)

#: Mnemonics some golden case has executed (see TestGoldenCoverage).
EXECUTED_MNEMONICS: set[str] = set()


def run(source: str, **kwargs):
    """Run ``source`` on every engine; they must agree exactly.

    Returns the last engine's result once each other engine's matches it
    field by field (trace bytes included), so each hand-computed
    expectation checked on the return value holds for both engines.  An
    :class:`ExecutionError` must be raised with the same message by both.
    """
    program = Assembler().assemble(source)
    outcomes = []
    for block_mode in ENGINES:
        machine = Machine(program, block_mode=block_mode)
        try:
            outcomes.append(machine.run(**kwargs))
        except ExecutionError as error:
            outcomes.append(error)
        if not block_mode:
            # The stepping engine builds an instruction's function just
            # before it first executes it, faulting runs included.
            EXECUTED_MNEMONICS.update(
                program.instructions[index].mnemonic
                for index, step in enumerate(machine._steps)
                if step is not None
            )
    last = outcomes[-1]
    for other in outcomes[:-1]:
        if isinstance(last, ExecutionError) or isinstance(other, ExecutionError):
            assert type(other) is type(last) and str(other) == str(last)
            continue
        assert np.array_equal(other.trace.addresses, last.trace.addresses)
        for field in (
            "registers",
            "output",
            "exit_code",
            "instructions_executed",
            "data_accesses",
            "stall_cycles",
        ):
            assert getattr(other, field) == getattr(last, field), field
    if isinstance(last, ExecutionError):
        raise last
    return last


def reg(result, number: int) -> int:
    return result.registers[number]


class TestIntegerArithmetic:
    def test_addu_and_addiu(self):
        result = run(f"li $t0, 40\naddiu $t1, $t0, 2\naddu $t2, $t0, $t1\n{EXIT}")
        assert reg(result, 9) == 42
        assert reg(result, 10) == 82

    def test_wraparound_addition(self):
        result = run(f"li $t0, 0xFFFFFFFF\naddiu $t1, $t0, 1\n{EXIT}")
        assert reg(result, 9) == 0

    def test_subu_negative_result_wraps(self):
        result = run(f"li $t0, 5\nli $t1, 7\nsubu $t2, $t0, $t1\n{EXIT}")
        assert reg(result, 10) == 0xFFFFFFFE

    def test_logical_operations(self):
        result = run(
            f"""
            li $t0, 0xF0F0
            li $t1, 0x0FF0
            and $t2, $t0, $t1
            or  $t3, $t0, $t1
            xor $t4, $t0, $t1
            nor $t5, $t0, $t1
            {EXIT}
            """
        )
        assert reg(result, 10) == 0x00F0
        assert reg(result, 11) == 0xFFF0
        assert reg(result, 12) == 0xFF00
        assert reg(result, 13) == 0xFFFF000F

    def test_slt_signed_vs_sltu_unsigned(self):
        result = run(
            f"""
            li $t0, -1
            li $t1, 1
            slt  $t2, $t0, $t1
            sltu $t3, $t0, $t1
            {EXIT}
            """
        )
        assert reg(result, 10) == 1  # -1 < 1 signed
        assert reg(result, 11) == 0  # 0xFFFFFFFF > 1 unsigned

    def test_slti_and_sltiu(self):
        result = run(f"li $t0, 5\nslti $t1, $t0, 6\nsltiu $t2, $t0, 4\n{EXIT}")
        assert reg(result, 9) == 1
        assert reg(result, 10) == 0

    def test_shifts(self):
        result = run(
            f"""
            li  $t0, 0x80000000
            srl $t1, $t0, 4
            sra $t2, $t0, 4
            li  $t3, 1
            sll $t4, $t3, 31
            {EXIT}
            """
        )
        assert reg(result, 9) == 0x08000000
        assert reg(result, 10) == 0xF8000000
        assert reg(result, 12) == 0x80000000

    def test_variable_shifts_mask_to_five_bits(self):
        result = run(
            f"""
            li $t0, 1
            li $t1, 33
            sllv $t2, $t0, $t1
            {EXIT}
            """
        )
        assert reg(result, 10) == 2  # shift amount 33 & 31 == 1

    def test_lui_ori_builds_constant(self):
        result = run(f"li $t0, 0xDEADBEEF\n{EXIT}")
        assert reg(result, 8) == 0xDEADBEEF

    def test_zero_register_ignores_writes(self):
        result = run(f"li $zero, 55\naddiu $t0, $zero, 7\n{EXIT}")
        assert reg(result, 0) == 0
        assert reg(result, 8) == 7


    def test_trapping_forms_wrap_like_unsigned(self):
        result = run(
            f"""
            li   $t0, 0x7FFFFFFF
            add  $t1, $t0, $t0
            addi $t2, $t0, 1
            sub  $t3, $zero, $t0
            {EXIT}
            """
        )
        assert reg(result, 9) == 0xFFFFFFFE
        assert reg(result, 10) == 0x80000000
        assert reg(result, 11) == 0x80000001  # -0x7FFFFFFF

    def test_andi_xori_zero_extend_immediate(self):
        result = run(
            f"""
            li   $t0, 0xFFFFFFFF
            andi $t1, $t0, 0x8001
            xori $t2, $t0, 0x8000
            {EXIT}
            """
        )
        assert reg(result, 9) == 0x00008001
        assert reg(result, 10) == 0xFFFF7FFF

    def test_variable_shifts_of_negative_value(self):
        result = run(
            f"""
            li   $t0, -16
            li   $t1, 2
            srav $t2, $t0, $t1
            srlv $t3, $t0, $t1
            li   $t4, 34
            srav $t5, $t0, $t4
            {EXIT}
            """
        )
        assert reg(result, 10) == 0xFFFFFFFC  # -4: sign bits shifted in
        assert reg(result, 11) == 0x3FFFFFFC  # zeros shifted in
        assert reg(result, 13) == 0xFFFFFFFC  # shift amount 34 & 31 == 2


class TestMultiplyDivide:
    def test_mult_positive(self):
        result = run(f"li $t0, 6\nli $t1, 7\nmult $t0, $t1\nmflo $t2\n{EXIT}")
        assert reg(result, 10) == 42

    def test_mult_negative_high_word(self):
        result = run(f"li $t0, -1\nli $t1, 2\nmult $t0, $t1\nmfhi $t2\nmflo $t3\n{EXIT}")
        assert reg(result, 10) == 0xFFFFFFFF
        assert reg(result, 11) == 0xFFFFFFFE

    def test_multu_large(self):
        result = run(
            f"li $t0, 0x10000\nli $t1, 0x10000\nmultu $t0, $t1\nmfhi $t2\nmflo $t3\n{EXIT}"
        )
        assert reg(result, 10) == 1
        assert reg(result, 11) == 0

    def test_div_truncates_toward_zero(self):
        result = run(f"li $t0, -7\nli $t1, 2\ndiv $t0, $t1\nmflo $t2\nmfhi $t3\n{EXIT}")
        assert reg(result, 10) == 0xFFFFFFFD  # -3
        assert reg(result, 11) == 0xFFFFFFFF  # remainder -1

    def test_divu(self):
        result = run(f"li $t0, 7\nli $t1, 2\ndivu $t0, $t1\nmflo $t2\nmfhi $t3\n{EXIT}")
        assert reg(result, 10) == 3
        assert reg(result, 11) == 1

    def test_mthi_mtlo(self):
        result = run(f"li $t0, 9\nmthi $t0\nmtlo $t0\nmfhi $t1\nmflo $t2\n{EXIT}")
        assert reg(result, 9) == 9
        assert reg(result, 10) == 9

    def test_division_by_zero_does_not_crash(self):
        result = run(f"li $t0, 7\ndiv $t0, $zero\nmflo $t1\n{EXIT}")
        assert reg(result, 9) == 0


class TestMemoryAccess:
    def test_word_store_load(self):
        result = run(
            f"""
            .data
            buf: .space 16
            .text
            la $t0, buf
            li $t1, 0x12345678
            sw $t1, 4($t0)
            lw $t2, 4($t0)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0x12345678

    def test_byte_sign_extension(self):
        result = run(
            f"""
            .data
            b: .byte 0xFF
            .text
            la $t0, b
            lb  $t1, 0($t0)
            lbu $t2, 0($t0)
            {EXIT}
            """
        )
        assert reg(result, 9) == 0xFFFFFFFF
        assert reg(result, 10) == 0xFF

    def test_half_sign_extension(self):
        result = run(
            f"""
            .data
            h: .half 0x8000
            .text
            la $t0, h
            lh  $t1, 0($t0)
            lhu $t2, 0($t0)
            {EXIT}
            """
        )
        assert reg(result, 9) == 0xFFFF8000
        assert reg(result, 10) == 0x8000

    def test_sb_sh_store_low_bits(self):
        result = run(
            f"""
            .data
            buf: .word 0
            .text
            la $t0, buf
            li $t1, 0x1234ABCD
            sb $t1, 0($t0)
            sh $t1, 2($t0)
            lw $t2, 0($t0)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0xCD00ABCD

    def test_initialized_data_readable(self):
        result = run(
            f"""
            .data
            v: .word 1234
            .text
            la $t0, v
            lw $t1, 0($t0)
            {EXIT}
            """
        )
        assert reg(result, 9) == 1234

    def test_unaligned_word_access_raises(self):
        with pytest.raises(ExecutionError, match="unaligned"):
            run(f"li $t0, 2\nlw $t1, 0($t0)\n{EXIT}")

    def test_data_access_count(self):
        result = run(
            f"""
            .data
            buf: .space 8
            .text
            la $t0, buf
            sw $zero, 0($t0)
            lw $t1, 0($t0)
            sb $zero, 4($t0)
            {EXIT}
            """
        )
        assert result.data_accesses == 3


    def test_swl_swr_alone_merge_partial_words(self):
        result = run(
            f"""
            .data
            buf: .word 0x11223344, 0x55667788, 0
            .text
            la  $t0, buf
            li  $t1, 0xAABBCCDD
            swl $t1, 1($t0)
            swr $t1, 6($t0)
            swl $t1, 11($t0)
            swr $t1, 8($t0)
            lw  $t2, 0($t0)
            lw  $t3, 4($t0)
            lw  $t4, 8($t0)
            {EXIT}
            """
        )
        # swl at byte 1: the top three register bytes fill bytes 1..3.
        assert reg(result, 10) == 0x11AABBCC
        # swr at byte 2: the low three register bytes fill bytes 0..2.
        assert reg(result, 11) == 0xBBCCDD88
        # swl at byte 3 stores only the top byte; swr at byte 0 only the low one.
        assert reg(result, 12) == 0xDD0000AA


class TestControlFlow:
    def test_simple_loop_count(self):
        result = run(
            f"""
            main:
                li $t0, 5
                li $t1, 0
            loop:
                addiu $t1, $t1, 1
                addiu $t0, $t0, -1
                bnez $t0, loop
                nop
            {EXIT}
            """
        )
        assert reg(result, 9) == 5

    def test_branch_delay_slot_executes(self):
        result = run(
            f"""
            li $t0, 0
            b over
            addiu $t0, $t0, 1   # delay slot must execute
            addiu $t0, $t0, 100 # skipped
            over:
            {EXIT}
            """
        )
        assert reg(result, 8) == 1

    def test_jump_delay_slot_executes(self):
        result = run(
            f"""
            li $t0, 0
            j over
            addiu $t0, $t0, 1
            addiu $t0, $t0, 100
            over:
            {EXIT}
            """
        )
        assert reg(result, 8) == 1

    def test_jal_links_past_delay_slot(self):
        result = run(
            f"""
            main:
                jal callee
                nop
                move $t5, $v0
            {EXIT}
            callee:
                li $v0, 77
                jr $ra
                nop
            """
        )
        assert reg(result, 13) == 77

    def test_jalr_links_and_jumps(self):
        result = run(
            f"""
            main:
                la $t0, callee
                jalr $ra, $t0
                nop
                move $t5, $v0
            {EXIT}
            callee:
                li $v0, 31
                jr $ra
                nop
            """
        )
        assert reg(result, 13) == 31

    def test_conditional_branch_directions(self):
        result = run(
            f"""
            li $t0, -3
            li $t3, 0
            bltz $t0, neg
            nop
            li $t3, 1
            neg:
            bgez $t0, pos
            nop
            b done
            nop
            pos:
            li $t3, 2
            done:
            {EXIT}
            """
        )
        assert reg(result, 11) == 0

    def test_blez_bgtz(self):
        result = run(
            f"""
            li $t0, 0
            li $t1, 0
            blez $t0, a
            nop
            li $t1, 9
            a:
            bgtz $t0, b
            nop
            addiu $t1, $t1, 1
            b:
            {EXIT}
            """
        )
        assert reg(result, 9) == 1

    def test_bgezal_calls(self):
        result = run(
            f"""
            main:
                li $t0, 1
                bgezal $t0, sub
                nop
                b done
                nop
            sub:
                li $t5, 42
                jr $ra
                nop
            done:
            {EXIT}
            """
        )
        assert reg(result, 13) == 42

    def test_trace_records_delay_slot_addresses(self):
        result = run(
            f"""
            main: b skip
                  nop
                  nop
            skip: {EXIT}
            """
        )
        addresses = list(result.trace.addresses[:3])
        assert addresses == [0, 4, 12]

    def test_pc_escape_raises(self):
        with pytest.raises(ExecutionError, match="outside text"):
            run("li $t0, 0x100000\njr $t0\nnop")

    def test_instruction_limit_raises_by_default(self):
        with pytest.raises(ExecutionError, match="limit"):
            run("spin: b spin\nnop", max_instructions=100)

    def test_instruction_limit_truncates_when_allowed(self):
        result = run("spin: b spin\nnop", max_instructions=100, stop_at_limit=True)
        assert result.instructions_executed == 100
        assert len(result.trace) == 100


    def test_bltzal_links_whether_or_not_taken(self):
        result = run(
            f"""
            main:
                li $t0, -1
                li $t5, 0
                bltzal $t0, sub
                nop
            ret1:
                b next
                nop
            sub:
                addiu $t5, $t5, 1
                jr $ra
                nop
            next:
                move $t6, $ra
                li $t1, 1
                bltzal $t1, sub
                nop
            ret2:
                move $t7, $ra
                la $s0, ret1
                la $s1, ret2
            {EXIT}
            """
        )
        assert reg(result, 13) == 1  # called once: only the negative test
        assert reg(result, 14) == reg(result, 16)  # linked past the slot
        assert reg(result, 15) == reg(result, 17)  # linked though not taken


class TestSyscalls:
    def test_print_int_and_string(self):
        result = run(
            f"""
            .data
            msg: .asciiz " items"
            .text
            li $v0, 1
            li $a0, 42
            syscall
            li $v0, 4
            la $a0, msg
            syscall
            li $v0, 11
            li $a0, 10
            syscall
            {EXIT}
            """
        )
        assert result.output == "42 items\n"

    def test_exit_code(self):
        result = run("li $a0, 7\nli $v0, 10\nsyscall")
        assert result.exit_code == 7

    def test_unknown_syscall_raises(self):
        with pytest.raises(ExecutionError, match="syscall"):
            run("li $v0, 99\nsyscall")

    def test_break_raises(self):
        with pytest.raises(ExecutionError, match="break"):
            run("break")


    def test_print_char_uses_low_byte_and_print_int_is_signed(self):
        result = run(
            f"""
            li $v0, 11
            li $a0, 0x141
            syscall
            li $v0, 1
            li $a0, -5
            syscall
            {EXIT}
            """
        )
        assert result.output == "A-5"

    def test_syscalls_in_loop_delay_slot(self):
        result = run(
            """
                li $t0, 3
                li $a0, 5
            loop:
                addiu $t0, $t0, -1
                sltiu $t1, $t0, 1
                sll   $v0, $t1, 3
                addu  $v0, $v0, $t1
                addiu $v0, $v0, 1       # 1 (print_int) until $t0 hits 0, then 10
                bnez  $t0, loop
                syscall
            """
        )
        assert result.output == "55"
        assert result.exit_code == 5
        # Two set-up instructions, then three seven-instruction iterations.
        assert result.instructions_executed == len(result.trace) == 23

    def test_exit_in_delay_slot(self):
        result = run(
            """
                li $a0, 3
                li $v0, 10
                b away
                syscall
            away:
                li $a0, 9
                li $v0, 10
                syscall
            """
        )
        assert result.exit_code == 3
        assert result.instructions_executed == len(result.trace) == 4


class TestFloatingPoint:
    def test_single_precision_add(self):
        result = run(
            f"""
            .data
            a: .float 1.5
            b: .float 2.25
            out: .space 4
            .text
            la $t0, a
            lwc1 $f0, 0($t0)
            lwc1 $f2, 4($t0)
            add.s $f4, $f0, $f2
            la $t1, out
            swc1 $f4, 0($t1)
            lw $t2, 0($t1)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0x40700000  # 3.75f

    def test_double_precision_multiply(self):
        result = run(
            f"""
            .data
            a: .double 3.0
            b: .double 4.0
            out: .space 8
            .text
            la $t0, a
            l.d $f0, 0($t0)
            l.d $f2, 8($t0)
            mul.d $f4, $f0, $f2
            la $t1, out
            s.d $f4, 0($t1)
            lw $t2, 0($t1)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0x40280000  # high word of 12.0

    def test_fp_compare_and_branch(self):
        result = run(
            f"""
            .data
            a: .double 1.0
            b: .double 2.0
            .text
            la $t0, a
            l.d $f0, 0($t0)
            l.d $f2, 8($t0)
            li $t5, 0
            c.lt.d $f0, $f2
            bc1t less
            nop
            b done
            nop
            less: li $t5, 1
            done:
            {EXIT}
            """
        )
        assert reg(result, 13) == 1

    def test_bc1f_branches_on_false(self):
        result = run(
            f"""
            .data
            a: .double 5.0
            .text
            la $t0, a
            l.d $f0, 0($t0)
            li $t5, 0
            c.lt.d $f0, $f0
            bc1f notless
            nop
            b done
            nop
            notless: li $t5, 1
            done:
            {EXIT}
            """
        )
        assert reg(result, 13) == 1

    def test_mtc1_cvt_and_back(self):
        result = run(
            f"""
            li $t0, 9
            mtc1 $t0, $f0
            cvt.d.w $f2, $f0
            cvt.w.d $f4, $f2
            mfc1 $t1, $f4
            {EXIT}
            """
        )
        assert reg(result, 9) == 9

    def test_neg_and_abs_double(self):
        result = run(
            f"""
            .data
            a: .double 2.5
            out: .space 16
            .text
            la $t0, a
            l.d $f0, 0($t0)
            neg.d $f2, $f0
            abs.d $f4, $f2
            la $t1, out
            s.d $f2, 0($t1)
            s.d $f4, 8($t1)
            lw $t2, 0($t1)
            lw $t3, 8($t1)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0xC0040000  # -2.5 high word
        assert reg(result, 11) == 0x40040000  # 2.5 high word

    def test_cvt_s_w_truncation_path(self):
        result = run(
            f"""
            li $t0, 3
            mtc1 $t0, $f0
            cvt.s.w $f2, $f0
            mfc1 $t1, $f2
            {EXIT}
            """
        )
        assert reg(result, 9) == 0x40400000  # 3.0f

    def test_mov_single_and_double(self):
        result = run(
            f"""
            .data
            a: .double 7.0
            out: .space 8
            .text
            la $t0, a
            l.d $f0, 0($t0)
            mov.d $f2, $f0
            la $t1, out
            s.d $f2, 0($t1)
            lw $t2, 0($t1)
            {EXIT}
            """
        )
        assert reg(result, 10) == 0x401C0000


    def test_single_precision_sub_mul_div(self):
        result = run(
            f"""
            .data
            a: .float 1.5
            b: .float 2.25
            .text
            la $t0, a
            lwc1 $f0, 0($t0)
            lwc1 $f2, 4($t0)
            sub.s $f4, $f0, $f2
            mul.s $f6, $f0, $f2
            div.s $f8, $f2, $f0
            mfc1 $t1, $f4
            mfc1 $t2, $f6
            mfc1 $t3, $f8
            {EXIT}
            """
        )
        assert reg(result, 9) == 0xBF400000  # -0.75f
        assert reg(result, 10) == 0x40580000  # 3.375f
        assert reg(result, 11) == 0x3FC00000  # 1.5f

    def test_double_precision_add_sub(self):
        result = run(
            f"""
            .data
            a: .double 3.0
            b: .double 4.0
            .text
            la $t0, a
            l.d $f0, 0($t0)
            l.d $f2, 8($t0)
            add.d $f4, $f0, $f2
            sub.d $f6, $f0, $f2
            mfc1 $t1, $f4
            mfc1 $t2, $f5
            mfc1 $t3, $f6
            mfc1 $t4, $f7
            {EXIT}
            """
        )
        assert (reg(result, 9), reg(result, 10)) == (0x401C0000, 0)  # 7.0
        assert (reg(result, 11), reg(result, 12)) == (0xBFF00000, 0)  # -1.0

    def test_division_by_zero_gives_signed_infinity(self):
        result = run(
            f"""
            .data
            a: .double 3.0
            s: .float 1.5
            .text
            la $t0, a
            l.d $f0, 0($t0)
            lwc1 $f2, 8($t0)
            mtc1 $zero, $f10
            mtc1 $zero, $f11
            div.d $f4, $f0, $f10
            neg.d $f0, $f0
            div.d $f6, $f0, $f10
            div.s $f8, $f2, $f10
            neg.s $f2, $f2
            div.s $f9, $f2, $f10
            mfc1 $t1, $f4
            mfc1 $t2, $f5
            mfc1 $t3, $f6
            mfc1 $t4, $f8
            mfc1 $t5, $f9
            {EXIT}
            """
        )
        assert (reg(result, 9), reg(result, 10)) == (0x7FF00000, 0)  # +inf
        assert reg(result, 11) == 0xFFF00000  # -inf (double)
        assert reg(result, 12) == 0x7F800000  # +inf (single)
        assert reg(result, 13) == 0xFF800000  # -inf (single)

    def test_single_abs_neg_mov(self):
        result = run(
            f"""
            .data
            a: .float 2.5
            .text
            la $t0, a
            lwc1 $f0, 0($t0)
            neg.s $f2, $f0
            abs.s $f4, $f2
            mov.s $f6, $f2
            mfc1 $t1, $f2
            mfc1 $t2, $f4
            mfc1 $t3, $f6
            {EXIT}
            """
        )
        assert reg(result, 9) == 0xC0200000  # -2.5f
        assert reg(result, 10) == 0x40200000  # 2.5f
        assert reg(result, 11) == 0xC0200000

    #: (comparison, operands, holds): singles $f0 = 1.5, $f2 = 2.25;
    #: doubles $f4 = 1.0, $f6 = 2.0.
    COMPARISONS = [
        ("c.eq.s", "$f0, $f0", True),
        ("c.eq.s", "$f0, $f2", False),
        ("c.le.s", "$f0, $f2", True),
        ("c.le.s", "$f2, $f0", False),
        ("c.le.s", "$f0, $f0", True),
        ("c.lt.s", "$f0, $f0", False),
        ("c.lt.s", "$f0, $f2", True),
        ("c.eq.d", "$f4, $f4", True),
        ("c.eq.d", "$f4, $f6", False),
        ("c.le.d", "$f4, $f6", True),
        ("c.le.d", "$f6, $f4", False),
        ("c.le.d", "$f4, $f4", True),
    ]

    def test_fp_compare_conditions(self):
        checks = "\n".join(
            f"""
            {compare} {operands}
            bc1f skip{bit}
            nop
            ori $t5, $t5, {1 << bit}
            skip{bit}:
            """
            for bit, (compare, operands, _) in enumerate(self.COMPARISONS)
        )
        result = run(
            f"""
            .data
            d: .double 1.0, 2.0
            s: .float 1.5, 2.25
            .text
            la $t0, d
            l.d $f4, 0($t0)
            l.d $f6, 8($t0)
            lwc1 $f0, 16($t0)
            lwc1 $f2, 20($t0)
            li $t5, 0
            {checks}
            {EXIT}
            """
        )
        expected = sum(
            1 << bit for bit, (_, _, holds) in enumerate(self.COMPARISONS) if holds
        )
        assert reg(result, 13) == expected

    def test_conversions_between_formats(self):
        result = run(
            f"""
            .data
            d: .double 2.5, 0.1
            s: .float 1.5, -2.75
            .text
            la $t0, d
            l.d $f0, 0($t0)
            l.d $f2, 8($t0)
            lwc1 $f4, 16($t0)
            lwc1 $f5, 20($t0)
            cvt.s.d $f6, $f0
            cvt.s.d $f7, $f2
            cvt.d.s $f8, $f4
            cvt.w.s $f10, $f5
            mfc1 $t1, $f6
            mfc1 $t2, $f7
            mfc1 $t3, $f8
            mfc1 $t4, $f9
            mfc1 $t5, $f10
            {EXIT}
            """
        )
        assert reg(result, 9) == 0x40200000  # 2.5f
        assert reg(result, 10) == 0x3DCCCCCD  # 0.1 rounded to nearest float
        assert (reg(result, 11), reg(result, 12)) == (0x3FF80000, 0)  # 1.5
        assert reg(result, 13) == 0xFFFFFFFE  # -2.75 truncates to -2


class TestStallAccounting:
    def test_mult_adds_stall_cycles(self):
        plain = run(f"li $t0, 3\nli $t1, 4\naddu $t2, $t0, $t1\n{EXIT}")
        multiplied = run(f"li $t0, 3\nli $t1, 4\nmult $t0, $t1\n{EXIT}")
        assert plain.stall_cycles == 0
        assert multiplied.stall_cycles == 11

    def test_div_stalls_more_than_mult(self):
        mult = run(f"li $t0, 8\nli $t1, 2\nmult $t0, $t1\n{EXIT}")
        div = run(f"li $t0, 8\nli $t1, 2\ndiv $t0, $t1\n{EXIT}")
        assert div.stall_cycles > mult.stall_cycles

    def test_base_cycles_is_instructions_plus_stalls(self):
        result = run(f"li $t0, 8\nli $t1, 2\nmult $t0, $t1\n{EXIT}")
        assert result.base_cycles == result.instructions_executed + result.stall_cycles


class TestTraceShape:
    def test_trace_length_equals_instruction_count(self):
        result = run(f"nop\nnop\nnop\n{EXIT}")
        assert len(result.trace) == result.instructions_executed

    def test_trace_addresses_word_aligned_in_text(self):
        result = run(f"nop\nnop\n{EXIT}")
        addresses = result.trace.addresses
        assert (addresses % 4 == 0).all()
        assert int(addresses.max()) < result.trace.text_size

    def test_line_addresses(self):
        result = run("\n".join(["nop"] * 16) + EXIT)
        lines = result.trace.line_addresses(32)
        assert lines[0] == 0 and lines[8] == 1

    def test_execution_counts(self):
        result = run(
            f"""
            main: li $t0, 3
            loop: addiu $t0, $t0, -1
                  bnez $t0, loop
                  nop
            {EXIT}
            """
        )
        counts = result.trace.execution_counts()
        assert counts[1] == 3  # loop body executed three times


class TestUnalignedAccessPairs:
    """Big-endian LWL/LWR and SWL/SWR semantics (MIPS-I unaligned idioms)."""

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_ulw_idiom_loads_unaligned_word(self, offset):
        """lwl A / lwr A+3 must assemble the unaligned word at A."""
        result = run(
            f"""
            .data
            buf: .word 0x11223344, 0x55667788
            .text
            la  $t0, buf
            lwl $t1, {offset}($t0)
            lwr $t1, {offset + 3}($t0)
            move $t5, $t1
            {EXIT}
            """
        )
        raw = bytes.fromhex("1122334455667788")
        expected = int.from_bytes(raw[offset : offset + 4], "big")
        assert reg(result, 13) == expected

    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_usw_idiom_stores_unaligned_word(self, offset):
        """swl A / swr A+3 must scatter the register across the boundary."""
        result = run(
            f"""
            .data
            buf: .word 0, 0, 0
            .text
            la  $t0, buf
            li  $t1, 0xDEADBEEF
            swl $t1, {offset}($t0)
            swr $t1, {offset + 3}($t0)
            lw  $t5, 0($t0)
            lw  $t6, 4($t0)
            {EXIT}
            """
        )
        memory = bytearray(12)
        memory[offset : offset + 4] = (0xDEADBEEF).to_bytes(4, "big")
        assert reg(result, 13) == int.from_bytes(memory[0:4], "big")
        assert reg(result, 14) == int.from_bytes(memory[4:8], "big")

    def test_lwl_preserves_low_bytes(self):
        result = run(
            f"""
            .data
            buf: .word 0x11223344
            .text
            la  $t0, buf
            li  $t1, 0xAABBCCDD
            lwl $t1, 2($t0)
            move $t5, $t1
            {EXIT}
            """
        )
        # offset 2: bytes 33 44 shift to the top, low half preserved.
        assert reg(result, 13) == 0x3344CCDD

    def test_lwr_preserves_high_bytes(self):
        result = run(
            f"""
            .data
            buf: .word 0x11223344
            .text
            la  $t0, buf
            li  $t1, 0xAABBCCDD
            lwr $t1, 1($t0)
            move $t5, $t1
            {EXIT}
            """
        )
        # offset 1: bytes 11 22 land in the low half, top half preserved.
        assert reg(result, 13) == 0xAABB1122

    def test_round_trip_encode_decode(self):
        for mnemonic in ("lwl", "lwr", "swl", "swr"):
            instruction = Instruction.make(mnemonic, rt=8, rs=9, imm=5)
            from repro.isa import decode, encode

            assert decode(encode(instruction)) == instruction

    def test_counts_as_data_access(self):
        result = run(
            f"""
            .data
            buf: .word 7
            .text
            la  $t0, buf
            lwl $t1, 0($t0)
            lwr $t1, 3($t0)
            {EXIT}
            """
        )
        assert result.data_accesses == 2


class TestGoldenCoverage:
    def test_every_mnemonic_has_a_golden(self):
        """Each ISA mnemonic is executed by at least one case above.

        Relies on pytest running a module's tests in file order, so this
        class stays last; selected on its own it reports every mnemonic
        missing.
        """
        missing = sorted(set(SPECS_BY_MNEMONIC) - EXECUTED_MNEMONICS)
        assert not missing, f"no hand-computed golden executes {missing}"
