"""Functional-simulator semantics tests: every instruction class."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.func.machine import Machine, SimulationError, run_program
from repro.func.trace import FP_REG_BASE, HI_REG, NO_REG
from repro.isa.assembler import Assembler
from repro.isa.instructions import Kind
from repro.isa.program import DATA_BASE, STACK_TOP

S32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def run_ops(setup, check_reg="v0"):
    """Build a program with `setup(asm)`, run it, return the check register."""
    asm = Assembler()
    setup(asm)
    asm.halt()
    result = run_program(asm.assemble())
    from repro.isa.registers import int_reg

    return result.registers[int_reg(check_reg)]


class TestAluSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("addu", 2, 3, 5),
            ("addu", 2**31 - 1, 1, -(2**31)),  # wraparound
            ("subu", 3, 5, -2),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("nor", 0, 0, -1),
            ("slt", -1, 0, 1),
            ("slt", 1, 0, 0),
            ("sltu", -1, 0, 0),  # unsigned: 0xffffffff > 0
            ("sltu", 0, -1, 1),
        ],
    )
    def test_three_register(self, op, a, b, expected):
        def setup(asm):
            asm.li("t0", a)
            asm.li("t1", b)
            asm.op(op, "v0", "t0", "t1")

        assert run_ops(setup) == expected

    @pytest.mark.parametrize(
        "op,a,imm,expected",
        [
            ("addiu", 10, -3, 7),
            ("andi", 0xFF0F, 0x00FF, 0x000F),
            ("ori", 0xF000, 0x000F, 0xF00F),
            ("xori", 0xFF, 0x0F, 0xF0),
            ("slti", -5, 0, 1),
            ("sltiu", 5, 10, 1),
            ("sll", 1, 4, 16),
            ("srl", -1, 28, 0xF),
            ("sra", -16, 2, -4),
        ],
    )
    def test_immediate(self, op, a, imm, expected):
        def setup(asm):
            asm.li("t0", a)
            asm.op(op, "v0", "t0", imm)

        assert run_ops(setup) == expected

    def test_variable_shifts(self):
        def setup(asm):
            asm.li("t0", 1)
            asm.li("t1", 5)
            asm.sllv("v0", "t0", "t1")

        assert run_ops(setup) == 32

    def test_lui(self):
        def setup(asm):
            asm.lui("v0", 0x1234)

        assert run_ops(setup) == 0x12340000

    def test_zero_register_ignores_writes(self):
        def setup(asm):
            asm.li("t0", 7)
            asm.addu("zero", "t0", "t0")
            asm.move("v0", "zero")

        assert run_ops(setup) == 0


class TestHiLo:
    def test_mult_signed(self):
        def setup(asm):
            asm.li("t0", -3)
            asm.li("t1", 7)
            asm.mult("t0", "t1")
            asm.mflo("v0")

        assert run_ops(setup) == -21

    def test_mult_high_word(self):
        def setup(asm):
            asm.li("t0", 0x10000)
            asm.li("t1", 0x10000)
            asm.mult("t0", "t1")
            asm.mfhi("v0")

        assert run_ops(setup) == 1

    def test_multu_unsigned(self):
        def setup(asm):
            asm.li("t0", -1)  # 0xffffffff
            asm.li("t1", 2)
            asm.multu("t0", "t1")
            asm.mfhi("v0")

        assert run_ops(setup) == 1

    def test_div_quotient_remainder(self):
        def setup(asm):
            asm.li("t0", 17)
            asm.li("t1", 5)
            asm.div("t0", "t1")
            asm.mflo("v0")
            asm.mfhi("v1")

        asm = Assembler()
        setup(asm)
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == 3
        assert result.registers[3] == 2

    def test_div_truncates_toward_zero(self):
        def setup(asm):
            asm.li("t0", -7)
            asm.li("t1", 2)
            asm.div("t0", "t1")
            asm.mflo("v0")

        assert run_ops(setup) == -3

    def test_div_by_zero_defined_as_zero(self):
        def setup(asm):
            asm.li("t0", 5)
            asm.div("t0", "zero")
            asm.mflo("v0")

        assert run_ops(setup) == 0

    @given(a=S32, b=S32)
    @settings(max_examples=40)
    def test_mult_matches_python(self, a, b):
        def setup(asm):
            asm.li("t0", a)
            asm.li("t1", b)
            asm.mult("t0", "t1")
            asm.mflo("v0")

        product = (a * b) & 0xFFFFFFFF
        expected = product - 2**32 if product >= 2**31 else product
        assert run_ops(setup) == expected


class TestMemoryOps:
    def test_store_load_word(self):
        def setup(asm):
            asm.data_label("slot")
            asm.word(0)
            asm.la("t0", "slot")
            asm.li("t1", -42)
            asm.sw("t1", 0, "t0")
            asm.lw("v0", 0, "t0")

        assert run_ops(setup) == -42

    def test_byte_sign_extension(self):
        def setup(asm):
            asm.data_label("slot")
            asm.byte(0xFF)
            asm.la("t0", "slot")
            asm.lb("v0", 0, "t0")

        assert run_ops(setup) == -1

    def test_byte_zero_extension(self):
        def setup(asm):
            asm.data_label("slot")
            asm.byte(0xFF)
            asm.la("t0", "slot")
            asm.lbu("v0", 0, "t0")

        assert run_ops(setup) == 255

    def test_halfword(self):
        def setup(asm):
            asm.data_label("slot")
            asm.half(0x8000)
            asm.la("t0", "slot")
            asm.lhu("v0", 0, "t0")

        assert run_ops(setup) == 0x8000

    def test_stack_pointer_initialised(self):
        asm = Assembler()
        asm.halt()
        machine = Machine(program=asm.assemble())
        assert machine.regs[29] == STACK_TOP


class TestControlFlow:
    def test_delay_slot_executes_on_taken_branch(self):
        asm = Assembler()
        asm.li("v0", 0)
        with asm.noreorder():
            asm.beq("zero", "zero", "over")
            asm.addiu("v0", "v0", 1)  # delay slot: must execute
        asm.addiu("v0", "v0", 100)  # skipped
        asm.label("over")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == 1

    def test_delay_slot_executes_on_untaken_branch(self):
        asm = Assembler()
        asm.li("v0", 0)
        asm.li("t0", 1)
        with asm.noreorder():
            asm.beq("t0", "zero", "over")
            asm.addiu("v0", "v0", 1)
        asm.addiu("v0", "v0", 100)
        asm.label("over")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == 101

    def test_jal_links_past_delay_slot(self):
        asm = Assembler()
        asm.jal("func")
        asm.li("v1", 7)  # executed after return
        asm.halt()
        asm.label("func")
        asm.li("v0", 3)
        asm.jr("ra")
        result = run_program(asm.assemble())
        assert result.registers[2] == 3
        assert result.registers[3] == 7

    def test_jalr(self):
        asm = Assembler()
        asm.la("t0", "func")
        asm.jalr("ra", "t0")
        asm.halt()
        asm.label("func")
        asm.li("v0", 9)
        asm.jr("ra")
        result = run_program(asm.assemble())
        assert result.registers[2] == 9

    @pytest.mark.parametrize(
        "op,value,taken",
        [
            ("blez", 0, True),
            ("blez", -1, True),
            ("blez", 1, False),
            ("bgtz", 1, True),
            ("bgtz", 0, False),
            ("bltz", -1, True),
            ("bltz", 0, False),
            ("bgez", 0, True),
            ("bgez", -1, False),
        ],
    )
    def test_single_source_branches(self, op, value, taken):
        asm = Assembler()
        asm.li("v0", 0)
        asm.li("t0", value)
        asm.op(op, "t0", "skip")
        asm.addiu("v0", "v0", 1)
        asm.label("skip")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == (0 if taken else 1)

    def test_runaway_detection(self):
        asm = Assembler()
        asm.label("spin")
        asm.b("spin")
        with pytest.raises(SimulationError):
            run_program(asm.assemble(), max_instructions=1000)

    def test_fall_off_text_detected(self):
        asm = Assembler()
        asm.nop()
        with pytest.raises(SimulationError):
            run_program(asm.assemble())

    def test_misaligned_jump_target_detected(self):
        """A jump into the text segment off a word boundary faults at
        the misaligned pc instead of running the instruction below it."""
        asm = Assembler()
        asm.la("t0", "func")
        asm.addiu("t0", "t0", 2)
        asm.li("v0", 0)
        asm.jr("t0")
        asm.halt()
        asm.label("func")
        asm.li("v0", 9)
        asm.halt()
        program = asm.assemble()
        bad_pc = program.symbol("func") + 2
        with pytest.raises(SimulationError, match=f"misaligned pc={bad_pc:#x}"):
            run_program(program)

    def test_jump_to_address_zero_leaves_text(self):
        asm = Assembler()
        asm.jr("zero")
        asm.halt()
        with pytest.raises(SimulationError, match="pc=0x0"):
            run_program(asm.assemble())


class TestFloatingPoint:
    def test_double_arithmetic(self):
        asm = Assembler()
        asm.data_label("vals")
        asm.float_double(3.0, 4.0, 0.0)
        asm.la("t0", "vals")
        asm.ldc1("f2", 0, "t0")
        asm.ldc1("f4", 8, "t0")
        asm.mul_d("f6", "f2", "f4")
        asm.add_d("f6", "f6", "f2")
        asm.sdc1("f6", 16, "t0")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.memory.read_double(DATA_BASE + 16) == 15.0

    def test_single_arithmetic(self):
        asm = Assembler()
        asm.data_label("vals")
        asm.float_single(1.5, 2.5, 0.0)
        asm.la("t0", "vals")
        asm.lwc1("f1", 0, "t0")
        asm.lwc1("f2", 4, "t0")
        asm.add_s("f3", "f1", "f2")
        asm.swc1("f3", 8, "t0")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.memory.read_float(DATA_BASE + 8) == 4.0

    def test_divide_and_sqrt(self):
        asm = Assembler()
        asm.data_label("vals")
        asm.float_double(16.0, 2.0, 0.0, 0.0)
        asm.la("t0", "vals")
        asm.ldc1("f2", 0, "t0")
        asm.ldc1("f4", 8, "t0")
        asm.div_d("f6", "f2", "f4")
        asm.sqrt_d("f8", "f2")
        asm.sdc1("f6", 16, "t0")
        asm.sdc1("f8", 24, "t0")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.memory.read_double(DATA_BASE + 16) == 8.0
        assert result.memory.read_double(DATA_BASE + 24) == 4.0

    def test_compare_and_branch(self):
        asm = Assembler()
        asm.data_label("vals")
        asm.float_double(1.0, 2.0)
        asm.la("t0", "vals")
        asm.ldc1("f2", 0, "t0")
        asm.ldc1("f4", 8, "t0")
        asm.c_lt_d("f2", "f4")
        asm.li("v0", 0)
        asm.bc1t("less")
        asm.addiu("v0", "v0", 100)
        asm.label("less")
        asm.addiu("v0", "v0", 1)
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == 1

    def test_mtc1_mfc1_and_convert(self):
        asm = Assembler()
        asm.li("t0", 21)
        asm.mtc1("t0", "f2")
        asm.cvt_d_w("f2", "f2")
        asm.add_d("f2", "f2", "f2")
        asm.cvt_w_d("f2", "f2")
        asm.mfc1("v0", "f2")
        asm.halt()
        result = run_program(asm.assemble())
        assert result.registers[2] == 42


    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("op", ["cvt.w.d", "cvt.w.s", "mfc1"])
    def test_non_finite_to_integer_raises(self, op, value):
        """inf (int() would raise OverflowError) and NaN (ValueError)
        have no integer value: the conversion is a SimulationError
        naming the op and its pc."""
        asm = Assembler()
        asm.data_label("vals")
        asm.float_double(1.0, 0.0)
        asm.la("t0", "vals")
        asm.ldc1("f2", 0, "t0")
        asm.ldc1("f4", 8, "t0")
        asm.div_d("f6", "f2", "f4")  # +inf
        if value == "nan":
            asm.sub_d("f6", "f6", "f6")
        if op == "mfc1":
            asm.mfc1("v0", "f6")
        else:
            asm.op(op, "f8", "f6")
        asm.halt()
        program = asm.assemble()
        index = next(i for i, ins in enumerate(program.text) if ins.op == op)
        pc = program.address_of(index)
        with pytest.raises(SimulationError, match=rf"{op} at pc={pc:#x}: {value}"):
            run_program(program)


class TestTraceRecords:
    def test_alu_record_shape(self):
        asm = Assembler()
        asm.li("t0", 1)
        asm.li("t1", 2)
        asm.addu("v0", "t0", "t1")
        asm.halt()
        result = run_program(asm.assemble())
        pc, kind, dst, s1, s2, addr = result.trace[2]
        assert kind == int(Kind.ALU)
        assert dst == 2  # v0
        assert s1 == 8 and s2 == 9
        assert addr == 0

    def test_zero_register_sources_suppressed(self):
        asm = Assembler()
        asm.addu("v0", "zero", "zero")
        asm.halt()
        result = run_program(asm.assemble())
        _, _, dst, s1, s2, _ = result.trace[0]
        assert dst == 2
        assert s1 == NO_REG and s2 == NO_REG

    def test_load_record_address(self):
        asm = Assembler()
        asm.data_label("x")
        asm.word(5)
        asm.la("t0", "x")
        asm.lw("v0", 0, "t0")
        asm.halt()
        result = run_program(asm.assemble())
        load = [r for r in result.trace if r[1] == int(Kind.LOAD)][0]
        assert load[5] == DATA_BASE

    def test_branch_record_target(self):
        from repro.isa.program import TEXT_BASE

        asm = Assembler()
        asm.li("t0", 1)
        asm.beq("t0", "zero", "skip")  # not taken -> addr field 0
        asm.label("skip")
        asm.beq("t0", "t0", "end")  # taken -> addr field = target pc
        asm.label("end")
        asm.halt()
        result = run_program(asm.assemble())
        branches = [r for r in result.trace if r[1] == int(Kind.BRANCH)]
        assert branches[0][5] == 0  # not taken
        taken_target = branches[1][5]
        assert taken_target > TEXT_BASE
        # the target is the pc of the instruction after the delay slot
        following = [r for r in result.trace if r[0] == taken_target]
        assert following

    def test_hi_lo_dependency_encoding(self):
        asm = Assembler()
        asm.li("t0", 2)
        asm.mult("t0", "t0")
        asm.mflo("v0")
        asm.halt()
        result = run_program(asm.assemble())
        mult = [r for r in result.trace if r[2] == HI_REG]
        assert mult, "mult should write the HI/LO resource"
        mflo = [r for r in result.trace if r[3] == HI_REG]
        assert mflo, "mflo should read the HI/LO resource"

    def test_fp_register_encoding(self):
        asm = Assembler()
        asm.data_label("x")
        asm.float_double(1.0)
        asm.la("t0", "x")
        asm.ldc1("f2", 0, "t0")
        asm.add_d("f4", "f2", "f2")
        asm.halt()
        result = run_program(asm.assemble())
        add = [r for r in result.trace if r[1] == int(Kind.FP_ADD)][0]
        assert add[2] == FP_REG_BASE + 4
        assert add[3] == FP_REG_BASE + 2
