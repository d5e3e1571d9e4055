"""Interpreter vs core differential testing: architectural state must
agree regardless of micro-architectural modelling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.cpu import (Core, InterpStop, MachineState, generation,
                       interpret, run_function, set_fast_path)
from repro.errors import PageFault, SimulationTimeout
from repro.isa import Assembler
from repro.memory import VirtualMemory

#: small straight-line instruction menu for random programs
_MENU = [
    ("movi", "reg", "imm32"),
    ("addi8", "reg", "imm8"),
    ("subi8", "reg", "imm8"),
    ("add", "reg", "reg"),
    ("sub", "reg", "reg"),
    ("xor", "reg", "reg"),
    ("and", "reg", "reg"),
    ("imul", "reg", "reg"),
    ("shl", "reg", "shift"),
    ("shr", "reg", "shift"),
    ("inc", "reg"),
    ("neg", "reg"),
    ("cmp", "reg", "reg"),
    ("sete", "reg"),
    ("cmovb", "reg", "reg"),
    ("nop",),
]

_SAFE_REGS = [0, 1, 2, 3, 6, 7]     # avoid rsp/rbp


@st.composite
def straightline_programs(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    items = []
    for _ in range(count):
        template = draw(st.sampled_from(_MENU))
        operands = []
        for kind in template[1:]:
            if kind == "reg":
                operands.append(draw(st.sampled_from(_SAFE_REGS)))
            elif kind == "imm8":
                operands.append(draw(st.integers(-128, 127)))
            elif kind == "imm32":
                operands.append(draw(st.integers(0, (1 << 31) - 1)))
            elif kind == "shift":
                operands.append(draw(st.integers(0, 63)))
        items.append((template[0], tuple(operands)))
    return items


def _machine(program):
    memory = VirtualMemory()
    program.load_into(memory)
    state = MachineState(memory, rip=program.entry)
    state.setup_stack(0x7FFF0000)
    return state


@settings(max_examples=60, deadline=None)
@given(straightline_programs())
def test_core_and_interp_agree_on_random_programs(items):
    asm = Assembler(base=0x400000)
    for mnemonic, operands in items:
        asm.emit(mnemonic, *operands)
    asm.emit("hlt")
    program = asm.assemble()

    state_core = _machine(program)
    core = Core(generation("coffeelake"))
    core_result = core.run(state_core, collect_trace=True)

    state_interp = _machine(program)
    interp_result = interpret(state_interp)

    assert core_result.trace == interp_result.trace
    assert state_core.regs.snapshot() == state_interp.regs.snapshot()
    assert state_core.regs.flags == state_interp.regs.flags


def test_interpret_stops_on_unhandled_syscall():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rax", 24)
    asm.emit("syscall")
    asm.emit("hlt")
    state = _machine(asm.assemble())
    result = interpret(state)
    assert result.reason is InterpStop.SYSCALL


def test_interpret_syscall_handler_continues():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rax", 24)
    asm.emit("syscall")
    asm.emit("movi", "rbx", 7)
    asm.emit("hlt")
    state = _machine(asm.assemble())
    seen = []
    result = interpret(state,
                       syscall_handler=lambda s: seen.append(1) or True)
    assert result.reason is InterpStop.HALT
    assert seen == [1]
    assert state.regs["rbx"] == 7


def test_run_function_returns_via_sentinel():
    asm = Assembler(base=0x400000)
    asm.label("double_it")
    asm.emit("mov", "rax", "rdi")
    asm.emit("add", "rax", "rax")
    asm.emit("ret")
    program = asm.assemble()
    state = _machine(program)
    result = run_function(state, program.address_of("double_it"),
                          args=[21])
    assert result.reason is InterpStop.RETURNED
    assert state.regs["rax"] == 42


def test_branch_events_record_directions():
    asm = Assembler(base=0x400000)
    asm.emit("movi", "rcx", 3)
    asm.label("loop")
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    state = _machine(asm.assemble())
    result = interpret(state)
    directions = [taken for _, taken in result.branch_events]
    assert directions == [True, True, False]


# ----------------------------------------------------------------------
# the shared loop's exits, on the window path and the slow path
# ----------------------------------------------------------------------
@pytest.fixture(params=[False, True], ids=["slow", "fast"])
def fast_path(request):
    before = set_fast_path(request.param)
    yield request.param
    set_fast_path(before)


def _counting_loop(tail):
    """``rcx = 1000; do { dec; nop; nop } while (rcx)`` then ``tail``.

    The loop body is a three-item window ending in its ``jne8``, so a
    budget of 50 runs out one item into a window."""
    asm = Assembler(base=0x400000)
    asm.label("entry")
    asm.emit("movi", "rcx", 1000)
    asm.label("loop")
    asm.emit("dec", "rcx")
    asm.label("nop1")
    asm.emit("nop")
    asm.label("nop2")
    asm.emit("nop")
    asm.label("jne")
    asm.emit("jne8", "loop")
    asm.emit(tail)
    program = asm.assemble()
    body = [program.address_of(name)
            for name in ("loop", "nop1", "nop2", "jne")]
    expected = [program.address_of("entry")] + body * 20
    return program, expected


def test_run_function_budget_raises(fast_path):
    program, _ = _counting_loop("ret")
    state = _machine(program)
    with pytest.raises(SimulationTimeout) as caught:
        run_function(state, program.address_of("entry"),
                     max_instructions=50)
    assert caught.value.budget == 50
    assert caught.value.executed == 50
    assert not caught.value.deadline


def test_interpret_budget_raises_by_default(fast_path):
    program, _ = _counting_loop("hlt")
    with pytest.raises(SimulationTimeout) as caught:
        interpret(_machine(program), max_instructions=50,
                  raise_on_limit=True)
    assert caught.value.budget == 50
    assert caught.value.executed == 50


def test_interpret_budget_returns_limit(fast_path):
    program, expected = _counting_loop("hlt")
    state = _machine(program)
    result = interpret(state, max_instructions=50, raise_on_limit=False)
    assert result.reason is InterpStop.LIMIT
    assert result.instructions == 50
    assert result.trace == expected[:50]
    assert state.rip == expected[50]
    assert [taken for _, taken in result.branch_events] == [True] * 12


def test_run_function_fault_in_window_leaves_rip_at_fault(fast_path):
    """A load from an unmapped page inside a straight-line window: the
    faulting instruction is neither counted nor retired, and RIP
    points at it, exactly as on the slow path."""
    asm = Assembler(base=0x400000)
    asm.label("entry")
    asm.emit("movi", "rax", 1)
    asm.emit("movi", "rbx", 2)
    asm.label("load")
    asm.emit("load", "rcx", "rdi", 0)
    asm.emit("ret")
    program = asm.assemble()
    state = _machine(program)
    with telemetry.session() as sink:
        with pytest.raises(PageFault):
            run_function(state, program.address_of("entry"),
                         args=[0x9000_0000])
    assert state.rip == program.address_of("load")
    assert (state.regs["rax"], state.regs["rbx"]) == (1, 2)
    assert sink.counters["cpu.interp.instructions"] == 2
