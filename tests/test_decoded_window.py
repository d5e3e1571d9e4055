"""Decoded-window cache: invalidation, permission asymmetry, deadlines.

Covers the contract in DESIGN.md §9: windows are keyed by entry PC and
``code_generation`` (write epoch + paging epoch), so writes that change
executable bytes and map/unmap of a page invalidate both decode caches
in both engines — while same-bytes rewrites, remaps of a mapped page
and ``set_perms`` deliberately do *not*, preserving the oracle/core
permission asymmetry the controlled-channel attacker depends on.
"""

import pytest

from repro import telemetry
from repro.cpu import (Core, InterpStop, MachineState, StopReason,
                      interpret, set_fast_path)
from repro.cpu.decoded import build_window, fast_path_enabled, get_window
from repro.isa import Assembler
from repro.memory import VirtualMemory
from repro.memory.address import PAGE_SHIFT, PAGE_SIZE


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


BASE = 0x0040_0000


def constant_program(value):
    asm = Assembler(base=BASE)
    asm.emit("movi", "rax", value)
    asm.emit("hlt")
    return asm.assemble()


def fresh_state(memory):
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    return state


def run_core(memory):
    state = fresh_state(memory)
    core = Core()
    result = core.run(state)
    return result, state


# ----------------------------------------------------------------------
# invalidation: write to an executable page
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", [False, True])
class TestWriteInvalidation:
    def _load(self, fast):
        set_fast_path(fast)
        memory = VirtualMemory()
        constant_program(1).load_into(memory, perms="rwx")
        return memory

    def test_core_sees_new_bytes(self, fast):
        memory = self._load(fast)
        result, state = run_core(memory)
        assert result.reason is StopReason.HALT
        assert state.regs["rax"] == 1
        generation = memory.code_generation
        for base, data in constant_program(2).segments:
            memory.write_bytes(base, data, check=False)
        assert memory.code_generation != generation
        result, state = run_core(memory)
        assert result.reason is StopReason.HALT
        assert state.regs["rax"] == 2

    def test_interp_sees_new_bytes(self, fast):
        memory = self._load(fast)
        state = fresh_state(memory)
        assert interpret(state).reason is InterpStop.HALT
        assert state.regs["rax"] == 1
        for base, data in constant_program(2).segments:
            memory.write_bytes(base, data, check=False)
        state = fresh_state(memory)
        assert interpret(state).reason is InterpStop.HALT
        assert state.regs["rax"] == 2

    def test_both_caches_dropped(self, fast):
        memory = self._load(fast)
        run_core(memory)
        assert BASE in memory.icache
        if fast:
            assert memory.window_cache
        for base, data in constant_program(2).segments:
            memory.write_bytes(base, data, check=False)
        assert BASE not in memory.icache
        if fast:
            window = get_window(memory, BASE)
            assert window is None or window.generation == \
                memory.code_generation


# ----------------------------------------------------------------------
# invalidation: unmap + remap the code page
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", [False, True])
class TestRemapInvalidation:
    def test_core_sees_remapped_program(self, fast):
        set_fast_path(fast)
        memory = VirtualMemory()
        constant_program(1).load_into(memory)
        result, state = run_core(memory)
        assert state.regs["rax"] == 1
        memory.page_table.unmap_page(BASE >> PAGE_SHIFT)
        constant_program(2).load_into(memory)
        result, state = run_core(memory)
        assert result.reason is StopReason.HALT
        assert state.regs["rax"] == 2

    def test_interp_sees_remapped_program(self, fast):
        set_fast_path(fast)
        memory = VirtualMemory()
        constant_program(1).load_into(memory)
        state = fresh_state(memory)
        interpret(state)
        assert state.regs["rax"] == 1
        memory.page_table.unmap_page(BASE >> PAGE_SHIFT)
        constant_program(2).load_into(memory)
        state = fresh_state(memory)
        assert interpret(state).reason is InterpStop.HALT
        assert state.regs["rax"] == 2


# ----------------------------------------------------------------------
# precise invalidation: rewrites and remaps that change nothing keep
# every cache; real changes still reach both engines
# ----------------------------------------------------------------------
def _reload(memory, program):
    for base, data in program.segments:
        memory.write_bytes(base, data, check=False)


def _warm(memory):
    """Run the core fast, returning its cached window at ``BASE``."""
    set_fast_path(True)
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    window = memory.window_cache[BASE]
    assert window.generation == memory.code_generation
    return window


def _builds(memory):
    """One more fast core run, with the window builds it needed."""
    with telemetry.session() as sink:
        result, state = run_core(memory)
    return result, state, sink.snapshot().get("cpu.decode.window_builds", 0)


def test_same_bytes_rewrite_keeps_windows():
    memory = VirtualMemory()
    program = constant_program(1)
    program.load_into(memory, perms="rwx")
    window = _warm(memory)
    generation = memory.code_generation
    _reload(memory, program)
    assert memory.code_generation == generation
    assert BASE in memory.icache
    assert get_window(memory, BASE) is window
    result, state, builds = _builds(memory)
    assert result.reason is StopReason.HALT
    assert state.regs["rax"] == 1
    assert builds == 0


@pytest.mark.parametrize("fast", [False, True])
def test_one_byte_change_after_same_bytes_rewrite_runs_new_code(fast):
    memory = VirtualMemory()
    program = constant_program(1)
    program.load_into(memory, perms="rwx")
    _warm(memory)
    state = fresh_state(memory)
    assert interpret(state).reason is InterpStop.HALT     # warm oracle
    _reload(memory, program)
    generation = memory.code_generation
    # the movi's imm32 starts at +2; its low byte is the only change
    memory.write_bytes(BASE + 2, b"\x05", check=False)
    assert memory.code_generation != generation
    set_fast_path(fast)
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    assert state.regs["rax"] == 5
    state = fresh_state(memory)
    assert interpret(state).reason is InterpStop.HALT
    assert state.regs["rax"] == 5


def test_same_bytes_straddling_pages_compare_both_pages():
    memory = VirtualMemory()
    memory.map_range(BASE, 2 * PAGE_SIZE, "rwx")
    memory.icache[BASE + PAGE_SIZE - 4] = ("op", 8)   # code on both pages
    memory.write_bytes(BASE + PAGE_SIZE - 2, b"\x00\x00\x00\x00",
                       check=False)             # zeros over zeros
    generation = memory.code_generation
    memory.write_bytes(BASE + PAGE_SIZE - 2, b"\x00\x00\x00\x07",
                       check=False)             # last byte on page two
    assert memory.code_generation != generation
    assert BASE + PAGE_SIZE - 4 not in memory.icache


def test_remap_of_mapped_page_keeps_windows():
    memory = VirtualMemory()
    program = constant_program(1)
    program.load_into(memory)
    window = _warm(memory)
    generation = memory.code_generation
    program.load_into(memory)               # remap + same-bytes rewrite
    memory.map_range(BASE, PAGE_SIZE, "rx")
    assert memory.code_generation == generation
    assert get_window(memory, BASE) is window
    result, state, builds = _builds(memory)
    assert state.regs["rax"] == 1
    assert builds == 0


def test_remap_to_non_executable_still_faults():
    memory = VirtualMemory()
    constant_program(1).load_into(memory)
    _warm(memory)
    generation = memory.code_generation
    memory.map_range(BASE, PAGE_SIZE, "rw")
    assert memory.code_generation == generation     # perms stay live
    for fast in (False, True):
        set_fast_path(fast)
        result, state = run_core(memory)
        assert result.reason is StopReason.PAGE_FAULT
        assert state.rip == BASE


def test_unmap_then_map_still_invalidates():
    memory = VirtualMemory()
    constant_program(1).load_into(memory)
    _warm(memory)
    generation = memory.code_generation
    memory.page_table.unmap_page(BASE >> PAGE_SHIFT)
    memory.map_range(BASE, PAGE_SIZE, "rx")
    assert memory.code_generation == generation + 2
    result, state, builds = _builds(memory)
    assert state.regs["rax"] == 1
    assert builds >= 1


# ----------------------------------------------------------------------
# self-modifying code inside one window (store overwrites the next
# instruction): the has_store bail-out must match the slow path
# ----------------------------------------------------------------------
def self_modifying_program():
    # One 32-byte block: the store at +20 overwrites the "movi rbx, 1"
    # at +24 (and the trailing nop) with eight NOPs before it executes.
    asm = Assembler(base=BASE)
    asm.emit("movabs", "rax", 0x9090_9090_9090_9090)   # +0, 10 bytes
    asm.emit("movabs", "rdi", BASE + 24)               # +10, 10 bytes
    asm.emit("store", "rdi", "rax", 0)                 # +20, 4 bytes
    asm.emit("movi", "rbx", 1)                         # +24, 7 bytes
    asm.emit("nop")                                    # +31, 1 byte
    asm.emit("hlt")                                    # +32
    return asm.assemble()


@pytest.mark.parametrize("fast", [False, True])
def test_self_modifying_store_within_window(fast):
    set_fast_path(fast)
    memory = VirtualMemory()
    self_modifying_program().load_into(memory, perms="rwx")
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    assert state.regs["rbx"] == 0          # the movi never executed

    set_fast_path(fast)
    memory = VirtualMemory()
    self_modifying_program().load_into(memory, perms="rwx")
    state = fresh_state(memory)
    assert interpret(state).reason is InterpStop.HALT
    assert state.regs["rbx"] == 0


def test_self_modifying_fast_matches_slow_exactly():
    def run(fast):
        set_fast_path(fast)
        memory = VirtualMemory()
        self_modifying_program().load_into(memory, perms="rwx")
        state = fresh_state(memory)
        core = Core()
        result = core.run(state, collect_trace=True)
        return (result.reason, result.retired, result.instructions,
                result.cycles, tuple(result.trace),
                state.regs.snapshot())

    assert run(False) == run(True)


# ----------------------------------------------------------------------
# permission asymmetry: revoking execute is visible to the core's
# per-fetch check but invisible to the warm oracle (intentional — the
# controlled-channel supervisor flips permissions between single steps
# and the functional oracle must not observe that)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", [False, True])
def test_execute_revocation_asymmetry(fast):
    set_fast_path(fast)
    memory = VirtualMemory()
    constant_program(7).load_into(memory)

    # warm both decode caches
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    state = fresh_state(memory)
    assert interpret(state).reason is InterpStop.HALT

    generation = memory.code_generation
    memory.protect(BASE, PAGE_SIZE, "r")
    # set_perms must not invalidate: same generation, caches intact
    assert memory.code_generation == generation
    assert BASE in memory.icache

    # the core re-checks execute permission on every fetch...
    result, state = run_core(memory)
    assert result.reason is StopReason.PAGE_FAULT
    assert state.rip == BASE

    # ...the oracle serves warm cache entries regardless
    state = fresh_state(memory)
    result = interpret(state)
    assert result.reason is InterpStop.HALT
    assert state.regs["rax"] == 7

    # restoring execute lets the core run again without any reload
    memory.protect(BASE, PAGE_SIZE, "rx")
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    assert state.regs["rax"] == 7


def test_transient_revocation_does_not_pin_empty_windows():
    """An execute fault at a window entry must not be cached: once the
    permission comes back, the fast path has to recover."""
    set_fast_path(True)
    memory = VirtualMemory()
    constant_program(3).load_into(memory)
    memory.protect(BASE, PAGE_SIZE, "r")
    assert build_window(memory, BASE).count == 0
    assert BASE not in memory.window_cache
    memory.protect(BASE, PAGE_SIZE, "rx")
    assert build_window(memory, BASE).count > 0
    result, state = run_core(memory)
    assert result.reason is StopReason.HALT
    assert state.regs["rax"] == 3


# ----------------------------------------------------------------------
# DecodeCache page registration drives write-epoch bumps
# ----------------------------------------------------------------------
def test_decode_cache_registers_spanning_pages():
    memory = VirtualMemory()
    memory.icache[0x1FFE] = ("op", 3)      # straddles pages 1 and 2
    assert {0x1, 0x2} <= memory.icache.code_pages


def test_data_writes_do_not_bump_generation():
    memory = VirtualMemory()
    constant_program(1).load_into(memory)
    memory.map_range(0x0090_0000, PAGE_SIZE, "rw")
    run_core(memory)                        # populate code_pages
    generation = memory.code_generation
    memory.write_u64(0x0090_0000, 0xDEAD)
    assert memory.code_generation == generation


# ----------------------------------------------------------------------
# deadline checks: no clock call at instruction 0, strided afterwards
# ----------------------------------------------------------------------
def _count_monotonic(monkeypatch):
    import repro.cpu.interp as interp_mod
    calls = {"n": 0}
    real = interp_mod.time.monotonic

    def counting():
        calls["n"] += 1
        return real()

    monkeypatch.setattr(interp_mod.time, "monotonic", counting)
    return calls


def test_short_run_never_touches_the_clock(monkeypatch):
    memory = VirtualMemory()
    constant_program(1).load_into(memory)
    state = fresh_state(memory)
    calls = _count_monotonic(monkeypatch)
    interpret(state, deadline=1e18)
    assert calls["n"] == 0


def test_long_run_checks_the_clock(monkeypatch):
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", 3_000)
    asm.label("loop")
    asm.emit("dec", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    memory = VirtualMemory()
    asm.assemble().load_into(memory)
    state = fresh_state(memory)
    calls = _count_monotonic(monkeypatch)
    interpret(state, deadline=1e18)
    assert calls["n"] >= 1


def test_check_deadline_skips_instruction_zero(monkeypatch):
    from repro.cpu.interp import _check_deadline
    calls = _count_monotonic(monkeypatch)
    _check_deadline(0, 1e18)
    assert calls["n"] == 0                 # the old bug paid one here
    _check_deadline(2048, 1e18)
    assert calls["n"] == 1
