"""Superblock engine: chained windows across predicted edges.

Covers the invalidation edges DESIGN.md §14 promises:

* a store inside a chained window that rewrites a *later* window's
  bytes bails mid-chain with partial accounting identical to the
  window path;
* ``set_perms`` does **not** invalidate chains (permission asymmetry),
  but the per-link execute check faults live, mid-chain, at the right
  PC;
* BTB churn — evictions, mispredict-driven retargets — flips the
  per-set generation signature and forces a rebuild on the next
  dispatch (unrelated-set churn does not);
* retire-budget clips that would land mid-chain fall back to the
  window path and stay bit-identical to the slow path at every stride;
* gadget reloads (remap + same-bytes rewrite) and domain switches
  without BTB partitioning keep chains, while a real byte change or a
  partitioned domain switch still invalidates them.

Everything here runs the full fast-vs-slow observable comparison: the
superblock executor commits cycles, traces, BTB and LBR effects, so
equality must hold to the bit, not just architecturally.
"""

import pytest

from repro import telemetry
from repro.cpu import Core, MachineState, StopReason, set_fast_path
from repro.cpu.config import (BTB_BACKENDS, DEFAULT_GENERATION,
                              backend_generation)
from repro.cpu.decoded import (Superblock, build_superblock,
                               fast_path_enabled)
from repro.isa import Assembler
from repro.memory import VirtualMemory
from repro.memory.address import PAGE_SIZE


@pytest.fixture(autouse=True)
def _restore_fast_path():
    before = fast_path_enabled()
    yield
    set_fast_path(before)


BASE = 0x0040_0000


# ----------------------------------------------------------------------
# harness: run a program fast and slow, capture every observable
# ----------------------------------------------------------------------
def _observables(core, state, results):
    btb = sorted((e.tag, e.set_index, e.offset, e.target, e.kind.value,
                  e.domain) for e in core.btb.valid_entries())
    lbr = [(r.from_pc, r.to_pc, r.elapsed_cycles, r.mispredicted)
           for r in core.lbr.records()]
    runs = [(r.reason, r.retired, r.instructions, r.cycles,
             tuple(r.trace or ()), tuple(r.unit_starts or ()))
            for r in results]
    return {
        "runs": runs,
        "regs": state.regs.snapshot(),
        "flags": state.regs.flags.as_tuple(),
        "rip": state.rip,
        "cycles": core.cycles,
        "total_retired": core.total_retired,
        "btb": btb,
        "lbr": lbr,
    }


def run_program(program, *, fast, max_retired=None, setup=None,
                stop_on=(StopReason.HALT, StopReason.PAGE_FAULT)):
    """Run ``program`` start-to-stop on a fresh core; capture all."""
    previous = set_fast_path(fast)
    try:
        memory = VirtualMemory()
        program.load_into(memory, perms="rwx")
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        if setup is not None:
            setup(memory, state)
        results = []
        with telemetry.session() as sink:
            core = Core(DEFAULT_GENERATION)
            for _ in range(100_000):
                result = core.run(state, collect_trace=True,
                                  max_retired=max_retired)
                results.append(result)
                if result.reason in stop_on:
                    break
            else:
                raise AssertionError("program never stopped")
        observables = _observables(core, state, results)
        return observables, sink.snapshot()
    finally:
        set_fast_path(previous)


def assert_fast_matches_slow(program, **kwargs):
    slow, _ = run_program(program, fast=False, **kwargs)
    fast, counters = run_program(program, fast=True, **kwargs)
    assert fast == slow
    return counters


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
def counted_loop(iterations):
    """A hot taken-edge loop: builds a loop superblock once warm."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", iterations)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("loop")
    asm.emit("addi8", "rax", 3)
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    return asm.assemble()


def nested_loops(outer, inner):
    """Inner loop exits (mispredict) once per outer pass: every
    re-entry dispatches a chain whose pinned entry was just
    retargeted, so the dispatcher must invalidate and rebuild."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rdx", outer)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("outer")
    asm.emit("movi", "rcx", inner)
    asm.align(32)
    asm.label("inner")
    asm.emit("addi8", "rax", 1)
    asm.emit("dec", "rcx")
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "inner")
    asm.emit("dec", "rdx")
    asm.emit("test", "rdx", "rdx")
    asm.emit("jne8", "outer")
    asm.emit("hlt")
    return asm.assemble()


# ----------------------------------------------------------------------
# the happy path: chains build, hit, and stay bit-identical
# ----------------------------------------------------------------------
def test_loop_chain_builds_and_hits():
    counters = assert_fast_matches_slow(counted_loop(500))
    assert counters.get("cpu.superblock.builds", 0) >= 1
    assert counters.get("cpu.superblock.hits", 0) >= 1


def test_superblock_object_shape():
    memory = VirtualMemory()
    counted_loop(10).load_into(memory, perms="rwx")
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    core = Core(DEFAULT_GENERATION)
    # warm the BTB so the backward edge is predicted
    set_fast_path(False)
    assert core.run(state).reason is StopReason.HALT
    loop_pc = BASE + 32
    sb = build_superblock(memory, core.btb, loop_pc, True)
    assert isinstance(sb, Superblock)
    assert sb.loop and sb.loop_taken
    assert sb.links[-1].target == loop_pc
    assert sb.btb_valid(core.btb)
    # a foreign BTB never validates (chains pin their owner)
    assert not sb.btb_valid(Core(DEFAULT_GENERATION).btb)


# ----------------------------------------------------------------------
# edge 1: self-modifying store inside a chained window
# ----------------------------------------------------------------------
def test_self_modifying_store_in_chain_bails():
    """A chained window's store rewrites a later window's bytes: the
    executor must bail at the generation flip and commit the partial
    pass exactly like the window path."""
    asm = Assembler(base=BASE)
    asm.emit("movi", "rcx", 40)
    asm.emit("movi", "rax", 0)
    asm.align(32)
    asm.label("loop")
    asm.emit("addi8", "rax", 1)          # imm8 at loop + 2
    asm.emit("addi8", "rsi", 1)          # next imm8 for the first addi8
    asm.emit("dec", "rcx")
    asm.emit("store", "rbx", "rsi", 0)   # [rbx] <- rsi (8-byte store)
    asm.emit("test", "rcx", "rcx")
    asm.emit("jne8", "loop")
    asm.emit("hlt")
    program = asm.assemble()

    def setup(memory, state):
        # rbx points at the first addi8's immediate byte and rsi holds
        # the eight code bytes stored there.  Each iteration bumps
        # rsi's low byte before the store, so every store really
        # rewrites the immediate (1 -> 2 -> ... -> 41, no carry) and
        # keeps the other seven bytes: the code generation flips on
        # every pass, while the loop count stays fixed by rcx.
        target = BASE + 32 + 2
        state.regs["rbx"] = target
        state.regs["rsi"] = int.from_bytes(
            memory.read_bytes(target, 8, check=False), "little")

    counters = assert_fast_matches_slow(program, setup=setup)
    assert counters.get("cpu.superblock.builds", 0) >= 1
    assert counters.get("cpu.superblock.bailouts", 0) >= 1
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


# ----------------------------------------------------------------------
# edge 2: set_perms asymmetry — no invalidation, live fault mid-chain
# ----------------------------------------------------------------------
def two_page_straightline():
    """Straight-line code whose chain crosses a page boundary: the
    last 32-byte block of page one chains (boundary edge) into the
    first block of page two."""
    asm = Assembler(base=BASE)
    asm.emit("jmp", "entry")            # jump to the page-A tail block
    asm.org(BASE + PAGE_SIZE - 32)
    asm.label("entry")
    for _ in range(8):                  # fills the 32-byte block
        asm.emit("addi8", "rax", 1)
    # page B begins here: one more straight-line block, then halt
    for _ in range(8):
        asm.emit("addi8", "rax", 2)
    asm.emit("hlt")
    return asm.assemble()


def test_set_perms_faults_mid_chain_without_invalidation():
    program = two_page_straightline()
    entry = BASE + PAGE_SIZE - 32
    page_b = BASE + PAGE_SIZE

    def revoke(memory, state):
        memory.protect(page_b, PAGE_SIZE, "r")

    # fast and slow fault identically: at page B's first PC, with the
    # page-A block's work committed
    slow, _ = run_program(program, fast=False, setup=revoke)
    fast, _ = run_program(program, fast=True, setup=revoke)
    assert fast == slow
    assert fast["rip"] == page_b
    assert fast["runs"][-1][0] is StopReason.PAGE_FAULT
    assert fast["regs"]["rax"] == 8     # page-A block retired

    # and the revocation did not invalidate anything: same memory,
    # restore execute, and the chain runs to completion without a
    # second build
    set_fast_path(True)
    memory = VirtualMemory()
    program.load_into(memory, perms="rwx")
    memory.protect(page_b, PAGE_SIZE, "r")
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    with telemetry.session() as sink:
        core = Core(DEFAULT_GENERATION)
        assert core.run(state).reason is StopReason.PAGE_FAULT
        generation = memory.code_generation
        memory.protect(page_b, PAGE_SIZE, "rx")
        assert memory.code_generation == generation      # asymmetry
        builds_after_fault = sink.snapshot().get(
            "cpu.superblock.builds", 0)
        state2 = MachineState(memory, rip=BASE)
        state2.setup_stack(0x7FFF_0000)
        assert core.run(state2).reason is StopReason.HALT
        assert state2.regs["rax"] == 8 + 16
        # the chain over page A survived untouched; at most page-B
        # blocks needed fresh builds
        assert entry in memory.superblock_cache
        assert isinstance(memory.superblock_cache[entry], Superblock)
    assert sink.snapshot().get("cpu.superblock.invalidations", 0) == 0
    assert builds_after_fault >= 1


# ----------------------------------------------------------------------
# edge 3: BTB churn invalidates via the per-set signature
# ----------------------------------------------------------------------
def test_mispredict_retarget_invalidates_and_rebuilds():
    counters = assert_fast_matches_slow(nested_loops(6, 50))
    assert counters.get("cpu.superblock.builds", 0) >= 2
    assert counters.get("cpu.superblock.bailouts", 0) >= 1
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


def test_btb_flush_invalidates_chain():
    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(200).load_into(memory, perms="rwx")
    core = Core(DEFAULT_GENERATION)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    loop_pc = BASE + 32
    sb = memory.superblock_cache.get(loop_pc)
    assert isinstance(sb, Superblock)
    assert sb.btb_valid(core.btb)
    core.btb.flush()
    assert not sb.btb_valid(core.btb)

    # a rerun must still be correct — and must have rebuilt
    with telemetry.session() as sink:
        core.attach_telemetry(sink)
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        assert core.run(state).reason is StopReason.HALT
        assert state.regs["rax"] == 200 * 3
    assert sink.snapshot().get("cpu.superblock.invalidations", 0) >= 1
    assert sink.snapshot().get("cpu.superblock.builds", 0) >= 1


def test_unrelated_set_churn_keeps_chain_valid():
    """Only the chain's own sets are in the signature: churn anywhere
    else refreshes the cheap global stamp instead of invalidating."""
    set_fast_path(True)
    memory = VirtualMemory()
    counted_loop(100).load_into(memory, perms="rwx")
    core = Core(DEFAULT_GENERATION)
    state = MachineState(memory, rip=BASE)
    state.setup_stack(0x7FFF_0000)
    assert core.run(state).reason is StopReason.HALT
    sb = memory.superblock_cache.get(BASE + 32)
    assert isinstance(sb, Superblock)
    victim_sets = set(sb.set_indices)
    # bump generations of sets the chain does not touch
    other = next(i for i in range(len(core.btb.set_gens))
                 if i not in victim_sets)
    core.btb.set_gens[other] += 1
    core.btb.generation += 1
    assert sb.btb_valid(core.btb)
    # ... and the global stamp was refreshed to the new generation
    assert sb.btb_generation == core.btb.generation


# ----------------------------------------------------------------------
# edge 4: retire-budget clips never land mid-chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride", [1, 2, 3, 5, 7, 11, 16])
def test_budget_clip_equivalence(stride):
    assert_fast_matches_slow(counted_loop(60), max_retired=stride)


@pytest.mark.parametrize("stride", [3, 7, 13])
def test_budget_clip_equivalence_nested(stride):
    assert_fast_matches_slow(nested_loops(4, 9), max_retired=stride)


# ----------------------------------------------------------------------
# edge 5: precise invalidation — what changes nothing keeps the chain
# ----------------------------------------------------------------------
LOOP_PC = BASE + 32


def _warm_loop(config=DEFAULT_GENERATION):
    """Run ``counted_loop(100)`` fast until a rerun needs no rebuild
    (the first rerun still rebuilds once after the exit mispredict);
    return its cached loop chain."""
    set_fast_path(True)
    program = counted_loop(100)
    memory = VirtualMemory()
    program.load_into(memory, perms="rwx")
    core = Core(config)
    for _ in range(2):
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        assert core.run(state).reason is StopReason.HALT
    sb = memory.superblock_cache.get(LOOP_PC)
    assert isinstance(sb, Superblock)
    return program, memory, core, sb


def _rerun(memory, core):
    """Run the loop again on the same core; return rax and counters."""
    with telemetry.session() as sink:
        core.attach_telemetry(sink)
        state = MachineState(memory, rip=BASE)
        state.setup_stack(0x7FFF_0000)
        assert core.run(state).reason is StopReason.HALT
    return state.regs["rax"], sink.snapshot()


def test_gadget_reload_keeps_chain():
    """Reloading identical code (remap of the mapped pages plus a
    same-bytes rewrite) changes no decode: no window or chain
    rebuild."""
    program, memory, core, sb = _warm_loop()
    generation = memory.code_generation
    program.load_into(memory, perms="rwx")
    assert memory.code_generation == generation
    assert memory.superblock_cache[LOOP_PC] is sb
    rax, counters = _rerun(memory, core)
    assert rax == 100 * 3
    assert counters.get("cpu.superblock.builds", 0) == 0
    assert counters.get("cpu.superblock.invalidations", 0) == 0
    assert counters.get("cpu.decode.window_builds", 0) == 0
    assert counters.get("cpu.superblock.hits", 0) >= 1


def test_real_byte_change_after_reload_rebuilds_chain():
    program, memory, core, sb = _warm_loop()
    program.load_into(memory, perms="rwx")
    memory.write_bytes(LOOP_PC + 2, b"\x05", check=False)  # addi8 imm
    assert sb.code_generation != memory.code_generation
    rax, counters = _rerun(memory, core)
    assert rax == 100 * 5
    assert counters.get("cpu.superblock.invalidations", 0) >= 1
    assert counters.get("cpu.superblock.builds", 0) >= 1


def test_domain_switch_keeps_chain_without_partitioning():
    program, memory, core, sb = _warm_loop()
    set_gens = list(core.btb.set_gens)
    core.context_switch(domain=1)
    assert core.btb.set_gens == set_gens
    assert sb.btb_valid(core.btb)
    rax, counters = _rerun(memory, core)
    assert rax == 100 * 3
    assert counters.get("cpu.superblock.builds", 0) == 0
    assert counters.get("cpu.superblock.invalidations", 0) == 0


def test_domain_switch_under_partitioning_invalidates_chain():
    config = DEFAULT_GENERATION.with_(btb_partitioning=True)
    program, memory, core, sb = _warm_loop(config)
    jne_pc = sb.links[-1].term_pc
    assert core.btb.peek(jne_pc) is not None
    core.context_switch(domain=1)
    assert not sb.btb_valid(core.btb)
    assert core.btb.peek(jne_pc) is None      # domain 0's entry hidden
    rax, counters = _rerun(memory, core)
    assert rax == 100 * 3
    assert counters.get("cpu.superblock.invalidations", 0) >= 1


GADGET_BASE = BASE + (1 << 32)      # 4 GiB away: aliases on intel


def gadget(count):
    """A probe-gadget stand-in: a short counted loop.  Variants differ
    only in the loop-count immediate, so swapping them is a real
    one-byte change at an identical layout."""
    asm = Assembler(base=GADGET_BASE)
    asm.emit("movi", "rcx", count)
    asm.label("spin")
    asm.emit("dec", "rcx")
    asm.emit("jne8", "spin")
    asm.emit("hlt")
    return asm.assemble()


def _single_step_attack(config, *, fast):
    """Single-step a victim; between steps switch domains, reload a
    gadget (mostly identical bytes, a real change every 16 steps) and
    run it — the NV-S shape.  Returns every observable."""
    previous = set_fast_path(fast)
    try:
        victim_memory = VirtualMemory()
        nested_loops(3, 6).load_into(victim_memory, perms="rx")
        victim = MachineState(victim_memory, rip=BASE)
        victim.setup_stack(0x7FFF_0000)
        attacker_memory = VirtualMemory()
        gadgets = (gadget(2), gadget(3))
        results = []
        with telemetry.session():
            core = Core(config)
            for step in range(10_000):
                core.context_switch(domain=1)
                result = core.run(victim, collect_trace=True,
                                  max_retired=1)
                results.append(result)
                core.context_switch(domain=0)
                gadgets[(step // 16) % 2].load_into(attacker_memory)
                attacker = MachineState(attacker_memory, rip=GADGET_BASE)
                attacker.setup_stack(0x7FFF_0000)
                results.append(core.run(attacker, collect_trace=True))
                if result.reason is StopReason.HALT:
                    break
            else:
                raise AssertionError("victim never halted")
        return _observables(core, victim, results)
    finally:
        set_fast_path(previous)


@pytest.mark.parametrize("partitioning", [False, True])
@pytest.mark.parametrize("backend", tuple(BTB_BACKENDS))
def test_single_step_reload_and_domain_switch_equivalence(backend,
                                                           partitioning):
    config = backend_generation(backend, btb_partitioning=partitioning)
    slow = _single_step_attack(config, fast=False)
    fast = _single_step_attack(config, fast=True)
    assert fast == slow
    assert fast["regs"]["rax"] == 3 * 6
