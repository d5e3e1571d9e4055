"""Post-interrupt fetch-ahead and speculative execution (§6.3) —
the behaviours NV-S single-stepping fundamentally relies on."""

import pytest

from repro.cpu import Core, MachineState, generation
from repro.isa import Assembler, Kind
from repro.memory import VirtualMemory


def build(asm_fn, base=0x400000):
    asm = Assembler(base=base)
    asm_fn(asm)
    return asm.assemble()


def machine(program, entry=None):
    memory = VirtualMemory()
    program.load_into(memory)
    state = MachineState(memory, rip=entry if entry is not None
                         else program.entry)
    state.setup_stack(0x7FFF0000)
    return state


def _alias_sled(config, victim_block_fn):
    """Program with a jmp entry in one block plus an aliased region
    built by victim_block_fn."""
    def body(asm):
        asm.label("jump")
        asm.nops(30)
        asm.emit("jmp8", "land")       # entry at block offset 31
        asm.label("land")
        asm.emit("hlt")
        asm.org(0x400000 + config.collision_distance)
        asm.label("sled")
        victim_block_fn(asm)
    return build(body)


class TestDrain:
    def test_speculation_stops_at_nx_page(self):
        """Speculative fetch past the stepped instruction never
        crosses an NX page boundary — and never faults
        architecturally (controlled-channel NX marking must not be
        tripped by fetch-ahead)."""
        config = generation("skylake")

        def body(asm):
            # stepped instruction is the last one on page 0
            asm.org(0x400FF8)
            asm.label("start")
            asm.emit("movi", "rbx", 1)      # 7 bytes: 0x400FF8..FFE
            asm.emit("nop")                 # 0x400FFF
            asm.label("next_page")          # 0x401000 (page 1)
            asm.emit("jmp8", "later")
            asm.label("later")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program, entry=program.address_of("start"))
        state.memory.protect(0x401000, 4096, "r--")   # page 1 NX
        result = core.run(state, max_retired=2)
        # both page-0 instructions retired; the page-1 jump was never
        # speculatively fetched (no allocation, no fault)
        assert result.retired == 2
        assert core.btb.occupancy() == 0

    def test_drain_follows_direct_jump_and_allocates(self):
        """Decode-time allocation: an unretired direct jump leaves a
        BTB entry behind (what makes Fig. 5 cases 1/2 visible when
        single-stepping)."""
        config = generation("skylake")

        def body(asm):
            asm.label("start")
            asm.emit("movi", "rax", 1)       # the stepped instruction
            asm.emit("jmp", "target")        # never retires
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=1)
        # only the movi retired...
        assert state.rip == program.address_of("start") + 7
        # ...but the jump's entry exists (allocated at decode)
        jmp_pc = program.address_of("start") + 7
        assert core.btb.entry_for(jmp_pc + 5 - 1) is not None

    def test_drain_assumes_conditionals_not_taken(self):
        """Fetch-ahead walks the fall-through of an unpredicted
        conditional, reaching (and deallocating) later aliases."""
        config = generation("skylake")

        def victim(asm):
            asm.nops(8)
            asm.emit("cmpi8", "rax", 99)
            asm.emit("je", "far")             # never fuses: je is 6B
            asm.nops(10)
            asm.label("far")
            asm.emit("hlt")
        program = _alias_sled(config, victim)
        core = Core(config)
        core.run(machine(program))            # allocate jmp entry
        occupancy = core.btb.occupancy()
        state = machine(program, entry=program.address_of("sled"))
        core.run(state, max_retired=1)        # step one nop
        assert core.btb.stats.deallocations >= 1


class TestSpeculativeExecution:
    def test_spec_verifies_ret_target(self):
        """A predicted ret whose target changed gets corrected
        speculatively (observable target update)."""
        config = generation("skylake", spec_lookahead=4)

        def body(asm):
            asm.label("fn")
            asm.emit("ret")
            asm.org(0x400100)
            asm.label("caller")
            asm.emit("call", "fn")
            asm.emit("hlt")
            asm.org(0x400200)
            asm.label("caller2")
            asm.emit("call", "fn")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        core.run(machine(program, entry=program.address_of("caller")))
        entry = core.btb.entry_for(program.address_of("fn"))
        assert entry is not None
        first_target = entry.target
        # single-step just the call from the second site; the ret
        # executes only speculatively, yet its entry is re-targeted
        state = machine(program, entry=program.address_of("caller2"))
        core.run(state, max_retired=1)
        assert entry.target != first_target

    def test_spec_disabled_is_precise(self):
        config = generation("skylake", spec_lookahead=0,
                            drain_windows=0)

        def body(asm):
            asm.emit("movi", "rax", 1)
            asm.emit("jmp8", "next")
            asm.label("next")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=1)
        assert core.btb.occupancy() == 0      # nothing ran ahead

    def test_spec_does_not_commit_architectural_state(self):
        config = generation("skylake", spec_lookahead=8)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movi", "rbx", 99)      # speculative only
            asm.emit("storew", "rsp", "rbx", -64)
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        rsp = state.rsp
        core.run(state, max_retired=1)
        assert state.regs["rbx"] == 0
        assert state.memory.read_u64(rsp - 64, check=False) == 0

    def test_spec_stops_at_lfence(self):
        """lfence serializes *execution*: an indirect jump behind it
        is never speculatively executed, so its entry never appears.
        (Fetch/decode may still walk past — direct branches would be
        decode-allocated — hence the indirect jump here.)"""
        config = generation("skylake", spec_lookahead=8)

        def body(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("movi", "rax", 1)       # stepped (2nd unit)
            asm.emit("lfence")
            asm.emit("jmpr", "rdi")          # must NOT execute
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program = build(body)
        core = Core(config)
        state = machine(program)
        core.run(state, max_retired=2)
        assert core.btb.occupancy() == 0

        # control experiment: without the fence the indirect jump DOES
        # speculatively execute and allocates its entry
        config2 = generation("skylake", spec_lookahead=8)

        def body2(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("movi", "rax", 1)
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.label("target")
            asm.emit("hlt")
        program2 = build(body2)
        core2 = Core(config2)
        core2.run(machine(program2), max_retired=2)
        assert core2.btb.occupancy() == 1


# ----------------------------------------------------------------------
# run-ahead on decoded windows: each case runs with the fast path off
# (the oracle) and on, and the full observable state must match
# ----------------------------------------------------------------------
def run_both(program, config, *, max_retired=1, steps=1, seed=None,
             entry=None, setup=None):
    """Run ``steps`` stops of ``max_retired`` units under both engines;
    returns the two observable dicts (regs, memory, BTB, LBR, cycles,
    false-hit events)."""
    from repro import telemetry
    from repro.cpu import set_fast_path

    def run(fast):
        previous = set_fast_path(fast)
        try:
            with telemetry.session(trace=True) as sink:
                core = Core(config)
                state = machine(program, entry=entry)
                if setup is not None:
                    setup(state)
                if seed is not None:
                    seed(core)
                results = []
                for _ in range(steps):
                    result = core.run(state, max_retired=max_retired,
                                      collect_trace=True)
                    results.append((result.reason, result.retired,
                                    result.cycles, tuple(result.trace)))
                    if result.reason.value != "retire_limit":
                        break
                btb = sorted((e.tag, e.set_index, e.offset, e.target,
                              e.kind.value) for e in core.btb.valid_entries())
                return {
                    "results": results,
                    "regs": state.regs.snapshot(),
                    "rip": state.rip,
                    "cycles": core.cycles,
                    "btb": btb,
                    "btb_stats": (core.btb.stats.lookups,
                                  core.btb.stats.hits,
                                  core.btb.stats.allocations,
                                  core.btb.stats.deallocations),
                    "lbr": [(r.from_pc, r.to_pc, r.elapsed_cycles,
                             r.mispredicted) for r in core.lbr.records()],
                    "stack": state.memory.read_bytes(
                        state.rsp - 128, 256, check=False),
                    "accessed": sorted(
                        state.memory.page_table.accessed_pages()),
                    "false_hits": [e for e in sink.events
                                   if e["ev"] == "cpu.core.false_hit"],
                    "lookahead": sink.counters.get(
                        "cpu.core.fastpath.lookahead_instructions", 0),
                }
        finally:
            set_fast_path(previous)

    slow, fast = run(False), run(True)
    assert slow.pop("lookahead") == 0
    return slow, fast


class TestRunAheadOnWindows:
    def test_lfence_mid_prefix(self):
        """The lookahead runs the window prefix up to the lfence and no
        further: the indirect jump behind it never allocates."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movi", "rbx", 2)
            asm.emit("lfence")
            asm.emit("movi", "rcx", 3)
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.emit("hlt")
        slow, fast = run_both(build(body), config, max_retired=2)
        assert fast.pop("lookahead") >= 1
        assert slow == fast
        assert slow["btb"] == []

    def test_prediction_inside_prefix(self):
        """An entry predicting a byte inside the straight-line prefix
        sends the run-ahead through the per-instruction code: the false
        hit fires identically."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movi", "rbx", 2)       # 0x400007..0x40000d
            asm.emit("movi", "rcx", 3)
            asm.emit("hlt")

        def seed(core):
            core.btb.allocate(0x40000A, 0x400000, Kind.DIRECT_JUMP)
        slow, fast = run_both(build(body), config, seed=seed)
        fast.pop("lookahead")
        assert slow == fast
        assert slow["false_hits"]
        assert slow["btb_stats"][3] >= 1

    def test_spec_store_then_load_in_one_prefix(self):
        """A speculative store forwards to a later load of the same
        address inside one prefix (store-buffer overlay); the loaded
        value steers an indirect jump whose entry records it, and real
        memory never sees the store."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movabs", "rbx", 0x400200)
            asm.emit("storew", "rsp", "rbx", -64)
            asm.emit("loadw", "rcx", "rsp", -64)
            asm.emit("jmpr", "rcx")
            asm.org(0x400200)
            asm.emit("hlt")
        slow, fast = run_both(build(body), config)
        assert fast.pop("lookahead") >= 3
        assert slow == fast
        assert [entry[3] for entry in slow["btb"]] == [0x400200]
        assert slow["stack"] == bytes(256)

    def test_faulting_spec_load(self):
        """A speculative load from an unmapped page ends speculation:
        the indirect jump after it never allocates."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("movabs", "rsi", 0x7700_0000)
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("load", "rcx", "rsi", 0)
            asm.emit("jmpr", "rdi")
            asm.org(0x400100)
            asm.emit("hlt")
        slow, fast = run_both(build(body), config)
        assert fast.pop("lookahead") >= 2
        assert slow == fast
        assert slow["btb"] == []

    def test_entry_predicting_junk_after_hlt(self):
        """The drain walks past ``hlt`` into junk bytes (cached bad-
        opcode windows with the fast path on); an entry predicting a
        branch end on one is a false hit either way."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.emit("movi", "rax", 1)       # stepped
            asm.emit("hlt")                  # 0x400007; zeros follow

        def seed(core):
            core.btb.allocate(0x40000C, 0x400000, Kind.DIRECT_JUMP)
        slow, fast = run_both(build(body), config, steps=3, seed=seed)
        fast.pop("lookahead")
        assert slow == fast
        assert [e["pc"] for e in slow["false_hits"]] == [0x40000C]

    def test_nx_page_with_cached_window(self):
        """Permissions are enforced live, not cached: a window decoded
        while its page was executable is still cached after the page
        goes NX, and the run-ahead must stall there instead of running
        it into the next (executable) page."""
        config = generation("skylake", spec_lookahead=12)

        def body(asm):
            asm.org(0x400100)
            asm.label("done")
            asm.emit("hlt")
            asm.org(0x400FF0)
            asm.label("start")
            asm.emit("jmp", "tail")           # stepped
            asm.org(0x401FE0)
            asm.label("tail")                 # last block of page 1
            for _ in range(4):
                asm.emit("movi", "rax", 2)
            asm.nops(4)                       # falls into page 2
            asm.emit("movabs", "rdi", 0x400100)
            asm.emit("jmpr", "rdi")
        program = build(body)

        def setup(state):
            warm = MachineState(state.memory,
                                rip=program.address_of("start"))
            warm.setup_stack(0x7FFE0000)
            Core(config).run(warm)            # decodes every window
            state.memory.protect(0x401000, 4096, "r")
        slow, fast = run_both(program, config, setup=setup,
                              entry=program.address_of("start"))
        fast.pop("lookahead")
        assert slow == fast
        assert len(slow["btb"]) == 1          # the stepped jmp only

    def test_drain_checks_cached_window_page(self):
        """A drain that skips a cached window's prefix still performs
        that block's fetch check: the accessed bit of a page the drain
        only fetched from matches the per-instruction oracle."""
        config = generation("skylake", spec_lookahead=0, drain_windows=2)

        def body(asm):
            asm.org(0x400FF9)
            asm.label("start")
            asm.emit("movi", "rax", 1)        # stepped; ends page 0
            for _ in range(4):                # page 1's first block:
                asm.emit("movi", "rbx", 2)    # drained only, and a
            asm.nops(4)                       # prefix to its end
            asm.emit("hlt")
        program = build(body)

        def setup(state):
            warm = MachineState(state.memory,
                                rip=program.address_of("start"))
            warm.setup_stack(0x7FFE0000)
            Core(config).run(warm)            # decodes every window
            state.memory.page_table.clear_accessed_dirty()
        slow, fast = run_both(program, config, setup=setup,
                              entry=program.address_of("start"))
        fast.pop("lookahead")
        assert slow == fast
        assert 0x401 in slow["accessed"]
