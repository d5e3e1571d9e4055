"""Spans around the layers' public functions, for the traced run only.

:class:`Tracer` swaps each boundary below for a wrapper that records a
span — ``(name, start, end, parent, op)`` — in memory, and restores the
originals on :meth:`Tracer.uninstall`.  The timed runs never install
it.  A layer's self time is its spans' durations minus the time their
child spans cover; the op's root span holds what no layer claims.

Simulated event counts come from the program's own telemetry session,
not from these wrappers, except the code-generation bumps and the
per-call instruction split of ``Core.run``, which the telemetry does
not break down.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.analysis.symbolic.certify as certify_mod
import repro.analysis.symbolic.executor as executor_mod
import repro.analysis.symbolic.witness as witness_mod
import repro.cpu.core as core_mod
import repro.cpu.interp as interp_mod
import repro.victims.library as library_mod
from repro.analysis.symbolic.bitvec import BitCtx
from repro.core.cfl import ControlFlowLeakAttack
from repro.core.nv_core import NvCore, ProbeSession
from repro.core.nv_supervisor import NvSupervisor
from repro.cpu.core import Core
from repro.isa.assembler import AssembledProgram
from repro.lang.codegen import Compiler
from repro.memory.memory import VirtualMemory
from repro.memory.paging import PageTable
from repro.sgx.enclave import Enclave
from repro.sgx.sgxstep import SgxStepper
from repro.system.kernel import Kernel
from repro.victims.library import VictimProgram

Span = Tuple[str, float, float, int, int]

#: (span name, owner, attribute) — one span per call of owner.attribute
BOUNDARIES = (
    ("core.extract_trace", NvSupervisor, "extract_trace"),
    ("core.cfl_attack", ControlFlowLeakAttack, "attack"),
    ("core.prime", ProbeSession, "prime"),
    ("core.probe", ProbeSession, "probe"),
    ("core.probe", ProbeSession, "probe_measured"),
    ("core.monitor", NvCore, "monitor"),
    ("sgx.step", SgxStepper, "step"),
    ("sgx.enclave_load", Enclave, "load"),
    ("system.run_slice", Kernel, "run_slice"),
    ("memory.program_load", AssembledProgram, "load_into"),
    ("cpu.build_window", core_mod, "build_window"),
    ("cpu.build_superblock", core_mod, "build_superblock"),
    ("victims.ground_truth", VictimProgram, "ground_truth"),
    ("lang.compile", Compiler, "compile"),
    ("symbolic.run_certify", certify_mod, "run_certify"),
    ("symbolic.certify_victim", certify_mod, "certify_victim"),
    ("symbolic.explore", certify_mod, "explore_victim"),
    ("symbolic.solve", executor_mod, "solve_bit"),
    ("symbolic.eval_word", BitCtx, "eval_word"),
    ("symbolic.witness_replay", certify_mod, "replay_btb_stream"),
    ("symbolic.witness_replay", certify_mod, "replay_result_arrays"),
    ("symbolic.rewrite", certify_mod, "rewrite_victim"),
)

#: every module that imported ``run_function`` by name
INTERP_SITES = (interp_mod, library_mod, witness_mod)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: op id stamped on every span (-1 outside ops)
        self.op = -1
        self._patched: List[Tuple[object, str, object]] = []
        self.code_gen_bumps = {"write": 0, "remap": 0}
        #: Core.run calls / instructions, split by single-step
        #: (``max_retired == 1``) versus longer slices
        self.run_calls = {"single": 0, "slice": 0}
        self.run_insns = {"single": 0, "slice": 0}

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute,
                              owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for name, owner, attribute in BOUNDARIES:
            self._patch(owner, attribute,
                        self.wrap(name, getattr(owner, attribute)))
        run_function = self.wrap("cpu.interp", interp_mod.run_function)
        for module in INTERP_SITES:
            self._patch(module, "run_function", run_function)
        self._patch(Core, "run", self.wrap("cpu.run",
                                           self._count_run(Core.run)))
        self._patch(VirtualMemory, "write_bytes",
                    self._count_write(VirtualMemory.write_bytes))
        self._patch(PageTable, "map_page",
                    self._count_remap(PageTable.map_page))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # counting wrappers (no spans: these run per memory write)
    # ------------------------------------------------------------------
    def _count_run(self, run: Callable) -> Callable:
        calls, insns = self.run_calls, self.run_insns

        @functools.wraps(run)
        def counted(core, state, **kwargs):
            result = run(core, state, **kwargs)
            kind = ("single" if kwargs.get("max_retired") == 1
                    else "slice")
            calls[kind] += 1
            insns[kind] += result.instructions
            return result
        return counted

    def _count_write(self, write_bytes: Callable) -> Callable:
        bumps = self.code_gen_bumps

        @functools.wraps(write_bytes)
        def counted(memory, *args, **kwargs):
            before = memory.code_generation
            write_bytes(memory, *args, **kwargs)
            bumps["write"] += memory.code_generation - before
        return counted

    def _count_remap(self, map_page: Callable) -> Callable:
        bumps = self.code_gen_bumps

        @functools.wraps(map_page)
        def counted(table, *args, **kwargs):
            before = table.epoch
            entry = map_page(table, *args, **kwargs)
            bumps["remap"] += table.epoch - before
            return entry
        return counted

    # ------------------------------------------------------------------
    # derived per-layer numbers
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, List[float]]:
        """span name -> [calls, self seconds], over spans inside ops."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, op = span
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = {}
        for index, (name, start, end, parent, op) in enumerate(
                self.spans):
            if op < 0:
                continue
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return totals
