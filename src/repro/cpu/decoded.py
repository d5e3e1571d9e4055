"""Decoded-window execution cache for the simulator hot loops.

The paper's own prediction-window structure (§2.2: fetch bundles are
confined to one 32-byte-aligned block) gives the simulator a natural
decode-cache granularity.  A :class:`DecodedWindow` captures, for one
window entry PC, the full straight-line decode up to the block boundary
or the first control transfer: per-instruction compiled thunks
(:func:`repro.cpu.semantics.compile_straightline`), issue-cost extras,
and the fall-through layout.  Both execution engines use it:

* :meth:`repro.cpu.core.Core.run` executes the cached window when the
  BTB prediction cannot interact with it (no entry, or the predicted
  branch-end byte lies at/after the window's terminator region) —
  bit-identical cycle accounting, BTB, LBR and trace behaviour is
  enforced by the differential suite in ``tests/test_fastpath_diff.py``;
* :func:`repro.cpu.interpret` / :func:`repro.cpu.run_function` execute
  it unconditionally (the oracle has no micro-architectural state).

Cache key and invalidation
--------------------------
Windows are keyed by entry PC and stamped with the memory's
``code_generation`` counter.  The counter bumps only when something a
decode depends on changed:

* a write *changes* bytes on a page that holds cached decodes
  (``VirtualMemory.write_bytes`` — self-modifying code); rewriting the
  bytes already stored does not bump, or
* a page that was not mapped is mapped, or a mapped page is unmapped
  (``PageTable.epoch`` — page swaps); remapping an already-mapped page
  does not bump.

``set_perms`` and remaps deliberately do *not* bump it: decoded bytes
are content, not permissions, and a single-step attacker flips
execute permission and reloads its gadgets on every step — thrashing
the cache there would defeat the point.  Permissions are instead
enforced live: the core fast path performs one execute check per
window (equivalent to the warm slow path, because a 32-byte block
never crosses a page), and the oracle skips checks exactly as its
icache hit path always has.

Superblocks add the BTB's generations to that stamp.  A domain switch
advances them only under ``btb_partitioning``: without it lookups are
domain-blind, so attacker/victim switches keep every chain (see
``BTB.current_domain``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import DecodeError, InvalidInstruction, PageFault
from ..isa.encoding import decode as decode_bytes
from ..isa.instructions import Instruction, Kind, SPECS_BY_OPCODE
from ..memory.address import block_end
from .btb import reconstruct_end_byte
from .costs import EXTRA_ISSUE_COST, MEM_WRITERS
from .fusion import can_fuse
from .semantics import compile_straightline

#: kept as module attributes for backwards compatibility — the tables
#: themselves live in :mod:`repro.cpu.costs` (single source of truth).
_MEM_WRITERS = MEM_WRITERS

_ENABLED = os.environ.get("NV_FAST_PATH", "1").strip().lower() not in (
    "0", "false", "off", "no")


def set_fast_path(enabled: bool) -> bool:
    """Globally enable/disable the fast path; returns the previous
    setting (so tests and benchmarks can restore it)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def fast_path_enabled() -> bool:
    """Is the decoded-window fast path currently enabled?

    Defaults to on; ``NV_FAST_PATH=0`` in the environment or
    :func:`set_fast_path` turn it off (the slow path is the reference
    the differential tests compare against).
    """
    return _ENABLED


def decode_at(memory, pc: int) -> Tuple[Instruction, int]:
    """Decode the instruction at ``pc`` and fill the icache.

    The shared miss path of ``interp._fetch`` and ``Core._decode``:
    execute-permission-checked fetch, opcode validation, decode, icache
    insert.  Raises :class:`InvalidInstruction` for junk bytes (decode
    failures included) and lets :class:`PageFault` propagate.
    """
    telemetry.count("cpu.decode.misses")
    first = memory.read_bytes(pc, 1, access="execute")
    spec = SPECS_BY_OPCODE.get(first[0])
    if spec is None:
        raise InvalidInstruction(f"bad opcode {first[0]:#04x} at {pc:#x}")
    blob = memory.read_bytes(pc, spec.length, access="execute")
    try:
        instruction, length = decode_bytes(blob, 0)
    except DecodeError as error:
        raise InvalidInstruction(str(error)) from error
    memory.icache[pc] = (instruction, length)
    return instruction, length


class DecodedWindow:
    """The cached straight-line decode of one prediction window."""

    __slots__ = ("entry_pc", "generation", "limit", "pcs", "instructions",
                 "thunks", "extras", "count", "resume_pc", "has_store",
                 "fuse_holdback", "terminator", "decode_error")

    def __init__(self, entry_pc: int, generation: int, limit: int,
                 pcs: List[int], instructions: List[Instruction],
                 thunks: list, extras: List[float], resume_pc: int,
                 has_store: bool, terminator: Optional[Instruction],
                 decode_error: bool):
        self.entry_pc = entry_pc
        self.generation = generation
        self.limit = limit
        self.pcs = pcs
        self.instructions = instructions
        self.thunks = thunks
        self.extras = extras
        self.count = len(pcs)
        #: PC of the first instruction the generic loop must handle:
        #: the terminator, the undecodable byte, or the fall-through
        #: into the next block.
        self.resume_pc = resume_pc
        self.has_store = has_store
        self.terminator = terminator
        self.decode_error = decode_error
        #: leave the last item to the generic loop when it could
        #: macro-fuse with what follows: a Jcc terminator, or an
        #: unknown successor (window ran to the boundary / stopped on
        #: a decode error).  Fusion retires the pair as one unit, which
        #: the straight-line loop cannot model.
        self.fuse_holdback = bool(
            instructions and instructions[-1].spec.fusible
            and (terminator is None
                 or terminator.spec.kind is Kind.COND_JUMP))

    def __repr__(self) -> str:                     # pragma: no cover
        return (f"DecodedWindow({self.entry_pc:#x}, n={self.count}, "
                f"resume={self.resume_pc:#x}, gen={self.generation})")


def build_window(memory, entry_pc: int) -> DecodedWindow:
    """Decode the window starting at ``entry_pc`` and cache it.

    Decoding stops at the 32-byte block boundary, at the first
    non-sequential instruction (the window terminator: control
    transfer, ``syscall`` or ``hlt``), or at an undecodable/unfetchable
    byte — the latter is *not* an error here; the generic loop
    reproduces the fault at ``resume_pc``.  Empty error windows are not
    cached so a transient fault (e.g. execute permission revoked during
    a controlled-channel probe) does not stick.
    """
    telemetry.count("cpu.decode.window_builds")
    generation = memory.code_generation
    limit = block_end(entry_pc)
    icache = memory.icache
    pcs: List[int] = []
    instructions: List[Instruction] = []
    thunks: list = []
    extras: List[float] = []
    has_store = False
    terminator: Optional[Instruction] = None
    decode_error = False
    pc = entry_pc
    while pc < limit:
        cached = icache.get(pc)
        try:
            instruction, length = (cached if cached is not None
                                   else decode_at(memory, pc))
        except (PageFault, InvalidInstruction):
            decode_error = True
            break
        if instruction.spec.kind is not Kind.SEQUENTIAL:
            terminator = instruction
            break
        pcs.append(pc)
        instructions.append(instruction)
        thunks.append(compile_straightline(instruction, pc))
        extras.append(EXTRA_ISSUE_COST.get(instruction.spec.mnemonic, 0.0))
        if instruction.spec.mnemonic in _MEM_WRITERS:
            has_store = True
        pc += length
    window = DecodedWindow(entry_pc, generation, limit, pcs, instructions,
                           thunks, extras, pc, has_store, terminator,
                           decode_error)
    cache = getattr(memory, "window_cache", None)
    if cache is not None and not (decode_error and not pcs):
        cache[entry_pc] = window
    return window


def get_window(memory, pc: int) -> Optional[DecodedWindow]:
    """Current-generation window for ``pc``, building it on demand.

    Returns ``None`` when ``memory`` has no window cache (exotic
    memory wrappers like the speculative store-buffer overlay).
    """
    cache = getattr(memory, "window_cache", None)
    if cache is None:
        return None
    window = cache.get(pc)
    if window is not None and window.generation == memory.code_generation:
        return window
    return build_window(memory, pc)


# ----------------------------------------------------------------------
# superblocks: chains of windows linked across predicted edges
# ----------------------------------------------------------------------

#: maximum chained edges in one superblock.  Real front ends bound the
#: fetch-ahead distance similarly; eight edges covers every hot loop in
#: the victim corpus (gcd's loop body spans two, the pointer-chase
#: traversal four).
SUPERBLOCK_MAX_LINKS = 8


class SuperblockLink:
    """One window of a superblock plus its chained exit edge.

    Three edge flavours exist:

    * **predicted-taken** (``entry is not None``): the BTB predicts the
      terminator's *exact* last byte and the chain continues at
      ``entry.target``.  The link pins the BTB entry object; that
      reference stays truthful for as long as the entry's set
      generation is unchanged — the superblock's validity condition —
      so the executor compares ``entry.target`` against the
      architectural outcome without a fresh lookup.
    * **fall-through** (``entry is None``, ``term`` set): no BTB entry
      is in range for this window's block, the terminator is a
      conditional jump, and the chain continues at the not-taken
      successor.  The slow path treats this edge as a pure non-event
      (no LBR record, no BTB touch, prediction window stays open),
      which is why it can chain.
    * **boundary** (``term is None``): straight-line code running to
      the 32-byte block limit with no BTB entry in range; the chain
      continues at the next block (``window.resume_pc``), where the
      slow path closes the exhausted window for free and opens a new
      one — so the successor link always ``opens_pw``.
    * **boundary-fused** (``mid_fetch``): the window's held-back ALU
      macro-fuses with a conditional jump that *leads the next block*.
      The slow path executes the ALU in the generic loop, charges the
      fetch and opens the successor's prediction window mid-retire-unit
      (``Core.run``'s fused-Jcc block), then executes the Jcc as the
      same unit.  The link models that: ``term`` is the next block's
      Jcc, ``entry``/``pred_end`` describe *its* window (the prefix
      ran under the previous, predictionless one), and ``term_limit``
      is the next block's 32-byte limit.

    ``opens_pw`` records whether the slow path would open a fresh
    prediction window at this link's entry (charging fetch cycles and
    counting one BTB lookup): true after every taken edge and whenever
    a fall-through crosses into a new 32-byte block, false when a
    fall-through continues inside the block — range semantics guarantee
    the opening lookup's miss covers every later offset in the block.
    """

    __slots__ = ("window", "entry", "pred_end", "term", "term_pc",
                 "term_len", "term_extra", "target", "fused", "count",
                 "units", "insts", "opens_pw", "mid_fetch", "term_limit")

    def __init__(self, window: DecodedWindow, entry,
                 pred_end: Optional[int], term: Optional[Instruction],
                 term_pc: int, target: int, fused: bool, opens_pw: bool,
                 mid_fetch: bool = False,
                 term_limit: Optional[int] = None):
        self.window = window
        self.entry = entry
        self.pred_end = pred_end
        self.term = term
        self.term_pc = term_pc
        self.target = target
        self.fused = fused
        self.opens_pw = opens_pw
        self.mid_fetch = mid_fetch
        #: block limit of the window the *terminator* executes under —
        #: ``window.limit`` except for mid-fetch links, whose Jcc lives
        #: in the successor block.
        self.term_limit = window.limit if term_limit is None else term_limit
        self.count = window.count
        if term is not None:
            self.term_len = term.length
            self.term_extra = EXTRA_ISSUE_COST.get(term.mnemonic, 0.0)
            #: architectural instructions per link (prefix + terminator)
            self.insts = window.count + 1
            #: retire units per link (a fused pair retires as one)
            self.units = window.count + (0 if fused else 1)
        else:
            # Boundary link: prefix only, nothing to terminate.
            self.term_len = 0
            self.term_extra = 0.0
            self.insts = window.count
            self.units = window.count


class Superblock:
    """A cached chain of decoded windows across predicted edges.

    Keyed by entry PC in ``memory.superblock_cache`` and stamped with
    ``memory.code_generation`` plus a BTB signature.  The signature has
    two tiers: the cheap check compares the owning BTB's global
    ``generation`` counter, and when that went stale the chain
    re-validates against just the per-set generations of the sets its
    blocks index into (one 32-byte fetch block maps to exactly one BTB
    set, so those counters cover every lookup result the chain
    depends on).  Unrelated BTB churn — a shared subroutine's ``ret``
    being retargeted every call, victim warm-up allocations in other
    sets — therefore no longer invalidates hot chains; on success the
    global stamp is refreshed so the next dispatch takes the cheap
    path again.  ``loop`` marks chains whose last edge targets the
    entry PC: the dispatcher re-enters them once per iteration.
    """

    __slots__ = ("entry_pc", "code_generation", "btb", "btb_generation",
                 "set_indices", "set_sig", "links", "loop", "loop_taken",
                 "insts_per_pass", "units_per_pass", "has_store")

    def __init__(self, entry_pc: int, code_generation: int, btb,
                 links: List[SuperblockLink], loop: bool,
                 set_indices: Tuple[int, ...]):
        self.entry_pc = entry_pc
        self.code_generation = code_generation
        self.btb = btb
        self.btb_generation = btb.generation
        self.set_indices = set_indices
        self.set_sig = tuple(btb.set_gens[i] for i in set_indices)
        self.links = links
        self.loop = loop
        #: loop closed by a predicted-taken edge: each pass ends with
        #: the prediction window closed, so the dispatcher may run
        #: several passes back-to-back (a fall-through-closing loop
        #: leaves the window open and must return to the outer loop).
        self.loop_taken = loop and links[-1].entry is not None
        self.insts_per_pass = sum(link.insts for link in links)
        self.units_per_pass = sum(link.units for link in links)
        self.has_store = any(link.window.has_store for link in links)

    def btb_valid(self, btb) -> bool:
        """Is every prediction this chain was built on still current?"""
        if btb is not self.btb:
            return False
        if btb.generation == self.btb_generation:
            return True
        gens = btb.set_gens
        sig = self.set_sig
        for j, set_index in enumerate(self.set_indices):
            if gens[set_index] != sig[j]:
                return False
        # Only untouched sets: the chain survived the churn.  Refresh
        # the global stamp so the next dispatch is one compare again.
        self.btb_generation = btb.generation
        return True

    def __repr__(self) -> str:                     # pragma: no cover
        return (f"Superblock({self.entry_pc:#x}, links={len(self.links)}, "
                f"loop={self.loop})")


def build_superblock(memory, btb, entry_pc: int, fusion_enabled: bool):
    """Chain windows from ``entry_pc`` across predicted edges.

    A window extends the chain iff it ends in a control transfer and
    either

    * the BTB predicts the terminator's *exact* anchor byte — its last
      byte on Intel-family designs, its first byte on
      instruction-indexed backends (``reconstruct_end_byte`` of the
      entry's offset equals that anchor): the prediction cannot
      interact with the prefix (no false-hit walk, no mid-prefix
      settle) and the predicted target gives the next window; or
    * no entry is in range at all and the terminator is a conditional
      jump: the not-taken successor gives the next window (see
      :class:`SuperblockLink` for why this edge is chainable).

    Probing uses :meth:`BTB.peek` so build-time probes never perturb
    the lookup stats the differential suite compares.

    Returns the :class:`Superblock`, or — when not even the first edge
    qualifies — a negative marker tuple ``(code_generation, btb,
    set_index, set_gen)`` the caller caches to suppress rebuild
    attempts: ``set_index`` is the entry block's BTB set when the
    verdict depends on BTB contents, or ``-1`` when it is a pure
    code-shape verdict (straight-line window, syscall/hlt terminator,
    decode error) that only a code-generation change can revisit.
    """
    links: List[SuperblockLink] = []
    pc = entry_pc
    seen = {entry_pc}
    loop = False
    opens = True
    set_indices: List[int] = []
    last_byte_index = btb.backend.last_byte_index

    def negative(btb_dependent: bool):
        if btb_dependent:
            set_index = btb.fields(entry_pc)[1]
            return (memory.code_generation, btb, set_index,
                    btb.set_gens[set_index])
        return (memory.code_generation, None, -1, 0)

    btb_dependent = False
    while len(links) < SUPERBLOCK_MAX_LINKS:
        window = get_window(memory, pc)
        if window is None or window.decode_error:
            break
        term = window.terminator
        if term is not None and not term.spec.is_control:
            break                           # syscall / hlt terminator
        if opens:
            entry = btb.peek(pc)
            set_index = btb.fields(pc)[1]
            if set_index not in set_indices:
                set_indices.append(set_index)
        else:
            # Continuation inside the block: the opening lookup missed.
            # Under range semantics every higher offset misses too; the
            # exact-hit designs never re-look-up mid-window at all (the
            # front end probes once per fetch), so entry stays None for
            # every backend.
            entry = None
        term_pc = window.resume_pc
        if term is None:
            # Straight-line to the block limit (boundary edge).
            if entry is not None:
                # A prediction points into straight-line code: the
                # false-hit machinery will burn it down — not
                # chainable until then.
                btb_dependent = True
                break
            if fusion_enabled and window.fuse_holdback:
                nw = get_window(memory, window.resume_pc)
                if (nw is not None and not nw.count
                        and nw.terminator is not None
                        and nw.terminator.spec.kind is Kind.COND_JUMP
                        and can_fuse(window.instructions[-1],
                                     nw.terminator)):
                    # The held-back ALU fuses with the next block's
                    # leading Jcc: a boundary-fused (mid-fetch) link.
                    # The Jcc runs under the *successor's* prediction
                    # window, so its edge must qualify the same way a
                    # taken or fall-through edge would.
                    jcc = nw.terminator
                    jcc_pc = window.resume_pc
                    entry2 = btb.peek(jcc_pc)
                    jcc_anchor = (jcc_pc + jcc.length - 1
                                  if last_byte_index else jcc_pc)
                    if entry2 is not None and reconstruct_end_byte(
                            jcc_pc, entry2.offset) != jcc_anchor:
                        # Prediction interacts with the Jcc (false-hit
                        # walk / mid-unit settle): not chainable until
                        # that entry dies.
                        btb_dependent = True
                        break
                    si2 = btb.fields(jcc_pc)[1]
                    if si2 not in set_indices:
                        set_indices.append(si2)
                    if entry2 is not None:
                        pe2: Optional[int] = jcc_anchor
                        target = entry2.target
                        next_opens = True
                    else:
                        pe2 = None
                        target = jcc_pc + jcc.length
                        next_opens = target >= nw.limit
                    links.append(SuperblockLink(
                        window, entry2, pe2, jcc, jcc_pc, target, True,
                        opens, mid_fetch=True, term_limit=nw.limit))
                    pc = target
                    if pc == entry_pc:
                        loop = True
                        break
                    if pc in seen:
                        break
                    seen.add(pc)
                    opens = next_opens
                    continue
            pred_end: Optional[int] = None
            target = window.resume_pc
            next_opens = True
            fused = False
        elif entry is not None:
            term_anchor = (term_pc + term.length - 1
                           if last_byte_index else term_pc)
            if reconstruct_end_byte(pc, entry.offset) != term_anchor:
                btb_dependent = True
                break
            pred_end = term_anchor
            target = entry.target
            next_opens = True
            fused = bool(fusion_enabled and window.count
                         and can_fuse(window.instructions[-1], term))
        else:
            if term.spec.kind is not Kind.COND_JUMP:
                # An unpredicted jmp/call/ret mispredicts every pass
                # until an entry exists; chainable once it does.
                btb_dependent = True
                break
            pred_end = None
            target = term_pc + term.length
            next_opens = target >= window.limit
            fused = bool(fusion_enabled and window.count
                         and can_fuse(window.instructions[-1], term))
        links.append(SuperblockLink(window, entry, pred_end, term,
                                    term_pc, target, fused, opens))
        pc = target
        if pc == entry_pc:
            loop = True
            break
        if pc in seen:
            break
        seen.add(pc)
        opens = next_opens
    if not links:
        # First edge failed.  "Shape" failures (decode error,
        # syscall/hlt terminator) cannot be cured by BTB changes; the
        # rest hinge on what the entry block's set predicts.
        return negative(btb_dependent)
    return Superblock(entry_pc, memory.code_generation, btb, links, loop,
                      tuple(set_indices))
