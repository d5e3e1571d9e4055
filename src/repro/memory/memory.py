"""Sparse virtual memory with paging and an access-control hook.

One :class:`VirtualMemory` instance is one address space (one process).
Storage is sparse — pages materialize on first touch — so experiments
can place code regions 4/8 GiB apart (the paper's BTB tag-truncation
setup) without cost.

The ``access_filter`` hook lets the SGX layer enforce EPC isolation:
it is consulted *before* page-table checks and can reject an access
outright (raising :class:`ProtectionFault`) or redact reads.  Its
decisions must be page-granular, like the page table's (see
:data:`AccessFilter`).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from ..errors import ProtectionFault
from .address import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_number
from .paging import PageTable

#: access_filter(address, size, access, context) -> None or raises.
#: Decisions must be page-granular: for a given access kind and
#: context, every address of one page gets the same verdict, and the
#: filter keeps no state a call could change.  The CPU front end relies
#: on this to filter one fetch per 32-byte block rather than one per
#: instruction when it runs ahead on decoded windows.
AccessFilter = Callable[[int, int, str, Optional[object]], None]

#: pre-compiled u64 codec for the typed-access fast paths.
_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


class DecodeCache(dict):
    """The icache dict, plus a registry of pages holding cached decodes.

    ``code_pages`` lets :meth:`VirtualMemory.write_bytes` decide in O(1)
    whether a write can possibly invalidate cached code — data stores
    skip the invalidation sweep entirely, and only genuinely
    code-modifying writes bump the code generation counter that keys
    the decoded-window cache (:mod:`repro.cpu.decoded`).  The window
    builder also registers the page of every bad-opcode byte it caches
    as junk, which holds no icache entry of its own.
    """

    __slots__ = ("code_pages",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.code_pages: set = set()
        for pc, value in self.items():
            self._register(pc, value)

    def _register(self, pc: int, value) -> None:
        self.code_pages.add(pc >> PAGE_SHIFT)
        try:
            last_byte = pc + value[1] - 1     # value = (instr, length)
        except (TypeError, IndexError, KeyError):
            last_byte = pc
        self.code_pages.add(last_byte >> PAGE_SHIFT)

    def __setitem__(self, pc, value) -> None:
        self._register(pc, value)
        dict.__setitem__(self, pc, value)


class VirtualMemory:
    """A 64-bit sparse byte-addressable address space."""

    def __init__(self, page_table: Optional[PageTable] = None):
        self.pages: Dict[int, bytearray] = {}
        self.page_table = page_table if page_table is not None else PageTable()
        #: decoded-instruction cache: address -> (Instruction, length).
        #: Maintained by the CPU front end; writes invalidate it.
        self.icache: DecodeCache = DecodeCache()
        #: decoded-window cache: entry PC -> DecodedWindow (see
        #: :mod:`repro.cpu.decoded`); invalidated by generation compare.
        self.window_cache: Dict[int, object] = {}
        #: superblock cache: entry PC -> Superblock or a negative
        #: marker (see ``Core.run``); entries self-validate against
        #: ``code_generation`` and the owning BTB's generation, so no
        #: eager invalidation happens here.
        self.superblock_cache: Dict[int, object] = {}
        #: bumped whenever a write changes bytes on a page holding
        #: cached decodes (one half of :attr:`code_generation`).
        self._write_epoch = 0
        self.access_filter: Optional[AccessFilter] = None
        #: Current execution context (e.g. an Enclave object) used by
        #: the access filter; ``None`` means normal/untrusted mode.
        self.context: Optional[object] = None

    @property
    def code_generation(self) -> int:
        """Monotonic counter identifying the current code contents.

        Changes only when what a cached decode depends on changed:

        * a write that alters bytes near cached decodes (rewriting the
          bytes already stored leaves it alone), and
        * mapping a page that was not mapped, or unmapping one.

        Remapping an already-mapped page and permission changes do
        *not* affect it — decoded bytes are content, and permissions
        are enforced at execution time.  A single-step attack flips
        permissions (``set_perms``) and reloads its gadgets (remap plus
        same-bytes rewrite) between steps; bumping on any of those
        would thrash the cache.
        """
        return self._write_epoch + self.page_table.epoch

    # ------------------------------------------------------------------
    # mapping helpers
    # ------------------------------------------------------------------
    def map_range(self, start: int, size: int, perms: str = "rw") -> None:
        """Map every page overlapping ``[start, start+size)``."""
        if size <= 0:
            return
        first = page_number(start)
        last = page_number(start + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.map_page(vpn, perms)

    def is_mapped(self, address: int) -> bool:
        return self.page_table.is_mapped(address)

    def _backing(self, vpn: int) -> bytearray:
        page = self.pages.get(vpn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self.pages[vpn] = page
        return page

    def _check(self, address: int, size: int, access: str,
               check: bool) -> None:
        if self.access_filter is not None:
            self.access_filter(address, size, access, self.context)
        if not check:
            return
        first = page_number(address)
        last = page_number(address + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.check(vpn << PAGE_SHIFT, access)

    # ------------------------------------------------------------------
    # raw byte access
    # ------------------------------------------------------------------
    def read_bytes(self, address: int, size: int, *,
                   access: str = "read", check: bool = True) -> bytes:
        if size <= 0:
            return b""
        self._check(address, size, access, check)
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            vpn = page_number(cursor)
            offset = cursor & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            page = self.pages.get(vpn)
            if page is None:
                out += b"\x00" * chunk
            else:
                out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes, *,
                    check: bool = True) -> None:
        if not data:
            return
        self._check(address, len(data), "write", check)
        icache = self.icache
        code_pages = icache.code_pages
        # Only a write near cached code can invalidate a decode
        # (instructions are at most 10 bytes long); data stores skip
        # the byte compare and the invalidation sweep entirely.
        near_code = bool(code_pages) and any(
            vpn in code_pages
            for vpn in range((address - 9) >> PAGE_SHIFT,
                             ((address + len(data) - 1) >> PAGE_SHIFT) + 1))
        changed = False
        cursor = address
        view = memoryview(data)
        while view:
            vpn = page_number(cursor)
            offset = cursor & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            page = self._backing(vpn)
            if near_code and not changed:
                changed = page[offset:offset + chunk] != view[:chunk]
            page[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]
        if changed:
            # Self-modifying code: drop every decode overlapping the
            # written range and retire the code generation so decoded
            # windows re-verify.  Rewriting the bytes already stored
            # changes no decode, so it keeps every cache.
            self._write_epoch += 1
            for stale in range(address - 9, address + len(data)):
                icache.pop(stale, None)

    # ------------------------------------------------------------------
    # typed access
    # ------------------------------------------------------------------
    def read_u64(self, address: int, *, check: bool = True) -> int:
        # Single-page fast path: the bulk of simulated data traffic is
        # aligned 8-byte limb loads/stores, for which the generic
        # byte-copy loop is pure overhead.  Observable behaviour is
        # identical: the same page-aligned permission check (faults
        # carry the same address), zeros for unmaterialized pages.
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8 and self.access_filter is None:
            vpn = address >> PAGE_SHIFT
            if check:
                self.page_table.check(vpn << PAGE_SHIFT, "read")
            page = self.pages.get(vpn)
            if page is None:
                return 0
            return _U64.unpack_from(page, offset)[0]
        return struct.unpack(
            "<Q", self.read_bytes(address, 8, check=check)
        )[0]

    def write_u64(self, address: int, value: int, *,
                  check: bool = True) -> None:
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8 and self.access_filter is None:
            vpn = address >> PAGE_SHIFT
            code_pages = self.icache.code_pages
            # Same possible-code-write test as ``write_bytes`` (the
            # 8-byte store spans at most vpn-1..vpn given the
            # single-page offset): anything near cached code takes the
            # generic path with its invalidation sweep.
            if (vpn not in code_pages
                    and (address - 9) >> PAGE_SHIFT not in code_pages):
                if check:
                    self.page_table.check(vpn << PAGE_SHIFT, "write")
                page = self.pages.get(vpn)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self.pages[vpn] = page
                _U64.pack_into(page, offset, value & _U64_MASK)
                return
        self.write_bytes(
            address, struct.pack("<Q", value & _U64_MASK), check=check
        )

    def fetch(self, address: int, size: int) -> bytes:
        """Instruction fetch: execute-permission-checked read."""
        return self.read_bytes(address, size, access="execute")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def protect(self, start: int, size: int, perms: str) -> None:
        """Change permissions for every page in ``[start, start+size)``."""
        first = page_number(start)
        last = page_number(start + size - 1)
        for vpn in range(first, last + 1):
            self.page_table.set_perms(vpn, perms)

    def footprint_pages(self) -> int:
        """Number of materialized backing pages (for resource tests)."""
        return len(self.pages)
