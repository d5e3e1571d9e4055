"""Page tables with permissions and accessed/dirty tracking.

The supervisor attacker in the paper manipulates exactly these bits:
controlled-channel attacks flip execute permission to learn the
page-granular PC trace, and call/ret classification (§6.4 step 1)
checks whether a suspected call/ret touched a *data* page via the
accessed bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from ..errors import PageFault
from .address import PAGE_SIZE, page_number


@dataclass
class PageEntry:
    """One page-table entry."""

    readable: bool = True
    writable: bool = False
    executable: bool = False
    accessed: bool = False
    dirty: bool = False

    def perms(self) -> str:
        return "".join((
            "r" if self.readable else "-",
            "w" if self.writable else "-",
            "x" if self.executable else "-",
        ))


def _parse_perms(perms: str) -> Tuple[bool, bool, bool]:
    unknown = set(perms) - set("rwx-")
    if unknown:
        raise ValueError(f"bad permission string {perms!r}")
    return "r" in perms, "w" in perms, "x" in perms


class PageTable:
    """Sparse map of virtual page number -> :class:`PageEntry`."""

    def __init__(self) -> None:
        self._entries: Dict[int, PageEntry] = {}
        #: bumped when a page becomes mapped or unmapped: that changes
        #: which addresses hold bytes at all, so cached decodes keyed
        #: on the code generation (:mod:`repro.cpu.decoded`) must
        #: re-verify.  Remapping an already-mapped page and
        #: ``set_perms`` leave it alone — the bytes stay where they
        #: are, and permissions are enforced at execution time (the
        #: controlled-channel attacker flips them on every single
        #: step).
        self.epoch = 0

    def map_page(self, vpn: int, perms: str = "rw") -> PageEntry:
        """Install a fresh entry (new perms, clear A/D bits) for
        ``vpn``; only a newly mapped page advances :attr:`epoch`."""
        readable, writable, executable = _parse_perms(perms)
        entry = PageEntry(readable, writable, executable)
        if vpn not in self._entries:
            self.epoch += 1
        self._entries[vpn] = entry
        return entry

    def unmap_page(self, vpn: int) -> None:
        if self._entries.pop(vpn, None) is not None:
            self.epoch += 1

    def entry(self, vpn: int) -> Optional[PageEntry]:
        return self._entries.get(vpn)

    def entry_for_address(self, address: int) -> Optional[PageEntry]:
        return self._entries.get(page_number(address))

    def is_mapped(self, address: int) -> bool:
        return page_number(address) in self._entries

    def set_perms(self, vpn: int, perms: str) -> None:
        entry = self._entries.get(vpn)
        if entry is None:
            raise PageFault(vpn * PAGE_SIZE, "read",
                            f"set_perms on unmapped page {vpn:#x}")
        entry.readable, entry.writable, entry.executable = _parse_perms(perms)

    def check(self, address: int, access: str) -> PageEntry:
        """Permission-check one byte; sets accessed/dirty on success."""
        entry = self._entries.get(page_number(address))
        if entry is None:
            raise PageFault(address, access, "unmapped page")
        if access == "read" and not entry.readable:
            raise PageFault(address, access)
        if access == "write" and not entry.writable:
            raise PageFault(address, access)
        if access == "execute" and not entry.executable:
            raise PageFault(address, access)
        entry.accessed = True
        if access == "write":
            entry.dirty = True
        return entry

    # ------------------------------------------------------------------
    # supervisor-attacker facilities
    # ------------------------------------------------------------------
    def clear_accessed_dirty(self) -> None:
        """Reset all A/D bits (the attacker does this between probes)."""
        for entry in self._entries.values():
            entry.accessed = False
            entry.dirty = False

    def accessed_pages(self) -> Set[int]:
        return {
            vpn for vpn, entry in self._entries.items() if entry.accessed
        }

    def dirty_pages(self) -> Set[int]:
        return {vpn for vpn, entry in self._entries.items() if entry.dirty}

    def mapped_pages(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)
