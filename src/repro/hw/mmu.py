"""MMU: page tables, TLB, and the HIX-extended page-table walker.

Section 4.3.1 of the paper extends the walker so that, on a TLB miss,
any translation touching protected state (EPC pages, or MMIO regions
registered in the TGMR) is validated before the entry may enter the TLB:

    (1) the current process is the GPU enclave (GECS check),
    (2) the virtual address matches what the GPU enclave registered,
    (3) the virtual address matches the TGMR entry,
    (4) the physical address matches the TGMR entry.

The walker here delegates those checks to a pluggable *validator* —
installed by the SGX unit (:mod:`repro.sgx`) when the machine is
assembled — so the MMU stays generic hardware and the SGX/HIX semantics
live with the rest of the enclave logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AccessDenied, PageFault
from repro.hw.phys_mem import PAGE_SIZE
from repro.obs.tracer import traced

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1


class PageFlags(enum.IntFlag):
    """x86-style page permissions (subset relevant to the model)."""

    PRESENT = 1
    WRITABLE = 2
    USER = 4


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class AccessContext:
    """Who is performing a memory access.

    ``enclave_id`` is None outside enclave mode.  ``is_kernel`` marks
    ring-0 accesses (the malicious OS in the threat model).
    """

    asid: int
    enclave_id: Optional[int] = None
    is_kernel: bool = False

    def describe(self) -> str:
        mode = "kernel" if self.is_kernel else "user"
        enclave = f" enclave={self.enclave_id}" if self.enclave_id is not None else ""
        return f"asid={self.asid} ({mode}{enclave})"


#: Runs longer than this stay interval-backed in :class:`PageTable`;
#: shorter runs materialize into the per-page dict.  Large runs are GPU
#: BARs and DMA windows (tens of thousands of pages), where per-page
#: dict entries dominate machine bring-up cost.
_RANGE_THRESHOLD = 32


class PageTable:
    """A single-level sparse page table for one address space.

    Small mappings live in a per-page dict; large contiguous runs are
    kept as ``(vpn, npages, ppn, flags)`` intervals and resolved on
    lookup.  Later mappings win: a single-page :meth:`map` shadows any
    interval (the dict is consulted first), and a new interval punches
    its window out of older intervals and stale dict entries.
    """

    def __init__(self, asid: int) -> None:
        self.asid = asid
        self._entries: Dict[int, Tuple[int, PageFlags]] = {}
        self._ranges: List[Tuple[int, int, int, PageFlags]] = []

    def map(self, vaddr: int, paddr: int,
            flags: PageFlags = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER
            ) -> None:
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("mappings must be page-aligned")
        self._entries[vaddr // PAGE_SIZE] = (paddr // PAGE_SIZE, flags)

    def map_range(self, vaddr: int, paddr: int, size: int,
                  flags: PageFlags = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER
                  ) -> None:
        if size % PAGE_SIZE:
            raise ValueError("range size must be page-aligned")
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("mappings must be page-aligned")
        npages = size // PAGE_SIZE
        vpn, ppn = vaddr // PAGE_SIZE, paddr // PAGE_SIZE
        if npages <= _RANGE_THRESHOLD:
            self._entries.update(zip(
                range(vpn, vpn + npages),
                zip(range(ppn, ppn + npages), repeat(flags))))
            return
        if self._entries:
            for key in [k for k in self._entries if vpn <= k < vpn + npages]:
                del self._entries[key]
        self._punch_hole(vpn, npages)
        self._ranges.append((vpn, npages, ppn, flags))

    def _punch_hole(self, vpn: int, npages: int) -> None:
        """Remove ``[vpn, vpn + npages)`` from the stored intervals."""
        if not self._ranges:
            return
        lo, hi = vpn, vpn + npages
        kept = []
        for rv, rn, rp, rf in self._ranges:
            if rv + rn <= lo or rv >= hi:
                kept.append((rv, rn, rp, rf))
                continue
            if rv < lo:
                kept.append((rv, lo - rv, rp, rf))
            if rv + rn > hi:
                kept.append((hi, rv + rn - hi, rp + (hi - rv), rf))
        self._ranges = kept

    def unmap(self, vaddr: int) -> None:
        vpn = vaddr // PAGE_SIZE
        self._entries.pop(vpn, None)
        self._punch_hole(vpn, 1)

    def _find(self, vpn: int) -> Optional[Tuple[int, PageFlags]]:
        entry = self._entries.get(vpn)
        if entry is not None:
            return entry
        for rv, rn, rp, rf in reversed(self._ranges):
            if rv <= vpn < rv + rn:
                return (rp + (vpn - rv), rf)
        return None

    def lookup(self, vaddr: int) -> Tuple[int, PageFlags]:
        """Raw software walk: return (paddr_of_page, flags) or page-fault."""
        entry = self._find(vaddr // PAGE_SIZE)
        if entry is None or not entry[1] & PageFlags.PRESENT:
            raise PageFault(f"no mapping for va {vaddr:#x} in asid {self.asid}")
        ppn, flags = entry
        return ppn * PAGE_SIZE, flags

    def mapped_pages(self) -> int:
        # Intervals are kept mutually disjoint (every insert punches its
        # window first), so only dict entries shadowing an interval page
        # need dedup.
        total = sum(rn for _, rn, _, _ in self._ranges)
        if not self._ranges:
            return len(self._entries)
        total += sum(
            1 for vpn in self._entries
            if not any(rv <= vpn < rv + rn for rv, rn, _, _ in self._ranges))
        return total


@dataclass
class TlbEntry:
    vpn: int
    ppn: int
    flags: PageFlags
    asid: int
    enclave_id: Optional[int]  # enclave context the entry was filled under
    #: ``int(flags)``, precomputed at fill time so the per-page permission
    #: check in the hot translation loop is plain integer arithmetic
    #: instead of enum.IntFlag operator dispatch.
    flags_int: int = 0

    def __post_init__(self) -> None:
        self.flags_int = int(self.flags)


# validator(ctx, vaddr, paddr, flags, access) -> None (or raise)
Validator = Callable[[AccessContext, int, int, PageFlags, AccessType], None]


class Tlb:
    """Software-managed TLB keyed by (asid, vpn).

    ``gen`` counts content mutations (fills and flushes); consumers that
    memoize translation results stamp them with it, so any TLB change
    invalidates every memo at once.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], TlbEntry] = {}
        self.hits = 0
        self.misses = 0
        self.gen = 0

    def lookup(self, asid: int, vpn: int) -> Optional[TlbEntry]:
        entry = self._entries.get((asid, vpn))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def insert(self, entry: TlbEntry) -> None:
        self.gen += 1
        self._entries[(entry.asid, entry.vpn)] = entry

    def flush_all(self) -> None:
        self.gen += 1
        self._entries.clear()

    def flush_asid(self, asid: int) -> None:
        self.gen += 1
        self._entries = {key: e for key, e in self._entries.items()
                         if key[0] != asid}

    def flush_page(self, asid: int, vaddr: int) -> None:
        self.gen += 1
        self._entries.pop((asid, vaddr // PAGE_SIZE), None)

    def __len__(self) -> int:
        return len(self._entries)


class Mmu:
    """Translation front-end shared by all CPU accesses in the machine."""

    def __init__(self) -> None:
        self.tlb = Tlb()
        self._validator: Optional[Validator] = None
        #: Multi-page translations merged into contiguous runs (fast path).
        self.coalesced_runs = 0
        #: Pages translated through :meth:`translate_range`.
        self.range_pages = 0
        # Memo of multi-page translate_range results that were served
        # entirely from a warm TLB, stamped with the TLB generation: any
        # fill or flush invalidates every memo.  A memo hit is by
        # construction the same set of TLB hits the loop would repeat,
        # so counters advance identically and walker semantics are
        # untouched (walks only ever happen outside the memo).
        self._range_memo: Dict[Tuple, Tuple[int, List[Tuple[int, int]], int]] = {}

    def set_validator(self, validator: Optional[Validator]) -> None:
        """Install the SGX/HIX walker validation hook."""
        self._validator = validator

    def translate(self, page_table: PageTable, ctx: AccessContext,
                  vaddr: int, access: AccessType) -> int:
        """Translate one virtual address; returns the physical address.

        TLB entries are tagged with the enclave context that filled them;
        a hit under a different enclave context is treated as a miss and
        re-walked, modelling SGX's flushing of enclave translations on
        EENTER/EEXIT.
        """
        entry = self._lookup_entry(page_table, ctx, vaddr, access)
        return entry.ppn * PAGE_SIZE + (vaddr % PAGE_SIZE)

    def _lookup_entry(self, page_table: PageTable, ctx: AccessContext,
                      vaddr: int, access: AccessType) -> TlbEntry:
        """TLB lookup + (validated) walk on miss + permission check."""
        vpn = vaddr // PAGE_SIZE
        entry = self.tlb.lookup(page_table.asid, vpn)
        if entry is not None and entry.enclave_id != ctx.enclave_id:
            self.tlb.flush_page(page_table.asid, vaddr)
            entry = None
        if entry is None:
            entry = self._walk(page_table, ctx, vaddr, access)
            self.tlb.insert(entry)
        self._check_permissions(entry, ctx, vaddr, access)
        return entry

    @traced("mmu.translate_range", "mmu",
            lambda self, page_table, ctx, vaddr, length, access: {
                "length": length, "access": access.name})
    def translate_range(self, page_table: PageTable, ctx: AccessContext,
                        vaddr: int, length: int,
                        access: AccessType) -> List[Tuple[int, int]]:
        """Translate [vaddr, vaddr+length) into coalesced (paddr, len) runs.

        Every page still goes through the TLB (repeats are hits) and,
        on a miss, through the validated walker — HIX semantics are
        unchanged; only the per-page Python call overhead and the
        fragmentation of the result are reduced.  Physically-contiguous
        neighbours are merged into single runs so callers can move whole
        extents with one backing-store access.
        """
        if length < 0:
            raise ValueError("negative length")
        runs: List[Tuple[int, int]] = []
        if not length:
            return runs
        # Single-page fast path: MMIO register accesses and small RPC
        # payloads dominate the call mix, and at steady state they hit a
        # warm TLB.  One dict probe, one permission check, one run.  Any
        # miss or stale enclave tag falls through to the general loop,
        # which performs (and counts) the validated walk.
        offset = vaddr & _PAGE_MASK
        if offset + length <= PAGE_SIZE:
            entry = self.tlb._entries.get(
                (page_table.asid, vaddr >> _PAGE_SHIFT))
            if entry is not None and entry.enclave_id == ctx.enclave_id:
                flags = entry.flags_int
                if access is AccessType.WRITE and not flags & 2:
                    raise AccessDenied(
                        f"write to read-only page va {vaddr:#x} "
                        f"by {ctx.describe()}")
                if not ctx.is_kernel and not flags & 4:
                    raise AccessDenied(
                        f"user access to supervisor page va {vaddr:#x} "
                        f"by {ctx.describe()}")
                self.tlb.hits += 1
                self.range_pages += 1
                runs.append(((entry.ppn << _PAGE_SHIFT) + offset, length))
                return runs
        # Repeated multi-page ranges (the DMA staging buffer, bulk RPC
        # payloads) are served from the memo while the TLB is unchanged —
        # the exact hits the loop would re-derive, at one dict probe.
        tlb = self.tlb
        asid = page_table.asid
        eid = ctx.enclave_id
        is_kernel = ctx.is_kernel
        memo_key = (asid, eid, is_kernel, vaddr, length, access)
        memoized = self._range_memo.get(memo_key)
        if memoized is not None:
            gen, memo_runs, pages = memoized
            if gen == tlb.gen:
                tlb.hits += pages
                self.range_pages += pages
                self.coalesced_runs += pages - len(memo_runs)
                return list(memo_runs)
        # Hot loop: the TLB dict is probed directly and permissions are
        # checked on precomputed integer flags.  Counter updates are
        # batched; semantics (enclave-tag recheck, validated walk on
        # miss, per-page permission check) match _lookup_entry exactly.
        entries = tlb._entries
        want_write = access is AccessType.WRITE
        addr = vaddr
        end = vaddr + length
        pages = 0
        hits = 0
        misses = 0
        coalesced = 0
        run_pa = -1
        run_len = 0
        while addr < end:
            offset = addr & _PAGE_MASK
            chunk = PAGE_SIZE - offset
            if addr + chunk > end:
                chunk = end - addr
            key = (asid, addr >> _PAGE_SHIFT)
            entry = entries.get(key)
            if entry is not None:
                hits += 1
                if entry.enclave_id != eid:
                    # Stale enclave context: re-walk (EENTER/EEXIT flush).
                    del entries[key]
                    entry = self._walk(page_table, ctx, addr, access)
                    entries[key] = entry
                    tlb.gen += 1
            else:
                misses += 1
                entry = self._walk(page_table, ctx, addr, access)
                entries[key] = entry
                tlb.gen += 1
            flags = entry.flags_int
            if want_write and not flags & 2:       # PageFlags.WRITABLE
                raise AccessDenied(
                    f"write to read-only page va {addr:#x} by {ctx.describe()}")
            if not is_kernel and not flags & 4:    # PageFlags.USER
                raise AccessDenied(
                    f"user access to supervisor page va {addr:#x} "
                    f"by {ctx.describe()}")
            paddr = (entry.ppn << _PAGE_SHIFT) + offset
            pages += 1
            if run_pa + run_len == paddr:
                run_len += chunk
                coalesced += 1
            else:
                if run_len:
                    runs.append((run_pa, run_len))
                run_pa = paddr
                run_len = chunk
            addr += chunk
        runs.append((run_pa, run_len))
        tlb.hits += hits
        tlb.misses += misses
        self.range_pages += pages
        self.coalesced_runs += coalesced
        if not misses and pages > 1:
            # Fully TLB-served: safe to memo until the next TLB change.
            if len(self._range_memo) > 4096:
                self._range_memo.clear()
            self._range_memo[memo_key] = (tlb.gen, list(runs), pages)
        return runs

    def _walk(self, page_table: PageTable, ctx: AccessContext,
              vaddr: int, access: AccessType) -> TlbEntry:
        page_pa, flags = page_table.lookup(vaddr)
        if self._validator is not None:
            # The HIX-extended walker: raises TlbValidationError if this
            # translation touches protected state it may not touch.
            self._validator(ctx, vaddr - vaddr % PAGE_SIZE, page_pa, flags, access)
        return TlbEntry(vpn=vaddr // PAGE_SIZE, ppn=page_pa // PAGE_SIZE,
                        flags=flags, asid=page_table.asid,
                        enclave_id=ctx.enclave_id)

    @staticmethod
    def _check_permissions(entry: TlbEntry, ctx: AccessContext,
                           vaddr: int, access: AccessType) -> None:
        flags = entry.flags_int
        if access is AccessType.WRITE and not flags & PageFlags.WRITABLE.value:
            raise AccessDenied(
                f"write to read-only page va {vaddr:#x} by {ctx.describe()}")
        if not ctx.is_kernel and not flags & PageFlags.USER.value:
            raise AccessDenied(
                f"user access to supervisor page va {vaddr:#x} by {ctx.describe()}")

    # -- multi-page convenience helpers --------------------------------------

    def virt_read(self, page_table: PageTable, ctx: AccessContext,
                  vaddr: int, length: int, phys_read) -> bytes:
        """Read a possibly page-spanning virtual range.

        Physically-contiguous pages are read with a single backing-store
        access; the single-run case returns the handler's bytes directly
        with no assembly buffer.
        """
        runs = self.translate_range(page_table, ctx, vaddr, length,
                                    AccessType.READ)
        if len(runs) == 1:
            paddr, chunk = runs[0]
            return phys_read(paddr, chunk)
        out = bytearray(length)
        view = memoryview(out)
        pos = 0
        for paddr, chunk in runs:
            view[pos:pos + chunk] = phys_read(paddr, chunk)
            pos += chunk
        return bytes(out)

    def virt_write(self, page_table: PageTable, ctx: AccessContext,
                   vaddr: int, data, phys_write) -> None:
        """Write a possibly page-spanning virtual range.

        *data* may be any buffer-protocol object; runs are written
        through memoryview slices, so nothing is copied on the way down.
        """
        view = memoryview(data)
        if view.ndim != 1 or view.format not in ("B", "b", "c"):
            view = view.cast("B")
        runs = self.translate_range(page_table, ctx, vaddr, view.nbytes,
                                    AccessType.WRITE)
        if len(runs) == 1:
            phys_write(runs[0][0], view)
            return
        pos = 0
        for paddr, chunk in runs:
            phys_write(paddr, view[pos:pos + chunk])
            pos += chunk
