"""First-fit VRAM allocator with optional cleansing on free.

One allocator manages the whole device memory (the GPU has no MMU-side
allocator; drivers own placement).  HIX's runtime frees with
``cleanse=True`` — the paper requires "the GPU runtime system must
cleanse the deallocated global memory" to stop cross-context residual
leaks (Section 4.5); Gdev's baseline path frees without cleansing, which
is the leak the security tests demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import InvalidDevicePointer, OutOfDeviceMemory

_GRANULE = 4096


def _round_up(nbytes: int) -> int:
    return (nbytes + _GRANULE - 1) & ~(_GRANULE - 1)


@dataclass
class VramBlock:
    base: int
    size: int


class VramAllocator:
    """First-fit free-list allocator over [0, capacity)."""

    def __init__(self, capacity: int, reserve_low: int = _GRANULE) -> None:
        if capacity % _GRANULE:
            raise ValueError("capacity must be allocation-granule aligned")
        self.capacity = capacity
        self._free: List[VramBlock] = [
            VramBlock(reserve_low, capacity - reserve_low)]
        self._live: Dict[int, int] = {}  # base -> size

    @property
    def bytes_in_use(self) -> int:
        return sum(self._live.values())

    @property
    def bytes_free(self) -> int:
        return sum(block.size for block in self._free)

    def alloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        size = _round_up(nbytes)
        for index, block in enumerate(self._free):
            if block.size >= size:
                base = block.base
                if block.size == size:
                    self._free.pop(index)
                else:
                    block.base += size
                    block.size -= size
                self._live[base] = size
                return base
        raise OutOfDeviceMemory(
            f"VRAM: need {size:#x}, largest free "
            f"{max((b.size for b in self._free), default=0):#x}")

    def free(self, base: int) -> Tuple[int, int]:
        """Release an allocation; returns (base, size) for cleansing."""
        size = self._live.pop(base, None)
        if size is None:
            raise InvalidDevicePointer(f"free of unallocated VRAM {base:#x}")
        self._insert_free(VramBlock(base, size))
        return base, size

    def size_of(self, base: int) -> int:
        size = self._live.get(base)
        if size is None:
            raise InvalidDevicePointer(f"unknown device pointer {base:#x}")
        return size

    def _insert_free(self, block: VramBlock) -> None:
        """Keep the free list sorted and coalesced."""
        self._free.append(block)
        self._free.sort(key=lambda b: b.base)
        merged: List[VramBlock] = []
        for candidate in self._free:
            if merged and merged[-1].base + merged[-1].size == candidate.base:
                merged[-1].size += candidate.size
            else:
                merged.append(candidate)
        self._free = merged
