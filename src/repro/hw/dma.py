"""DMA engine: the upstream path from PCIe devices into host memory.

Devices (the GPU's copy engine) use this to read/write host DRAM without
CPU involvement, exactly the "DMA" arrows of the paper's Figure 2.  Every
access passes through the (untrusted) IOMMU and then the system address
map, so an adversary-controlled IOMMU mapping really does redirect the
bytes — which is the point: HIX's defence is the authenticated
encryption layered on top, not this path.

Fast path: scatter-gather pieces from the IOMMU are coalesced runs, the
destination buffer is preallocated once, and host memory fills it in
place (no per-page ``bytearray +=`` assembly).  Byte counters account
each successfully-moved chunk individually so an adversary-induced fault
mid-transfer never inflates the statistics past the bytes actually
moved.
"""

from __future__ import annotations

from repro.hw.address_map import AddressMap
from repro.hw.iommu import Iommu
from repro.obs.tracer import traced


class DmaEngine:
    """Moves bytes between a device and host physical memory."""

    def __init__(self, address_map: AddressMap, iommu: Iommu) -> None:
        self._address_map = address_map
        self._iommu = iommu
        self.bytes_read = 0
        self.bytes_written = 0

    @traced("dma.read_host", "dma",
            lambda self, bdf, io_addr, length: {"bdf": bdf, "bytes": length})
    def read_host(self, bdf: str, io_addr: int, length: int) -> bytes:
        """Device-initiated read of host memory (DMA read)."""
        pieces = self._iommu.translate_range(bdf, io_addr, length)
        if len(pieces) == 1:
            # Contiguous run: the address map hands back the bytes directly.
            data = self._address_map.read(pieces[0][0], pieces[0][1])
            self.bytes_read += len(data)
            return data
        out = bytearray(length)
        view = memoryview(out)
        pos = 0
        for paddr, chunk in pieces:
            self._address_map.read_into(paddr, view[pos:pos + chunk])
            pos += chunk
            self.bytes_read += chunk
        return bytes(out)

    @traced("dma.write_host", "dma",
            lambda self, bdf, io_addr, data: {
                "bdf": bdf, "bytes": memoryview(data).nbytes})
    def write_host(self, bdf: str, io_addr: int, data) -> None:
        """Device-initiated write to host memory (DMA write)."""
        view = memoryview(data)
        if view.ndim != 1 or view.format not in ("B", "b", "c"):
            view = view.cast("B")
        offset = 0
        for paddr, chunk in self._iommu.translate_range(bdf, io_addr,
                                                        view.nbytes):
            self._address_map.write(paddr, view[offset:offset + chunk])
            offset += chunk
            self.bytes_written += chunk
