"""Transaction-layer packets (TLPs).

Only the fields the routing and lockdown logic inspect are modeled:
memory requests carry a physical address and are *address-routed*;
configuration requests carry a target BDF and register offset and are
*ID-routed*.  The root complex's lockdown filter works exactly the way
the paper describes — "by inspecting the target device number and
register offset in the PCIe configuration transaction packet".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class TlpKind(enum.Enum):
    MEM_READ = "MRd"
    MEM_WRITE = "MWr"
    CFG_READ = "CfgRd"
    CFG_WRITE = "CfgWr"


@dataclass
class Tlp:
    """One transaction-layer packet."""

    kind: TlpKind
    address: Optional[int] = None     # memory requests
    length: int = 0                   # bytes, memory reads
    data: Optional[bytes] = None      # writes
    target_bdf: Optional[str] = None  # config requests
    register_offset: Optional[int] = None
    value: Optional[int] = None       # config writes
    requester: str = "cpu"

    def __post_init__(self) -> None:
        if self.kind in (TlpKind.MEM_READ, TlpKind.MEM_WRITE):
            if self.address is None:
                raise ValueError(f"{self.kind.value} TLP requires an address")
            if self.kind is TlpKind.MEM_WRITE and self.data is None:
                raise ValueError("MWr TLP requires data")
        else:
            if self.target_bdf is None or self.register_offset is None:
                raise ValueError(f"{self.kind.value} TLP requires BDF and offset")
            if self.kind is TlpKind.CFG_WRITE and self.value is None:
                raise ValueError("CfgWr TLP requires a value")

    @classmethod
    def mem_read(cls, address: int, length: int, requester: str = "cpu") -> "Tlp":
        return cls(TlpKind.MEM_READ, address=address, length=length,
                   requester=requester)

    @classmethod
    def mem_write(cls, address: int, data: bytes, requester: str = "cpu") -> "Tlp":
        return cls(TlpKind.MEM_WRITE, address=address, data=data,
                   length=len(data), requester=requester)
