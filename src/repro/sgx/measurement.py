"""MRENCLAVE-style enclave measurement.

SGX builds an enclave's identity by hashing the sequence of lifecycle
operations (ECREATE parameters, each EADD's linear offset and type, each
EEXTENDed chunk of page content) and freezing the digest at EINIT.  HIX
additionally folds the PCIe routing-register measurement into the GPU
enclave's identity (Section 4.3.2: "HIX extends SGX to securely measure
the MMIO configuration register values as part of the GPU enclave
measurement").
"""

from __future__ import annotations

import hashlib

from repro.errors import EnclaveStateError

_EXTEND_CHUNK = 256  # EEXTEND measures 256-byte chunks on real hardware


class EnclaveMeasurement:
    """Running SHA-256 measurement, frozen by :meth:`finalize`."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self._final: bytes = b""

    @property
    def finalized(self) -> bool:
        return bool(self._final)

    def _update(self, tag: bytes, payload: bytes) -> None:
        if self._final:
            raise EnclaveStateError("measurement already finalized (post-EINIT)")
        self._digest.update(tag)
        self._digest.update(len(payload).to_bytes(8, "big"))
        self._digest.update(payload)

    def record_ecreate(self, size: int) -> None:
        # Real SGX measures the ELRANGE *size* (and attributes) but not
        # the load address, so the same image yields the same MRENCLAVE
        # wherever the loader places it — required for vendors to publish
        # enclave identities.
        self._update(b"ECREATE", size.to_bytes(8, "big"))

    def record_eadd(self, offset: int, page_type: str) -> None:
        self._update(b"EADD", offset.to_bytes(8, "big") + page_type.encode())

    def record_eextend(self, offset: int, content: bytes) -> None:
        for start in range(0, len(content), _EXTEND_CHUNK):
            chunk = content[start:start + _EXTEND_CHUNK]
            self._update(b"EEXTEND",
                         (offset + start).to_bytes(8, "big") + chunk)

    def finalize(self) -> bytes:
        if not self._final:
            self._final = self._digest.digest()
        return self._final

    @property
    def value(self) -> bytes:
        if not self._final:
            raise EnclaveStateError("measurement read before EINIT")
        return self._final
