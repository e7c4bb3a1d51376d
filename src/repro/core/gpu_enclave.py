"""The GPU enclave: the relocated, trusted GPU driver (paper Section 4.2).

One user-space process hosts an SGX enclave containing the Gdev-derived
driver.  At boot it:

1. loads and initializes its enclave (measured, attestable),
2. has the benign kernel stub map the GPU's MMIO regions,
3. executes ``EGCREATE`` (binding the GPU, engaging MMIO lockdown) and
   ``EGADD`` for every MMIO page (populating the TGMR),
4. reads the GPU BIOS through the expansion ROM and verifies it against
   the vendor-published hash (Section 4.2.2),
5. resets the GPU to purge any pre-existing state.

After boot it is the *sole* software able to touch the GPU, and serves
user enclaves over the untrusted channel: attested key-exchange hellos,
then sealed requests (malloc/free/memcpy/module-load/launch/teardown),
maintaining one GPU context and one session key per user (Section 4.5).

That request loop, :class:`SealedRpcService`, is shared by every TEE
backend: :class:`GpuEnclaveService` adds HIX's boot, hello and in-GPU
crypto-kernel staging, and the GPU-CC driver
(:class:`repro.backends.gpucc.GpuCcService`) adds its own.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core import protocol
from repro.core.channel import (
    BULK_OFFSET,
    ChannelEnd,
    MessageQueue,
    REPLY_OFFSET,
    SharedMemoryRegion,
)
from repro.core.key_exchange import (
    DiffieHellman,
    SessionCrypto,
    bind_report_data,
    build_session_crypto,
    check_binding,
    derive_key,
    dh_bytes_to_int,
    int_to_dh_bytes,
)
from repro.crypto.blob import HEADER_LEN, open_blob, seal_blob, sealed_size
from repro.errors import (
    AttestationError,
    DriverError,
    GpuUnavailable,
    ProtocolError,
)
from repro.gdev.driver import GdevDriver, GdevContextHandle, GdevModule
from repro.gpu.bios import bios_hash, is_valid_rom
from repro.gpu.commands import CommandOpcode, encode_command
from repro.gpu.device import SimGpu
from repro.gpu.module import CubinImage, DevPtr
from repro.gpu.regs import REG_RESET, RESET_MAGIC, ROM_SIZE
from repro.hw.phys_mem import PAGE_SIZE
from repro.osmodel.driver_stub import map_gpu_mmio
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.pcie.root_complex import RootComplex
from repro.sgx.attestation import LocalReport, verify_local_report
from repro.sgx.enclave import EnclaveImage
from repro.sgx.instructions import SgxUnit

#: The GPU enclave's code identity ("provided by the GPU vendor", §5.5).
GPU_ENCLAVE_CODE = (b"HIX GPU enclave driver v1.0 -- Gdev-based trusted "
                    b"CUDA runtime relocated from the OS kernel")

CRYPTO_KERNELS = ["hix.aead_decrypt", "hix.aead_encrypt",
                  "hix.aead_decrypt_scatter", "hix.aead_encrypt_gather"]

logger = logging.getLogger(__name__)


def gpu_enclave_image() -> EnclaveImage:
    """The loadable (and measurable) GPU enclave image."""
    return EnclaveImage.from_code("gpu-enclave", GPU_ENCLAVE_CODE,
                                  heap_pages=8)


@dataclass
class Session:
    """Service-side state for one connected user enclave."""

    session_id: int
    user_measurement: bytes
    crypto: SessionCrypto
    ctx: GdevContextHandle
    end: ChannelEnd
    crypto_module: GdevModule
    modules: Dict[int, GdevModule] = field(default_factory=dict)
    module_ids: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    closed: bool = False


class SealedRpcService:
    """The request-serving loop every backend's service shares.

    It provisions channels, opens sealed requests, dispatches them to
    the device driver and seals the replies.  A backend subclass boots
    the device, answers the hello (:meth:`handle_hello`) and supplies
    the staging hooks: how a request is opened and its reply sealed,
    how staged ciphertext is opened into (or sealed out of) device
    memory, and what teardown forgets.
    """

    #: who serves the requests, as named in errors
    peer_name = "?"
    #: whether this process touches the shared region as an enclave
    enclave_mode = False
    #: whether driver uploads and launches go through trusted MMIO
    via_mmio = False
    #: bytes the device-side seal writes before the blob in staging
    staging_header = 0

    def __init__(self, kernel: Kernel, root_complex: RootComplex,
                 gpu: SimGpu, suite_name: str = "fast-auth",
                 region_size: int = 4 << 20) -> None:
        self._kernel = kernel
        self._root_complex = root_complex
        self._gpu = gpu
        self._suite_name = suite_name
        self._region_size = region_size

        self.process: Optional[Process] = None
        self.driver: Optional[GdevDriver] = None
        self.sessions: Dict[int, object] = {}
        self.alive = False
        self._regions = None

    @property
    def device(self) -> SimGpu:
        return self._gpu

    def _open_driver(self) -> GdevDriver:
        """A fresh driver over the device, run by this service's process."""
        return GdevDriver(self._kernel, self._root_complex, self._gpu,
                          process=self.process, enclave_mode=self.enclave_mode,
                          regions=self._regions, costs=None)

    def _reset_device(self) -> None:
        """Reset the GPU to purge any pre-existing (potentially malicious)
        state, then rebuild driver bookkeeping over the clean device."""
        self.driver.channel.reg_write(REG_RESET, RESET_MAGIC)
        self.driver = self._open_driver()

    # ------------------------------------------------------- channel plumbing

    def open_channel(self, user_process: Process,
                     queue_depth: Optional[int] = None) -> ChannelEnd:
        """Provision the untrusted media for one user.

        *queue_depth* bounds both notification queues; a full queue
        raises :class:`~repro.errors.QueueFullError` on send, which the
        serving layer surfaces as backpressure.
        """
        region = SharedMemoryRegion(self._kernel, self._region_size)
        region.attach(user_process)
        region.attach(self.process)
        return ChannelEnd(
            region=region,
            to_service=MessageQueue(f"to-service:{user_process.pid}",
                                    capacity=queue_depth),
            to_user=MessageQueue(f"to-user:{user_process.pid}",
                                 capacity=queue_depth),
            user_process=user_process,
        )

    def _check_alive(self) -> None:
        if not self.alive:
            raise GpuUnavailable(f"{self.peer_name} is not running")

    def _read_hello(self, end: ChannelEnd) -> dict:
        """Receive and decode the user's plaintext hello."""
        self._check_alive()
        note = end.to_service.recv()
        if note.kind != "hello":
            raise ProtocolError(f"expected hello, got {note.kind!r}")
        return protocol.decode_message(end.region.read(
            self.process, note.offset, note.length,
            enclave_mode=self.enclave_mode))

    def _send_hello_ack(self, end: ChannelEnd, ack: dict) -> None:
        reply = protocol.encode_message(ack)
        end.region.write(self.process, REPLY_OFFSET, reply,
                         enclave_mode=self.enclave_mode)
        end.to_user.send("hello-ack", REPLY_OFFSET, len(reply))

    def handle_hello(self, end: ChannelEnd) -> None:
        """Answer a hello: attest, key the session, register it."""
        raise NotImplementedError

    def _register(self, end: ChannelEnd, session) -> None:
        self.sessions[session.session_id] = session
        end.session_id = session.session_id

    # ----------------------------------------------------------- request loop

    def poll(self, end: ChannelEnd) -> None:
        """Serve one pending request notification on *end*."""
        self._check_alive()
        session = self.sessions.get(end.session_id)
        if session is None or session.closed:
            raise GpuUnavailable("no live session on this channel")
        note = end.to_service.recv()
        if note.kind != "request":
            raise ProtocolError(f"expected request, got {note.kind!r}")
        sealed = end.region.read(self.process, note.offset, note.length,
                                 enclave_mode=self.enclave_mode)
        # A forged or replayed request raises (IntegrityError/
        # ReplayError) out of the loop: tampering is an attack on the
        # channel, not a request to serve.
        raw, crypto = self._open_request(session, sealed)
        request = protocol.decode_message(raw)
        try:
            op = protocol.check_request(request)
            result = self._dispatch(session, op, request)
        except DriverError as exc:
            # Request-level failures — unknown ops, allocation, bad
            # pointers, device faults — are reported back to the user
            # as structured sealed error replies (the session stays
            # live).
            result = protocol.error_reply(exc)
        reply = seal_blob(crypto.reply_suite, crypto.reply_nonces,
                          protocol.encode_message(result),
                          associated_data=protocol.REPLY_AAD)
        end.region.write(self.process, REPLY_OFFSET, reply,
                         enclave_mode=self.enclave_mode)
        end.to_user.send("reply", REPLY_OFFSET, len(reply))

    def _open_request(self, session,
                      sealed: bytes) -> Tuple[bytes, SessionCrypto]:
        """Open a sealed request; also return the session crypto that
        seals its reply, pinned now so a teardown request still gets
        its acknowledgment sealed."""
        raise NotImplementedError

    def _dispatch(self, session, op: str, request: dict) -> dict:
        if op == protocol.OP_MALLOC:
            gpu_va = self.driver.malloc(session.ctx, int(request["nbytes"]))
            return {"ok": True, "gpu_va": gpu_va}
        if op == protocol.OP_FREE:
            # Freed device memory is cleansed (Section 4.5).
            self.driver.free(session.ctx, int(request["gpu_va"]), cleanse=True)
            return {"ok": True}
        if op == protocol.OP_MEMCPY_HTOD:
            return self._memcpy_htod(session, int(request["gpu_va"]),
                                     int(request["blob_len"]))
        if op == protocol.OP_MEMCPY_DTOH:
            return self._memcpy_dtoh(session, int(request["gpu_va"]),
                                     int(request["nbytes"]))
        if op == protocol.OP_MEMCPY_HTOD_BATCH:
            return self._memcpy_htod_batch(
                session, [int(va) for va in request["gpu_vas"]],
                [int(n) for n in request["lengths"]],
                int(request["blob_len"]))
        if op == protocol.OP_MEMCPY_DTOH_BATCH:
            return self._memcpy_dtoh_batch(
                session, [int(va) for va in request["gpu_vas"]],
                [int(n) for n in request["lengths"]])
        if op == protocol.OP_MODULE_LOAD:
            module = self.driver.load_module(
                session.ctx, CubinImage([str(n) for n in request["kernels"]]),
                via_mmio=self.via_mmio)
            module_id = next(session.module_ids)
            session.modules[module_id] = module
            return {"ok": True, "module_id": module_id}
        if op == protocol.OP_LAUNCH:
            return self._launch_batch(session, [request])
        if op == protocol.OP_LAUNCH_BATCH:
            return self._launch_batch(session, request["launches"])
        if op == protocol.OP_CTX_DESTROY:
            self._close_session(session)
            return {"ok": True}
        if op == protocol.OP_SHUTDOWN:
            self.graceful_shutdown()
            return {"ok": True}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    # ----------------------------------------------- single-copy secure memcpy

    def _stage_h2d(self, session, blob_len: int) -> int:
        """DMA the sealed frame from the shared region into VRAM staging."""
        staging_va = self.driver.malloc(session.ctx, blob_len)
        self.driver.channel.submit([encode_command(
            CommandOpcode.MEMCPY_H2D, session.ctx.ctx_id,
            (session.end.region.paddr + BULK_OFFSET, staging_va, blob_len))])
        return staging_va

    def _stage_d2h(self, session, staging_va: int, blob_len: int) -> None:
        """DMA the sealed blob out of VRAM staging, then cleanse it."""
        self.driver.channel.submit([encode_command(
            CommandOpcode.MEMCPY_D2H, session.ctx.ctx_id,
            (staging_va + self.staging_header,
             session.end.region.paddr + BULK_OFFSET, blob_len))])
        self.driver.free(session.ctx, staging_va, cleanse=True)

    def _memcpy_htod(self, session, gpu_va: int, blob_len: int) -> dict:
        """Shared memory -> GPU (ciphertext), then open on the device."""
        staging_va = self._stage_h2d(session, blob_len)
        self._open_staged(session, staging_va, blob_len, gpu_va)
        self.driver.free(session.ctx, staging_va)
        return {"ok": True, "plaintext_len": blob_len - HEADER_LEN}

    def _memcpy_dtoh(self, session, gpu_va: int, nbytes: int) -> dict:
        """Seal on the device, then GPU -> shared memory (ciphertext)."""
        blob_len = sealed_size(nbytes)
        staging_va = self.driver.malloc(session.ctx,
                                        self.staging_header + blob_len)
        self._seal_staged(session, gpu_va, nbytes, staging_va)
        self._stage_d2h(session, staging_va, blob_len)
        return {"ok": True, "blob_len": blob_len}

    def _memcpy_htod_batch(self, session, gpu_vas: list, lengths: list,
                           blob_len: int) -> dict:
        """One DMA + one device-side open for a whole batch of uploads.

        The fused frame in shared memory seals the concatenation of the
        batch's chunks under one nonce/tag; the device authenticates it
        once and scatters the plaintext chunks to their destinations.
        """
        _check_batch_tables(gpu_vas, lengths)
        staging_va = self._stage_h2d(session, blob_len)
        self._scatter_staged(session, staging_va, blob_len, gpu_vas, lengths)
        self.driver.free(session.ctx, staging_va)
        return {"ok": True, "plaintext_len": sum(lengths)}

    def _memcpy_dtoh_batch(self, session, gpu_vas: list,
                           lengths: list) -> dict:
        """One device-side gather-and-seal + one DMA for a batch."""
        _check_batch_tables(gpu_vas, lengths)
        blob_len = sealed_size(sum(lengths))
        staging_va = self.driver.malloc(session.ctx,
                                        self.staging_header + blob_len)
        self._gather_staged(session, gpu_vas, lengths, staging_va)
        self._stage_d2h(session, staging_va, blob_len)
        return {"ok": True, "blob_len": blob_len}

    def _open_staged(self, session, staging_va: int, blob_len: int,
                     gpu_va: int) -> None:
        """Open the sealed blob at *staging_va*; plaintext to *gpu_va*."""
        raise NotImplementedError

    def _seal_staged(self, session, gpu_va: int, nbytes: int,
                     staging_va: int) -> None:
        """Seal *nbytes* at *gpu_va* into staging (after the header)."""
        raise NotImplementedError

    def _scatter_staged(self, session, staging_va: int, blob_len: int,
                        gpu_vas: list, lengths: list) -> None:
        """Open one fused frame and scatter its chunks."""
        raise NotImplementedError

    def _gather_staged(self, session, gpu_vas: list, lengths: list,
                       staging_va: int) -> None:
        """Gather chunks and seal them as one fused frame into staging."""
        raise NotImplementedError

    def _launch_batch(self, session, launches: list) -> dict:
        """Run launches announced by one sealed request, in order."""
        if not isinstance(launches, list) or not launches:
            raise ProtocolError("launch batch must be a non-empty list")
        for item in launches:
            module = session.modules.get(int(item["module_id"]))
            if module is None:
                raise ProtocolError("launch references unknown module")
            self.driver.launch(
                session.ctx, module, str(item["kernel"]),
                protocol.decode_params(item["params"]),
                compute_seconds=float(item.get("compute_seconds", 0.0)),
                via_mmio=self.via_mmio)
        return {"ok": True}

    # ------------------------------------------------------------- termination

    def _close_session(self, session) -> None:
        self.driver.destroy_context(session.ctx, cleanse=True)
        self._forget_session(session)
        session.closed = True
        self.sessions.pop(session.session_id, None)

    def _forget_session(self, session) -> None:
        """Drop per-session trusted state beyond the GPU context."""

    def graceful_shutdown(self) -> None:
        """Abort work, cleanse the GPU, return it to the OS (Section 4.2.3)."""
        for session in list(self.sessions.values()):
            self._close_session(session)
            session.end.to_user.send("gpu-untrusted", 0, 0)
        self.driver.channel.reg_write(REG_RESET, RESET_MAGIC)
        self._release_device()
        self.alive = False

    def _release_device(self) -> None:
        """Give up what the trusted side holds once the GPU is scrubbed."""
        raise NotImplementedError


class GpuEnclaveService(SealedRpcService):
    """The GPU enclave process and its request-serving loop."""

    peer_name = "GPU enclave"
    enclave_mode = True
    via_mmio = True
    #: ``hix.aead_encrypt`` writes a u64 blob length before the blob
    staging_header = 8

    def __init__(self, kernel: Kernel, sgx: SgxUnit,
                 root_complex: RootComplex, gpu: SimGpu,
                 expected_bios_hash: bytes,
                 suite_name: str = "fast-auth",
                 region_size: int = 4 << 20) -> None:
        super().__init__(kernel, root_complex, gpu, suite_name=suite_name,
                         region_size=region_size)
        self._sgx = sgx
        self._expected_bios_hash = expected_bios_hash
        self.enclave = None
        self.bios_measurement: Optional[bytes] = None

    # ------------------------------------------------------------------ boot

    def boot(self) -> "GpuEnclaveService":
        """Run the full secure-initialization sequence (Sections 4.2-4.3)."""
        self.process = self._kernel.create_process("gpu-enclave")
        self.enclave = self._kernel.load_enclave(self.process,
                                                 gpu_enclave_image())
        # Benign kernel service: assign virtual addresses for the MMIO.
        self._regions = map_gpu_mmio(self._kernel, self._root_complex,
                                     self._gpu.bdf, self.process)
        # EGCREATE: bind the GPU, freeze PCIe routing (MMIO lockdown).
        self._sgx.egcreate(self.enclave.enclave_id, self._gpu.bdf)
        # EGADD: register every MMIO page in the TGMR.
        for region in self._regions.values():
            self._sgx.egadd(self.enclave.enclave_id, region.vaddr,
                            region.paddr, npages=region.size // PAGE_SIZE)
        # Measure the GPU BIOS through the (now exclusive) MMIO path.
        self.driver = self._open_driver()
        rom = self.driver.channel.read_expansion_rom(ROM_SIZE)
        if not is_valid_rom(rom):
            raise AttestationError("GPU expansion ROM is structurally invalid")
        self.bios_measurement = bios_hash(rom)
        if self.bios_measurement != self._expected_bios_hash:
            raise AttestationError(
                "GPU BIOS failed measurement: device firmware was modified "
                "before GPU-enclave initialization")
        self._reset_device()
        self.alive = True
        logger.info(
            "GPU enclave up: device=%s enclave=%d tgmr_pages=%d lockdown=%s",
            self._gpu.bdf, self.enclave.enclave_id,
            len(self._sgx.hix.tgmr_entries),
            self._root_complex.lockdown_active_for(str(self._gpu.bdf)))
        return self

    @property
    def measurement(self) -> bytes:
        return self.enclave.measurement

    # --------------------------------------------------- session establishment

    def handle_hello(self, end: ChannelEnd) -> None:
        """Process a hello: verify the user's report, run the 3-party DH."""
        hello = self._read_hello(end)
        report = _report_from_wire(hello["report"])
        # Local attestation: only a genuine enclave on this platform can
        # produce a report MACed for *our* measurement.
        verify_local_report(self._sgx, self.enclave.enclave_id, report)
        a_bytes = bytes.fromhex(hello["dh_a"])
        check_binding(report.report_data, a_bytes)
        a_value = dh_bytes_to_int(a_bytes)

        # Create this user's GPU context and run the GPU leg of the DH.
        ctx = self.driver.create_context(end.user_process)
        dh_e = DiffieHellman(seed=b"gpu-enclave-%d" % ctx.ctx_id)
        b_value = dh_e.raise_value(a_value)
        resp_va = self.driver.malloc(ctx, 512)
        self.driver.channel.submit([encode_command(
            CommandOpcode.KEY_EXCHANGE, ctx.ctx_id, (resp_va,),
            blob=int_to_dh_bytes(a_value) + int_to_dh_bytes(b_value))])
        reply_raw = self.driver.channel.aperture_read(
            self.driver.vram_pa_of(ctx, resp_va), 512)
        self.driver.free(ctx, resp_va, cleanse=True)
        c_value = dh_bytes_to_int(reply_raw[:256])    # g^g
        d_value = dh_bytes_to_int(reply_raw[256:])    # g^(ug)
        session_key = derive_key(dh_e.raise_value(d_value))
        e_value = dh_e.raise_value(c_value)           # g^(ge), for the user

        crypto = build_session_crypto(session_key, self._suite_name)
        crypto_module = self.driver.load_module(
            ctx, CubinImage(list(CRYPTO_KERNELS)), via_mmio=True)
        session = Session(session_id=end.user_process.pid,
                          user_measurement=report.measurement,
                          crypto=crypto, ctx=ctx, end=end,
                          crypto_module=crypto_module)
        self._register(end, session)
        logger.info("session %d established: user measurement %s..., ctx %d",
                    session.session_id, report.measurement.hex()[:16],
                    ctx.ctx_id)

        e_bytes = int_to_dh_bytes(e_value)
        reply_report = self._sgx.ereport(
            self.enclave.enclave_id, report.measurement,
            bind_report_data(e_bytes, a_bytes))
        self._send_hello_ack(end, {
            "report": _report_to_wire(reply_report),
            "dh_e": e_bytes.hex(),
            "ctx_id": ctx.ctx_id,
        })

    # ------------------------------------------------ in-GPU crypto staging

    def _open_request(self, session: Session,
                      sealed: bytes) -> Tuple[bytes, SessionCrypto]:
        crypto = session.crypto
        return open_blob(crypto.request_suite, sealed,
                         associated_data=protocol.REQUEST_AAD,
                         replay_guard=crypto.request_guard), crypto

    def _crypto_launch(self, session: Session, kernel: str,
                       params: list) -> None:
        self.driver.launch(session.ctx, session.crypto_module, kernel,
                           params, via_mmio=self.via_mmio)

    def _open_staged(self, session: Session, staging_va: int, blob_len: int,
                     gpu_va: int) -> None:
        self._crypto_launch(session, "hix.aead_decrypt",
                            [DevPtr(staging_va), blob_len, DevPtr(gpu_va)])

    def _seal_staged(self, session: Session, gpu_va: int, nbytes: int,
                     staging_va: int) -> None:
        self._crypto_launch(session, "hix.aead_encrypt",
                            [DevPtr(gpu_va), nbytes, DevPtr(staging_va)])

    def _scatter_staged(self, session: Session, staging_va: int,
                        blob_len: int, gpu_vas: list, lengths: list) -> None:
        self._crypto_launch(
            session, "hix.aead_decrypt_scatter",
            [DevPtr(staging_va), blob_len, len(gpu_vas)]
            + _ptr_table(gpu_vas, lengths))

    def _gather_staged(self, session: Session, gpu_vas: list, lengths: list,
                       staging_va: int) -> None:
        self._crypto_launch(
            session, "hix.aead_encrypt_gather",
            [DevPtr(staging_va), len(gpu_vas)]
            + _ptr_table(gpu_vas, lengths))

    def _release_device(self) -> None:
        # EGDESTROY unbinds the GPU: it returns to the OS.
        self._sgx.egdestroy(self.enclave.enclave_id)


def _check_batch_tables(gpu_vas: list, lengths: list) -> None:
    if len(gpu_vas) != len(lengths) or not gpu_vas:
        raise ProtocolError("batch gpu_vas/lengths tables do not match")


def _ptr_table(gpu_vas: list, lengths: list) -> list:
    """Interleaved ``(DevPtr, length)`` kernel parameters."""
    params: list = []
    for gpu_va, length in zip(gpu_vas, lengths):
        params.append(DevPtr(gpu_va))
        params.append(length)
    return params


# -- report (de)serialization over the untrusted channel ----------------------

def _report_to_wire(report) -> dict:
    return {
        "measurement": report.measurement.hex(),
        "enclave_id": report.enclave_id,
        "report_data": report.report_data.hex(),
        "is_gpu_enclave": report.is_gpu_enclave,
        "routing_measurement": report.routing_measurement.hex(),
        "mac": report.mac.hex(),
    }


def _report_from_wire(wire: dict):
    try:
        return LocalReport(
            measurement=bytes.fromhex(wire["measurement"]),
            enclave_id=int(wire["enclave_id"]),
            report_data=bytes.fromhex(wire["report_data"]),
            is_gpu_enclave=bool(wire["is_gpu_enclave"]),
            routing_measurement=bytes.fromhex(wire["routing_measurement"]),
            mac=bytes.fromhex(wire["mac"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed report on wire: {exc}") from exc
