"""Trusted user runtime library (paper Section 4.4).

"HIX provides the trusted user runtime library for applications, which
runs in each application enclave.  This library consists of GPU APIs
such as memory copy or GPU kernel launch operation, the security module
containing key initialization and user data encryption, and the
communication module for data transfers."

:class:`HixApi` exposes the same CUDA-driver-API facade as the baseline
:class:`~repro.gdev.api.GdevApi`, so application code runs unchanged on
either stack.  Internally every operation crosses the untrusted channel
as a sealed request, bulk data takes the single-copy pipelined path of
Section 4.4.2, and simulated time is charged analytically from the cost
model (pipelined encrypt-transfer overlap, in-GPU crypto kernels,
message-queue hops), matching the prototype's measurement decomposition.

The sealed-RPC client itself, :class:`SealedRpcApi`, is shared by every
TEE backend: :class:`HixApi` adds only HIX's handshake, and the GPU-CC
runtime (:class:`repro.backends.gpucc.GpuCcApi`) adds its own.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import protocol
from repro.core.channel import BULK_OFFSET, ChannelEnd, REQUEST_OFFSET
from repro.core.gpu_enclave import (
    GpuEnclaveService,
    SealedRpcService,
    _report_from_wire,
    _report_to_wire,
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
from repro.crypto.blob import (
    HEADER_LEN,
    open_blob,
    open_blob_chunks,
    seal_blob,
    seal_blob_into,
    seal_chunks_into,
    sealed_size,
)
from repro.errors import (
    AttestationError,
    CertChainError,
    DriverError,
    ProtocolError,
    RequestRejected,
)
from repro.gpu.module import DevPtr, ParamValue
from repro.obs.audit import audit_log
from repro.obs.tracer import traced
from repro.osmodel.kernel import Kernel
from repro.osmodel.process import Process
from repro.sgx.attestation import verify_local_report
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.pipeline import pipelined_time, pipelined_times

HostBuffer = Union[bytes, bytearray, np.ndarray]


def _api_traced(op: str, attrs=None):
    """``@traced`` for a sealed-RPC entry point: span ``<backend>.<op>``
    in the backend's category."""
    return traced("{0.backend_name}." + op, "{0.backend_name}", attrs)


def _as_buffer(data: HostBuffer) -> memoryview:
    """A flat byte view of the caller's buffer — zero-copy when possible.

    C-contiguous numpy arrays and bytes-like objects are viewed in
    place; only non-contiguous arrays pay a copy.
    """
    if isinstance(data, np.ndarray):
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        return memoryview(data).cast("B")
    view = memoryview(data)
    if view.ndim != 1 or view.format not in ("B", "b", "c"):
        view = view.cast("B")
    return view


class HixModuleHandle:
    """Client-side handle to a module resident in the user's GPU context."""

    def __init__(self, module_id: int, kernel_names: Sequence[str]) -> None:
        self.module_id = module_id
        self.kernel_names = list(kernel_names)


class SealedRpcApi:
    """The sealed-RPC client every backend's user runtime shares.

    One protocol for all backends: an attested hello, then sealed
    requests, chunked single-copy bulk transfers and fused batch frames
    over one shared region.  A backend subclass supplies the handshake
    (:meth:`_handshake`) and a few constants; simulated time is charged
    through the cost hooks of the backend's
    :class:`~repro.backends.base.TeeBackend`.
    """

    secure = True
    #: registry name of the TeeBackend; also the span category and the
    #: prefix of span names, audit kinds and the bulk associated data
    backend_name = "?"
    #: whether the user side touches the shared region as an enclave
    enclave_mode = False
    #: audit details recorded once the handshake succeeds
    attested_detail = "?"
    key_exchange_detail = "?"

    def __init__(self, kernel: Kernel, process: Process,
                 service: SealedRpcService, clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 suite_name: str = "fast-auth",
                 channel_queue_depth: Optional[int] = None) -> None:
        # Imported here: the backends package imports the GPU-CC
        # runtime, which builds on this module.
        from repro.backends.base import get_backend
        self._tee = get_backend(self.backend_name)
        self._kernel = kernel
        self._process = process
        self._service = service
        self._clock = clock
        self._costs = costs
        self._suite_name = suite_name
        self._channel_queue_depth = channel_queue_depth
        self._end: Optional[ChannelEnd] = None
        self._crypto: Optional[SessionCrypto] = None
        self._ctx_id: Optional[int] = None
        self._seal_buf: Optional[memoryview] = None  # reused per bulk chunk
        self._bulk_ad: Optional[bytes] = None  # built once per session
        self.user_enclave = process.enclave

    # -- timing helpers ----------------------------------------------------------

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None and seconds > 0.0:
            self._clock.advance(seconds, category)

    # -- lifecycle ------------------------------------------------------------------

    def __enter__(self) -> "SealedRpcApi":
        """Context-manager form: attested session in, teardown on exit."""
        if self._end is None:
            self.cuCtxCreate()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.cuCtxDestroy()
        except DriverError:
            # The service may already be gone (e.g. graceful shutdown).
            pass

    def cuInit(self) -> "SealedRpcApi":
        return self

    @_api_traced("cuCtxCreate", lambda self: {"pid": self._process.pid})
    def cuCtxCreate(self) -> "SealedRpcApi":
        """Attested session setup and key exchange (Section 4.4.1).

        The security evidence goes on the audit log: the attestation
        verdict — including which stage failed, a cert chain or a
        report — and the key exchange.
        """
        log = audit_log()
        subject = self._process.name
        kind = self.backend_name
        now = self._clock.now if self._clock is not None else 0.0
        try:
            result = self._cuCtxCreate()
        except AttestationError as exc:
            cause = ("cert_chain" if isinstance(exc, CertChainError)
                     else "report")
            log.record(f"{kind}.attestation", subject, time=now, ok=False,
                       detail=str(exc), cause=cause, backend=kind)
            raise
        now = self._clock.now if self._clock is not None else now
        log.record(f"{kind}.attestation", subject, time=now,
                   detail=self.attested_detail, backend=kind)
        log.record(f"{kind}.key_exchange", subject, time=now,
                   detail=self.key_exchange_detail, backend=kind,
                   ctx_id=self._ctx_id)
        return result

    def _cuCtxCreate(self) -> "SealedRpcApi":
        if self._end is not None:
            raise DriverError("context already created")
        if self._costs is not None:
            task_init, session_setup = self._tee.session_setup(self._costs)
            self._charge(task_init, "task_init")
            self._charge(session_setup, "session_setup")
        end = self._service.open_channel(
            self._process, queue_depth=self._channel_queue_depth)
        session_key, ctx_id = self._handshake(end)
        self._crypto = build_session_crypto(session_key, self._suite_name)
        self._ctx_id = ctx_id
        self._bulk_ad = bulk_aad(self.backend_name, ctx_id)
        self._end = end
        return self

    def _handshake(self, end: ChannelEnd) -> Tuple[bytes, int]:
        """Attest the peer over *end*; return ``(session key, ctx id)``."""
        raise NotImplementedError

    def _hello(self, end: ChannelEnd, hello: dict) -> dict:
        """Send the plaintext hello, let the service answer, return the ack."""
        raw = protocol.encode_message(hello)
        end.region.write(self._process, REQUEST_OFFSET, raw,
                         enclave_mode=self.enclave_mode)
        end.to_service.send("hello", REQUEST_OFFSET, len(raw))
        self._service.handle_hello(end)
        note = end.to_user.recv()
        if note.kind != "hello-ack":
            raise ProtocolError(f"expected hello-ack, got {note.kind!r}")
        return protocol.decode_message(end.region.read(
            self._process, note.offset, note.length,
            enclave_mode=self.enclave_mode))

    def cuCtxDestroy(self) -> None:
        if self._end is not None:
            self._cuCtxDestroy()

    @_api_traced("cuCtxDestroy", lambda self: {"ctx_id": self._ctx_id})
    def _cuCtxDestroy(self) -> None:
        self._request({"op": protocol.OP_CTX_DESTROY})
        self._end = None
        self._crypto = None
        self._ctx_id = None
        self._seal_buf = None
        self._bulk_ad = None

    @property
    def ctx_id(self) -> int:
        if self._ctx_id is None:
            raise DriverError("no current context (call cuCtxCreate)")
        return self._ctx_id

    # -- sealed request/reply -----------------------------------------------------------

    def _request(self, payload: dict) -> dict:
        if self._end is None or self._crypto is None:
            raise DriverError("no current context (call cuCtxCreate)")
        if self._costs is not None:
            self._charge(self._tee.rpc_round_trip(self._costs), "ipc")
        sealed = seal_blob(self._crypto.request_suite,
                           self._crypto.request_nonces,
                           protocol.encode_message(payload),
                           associated_data=protocol.REQUEST_AAD)
        self._end.region.write(self._process, REQUEST_OFFSET, sealed,
                               enclave_mode=self.enclave_mode)
        self._end.to_service.send("request", REQUEST_OFFSET, len(sealed))
        self._service.poll(self._end)
        note = self._end.to_user.recv()
        if note.kind == "gpu-untrusted":
            raise DriverError(
                f"{self._service.peer_name} terminated; GPU no longer trusted")
        raw = self._end.region.read(self._process, note.offset, note.length,
                                    enclave_mode=self.enclave_mode)
        reply = protocol.decode_message(open_blob(
            self._crypto.reply_suite, raw,
            associated_data=protocol.REPLY_AAD,
            replay_guard=self._crypto.reply_guard))
        if not reply.get("ok"):
            raise RequestRejected(
                f"{self._service.peer_name} rejected request: {reply!r}",
                code=str(reply.get("code", protocol.ERR_DRIVER)))
        return reply

    # -- memory ---------------------------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> DevPtr:
        reply = self._request({"op": protocol.OP_MALLOC, "nbytes": nbytes})
        return DevPtr(int(reply["gpu_va"]))

    def cuMemFree(self, dptr: DevPtr) -> None:
        self._request({"op": protocol.OP_FREE, "gpu_va": dptr.addr})

    def _bulk_chunk_limit(self) -> int:
        return self._end.region.bulk_capacity - HEADER_LEN

    def _chunk_seal_buf(self) -> memoryview:
        """Per-session scratch frame reused by every bulk chunk.

        Left uninitialised: every chunk is sealed into it before its
        bytes are read, so a session pays for the pages its chunks
        touch, not for zeroing a region-sized frame.
        """
        capacity = self._end.region.bulk_capacity
        if self._seal_buf is None or len(self._seal_buf) < capacity:
            self._seal_buf = memoryview(np.empty(capacity, dtype=np.uint8))
        return self._seal_buf

    def _write_bulk(self, sealed) -> None:
        self._end.region.write(self._process, BULK_OFFSET, sealed,
                               enclave_mode=self.enclave_mode)

    def _read_bulk(self, blob_len: int) -> bytes:
        return self._end.region.read(self._process, BULK_OFFSET, blob_len,
                                     enclave_mode=self.enclave_mode)

    def _charge_transfers(self, sizes: Sequence[int], requests: int,
                          upload: bool) -> None:
        """Charge sealed transfers of *sizes* bytes exactly as that many
        scalar memcpy calls would, *requests* round trips being paid."""
        costs, tee = self._costs, self._tee
        bandwidths, latencies = (tee.h2d_stages(costs) if upload
                                 else tee.d2h_stages(costs))
        modeled = [costs.scaled(n) for n in sizes]
        if len(modeled) == 1:
            # The scalar closed form; pipelined_times matches it bit for
            # bit but pays numpy's per-call overhead.
            copy = [pipelined_time(modeled[0], bandwidths,
                                   costs.pipeline_chunk_bytes,
                                   stage_latencies=latencies)]
        else:
            copy = pipelined_times(modeled, bandwidths,
                                   costs.pipeline_chunk_bytes,
                                   stage_latencies=latencies)
        for _ in range(len(sizes) - requests):
            self._charge(tee.rpc_round_trip(costs), "ipc")
        for nbytes, seconds in zip(sizes, copy):
            self._charge(tee.memcpy_request_overhead(costs), "ipc")
            crypto = tee.device_crypto_time(costs, nbytes)
            if upload:
                self._charge(float(seconds), "copy_h2d")
                self._charge(crypto, "crypto_gpu")
            else:
                self._charge(crypto, "crypto_gpu")
                self._charge(float(seconds), "copy_d2h")

    @_api_traced("cuMemcpyHtoD", lambda self, dptr, data: {
        "ctx_id": self._ctx_id, "bytes": _as_buffer(data).nbytes})
    def cuMemcpyHtoD(self, dptr: DevPtr, data: HostBuffer) -> None:
        """Single-copy secure host-to-device transfer (Section 4.4.2/4.4.3).

        Per chunk: seal inside the user's TEE, place ciphertext in the
        shared region, and ask the service to DMA it into device memory,
        where the backend's device-side crypto opens it.  Time is charged
        as the backend's chunked pipeline (encrypt overlapping transfer,
        Section 5.2) plus the device-side crypto pass.

        Fast path: the source is chunked through memoryviews (no slice
        copies) and every chunk is sealed into one reused per-session
        frame buffer instead of a fresh blob allocation.
        """
        raw = _as_buffer(data)
        self._scalar_htod_bytes(dptr, raw)
        if self._costs is not None:
            self._charge_transfers([raw.nbytes], 1, upload=True)

    def _scalar_htod_bytes(self, dptr: DevPtr, raw: memoryview) -> None:
        """Chunked sealed upload without analytic charges."""
        limit = self._bulk_chunk_limit()
        seal_buf = self._chunk_seal_buf()
        offset = 0
        while offset < raw.nbytes or (not raw.nbytes and offset == 0):
            chunk = raw[offset:offset + limit]
            sealed_len = seal_blob_into(
                self._crypto.bulk_suite, self._crypto.bulk_h2d_nonces,
                chunk, seal_buf, associated_data=self._bulk_ad)
            self._write_bulk(memoryview(seal_buf)[:sealed_len])
            self._request({"op": protocol.OP_MEMCPY_HTOD,
                           "gpu_va": dptr.addr + offset,
                           "blob_len": sealed_len})
            offset += len(chunk)
            if not raw.nbytes:
                break

    @_api_traced("cuMemcpyDtoH", lambda self, dptr, nbytes: {
        "ctx_id": self._ctx_id, "bytes": nbytes})
    def cuMemcpyDtoH(self, dptr: DevPtr, nbytes: int) -> bytes:
        """Single-copy secure device-to-host transfer."""
        out = self._cuMemcpyDtoH_uncharged(dptr, nbytes)
        if self._costs is not None:
            self._charge_transfers([nbytes], 1, upload=False)
        return out

    def _cuMemcpyDtoH_uncharged(self, dptr: DevPtr, nbytes: int) -> bytes:
        """Chunked sealed download without analytic charges."""
        limit = self._bulk_chunk_limit()
        parts = []
        offset = 0
        while offset < nbytes:
            chunk = min(nbytes - offset, limit)
            reply = self._request({"op": protocol.OP_MEMCPY_DTOH,
                                   "gpu_va": dptr.addr + offset,
                                   "nbytes": chunk})
            blob_len = int(reply["blob_len"])
            if blob_len != sealed_size(chunk):
                raise ProtocolError("unexpected sealed blob size")
            parts.append(open_blob(
                self._crypto.bulk_suite, self._read_bulk(blob_len),
                associated_data=self._bulk_ad,
                replay_guard=self._crypto.bulk_d2h_guard))
            offset += chunk
        # A one-chunk download returns the opened plaintext itself.
        return b"".join(parts)

    # -- batched transfers --------------------------------------------------------------------

    @_api_traced("cuMemcpyHtoDBatch", lambda self, items: {
        "ctx_id": self._ctx_id, "items": len(items)})
    def cuMemcpyHtoDBatch(self, items: Sequence) -> None:
        """Batched uploads: ``items`` is ``[(DevPtr, data), ...]``.

        Consecutive items are greedily packed into fused frames bounded
        by the shared region's bulk capacity; each frame is sealed with
        ONE AEAD call and crosses the channel as ONE sealed request, and
        the device side authenticates it once before scattering the
        chunks.  Simulated time is still charged *per item*, exactly as
        the equivalent sequence of :meth:`cuMemcpyHtoD` calls would
        charge it — batching changes the real execution, never the
        virtual timeline.  Items larger than one frame fall back to the
        scalar chunked path.
        """
        raws = [_as_buffer(data) for _, data in items]
        sizes = [raw.nbytes for raw in raws]
        seal_buf = self._chunk_seal_buf()
        frames = 0
        for run, oversized in _pack_frames(sizes, self._bulk_chunk_limit()):
            frames += 1
            if oversized:
                self._scalar_htod_bytes(items[run[0]][0], raws[run[0]])
                continue
            sealed_len = seal_chunks_into(
                self._crypto.bulk_suite, self._crypto.bulk_h2d_nonces,
                [raws[index] for index in run], seal_buf,
                associated_data=self._bulk_ad)
            self._write_bulk(memoryview(seal_buf)[:sealed_len])
            self._request({"op": protocol.OP_MEMCPY_HTOD_BATCH,
                           "gpu_vas": [items[index][0].addr for index in run],
                           "lengths": [sizes[index] for index in run],
                           "blob_len": sealed_len})
        if self._costs is not None and sizes:
            # _request already charged one RPC per frame; top up to the
            # one-RPC-per-item cost the scalar sequence would have paid.
            self._charge_transfers(sizes, frames, upload=True)

    @_api_traced("cuMemcpyDtoHBatch", lambda self, items: {
        "ctx_id": self._ctx_id, "items": len(items)})
    def cuMemcpyDtoHBatch(self, items: Sequence) -> list:
        """Batched downloads: ``items`` is ``[(DevPtr, nbytes), ...]``.

        Mirrors :meth:`cuMemcpyHtoDBatch`: the device side gathers and
        seals each fused frame once, one sealed request per frame
        crosses the channel, and the runtime opens each frame with one
        AEAD call before splitting it back into per-item results
        (returned in submission order).  Per-item virtual time matches
        the equivalent scalar :meth:`cuMemcpyDtoH` sequence.
        """
        sizes = [int(nbytes) for _, nbytes in items]
        results: list = [None] * len(items)
        frames = 0
        for run, oversized in _pack_frames(sizes, self._bulk_chunk_limit()):
            frames += 1
            if oversized:
                index = run[0]
                results[index] = self._cuMemcpyDtoH_uncharged(
                    items[index][0], sizes[index])
                continue
            lengths = [sizes[index] for index in run]
            reply = self._request({"op": protocol.OP_MEMCPY_DTOH_BATCH,
                                   "gpu_vas": [items[index][0].addr
                                               for index in run],
                                   "lengths": lengths})
            blob_len = int(reply["blob_len"])
            if blob_len != sealed_size(sum(lengths)):
                raise ProtocolError("unexpected sealed batch blob size")
            chunks = open_blob_chunks(
                self._crypto.bulk_suite, self._read_bulk(blob_len), lengths,
                associated_data=self._bulk_ad,
                replay_guard=self._crypto.bulk_d2h_guard)
            for index, chunk in zip(run, chunks):
                results[index] = chunk
        if self._costs is not None and sizes:
            self._charge_transfers(sizes, frames, upload=False)
        return results

    # -- modules / kernels ---------------------------------------------------------------------

    def cuModuleLoad(self, kernel_names: Sequence[str]) -> HixModuleHandle:
        reply = self._request({"op": protocol.OP_MODULE_LOAD,
                               "kernels": list(kernel_names)})
        return HixModuleHandle(int(reply["module_id"]), kernel_names)

    @_api_traced("cuLaunchKernel",
                 lambda self, module, kernel_name, *_, **__: {
                     "ctx_id": self._ctx_id, "kernel": kernel_name})
    def cuLaunchKernel(self, module: HixModuleHandle, kernel_name: str,
                       params: Sequence[ParamValue],
                       compute_seconds: float = 0.0) -> None:
        if self._costs is not None:
            self._charge(self._tee.kernel_launch(self._costs), "launch")
        self._request({"op": protocol.OP_LAUNCH,
                       "module_id": module.module_id,
                       "kernel": kernel_name,
                       "params": protocol.encode_params(list(params)),
                       "compute_seconds": compute_seconds})

    @_api_traced("cuLaunchKernelBatch", lambda self, module, launches: {
        "ctx_id": self._ctx_id, "items": len(launches)})
    def cuLaunchKernelBatch(self, module: HixModuleHandle,
                            launches: Sequence) -> None:
        """Batched launches: ``launches`` is ``[(kernel, params, secs), ...]``.

        The whole group crosses the channel as ONE sealed request (one
        seal + one open instead of one per launch); the service runs the
        launches in order.  Launch overhead is still charged per launch.
        """
        if not launches:
            return
        if self._costs is not None:
            costs, tee = self._costs, self._tee
            for _ in range(len(launches) - 1):
                self._charge(tee.rpc_round_trip(costs), "ipc")
            for _ in launches:
                self._charge(tee.kernel_launch(costs), "launch")
        self._request({"op": protocol.OP_LAUNCH_BATCH, "launches": [
            {"module_id": module.module_id,
             "kernel": str(kernel_name),
             "params": protocol.encode_params(list(params)),
             "compute_seconds": float(compute_seconds)}
            for kernel_name, params, compute_seconds in launches]})

    # -- shutdown ----------------------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the service for a graceful termination (Section 4.2.3).

        The service notifies every session (including ours) that the GPU
        is no longer trusted before acknowledging, so the "terminated"
        signal *is* the success path here.
        """
        try:
            self._request({"op": protocol.OP_SHUTDOWN})
        except DriverError as exc:
            if "no longer trusted" not in str(exc):
                raise


class HixApi(SealedRpcApi):
    """The trusted user runtime: CUDA-like API over the secure channel.

    The user side runs in an SGX enclave; the handshake is mutual local
    attestation with the GPU enclave plus the 3-party DH of Section
    4.4.1.
    """

    backend_name = "hix"
    enclave_mode = True
    attested_detail = ("GPU enclave report and identity verified "
                       "(mutual local attestation)")
    key_exchange_detail = "3-party DH session key derived"

    def __init__(self, kernel: Kernel, process: Process,
                 service: GpuEnclaveService, clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 expected_gpu_enclave_measurement: Optional[bytes] = None,
                 suite_name: str = "fast-auth",
                 channel_queue_depth: Optional[int] = None) -> None:
        super().__init__(kernel, process, service, clock=clock, costs=costs,
                         suite_name=suite_name,
                         channel_queue_depth=channel_queue_depth)
        self._expected_measurement = expected_gpu_enclave_measurement

    def _handshake(self, end: ChannelEnd) -> Tuple[bytes, int]:
        user_eid = self._process.enclave.enclave_id
        sgx = self._kernel.sgx
        dh_u = DiffieHellman(seed=b"user-%d" % self._process.pid)
        a_bytes = int_to_dh_bytes(dh_u.public_value)
        report = sgx.ereport(user_eid, self._service.measurement,
                             bind_report_data(a_bytes))
        ack = self._hello(end, {"report": _report_to_wire(report),
                                "dh_a": a_bytes.hex()})
        reply_report = _report_from_wire(ack["report"])
        # Mutual local attestation: verify the GPU enclave's report, its
        # identity, and that it really is a GPU enclave whose PCIe routing
        # was measured at EGCREATE (Sections 4.4.1, 5.5).
        verify_local_report(sgx, user_eid, reply_report)
        if not reply_report.is_gpu_enclave:
            raise AttestationError("peer is not a GPU enclave")
        if (self._expected_measurement is not None
                and reply_report.measurement != self._expected_measurement):
            raise AttestationError(
                "GPU enclave measurement does not match the expected "
                "(vendor-published) identity")
        e_bytes = bytes.fromhex(ack["dh_e"])
        check_binding(reply_report.report_data, e_bytes, a_bytes)
        session_key = derive_key(dh_u.raise_value(dh_bytes_to_int(e_bytes)))
        return session_key, int(ack["ctx_id"])


def _pack_frames(sizes: Sequence[int],
                 limit: int) -> Iterator[Tuple[List[int], bool]]:
    """Greedy batch framing over item *sizes*, in submission order.

    Yields ``(indexes, oversized)``: a run of consecutive items that fit
    one bulk frame together, or a single item larger than a frame
    (``oversized``), which takes the scalar chunked path.
    """
    run: List[int] = []
    run_bytes = 0
    for index, nbytes in enumerate(sizes):
        if run and run_bytes + nbytes > limit:
            yield run, False
            run, run_bytes = [], 0
        if nbytes > limit:
            yield [index], True
            continue
        run.append(index)
        run_bytes += nbytes
    if run:
        yield run, False


def bulk_aad(backend_name: str, ctx_id: int) -> bytes:
    """Associated data binding bulk blobs to their backend and context."""
    return b"%s-bulk-ctx-%d" % (backend_name.encode(), ctx_id)
