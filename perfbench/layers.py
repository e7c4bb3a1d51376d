"""Per-layer host wall-clock self time from wrapped entry points.

The traced run wraps the entry points of every simulator layer from the
benchmark's own files: the methods of the public classes a ``repro``
module defines (hand-written ``__init__`` included) and its public
module-level functions.  A module-level function is replaced in every
loaded ``repro`` module that imported it by name.  Each wrapped call is
a span; a layer's self time is the time its spans cover minus the time
their child spans cover, so the layer columns of one op add up to the
op's traced wall time minus what no wrapper covers.

Layers are named after the ``src/repro`` modules.  A few private entry
points are wrapped on purpose: ``ServeEngine._unit_stream`` (the serve
engine's per-tenant generator, whose resumes would otherwise count as
event-kernel time) and ``SimGpu._launch`` (its call count is the GPU
launch count).

Nothing here changes what the simulator computes: every wrapper calls
the original with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> the modules whose public entry points belong to it.
MODULE_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("gpu.bios", ("repro.gpu.bios",)),
    ("osmodel", ("repro.osmodel.kernel", "repro.osmodel.process",
                 "repro.osmodel.driver_stub", "repro.osmodel.adversary")),
    ("sgx", ("repro.sgx.instructions", "repro.sgx.epc", "repro.sgx.hix_ext",
             "repro.sgx.attestation", "repro.sgx.enclave",
             "repro.sgx.measurement", "repro.sgx.paging", "repro.sgx.secs")),
    ("crypto.dh", ("repro.crypto.dh", "repro.crypto.kdf",
                   "repro.core.key_exchange")),
    ("crypto.aead", ("repro.crypto.suite", "repro.crypto.blob",
                     "repro.crypto.nonce")),
    ("hw.mmu", ("repro.hw.mmu", "repro.hw.iommu")),
    ("hw.dma", ("repro.hw.dma",)),
    ("hw.phys_mem", ("repro.hw.phys_mem", "repro.hw.address_map")),
    ("pcie", ("repro.pcie.config_space", "repro.pcie.device",
              "repro.pcie.port", "repro.pcie.root_complex",
              "repro.pcie.switch", "repro.pcie.tlp", "repro.pcie.topology")),
    ("gpu", ("repro.gpu.device", "repro.gpu.context", "repro.gpu.module",
             "repro.gpu.commands", "repro.gpu.kernels",
             "repro.gpu.accelerator")),
    ("gdev", ("repro.gdev.driver", "repro.gdev.api", "repro.gdev.allocator")),
    ("core.runtime", ("repro.core.runtime",)),
    ("core.gpu_enclave", ("repro.core.gpu_enclave",)),
    ("core.channel", ("repro.core.channel", "repro.core.protocol")),
    ("backends.gpucc", ("repro.backends.gpucc",)),
    ("sim.engine", ("repro.sim.engine", "repro.sim.clock")),
    ("serve.engine", ("repro.serve.engine", "repro.serve.queues",
                      "repro.serve.scheduler", "repro.serve.session",
                      "repro.serve.memo", "repro.serve.resilience",
                      "repro.serve.report", "repro.serve.timeline",
                      "repro.serve.jobs")),
    ("fleet", ("repro.fleet.fleet", "repro.fleet.lite")),
    ("fleet.router", ("repro.fleet.router",)),
    ("obs.timeseries", ("repro.obs.timeseries",)),
    ("obs.slo", ("repro.obs.slo",)),
    ("obs.audit", ("repro.obs.audit",)),
    ("chaos", ("repro.chaos.campaign", "repro.chaos.faults",
               "repro.chaos.injector", "repro.chaos.detection",
               "repro.chaos.abuse", "repro.chaos.workload",
               "repro.chaos.fleet")),
)

#: Single members with a layer of their own (``module:Class.attr``).
MEMBER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("system.machine_init", "repro.system:Machine.__init__"),
    ("system.boot", "repro.system:Machine.boot_secure"),
    ("system.boot", "repro.system:Machine.boot_hix"),
    ("system.boot", "repro.system:Machine.boot_gpucc"),
    ("system.boot", "repro.system:Machine.cold_boot"),
    ("system.session", "repro.system:Machine.secure_session"),
    ("system.session", "repro.system:Machine.hix_session"),
    ("system.session", "repro.system:Machine.gpucc_session"),
    ("gpu", "repro.gpu.device:SimGpu._launch"),
    ("serve.engine", "repro.serve.engine:ServeEngine._unit_stream"),
)

def _nbytes(value) -> int:
    try:
        return memoryview(value).nbytes
    except TypeError:
        return len(value)


def _third_arg_bytes(args) -> int:
    # seal(self, nonce, plaintext, ...) / open(self, nonce, ciphertext, ...)
    return _nbytes(args[2])


#: Counters kept at wrapped members: member -> (counter, amount function).
#: ``None`` counts calls.
COUNTED: Dict[str, Tuple[str, Optional[Callable]]] = {
    "repro.gpu.device:SimGpu._launch": ("gpu.launches", None),
    "repro.core.channel:MessageQueue.send": ("core.channel.messages", None),
    "repro.crypto.suite:FastAuthSuite.seal": ("crypto.aead.bytes",
                                              _third_arg_bytes),
    "repro.crypto.suite:FastAuthSuite.open": ("crypto.aead.bytes",
                                              _third_arg_bytes),
    "repro.crypto.suite:OcbAesSuite.seal": ("crypto.aead.bytes",
                                            _third_arg_bytes),
    "repro.crypto.suite:OcbAesSuite.open": ("crypto.aead.bytes",
                                            _third_arg_bytes),
}

#: Constructors run per event or per unit; wrapping them would trace
#: allocation, not a layer's work.
HOT_INITS = frozenset({
    "repro.sim.engine:Event", "repro.sim.engine:Visit",
    "repro.sim.engine:Wait", "repro.sim.engine:Acquire",
    "repro.sim.engine:WorkUnit",
})


class InstanceLog:
    """Instances of one class, held weakly, plus those made in an op.

    While :attr:`collecting` is set, instances created are also held
    strongly until :meth:`take` hands them over, so counters of objects
    an op builds and drops can still be read at the end of the op.
    """

    def __init__(self, cls) -> None:
        self.cls = cls
        self.live: "weakref.WeakSet" = weakref.WeakSet()
        self.collecting = False
        self._made: List[object] = []
        self._original = cls.__dict__["__init__"]

    def install(self) -> None:
        original = self._original
        log = self

        @functools.wraps(original)
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            log.live.add(obj)
            if log.collecting:
                log._made.append(obj)

        self.cls.__init__ = __init__

    def uninstall(self) -> None:
        self.cls.__init__ = self._original

    def take(self) -> List[object]:
        """Every instance alive now or made since the last take."""
        made, self._made = self._made, []
        return list({id(obj): obj for obj in [*self.live, *made]}.values())


def _resolve(member: str):
    module_name, _, path = member.partition(":")
    cls_name, _, attr = path.partition(".")
    return importlib.import_module(module_name), cls_name, attr


def _raw_function(raw):
    """The plain function behind a class-dict entry, or None."""
    if isinstance(raw, (staticmethod, classmethod)):
        raw = raw.__func__
    return raw if inspect.isfunction(raw) else None


class LayerTracer:
    """Wraps every layer's entry points and accumulates self time."""

    def __init__(self) -> None:
        self.on = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self._stack: List[float] = []
        #: (owner, attribute, original, replacement) per patched name.
        self._patches: List[Tuple[object, str, object, object]] = []
        self._plan()

    # -- accounting --------------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.covered_s = 0.0

    def _close(self, layer: str, elapsed: float) -> None:
        stack = self._stack
        self.self_s[layer] += elapsed - stack.pop()
        self.calls[layer] += 1
        if stack:
            stack[-1] += elapsed
        else:
            self.covered_s += elapsed

    def _wrap(self, fn, layer: str, counted=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        tracer, stack, clock = self, self._stack, time.perf_counter
        counter, amount = counted if counted else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.counts[counter] += amount(args) if amount else 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, clock() - start)

        return wrapper

    def _wrap_generator(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return tracer._timed_resumes(gen, layer) if tracer.on else gen

        return wrapper

    def _timed_resumes(self, gen, layer: str):
        """Proxy *gen*, timing each resume as a span of *layer*."""
        stack, clock = self._stack, time.perf_counter
        send, error = None, None
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = gen.send(send) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(layer, clock() - start)
            send, error = None, None
            try:
                send = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen
                error = exc

    # -- patching -----------------------------------------------------------

    def _plan(self) -> None:
        members: Dict[Tuple[int, str], Tuple[object, str, object, str]] = {}
        functions: Dict[int, Tuple[object, str]] = {}
        for layer, module_names in MODULE_LAYERS:
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for name, value in vars(module).items():
                    if name.startswith("_"):
                        continue
                    if (inspect.isclass(value)
                            and value.__module__ == module_name):
                        self._plan_class(members, value, layer)
                    elif (inspect.isfunction(value)
                          and value.__module__ == module_name):
                        functions[id(value)] = (value, layer)
        for layer, member in MEMBER_LAYERS:
            module, cls_name, attr = _resolve(member)
            cls = getattr(module, cls_name)
            members[(id(cls), attr)] = (cls, attr, cls.__dict__[attr], layer)

        for cls, attr, raw, layer in members.values():
            counted = COUNTED.get(
                f"{cls.__module__}:{cls.__qualname__}.{attr}")
            fn = _raw_function(raw)
            wrapped = self._wrap(fn, layer, counted)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((cls, attr, raw, wrapped))

        # A module function is patched wherever a repro module, or the
        # benchmark's own, holds it.
        wrappers = {key: self._wrap(fn, layer)
                    for key, (fn, layer) in functions.items()}
        for module_name, module in list(sys.modules.items()):
            if (module is None
                    or not module_name.startswith(("repro", "perfbench"))):
                continue
            for name, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and value is functions[id(value)][0]:
                    self._patches.append((module, name, value, wrapped))

    def _plan_class(self, members, cls, layer: str) -> None:
        module = sys.modules[cls.__module__]
        for attr, raw in vars(cls).items():
            fn = _raw_function(raw)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if attr == "__init__":
                # Hand-written constructors only: dataclass-generated
                # ones are allocation, and hot ones would swamp the run.
                code = inspect.unwrap(fn).__code__
                if (code.co_filename != module.__file__
                        or f"{cls.__module__}:{cls.__name__}" in HOT_INITS):
                    continue
            elif attr.startswith("_"):
                continue
            members[(id(cls), attr)] = (cls, attr, raw, layer)

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
