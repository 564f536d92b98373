"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer of the simulator from the
outside (nothing inside ``src/`` is edited), records one span per call and
keeps every span in memory until the run ends.  A span is the tuple
``(sid, name, start, end, parent, op, thread, depth)``:

* ``name`` is ``<layer>.<what>``; the layer is the part before the dot;
* ``parent`` is the span that caused this one.  On a stream worker thread
  the root span's parent is the span that enqueued the work;
* ``op`` is the benchmark operation the span serves (one driver step, or
  one service job, keyed by its ``job_id``).  The op id travels with the
  work: stream submissions capture it on the caller's thread and restore
  it on the worker thread;
* ``depth`` is the nesting level on the span's own thread.

:func:`attribute` turns the spans of one op into exclusive (self) time per
span name over the op's wall interval, so the layers sum to the whole.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

#: Spans that mark a thread blocked rather than working, most telling
#: first.  An instant with no working span goes to the first wait listed.
WAITS = (
    "dispatch.sync_wait",
    "dispatch.event_wait",
    "service.stream_wait",
    "service.queue_wait",
    "service.gen_lag",
)

LAYERS = ("service", "driver", "xfer", "dispatch", "compile", "launch", "exec")


class Tracer:
    """In-memory span store plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Per-op counters recorded at layer boundaries.
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._count_lock = threading.Lock()

    # -- context -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    def current(self):
        """``(op, span id)`` of the calling thread, for handing work on."""
        stack = self._stack()
        return self.op, (stack[-1] if stack else getattr(self._local, "root", None))

    def count(self, key: str, value: float = 1.0, op=None) -> None:
        op = self.op if op is None else op
        with self._count_lock:  # stream workers count concurrently
            self.counts[op][key] += value

    def add(self, name: str, start: float, end: float, op, parent=None) -> None:
        """Record a span whose interval is known from outside (a wait).

        Each such span gets a thread of its own, since waits may overlap.
        """
        sid = next(self._ids)
        self.spans.append(
            (sid, name, start, end, parent, op, ("synthetic", sid), 0)
        )

    def call(self, name: str, fn, args=(), kwargs=None, op=None):
        """Run ``fn`` inside a span; ``op`` (if given) rebinds the op id."""
        local = self._local
        stack = self._stack()
        prev_op = getattr(local, "op", None)
        cur_op = local.op = prev_op if op is None else op
        parent = stack[-1] if stack else getattr(local, "root", None)
        sid = next(self._ids)
        depth = len(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, cur_op,
                 threading.get_ident(), depth)
            )
            local.op = prev_op

    def on_thread(self, op, root, name: str, fn):
        """Run ``fn`` on a worker thread as work caused by span ``root``."""
        local = self._local
        prev = getattr(local, "op", None), getattr(local, "root", None)
        local.op, local.root = op, root
        try:
            return self.call(name, fn)
        finally:
            local.op, local.root = prev

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by
        ``make(original)``; :meth:`unpatch` puts the original back."""
        raw = vars(owner)[attr]
        wrapped = make(getattr(owner, attr))
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def span(self, owner, attr: str, name: str, on_result=None, op_of=None):
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                op = op_of(*args) if op_of is not None else None
                result = tracer.call(name, original, args, kwargs, op=op)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (traced run only)."""
    from repro.cudasim import fastpath, launch
    from repro.cudasim.kernel_cache import KernelCache
    from repro.cudasim.stream import Stream
    from repro.cudasim.xfer.pipeline import TransferPipeline
    from repro.gravit import gpu_driver, simulation_api
    from repro.service.service import SimulationService

    # service: a job's run on its device stream carries the job id.
    tracer.span(
        SimulationService, "_run_job", "service.job",
        op_of=lambda _svc, handle: handle.job_id,
    )

    # driver (repro.gravit): construction, stepping, readback.
    tracer.span(simulation_api.Simulation, "create", "driver.create")
    for cls in (gpu_driver.GpuSimulation, gpu_driver.OutOfCoreSimulation):
        tracer.span(cls, "step", "driver.step")
        tracer.span(cls, "download", "driver.download")
        tracer.span(cls, "download_forces", "driver.download")
        tracer.span(cls, "close", "driver.close")
    for fn in ("build_force_kernel", "build_force_kernel_ooc",
               "build_integrate_kernel"):
        tracer.span(gpu_driver, fn, "compile.ir_build")

    # xfer: the double-buffered tile pipeline's host side.
    tracer.span(TransferPipeline, "stage", "xfer.stage")
    tracer.span(TransferPipeline, "synchronize", "dispatch.sync_wait")

    # dispatch (repro.cudasim.stream): caller time in the async API, time
    # blocked in synchronize, and each queued op on its worker thread.
    for fn in ("memcpy_htod_async", "memcpy_dtoh_async", "launch_async",
               "record_event", "wait_event", "memcpy_peer_async", "submit"):
        tracer.span(Stream, fn, "dispatch.enqueue")
    tracer.span(Stream, "synchronize", "dispatch.sync_wait")

    def make_submit(original):
        def _submit(stream, label, fn, **attrs):
            op, root = tracer.current()
            op = attrs.get("job", op)
            tracer.count("dispatch.submits", op=op)

            name = ("dispatch.event_wait" if label == "wait_event"
                    else "dispatch.stream_op")

            def traced():
                return tracer.on_thread(op, root, name, fn)

            return original(stream, label, traced, **attrs)

        return _submit

    tracer.patch(Stream, "_submit", make_submit)

    # compile: cache lookups, keys, lowering on a miss, fastpath codegen.
    tracer.span(launch, "compile_kernel", "compile.kernel")
    tracer.span(KernelCache, "key", "compile.key")
    tracer.span(launch, "lower_kernel", "compile.lower")
    tracer.span(fastpath, "compile_fastpath", "compile.fastpath")
    tracer.span(fastpath, "_build_program", "compile.codegen")

    # launch: Device.launch self time is launch setup (occupancy, params,
    # block assignment, stats merge); run_sms is the executor.
    def on_launch(result) -> None:
        stats = result.stats
        mem = stats.memory
        busy = len(result.sm_stats)
        tracer.count("launches")
        tracer.count("winst", stats.warp_instructions)
        tracer.count("sms_busy", busy)
        tracer.count("sm_cycles", result.cycles * busy)
        tracer.count("mem.transactions", mem.transactions)
        tracer.count("mem.bytes", mem.bytes_moved)
        tracer.count("mem.requests", mem.requests)
        tracer.count("mem.queue_delay_cycles", mem.queue_delay_cycles)
        tracer.count("mem.busy_cycles", mem.busy_cycles)

    tracer.span(launch.Device, "launch", "launch.device_launch",
                on_result=on_launch)
    tracer.span(launch, "run_sms", "exec.run_sms")


def attribute(spans, start: float, end: float) -> tuple[dict, float]:
    """Exclusive seconds per span name over ``[start, end]``.

    A sweep over every span boundary.  At each instant every thread
    offers its innermost active span.  Threads doing work share the
    instant equally, as runnable threads share the interpreter lock; a
    thread that is only waiting gets the instant when no thread works.
    Returns ``(seconds by name, covered seconds)``; ``end - start -
    covered`` is time no span claimed.
    """
    events = []
    for sp in spans:
        s, e = max(sp[2], start), min(sp[3], end)
        if e > s:
            events.append((s, 1, sp))
            events.append((e, 0, sp))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    rank = {name: i for i, name in enumerate(WAITS)}
    active: dict = defaultdict(dict)  # thread -> depth -> span
    out: dict = defaultdict(float)
    covered = 0.0
    prev = start
    for t, kind, sp in events:
        if t > prev:
            inner = [stack[max(stack)][1] for stack in active.values() if stack]
            working = [name for name in inner if name not in rank]
            if working:
                share = (t - prev) / len(working)
                for name in working:
                    out[name] += share
            elif inner:
                out[min(inner, key=rank.__getitem__)] += t - prev
            if inner:
                covered += t - prev
            prev = t
        thread, depth = sp[6], sp[7]
        if kind:
            active[thread][depth] = sp
        elif active[thread].get(depth) is sp:
            del active[thread][depth]
    return dict(out), covered
