"""Process-global telemetry state and the hook API the simulator calls.

Everything funnels through one module-level slot: ``enable()`` installs a
:class:`Telemetry` session (metrics registry + tracer + recent-launch
ring), ``disable()`` clears it.  Every hook — ``span``, ``inc``,
``record_launch`` — starts with a single global read, so instrumented hot
paths pay one branch when telemetry is off and ``span`` returns the
shared :data:`~repro.telemetry.spans.NOOP_SPAN` without allocating.
"""

from __future__ import annotations

from collections import deque

from .chrome_trace import (
    launch_trace_events,
    profile_trace_events,
    spans_trace_events,
    write_chrome_trace,
)
from .manifest import launch_manifest
from .metrics import MetricsRegistry
from .spans import NOOP_SPAN, Tracer

__all__ = [
    "Telemetry",
    "enable",
    "disable",
    "enabled",
    "get",
    "reset",
    "span",
    "inc",
    "set_gauge",
    "observe",
    "record_launch",
    "snapshot",
    "spans",
    "export_chrome_trace",
    "last_launch",
]

#: How many launch summaries the session retains for manifests.
LAUNCH_RING = 1024


class Telemetry:
    """One enabled telemetry session."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.launches: deque = deque(maxlen=LAUNCH_RING)
        self.last_launch = None  # most recent LaunchResult, for export


_ACTIVE: Telemetry | None = None


def enable() -> Telemetry:
    """Install (or return the already-active) telemetry session."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Telemetry()
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def enabled() -> bool:
    return _ACTIVE is not None


def get() -> Telemetry | None:
    return _ACTIVE


def reset() -> Telemetry | None:
    """Drop collected data; stays enabled if it was enabled."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE = Telemetry()
    return _ACTIVE


# -- hooks -----------------------------------------------------------------


def span(name: str, **attrs):
    """Open a span, or the shared no-op when telemetry is disabled."""
    active = _ACTIVE
    if active is None:
        return NOOP_SPAN
    return active.tracer.span(name, attrs or None)


def inc(name: str, value: float = 1.0, **labels) -> None:
    active = _ACTIVE
    if active is None:
        return
    active.registry.counter(name).inc(value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    active = _ACTIVE
    if active is None:
        return
    active.registry.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels) -> None:
    active = _ACTIVE
    if active is None:
        return
    active.registry.histogram(name).observe(value, **labels)


def record_launch(result) -> None:
    """Roll one LaunchResult's KernelStats into the registry."""
    active = _ACTIVE
    if active is None:
        return
    stats = result.stats
    reg = active.registry
    labels = {"kernel": result.kernel_name}
    reg.counter("cudasim.launches", "simulated kernel launches").inc(**labels)
    reg.counter(
        "cudasim.warp_instructions", "dynamic warp instructions"
    ).inc(stats.warp_instructions, **labels)
    reg.counter(
        "cudasim.thread_instructions", "warp instructions x active lanes"
    ).inc(stats.thread_instructions, **labels)
    reg.counter(
        "cudasim.memory.transactions", "global-memory transactions"
    ).inc(stats.memory.transactions, **labels)
    reg.counter(
        "cudasim.memory.bytes", "global-memory bytes moved"
    ).inc(stats.memory.bytes_moved, **labels)
    reg.counter(
        "cudasim.idle_cycles", "cycles with no issuable warp"
    ).inc(stats.idle_cycles, **labels)
    reg.counter(
        "cudasim.scoreboard_stalls", "issue attempts blocked on pending regs"
    ).inc(stats.scoreboard_stalls, **labels)
    reg.histogram(
        "cudasim.launch_cycles", "simulated cycles per launch"
    ).observe(result.cycles, **labels)
    reg.gauge(
        "cudasim.occupancy", "achieved occupancy of the last launch"
    ).set(result.occupancy.occupancy(result.device), **labels)
    profile = getattr(result, "profile", None)
    if profile is not None:
        stall_counter = reg.counter(
            "cudasim.profiler.stall_cycles",
            "profiler stall cycles by attributed reason",
        )
        for reason, cycles in profile.stall_cycles.items():
            stall_counter.inc(float(cycles), reason=reason, **labels)
        reg.counter(
            "cudasim.profiler.tx_uncoalesced",
            "profiler uncoalesced global transactions",
        ).inc(int(profile.tx_uncoalesced.sum()), **labels)
        reg.counter(
            "cudasim.profiler.bank_conflicts",
            "profiler shared-memory bank-conflict replays",
        ).inc(int(profile.bank_conflicts.sum()), **labels)
        reg.gauge(
            "cudasim.profiler.occupancy_achieved",
            "profiler achieved occupancy of the last launch",
        ).set(profile.occupancy_achieved, **labels)
    active.last_launch = result
    active.launches.append(
        {
            "kernel": result.kernel_name,
            "grid": result.grid,
            "block": result.block,
            "cycles": result.cycles,
            "time_ms": result.time_ms,
            "occupancy": result.occupancy.occupancy(result.device),
            "warp_instructions": stats.warp_instructions,
            "memory_transactions": stats.memory.transactions,
            "memory_bytes": stats.memory.bytes_moved,
        }
    )


# -- accessors & exporters -------------------------------------------------


def snapshot() -> dict:
    """JSON-safe dump of the active registry ({} when disabled)."""
    active = _ACTIVE
    return active.registry.snapshot() if active is not None else {}


def spans() -> list:
    """Finished span records of the active session ([] when disabled)."""
    active = _ACTIVE
    return active.tracer.finished() if active is not None else []


def last_launch():
    active = _ACTIVE
    return active.last_launch if active is not None else None


def export_chrome_trace(path: str, result=None, memory_trace=None) -> str:
    """Write a Chrome trace of ``result`` (default: the session's last
    recorded launch) plus every finished telemetry span."""
    events: list[dict] = []
    active = _ACTIVE
    if result is None and active is not None:
        result = active.last_launch
    if result is not None:
        events.extend(launch_trace_events(result, memory_trace))
        profile = getattr(result, "profile", None)
        if profile is not None:
            events.extend(profile_trace_events(profile))
    if active is not None:
        events.extend(spans_trace_events(active.tracer.records))
    if not events:
        raise ValueError(
            "nothing to export: no launch given and no telemetry recorded "
            "(call telemetry.enable() before launching)"
        )
    return write_chrome_trace(path, events)


def write_manifest(path: str, result=None, **kwargs) -> str:
    """Append a launch manifest (default: the last recorded launch),
    attaching the current metrics snapshot."""
    from .manifest import append_manifest

    active = _ACTIVE
    if result is None and active is not None:
        result = active.last_launch
    if result is None:
        raise ValueError("no launch to write a manifest for")
    kwargs.setdefault("metrics", snapshot() or None)
    return append_manifest(path, launch_manifest(result, **kwargs))
