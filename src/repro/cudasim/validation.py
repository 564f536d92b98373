"""Static kernel validation — the checks nvcc/cudart do before a launch.

:func:`validate_kernel` inspects a structured kernel and reports
:class:`ValidationIssue` findings at three severities:

* ``error`` — the kernel cannot work: references to undeclared
  parameters, statically out-of-bounds shared-memory offsets, vector
  accesses with impossible alignment;
* ``warning`` — legal but dangerous on real hardware: a ``BAR_SYNC``
  under a conditional (the classic divergent-barrier hang, which the
  executor turns into :class:`DeadlockError`), loops whose static trip
  count is enormous;
* ``info`` — occupancy-relevant observations: register demand vs a
  device budget, shared usage vs the SM.

``compile_kernel(kernel, CompileOptions(validate=True))`` runs the
error-level checks automatically (see :mod:`repro.cudasim.launch`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceProperties
from .errors import IRError
from .ir import IfStmt, Kernel, LoopStmt, RawStmt, Seq, Stmt
from .isa import Imm, Instr, Op, Param, Reg

__all__ = ["ValidationIssue", "validate_kernel", "check_or_raise"]

#: Loops bigger than this are almost certainly a bounds bug.
SUSPICIOUS_TRIP_COUNT = 1 << 22


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # 'error' | 'warning' | 'info'
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.message}"


def _walk(stmt: Stmt, in_conditional: bool = False):
    """Yield (instr, in_conditional) pairs."""
    if isinstance(stmt, RawStmt):
        yield stmt.instr, in_conditional
    elif isinstance(stmt, Seq):
        for s in stmt:
            yield from _walk(s, in_conditional)
    elif isinstance(stmt, LoopStmt):
        yield from _walk(stmt.body, in_conditional)
    elif isinstance(stmt, IfStmt):
        yield from _walk(stmt.body, True)


def _loops(stmt: Stmt):
    if isinstance(stmt, Seq):
        for s in stmt:
            yield from _loops(s)
    elif isinstance(stmt, LoopStmt):
        yield stmt
        yield from _loops(stmt.body)
    elif isinstance(stmt, IfStmt):
        yield from _loops(stmt.body)


def validate_kernel(
    kernel: Kernel,
    device: DeviceProperties | None = None,
    regs_per_thread: int | None = None,
    block_size: int | None = None,
) -> list[ValidationIssue]:
    """Run all checks; returns issues ordered errors-first."""
    issues: list[ValidationIssue] = []
    declared = set(kernel.params)

    shared_bytes = 4 * kernel.shared_words
    predicated_exit_seen = False
    for ins, conditional in _walk(kernel.body):
        # Parameters must be declared.
        for src in ins.srcs:
            if isinstance(src, Param) and src.name not in declared:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"instruction `{ins}` reads undeclared parameter "
                        f"{src.name!r}",
                    )
                )
        # Shared accesses with static base: bounds-check the offset.
        if ins.op in (Op.LD_SHARED, Op.ST_SHARED):
            width = ins.width_bytes
            if isinstance(ins.srcs[0], Imm):
                addr = int(ins.srcs[0].value) + ins.offset
                if addr < 0 or addr + width > shared_bytes:
                    issues.append(
                        ValidationIssue(
                            "error",
                            f"static shared access at {addr} (+{width} B) "
                            f"outside the declared {shared_bytes} B",
                        )
                    )
            if ins.offset % 4:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"shared access offset {ins.offset} is not "
                        f"word-aligned",
                    )
                )
        if ins.op in (Op.LD_GLOBAL, Op.ST_GLOBAL):
            width = ins.width_bytes
            if ins.offset % width:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"global {width}-byte access offset {ins.offset} "
                        f"breaks natural alignment for every base",
                    )
                )
        # Divergent barriers hang real hardware.
        if ins.op is Op.BAR_SYNC and (conditional or ins.pred is not None):
            issues.append(
                ValidationIssue(
                    "warning",
                    "BAR_SYNC under a conditional: hangs when the branch "
                    "diverges within a block",
                )
            )
        if ins.op is Op.EXIT and ins.pred is not None:
            predicated_exit_seen = True

    for loop in _loops(kernel.body):
        trip = loop.static_trip_count()
        if trip is not None and trip > SUSPICIOUS_TRIP_COUNT:
            issues.append(
                ValidationIssue(
                    "warning",
                    f"loop over {loop.var.name} runs {trip:,} iterations; "
                    f"likely a bounds bug",
                )
            )
        if loop.unroll not in (None, 1, "full") and trip is not None:
            if not isinstance(loop.unroll, int) or trip % loop.unroll:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"unroll pragma {loop.unroll!r} does not divide "
                        f"trip count {trip}",
                    )
                )

    if predicated_exit_seen and any(
        ins.op is Op.BAR_SYNC for ins, _ in _walk(kernel.body)
    ):
        issues.append(
            ValidationIssue(
                "info",
                "kernel mixes predicated EXIT with barriers: fine as long "
                "as whole warps exit before the first BAR_SYNC",
            )
        )

    if device is not None:
        if shared_bytes + device.shared_mem_base_usage > device.shared_mem_per_sm:
            issues.append(
                ValidationIssue(
                    "error",
                    f"shared usage {shared_bytes} B exceeds the SM's "
                    f"{device.shared_mem_per_sm} B",
                )
            )
        if regs_per_thread is not None:
            if regs_per_thread > device.max_registers_per_thread:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"{regs_per_thread} registers/thread exceeds the "
                        f"architectural limit "
                        f"{device.max_registers_per_thread}",
                    )
                )
            elif block_size is not None:
                need = regs_per_thread * block_size
                if need > device.registers_per_sm:
                    issues.append(
                        ValidationIssue(
                            "error",
                            f"one {block_size}-thread block needs {need} "
                            f"registers; the SM has "
                            f"{device.registers_per_sm}",
                        )
                    )

    order = {"error": 0, "warning": 1, "info": 2}
    issues.sort(key=lambda i: order[i.severity])
    return issues


def check_or_raise(kernel: Kernel, **kw) -> list[ValidationIssue]:
    """Validate; raise :class:`IRError` on the first error-level issue."""
    issues = validate_kernel(kernel, **kw)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise IRError(
            f"kernel {kernel.name!r} failed validation: {errors[0].message}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
        )
    return issues
