"""``repro.cudasim`` — a cycle-level simulator of a G80-class CUDA GPU.

The substrate for reproducing the paper: SIMT warps, half-warp memory
coalescing (per CUDA toolchain revision), a latency+bandwidth global
memory pipeline, banked shared memory, scoreboarded warp scheduling with
latency hiding, a kernel IR with an optimizing "nvcc" stage (unrolling,
LICM, register allocation), and the CC 1.0 occupancy calculator.

Quick tour::

    from repro.cudasim import Device, KernelBuilder, Toolchain, compile_kernel

    b = KernelBuilder("axpy", params=("x", "y", "n", "a"))
    i = b.tmp("i"); addr = b.tmp("addr"); v = b.tmp("v")
    b.imad(i, b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    b.imad(addr, i, 4, b.param("x"))
    b.ld_global(v, addr)
    b.mad(v, v, b.param("a"), v)
    ...
"""

from .device import (
    DEVICE_PROFILES,
    DeviceProperties,
    G8600GT,
    G8800GTX,
    GTX280,
    MemoryTimings,
    Toolchain,
    device_for,
)
from .dtypes import F32, I32, PRED, U32, VecType, float1, float2, float4
from .errors import (
    AccessViolation,
    AllocationError,
    CudaSimError,
    DeadlockError,
    DeviceError,
    DoubleFreeError,
    ExecutionError,
    IRError,
    LaunchError,
    LoweringError,
    MisalignedAccess,
    OutOfMemoryError,
    RegisterAllocationError,
    StreamError,
)
from .executor import SM_ENGINES
from .cfg import BasicBlock, FUSIBLE_OPS, fusible_run_ends, split_blocks
from .fastpath import (
    FASTPATH_ENV,
    FASTPATH_MODES,
    FastProgram,
    FastSMExecutor,
    compile_fastpath,
    fastpath_enabled,
    fastpath_mode,
    vec_counters,
)
from .ir import IfStmt, Kernel, KernelBuilder, LoopStmt, RawStmt, Seq
from .isa import Imm, Instr, Op, Param, Reg, Special, SReg
from .kernel_cache import (
    CacheStats,
    CompileOptions,
    KernelCache,
    Unroll,
    default_cache,
    kernel_fingerprint,
    set_default_cache,
)
from .device_group import DeviceGroup
from .envflags import env_bool, env_choice, env_float, env_mapped
from .launch import (
    DEFAULT_EVENT_TIMEOUT,
    EVENT_TIMEOUT_ENV,
    Device,
    LaunchResult,
    compile_kernel,
    lower_kernel,
)
from .stream import Event, Stream
from .liveness import analyze as liveness_analyze
from .lower import LoweredKernel, disassemble, lower
from .alloc import (
    BlockPool,
    CompactionReport,
    FreeListAllocator,
    HeapStats,
    PoolStats,
    RecordHandle,
    compact_pool,
    publish_pool_stats,
)
from .memory import DevicePtr, GlobalMemory, SharedMemory, bank_conflict_degree
from .occupancy import OccupancyResult, occupancy, occupancy_table, suggest_block_size
from .profiler import KernelStats
from .regalloc import allocate
from .texture import TextureCache, TextureCacheStats
from .trace import MemoryTrace, TraceRecorder, TrafficReport
from .validation import ValidationIssue, check_or_raise, validate_kernel
from .transforms import (
    eliminate_dead_code,
    fold_constants,
    hoist_invariants,
    unroll_loops,
)

__all__ = [
    "Device",
    "DeviceGroup",
    "DeviceProperties",
    "DevicePtr",
    "G8800GTX",
    "G8600GT",
    "GTX280",
    "DEVICE_PROFILES",
    "device_for",
    "GlobalMemory",
    "SharedMemory",
    "Toolchain",
    "MemoryTimings",
    "Kernel",
    "KernelBuilder",
    "LoweredKernel",
    "LaunchResult",
    "KernelStats",
    "OccupancyResult",
    "Instr",
    "Op",
    "Reg",
    "Imm",
    "Param",
    "SReg",
    "Special",
    "Seq",
    "LoopStmt",
    "IfStmt",
    "RawStmt",
    "compile_kernel",
    "lower_kernel",
    "CompileOptions",
    "Unroll",
    "KernelCache",
    "CacheStats",
    "kernel_fingerprint",
    "default_cache",
    "set_default_cache",
    "Stream",
    "BasicBlock",
    "FUSIBLE_OPS",
    "fusible_run_ends",
    "split_blocks",
    "FASTPATH_ENV",
    "FASTPATH_MODES",
    "FastProgram",
    "FastSMExecutor",
    "compile_fastpath",
    "fastpath_enabled",
    "fastpath_mode",
    "vec_counters",
    "env_bool",
    "env_choice",
    "env_float",
    "env_mapped",
    "EVENT_TIMEOUT_ENV",
    "DEFAULT_EVENT_TIMEOUT",
    "Event",
    "SM_ENGINES",
    "lower",
    "allocate",
    "occupancy",
    "occupancy_table",
    "suggest_block_size",
    "disassemble",
    "liveness_analyze",
    "unroll_loops",
    "hoist_invariants",
    "fold_constants",
    "eliminate_dead_code",
    "bank_conflict_degree",
    "ValidationIssue",
    "TextureCache",
    "TextureCacheStats",
    "TraceRecorder",
    "MemoryTrace",
    "TrafficReport",
    "validate_kernel",
    "check_or_raise",
    "F32",
    "I32",
    "U32",
    "PRED",
    "VecType",
    "float1",
    "float2",
    "float4",
    "BlockPool",
    "RecordHandle",
    "CompactionReport",
    "compact_pool",
    "FreeListAllocator",
    "HeapStats",
    "PoolStats",
    "publish_pool_stats",
    "CudaSimError",
    "DeviceError",
    "AllocationError",
    "DoubleFreeError",
    "AccessViolation",
    "MisalignedAccess",
    "LaunchError",
    "OutOfMemoryError",
    "StreamError",
    "ExecutionError",
    "DeadlockError",
    "IRError",
    "LoweringError",
    "RegisterAllocationError",
]
