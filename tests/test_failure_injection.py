"""Failure injection: the simulator must fail loudly, not corrupt state.

Out-of-bounds kernels, misaligned vector accesses, heap exhaustion mid-
driver, oversized launches — each must surface as the right exception
with the device left usable.
"""

import numpy as np
import pytest

from repro.cudasim import (
    CompileOptions,
    Device,
    DeviceGroup,
    KernelBuilder,
    compile_kernel,
)
from repro.cudasim.errors import (
    AccessViolation,
    AllocationError,
    LaunchError,
    MisalignedAccess,
    OutOfMemoryError,
)
from repro.cudasim.occupancy import suggest_block_size
from repro.cudasim import G8800GTX
from repro.gravit import (
    GpuConfig,
    GpuForceBackend,
    GpuSimulation,
    ShardedGpuSimulation,
    Simulation,
    SimulationConfig,
    uniform_cube,
)

#: n=256 soaoas at block 64: an 8 KB state buffer, then a 4 KB force
#: buffer.  A heap 256 bytes short of both fails the second allocation.
_N, _STATE, _FORCES = 256, 8192, 4096


def _store_kernel(offset_expr):
    b = KernelBuilder("oob", params=("dst",))
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), b.sreg("tid"))
    addr = b.imad("a", i, 4, b.param("dst"))
    b.st_global(addr, b.mov("x", 1.0), offset=offset_expr)
    return compile_kernel(b.build())


class TestKernelFaults:
    def test_oob_store_raises(self):
        dev = Device(heap_bytes=1 << 12)
        dst = dev.malloc(64)
        lk = _store_kernel(1 << 12)  # offset past the heap
        with pytest.raises(AccessViolation):
            dev.launch(lk, 1, 32, {"dst": dst})

    def test_negative_address_raises(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("neg", params=("dst",))
        addr = b.mov(b.reg("a"), -64)
        b.st_global(addr, b.mov("x", 1.0))
        with pytest.raises(AccessViolation):
            dev.launch(compile_kernel(b.build()), 1, 32,
                       {"dst": dev.malloc(64)})

    def test_misaligned_vec4_load_raises(self):
        dev = Device(heap_bytes=1 << 12)
        src = dev.malloc(256)
        b = KernelBuilder("mis", params=("src",))
        a = b.mov(b.reg("a"), src.addr + 4)  # 16B load at +4
        q = tuple(b.tmp() for _ in range(4))
        b.ld_global(q, a)
        b.param  # silence linters
        with pytest.raises(MisalignedAccess):
            dev.launch(compile_kernel(b.build()), 1, 32, {"src": src})

    def test_shared_oob_raises(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("soob")
        saddr = b.shl(b.reg("sa"), b.sreg("tid"), 4)
        b.st_shared(saddr, b.mov("x", 1.0))
        kernel = b.build(shared_words=8)  # 32 B << 32 threads × 16 B
        with pytest.raises(AccessViolation):
            dev.launch(compile_kernel(kernel), 1, 32, {})

    def test_device_usable_after_fault(self):
        dev = Device(heap_bytes=1 << 12)
        dst = dev.malloc(4 * 32)
        with pytest.raises(AccessViolation):
            dev.launch(_store_kernel(1 << 12), 1, 32, {"dst": dst})
        # Same device, valid kernel: still works.
        dev.launch(_store_kernel(0), 1, 32, {"dst": dst})
        assert dev.memcpy_dtoh(dst, 32).sum() == 32


class TestResourceExhaustion:
    def test_driver_upload_oom_propagates(self):
        system = uniform_cube(4096, seed=1)
        backend = GpuForceBackend(
            GpuConfig(block_size=64), device=Device(heap_bytes=1 << 12)
        )
        with pytest.raises(AllocationError):
            backend.forces_cycle(system)

    def test_gpu_simulation_oom(self):
        system = uniform_cube(4096, seed=2)
        with pytest.raises(AllocationError):
            GpuSimulation(
                system, GpuConfig(block_size=64),
                device=Device(heap_bytes=1 << 12),
            )

    def test_gpu_simulation_oom_frees_earlier_buffers(self):
        dev = Device(heap_bytes=_STATE + _FORCES - 256)
        before = list(dev.gmem.allocations())
        with pytest.raises(OutOfMemoryError):
            GpuSimulation(
                uniform_cube(_N, seed=3), GpuConfig(block_size=64), device=dev
            )
        assert list(dev.gmem.allocations()) == before

    def test_sharded_oom_frees_every_shard(self):
        group = DeviceGroup(2, heap_bytes=_STATE + _FORCES - 256)
        before = [list(dev.gmem.allocations()) for dev in group]
        with pytest.raises(OutOfMemoryError):
            ShardedGpuSimulation(
                uniform_cube(_N, seed=3), GpuConfig(block_size=64),
                group=group,
            )
        assert [list(dev.gmem.allocations()) for dev in group] == before

    def test_pooled_step_oom_frees_staging(self):
        # Pool blocks take 8 KB, the staging state buffer 8 KB; the 4 KB
        # force buffer does not fit in what is left.
        cfg = SimulationConfig(
            block_size=64, pool_records_per_block=64,
            heap_bytes=_STATE + _STATE + 2048,
        )
        sim = Simulation.create(cfg, uniform_cube(_N, seed=3))
        gmem = sim.device.gmem
        before = list(gmem.allocations())
        for _ in range(2):  # a leak would make the retry fail earlier
            with pytest.raises(OutOfMemoryError, match=str(_FORCES)):
                sim.step(1e-3)
            assert list(gmem.allocations()) == before
        sim.close()

    def test_register_hungry_block_rejected_at_launch(self):
        dev = Device(heap_bytes=1 << 12)
        b = KernelBuilder("hog", params=("dst",))
        regs = [b.tmp() for _ in range(40)]
        for r in regs:
            b.mov(r, 1.0)
        total = b.mov(b.reg("t"), 0.0)
        for r in regs:
            b.add(total, total, r)
        b.st_global(b.mov("a", b.param("dst")), total)
        lk = compile_kernel(b.build(), CompileOptions(dce=False))
        assert lk.reg_count > 32
        with pytest.raises(LaunchError):
            dev.launch(lk, 1, 512, {"dst": dev.malloc(64)})


class TestBlockSizeAdvisor:
    def test_paper_configuration_recovered(self):
        """16 regs/thread + 16 B/thread tile → the advisor picks 128."""
        r = suggest_block_size(G8800GTX, 16, shared_per_thread=16)
        assert r.block_size == 128
        assert r.occupancy(G8800GTX) == pytest.approx(2 / 3, abs=0.01)

    def test_amortization_tiebreak(self):
        """Among equal-occupancy blocks the advisor stops at the smallest
        K whose slice-overhead headroom is under tolerance — tightening
        the tolerance pushes it to larger K."""
        loose = suggest_block_size(
            G8800GTX, 16, shared_per_thread=16, amortization_tolerance=0.05
        )
        tight = suggest_block_size(
            G8800GTX, 16, shared_per_thread=16, amortization_tolerance=1e-9
        )
        assert loose.block_size <= 128 <= tight.block_size
        assert loose.occupancy(G8800GTX) == tight.occupancy(G8800GTX)

    def test_advisor_respects_occupancy_first(self):
        """A block size with lower occupancy never wins the tie-break.

        (Fun fact surfaced by this sweep: at the *baseline's* 18
        registers, an exotic 448-thread block squeezes 58 % out of the
        register file — but the paper's tuning story concerns the
        optimized 16-register kernel, where 128 wins.)"""
        from repro.cudasim import occupancy

        candidates = (32, 64, 96, 128, 160, 192, 256, 320, 384, 448, 512)
        r = suggest_block_size(
            G8800GTX, 18, shared_per_thread=16, block_sizes=candidates
        )
        occupancies = []
        for bs in candidates:
            try:
                occupancies.append(
                    occupancy(G8800GTX, bs, 18, 16 * bs).occupancy(G8800GTX)
                )
            except LaunchError:
                pass  # e.g. 512 threads × 18 regs exceeds the file
        assert r.occupancy(G8800GTX) == pytest.approx(max(occupancies))

    def test_impossible_demand_raises(self):
        with pytest.raises(LaunchError):
            suggest_block_size(G8800GTX, 124, shared_per_thread=600)
