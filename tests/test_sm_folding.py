"""SM folding: lock-stepped SMs run as one vector dispatch, bit-identically.

The serial engine of :func:`repro.cudasim.executor.run_sms` advances
every SM of a launch together and runs SMs whose replay requests match
as one group over the ``(sms, warps, lanes)`` arena
(:func:`repro.cudasim.fastpath.run_lockstep`).  These tests compare that
folded engine against the reference interpreter (mode 0) and against
the ``process`` engine, which runs every SM separately: memory image,
cycles, every SM's ``sm_stats`` and the ``KernelProfile`` must match
exactly.  The kernels are built so groups form and then split mid-plan:
per-block branches and trip counts, bank conflicts in only some blocks,
a partial last block, a grid smaller than the SM count, and uneven
blocks per SM with several resident blocks.  A traced launch keeps one
SM at a time, so its record order stays the interpreter's.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro import telemetry
from repro.cudasim import (
    Device,
    G8800GTX,
    KernelBuilder,
    compile_kernel,
    fastpath,
    profiler,
)
from repro.cudasim.device import Toolchain
from repro.cudasim.isa import Imm, Instr, Op
from repro.cudasim.kernel_cache import KernelCache
from repro.cudasim.trace import TraceRecorder
from repro.gravit import GpuConfig, plummer
from repro.gravit.gpu_driver import GpuForceBackend

BLOCK = 64


@pytest.fixture(autouse=True)
def _clean_state():
    telemetry.disable()
    profiler.disable()
    yield
    telemetry.disable()
    profiler.disable()


def _parity(b: KernelBuilder, cta):
    """``cta & 1`` from the builder's integer ops."""
    return b.isub("par", cta, b.shl("h2", b.shr("h", cta, 1), 1))


def _split_kernel():
    """Uniform work with a predicated add whose lane count differs per
    block, then a per-block forward branch (odd blocks take the body)
    and a per-block loop trip count: groups form, then lose members at
    different events."""
    b = KernelBuilder("k_fold_split", params=("dst",))
    tid = b.sreg("tid")
    cta = b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    acc = b.i2f(b.reg("acc"), tid)
    lanes = b.pred()
    b.setp("lt", lanes, tid, b.imad("nlive", cta, 7, 9))
    with b.loop(0, 4):
        b.add(acc, acc, 1.0)
        b.emit(Instr(Op.ADD, dsts=(acc,), srcs=(acc, Imm(2.0)), pred=lanes))
        b.mul(acc, acc, 0.5)
    odd = b.pred()
    b.setp("ne", odd, _parity(b, cta), 0)
    with b.if_(odd):
        b.add(acc, acc, 3.0)
        b.mul(acc, acc, 1.5)
    addr = b.imad("a", i, 4, b.param("dst"))
    trips = b.iadd("trips", b.shr("t3", cta, 1), 2)
    with b.loop(0, trips):
        b.add(acc, acc, 0.25)
        b.mul(acc, acc, 0.75)
        b.add(acc, acc, b.ld_global(b.reg("old"), addr))
    b.st_global(addr, acc)
    return b.build()


def _shared_kernel(exits: bool = False):
    """Shared loads: blocks 3 and up read with a 32-word stride (every
    lane on bank 0, a conflict the replay does not assume), the others
    with stride 1 and stay one group for a tile loop of whole-warp
    broadcast loads whose words differ per block.  With ``exits``, lanes
    first exit at a per-block thread count (warp 1 keeps 8 + 3*cta
    lanes), so lock-stepped SMs carry different active masks."""
    b = KernelBuilder("k_fold_shared", params=("dst",))
    tid = b.sreg("tid")
    cta = b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    if exits:
        gone = b.pred()
        b.setp("ge", gone, tid, b.imad("keep", cta, 3, 40))
        b.exit(pred=gone)
    x = b.i2f(b.reg("x"), i)
    late = b.pred()
    b.setp("ge", late, cta, 3)
    stride = b.selp("stride", 32, 1, late)
    sa = b.shl("sa", b.imul("ts", tid, stride), 2)
    b.st_shared(sa, x)
    b.bar_sync()
    y = b.ld_shared(b.reg("y"), sa)
    b.add(y, y, 1.0)
    with b.loop(0, 8) as j:
        z = b.ld_shared(b.reg("z"), b.shl("ja", j, 2))
        b.mad(y, z, 0.5, y)
    b.st_global(b.imad("a", i, 4, b.param("dst")), y)
    return b.build(shared_words=BLOCK * 32)


def _stagger_kernel():
    """Lanes exit at a per-block count (warp 1 keeps 17 + 2*cta lanes),
    then a coalesced global load staggers the two warps' wake-ups the
    same way in every block: lock-stepped groups run per-warp steps
    whose lane counts differ per SM."""
    b = KernelBuilder("k_fold_stagger", params=("dst",))
    tid = b.sreg("tid")
    cta = b.sreg("ctaid")
    i = b.imad("i", cta, b.sreg("ntid"), tid)
    addr = b.imad("a", i, 4, b.param("dst"))
    gone = b.pred()
    b.setp("ge", gone, tid, b.imad("keep", cta, 2, 49))
    b.exit(pred=gone)
    x = b.i2f(b.reg("x"), i)
    b.add(x, x, b.ld_global(b.reg("v"), addr))
    with b.loop(0, 6):
        b.mul(x, x, 0.5)
        b.add(x, x, 1.0)
    b.st_global(addr, x)
    return b.build()


def _guard_kernel(n: int):
    """``if (i < n)`` around the body: the last block is partial."""
    b = KernelBuilder("k_fold_guard", params=("dst",))
    tid = b.sreg("tid")
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    p = b.pred()
    b.setp("lt", p, i, n)
    with b.if_(p):
        x = b.i2f(b.reg("x"), i)
        with b.loop(0, 3):
            b.mul(x, x, 0.5)
            b.add(x, x, 2.0)
        b.st_global(b.imad("a", i, 4, b.param("dst")), x)
    return b.build()


def _launch(kernel, grid, *, mode, engine="serial", props=G8800GTX,
            resident=None, profile=False, trace=None):
    """One launch; everything observable about it."""
    if profile:
        profiler.enable()
        profiler.reset()
    dev = Device(
        props=props,
        toolchain=Toolchain.CUDA_1_0,
        fastpath=mode,
        sm_engine=engine,
        cache=KernelCache(),
        heap_bytes=1 << 20,
    )
    lk = compile_kernel(kernel)
    dst = dev.malloc(4 * grid * BLOCK)
    result = dev.launch(
        lk, grid=grid, block=BLOCK, params={"dst": dst},
        max_resident_blocks=resident, trace=trace,
    )
    if profile:
        profiler.disable()
    return {
        "mem": dev.gmem.words.tobytes(),
        "cycles": result.cycles,
        "stats": result.stats.as_dict(),
        "sm_stats": [s.as_dict() for s in result.sm_stats],
        "profile": result.profile.as_dict() if profile else None,
    }


def _assert_same(ref: dict, got: dict, what: str) -> None:
    assert got["cycles"] == ref["cycles"], f"{what}: cycles differ"
    assert got["mem"] == ref["mem"], f"{what}: memory images differ"
    for k, (a, b) in enumerate(zip(ref["sm_stats"], got["sm_stats"])):
        assert b == a, f"{what}: sm_stats[{k}] differ"
    assert len(got["sm_stats"]) == len(ref["sm_stats"])
    assert got["stats"] == ref["stats"], f"{what}: launch stats differ"
    assert got["profile"] == ref["profile"], f"{what}: profiles differ"


def _check(kernel, grid, **kw) -> dict:
    """Folded serial vs interpreter vs process engine, plain and
    profiled; returns the folded run's counter deltas."""
    ref = _launch(kernel, grid, mode=0, **kw)
    fastpath.reset_vec_counters()
    folded = _launch(kernel, grid, mode=2, **kw)
    vec = fastpath.vec_counters()
    _assert_same(ref, folded, "folded vs interpreter")
    _assert_same(ref, _launch(kernel, grid, mode=2, engine="process", **kw),
                 "process vs interpreter")
    pref = _launch(kernel, grid, mode=0, profile=True, **kw)
    for engine in ("serial", "process"):
        _assert_same(
            pref,
            _launch(kernel, grid, mode=2, engine=engine, profile=True, **kw),
            f"profiled {engine} vs interpreter",
        )
    # Profiling never changes what it observes.
    assert pref["stats"] == ref["stats"]
    return vec


def _fallback_sum(vec: dict) -> int:
    return sum(v for k, v in vec.items() if k.startswith("fallback."))


class TestFoldedEngine:
    def test_branch_splits_group_mid_plan(self):
        vec = _check(_split_kernel(), grid=8)
        assert vec["group_sms"] > vec["groups"] > 0, vec
        assert vec["abort.branch"] > 0, vec
        assert _fallback_sum(vec) == vec["fallbacks"]

    def test_bank_conflicts_in_some_blocks(self):
        vec = _check(_shared_kernel(), grid=6)
        assert vec["group_sms"] > vec["groups"] > 0, vec
        assert vec["abort.bank_conflict"] > 0, vec

    def test_partial_last_block(self):
        # 4 full blocks and one with 40 live threads.
        vec = _check(_guard_kernel(4 * BLOCK + 40), grid=5)
        assert vec["group_sms"] > vec["groups"] > 0, vec

    @pytest.mark.parametrize("kernel", ("shared", "stagger"))
    def test_active_masks_differ_per_block(self, kernel):
        if kernel == "shared":
            vec = _check(_shared_kernel(exits=True), grid=6)
        else:
            vec = _check(_stagger_kernel(), grid=8)
        assert vec["group_sms"] > vec["groups"] > 0, vec

    @pytest.mark.parametrize("grid", (1, 3))
    def test_grid_smaller_than_sm_count(self, grid):
        assert grid < G8800GTX.num_sms
        _check(_split_kernel(), grid=grid)

    @pytest.mark.parametrize("kernel", ("split", "shared"))
    def test_uneven_blocks_per_sm_with_resident_blocks(self, kernel):
        """10 blocks on 4 SMs, 2 resident at a time: SMs 0-1 run three
        blocks in two waves, SMs 2-3 two blocks in one; blocks retire and
        are admitted mid-launch and reuse arena shared-memory slots."""
        k = _split_kernel() if kernel == "split" else _shared_kernel()
        props = replace(G8800GTX, num_sms=4, name="fold-4sm")
        vec = _check(k, grid=10, props=props, resident=2)
        assert vec["groups"] > 0

    def test_force_launch_folds_all_busy_sms(self):
        """The n=1024 all-pairs launch: 8 blocks on 8 busy SMs, every
        replay dispatch runs as one group of 8."""
        dev = Device(fastpath=2, sm_engine="serial", cache=KernelCache())
        backend = GpuForceBackend(GpuConfig(block_size=128), device=dev)
        system = plummer(1024, seed=0)
        backend.forces_cycle(system)  # warm the replay plans
        fastpath.reset_vec_counters()
        _, result = backend.forces_cycle(system)
        vec = fastpath.vec_counters()
        assert len(result.sm_stats) == 8
        assert vec["groups"] > 0
        assert vec["group_sms"] / vec["groups"] == 8
        assert _fallback_sum(vec) == vec["fallbacks"]


def _records(rec: TraceRecorder) -> list:
    return [
        (r.pc, r.block, r.warp, r.is_load, r.width, r.addresses, r.active)
        for r in rec.trace.records
    ]


class TestTracedLaunch:
    #: SHA-256 of the record sequence of the traced split-kernel launch
    #: below, as the serial engine produced it (in every mode) before SM
    #: folding existed.
    RECORD_DIGEST = (
        "1ed7c31500de725da143da5bc497f762fd0fca654f1c8c0ed891aa79c95647a4"
    )

    def test_record_order_unchanged(self):
        outs = []
        for mode in (0, 2):
            rec = TraceRecorder("fold")
            _launch(_split_kernel(), 8, mode=mode, trace=rec)
            outs.append(_records(rec))
        assert outs[1] == outs[0]
        # One SM at a time, in SM order: block ids never go back.
        blocks = [r[1] for r in outs[1]]
        assert blocks == sorted(blocks)
        digest = hashlib.sha256(repr(outs[1]).encode()).hexdigest()
        assert digest == self.RECORD_DIGEST
