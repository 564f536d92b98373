"""Fused runs that cross shared loads and branches in place, bit-identically.

The compiled fast path's fused driver (:meth:`FastSMExecutor._run
<repro.cudasim.fastpath.FastSMExecutor._run>`) executes an unprofiled,
fully active warp's whole-warp broadcast shared load or uniform branch
in place instead of stopping for the interpreter's ``_issue``; every
other load and branch still goes through ``_issue``.  These tests run
the three execution modes (interpreter, per-warp v1, vectorized v2)
over kernels built around each side of that proof and compare the
memory image, end cycles, every :class:`KernelStats` field (launch and
per SM) and the :class:`KernelProfile` of a profiled run.  They also
count which ops still reach ``_issue``, so a proof that silently never
fires fails here too.  Bad shared addresses must raise the same error
in every mode.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import telemetry
from repro.cudasim import Device, KernelBuilder, compile_kernel, profiler
from repro.cudasim.device import Toolchain
from repro.cudasim.executor import SMExecutor
from repro.cudasim.isa import Imm, Instr, Op
from repro.cudasim.kernel_cache import KernelCache

MODES = (0, 1, 2)
WORDS = 128  # shared words of every kernel below


@pytest.fixture(autouse=True)
def _clean_state():
    telemetry.disable()
    profiler.disable()
    yield
    telemetry.disable()
    profiler.disable()


def _launch(kernel, grid, block, mode, *, profile=False):
    """One launch; everything observable about it, plus the ops that
    ran through the interpreter's ``_issue``."""
    if profile:
        profiler.enable()
        profiler.reset()
    dev = Device(
        toolchain=Toolchain.CUDA_1_0,
        fastpath=mode,
        sm_engine="serial",
        cache=KernelCache(),
        heap_bytes=1 << 20,
    )
    lk = compile_kernel(kernel)
    dst = dev.malloc(4 * grid * block)
    issued: Counter = Counter()
    issue = SMExecutor._issue

    def counted(self, warp, now):
        issued[self._prepped[warp.pc].op] += 1
        return issue(self, warp, now)

    SMExecutor._issue = counted
    try:
        result = dev.launch(lk, grid=grid, block=block, params={"dst": dst})
    finally:
        SMExecutor._issue = issue
        if profile:
            profiler.disable()
    stats = result.stats
    return {
        "mem": dev.gmem.words.tobytes(),
        "cycles": result.cycles,
        "stats": stats.as_dict(),
        "by_op": dict(stats.by_op),
        "by_class": dict(stats.by_class),
        "sm_stats": [s.as_dict() for s in result.sm_stats],
        "profile": result.profile.as_dict() if profile else None,
    }, issued


def _check(kernel, grid=2, block=32) -> dict:
    """Modes 0/1/2 must agree, plain and profiled; returns each mode's
    ``_issue`` op counts of the plain run."""
    runs = {m: _launch(kernel, grid, block, m) for m in MODES}
    ref = runs[0][0]
    for mode in MODES[1:]:
        got = runs[mode][0]
        for key in ref:
            assert got[key] == ref[key], f"mode {mode}: {key} differs"
    pref = _launch(kernel, grid, block, 0, profile=True)[0]
    assert pref["stats"] == ref["stats"]  # profiling observes only
    for mode in MODES[1:]:
        got = _launch(kernel, grid, block, mode, profile=True)[0]
        for key in pref:
            assert got[key] == pref[key], f"profiled mode {mode}: {key}"
    return {m: runs[m][1] for m in MODES}


def _fill(b: KernelBuilder, tid):
    """Thread ``t`` stores ``t + 1`` at word ``t`` and ``t + 65`` at
    word ``t + 64``, then a barrier."""
    v = b.i2f(b.reg("v"), tid)
    b.add(v, v, 1.0)
    b.st_shared(b.shl("sa", tid, 2), v)
    b.add(v, v, 64.0)
    b.st_shared(b.shl("sa", tid, 2), v, offset=256)
    b.bar_sync()


def _store(b: KernelBuilder, tid, acc):
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    b.st_global(b.imad("a", i, 4, b.param("dst")), acc)


def _zero(b: KernelBuilder, tid):
    """A register holding 0 in every lane (a broadcast base address)."""
    return b.isub("zero", tid, tid)


def _lanes_of(b: KernelBuilder, tid):
    """``tid`` within its warp (``tid & 31``)."""
    return b.isub("lane", tid, b.shl("wb", b.shr("w", tid, 5), 5))


def _broadcast_kernel(vector: bool = False, trips=8):
    """A tile loop of whole-warp broadcast loads (scalar or float4)
    feeding a dependent MAD: every load and the back-edge are crossed."""
    b = KernelBuilder("k_bcast4" if vector else "k_bcast", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    acc = b.i2f(b.reg("acc"), tid)
    step = 4 if vector else 1
    with b.loop(0, trips) as j:
        addr = b.shl("ja", b.imul("jw", j, step), 2)
        if vector:
            regs = tuple(b.reg(f"z{k}") for k in range(4))
            b.ld_shared(regs, addr)
            for r in regs:
                b.mad(acc, r, 0.5, acc)
        else:
            z = b.ld_shared(b.reg("z"), addr)
            b.mad(acc, z, 0.5, acc)
            b.add(acc, acc, b.ld_shared(b.reg("z2"), addr, offset=4))
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


def _conflict_kernel(degree: int):
    """Loads whose lanes read ``degree`` distinct words of one bank per
    half-warp (words ``16 * (lane % degree)``): never a broadcast."""
    b = KernelBuilder(f"k_conflict{degree}", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    lane = _lanes_of(b, tid)
    word = b.shl("cw", b.isub("cm", lane, b.imul(
        "cq", b.shr("cd", lane, degree.bit_length() - 1), degree)), 4)
    acc = b.i2f(b.reg("acc"), tid)
    with b.loop(0, 4):
        z = b.ld_shared(b.reg("z"), b.shl("ca", word, 2))
        b.add(acc, acc, z)
    _store(b, tid, acc)
    return b.build(shared_words=max(WORDS, 16 * degree))


def _predicated_kernel(threshold: int):
    """Predicated broadcast loads (lanes ``tid < threshold``): the
    proof rejects every predicated load, whatever its mask."""
    b = KernelBuilder(f"k_pred{threshold}", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    p = b.pred()
    b.setp("lt", p, tid, threshold)
    acc = b.i2f(b.reg("acc"), tid)
    z = b.mov(b.reg("z"), 0.0)
    with b.loop(0, 4) as j:
        b.emit(Instr(Op.LD_SHARED, dsts=(z,), srcs=(b.shl("ja", j, 2),),
                     pred=p))
        b.add(acc, acc, z)
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


def _branch_kernel():
    """Uniform branches of both directions: a block-uniform forward
    ``if`` (taken in odd blocks, not taken in even ones), a rolled loop
    whose guard and back-edge are uniform, and a forward ``if`` on the
    loop counter taken on some iterations only."""
    b = KernelBuilder("k_branches", params=("dst",))
    tid = b.sreg("tid")
    cta = b.sreg("ctaid")
    _fill(b, tid)
    acc = b.i2f(b.reg("acc"), tid)
    odd = b.pred()
    b.setp("ne", odd, b.isub("par", cta, b.shl("h2", b.shr("h", cta, 1), 1)),
           0)
    with b.if_(odd):
        b.add(acc, acc, b.ld_shared(b.reg("z0"), _zero(b, tid), offset=12))
        b.mul(acc, acc, 1.5)
    trips = b.iadd("trips", cta, 3)
    with b.loop(0, trips) as j:
        b.add(acc, acc, b.ld_shared(b.reg("z1"), b.shl("ja", j, 2)))
        late = b.pred()
        b.setp("ge", late, j, 2)
        with b.if_(late, negate=True):
            b.mul(acc, acc, 0.75)
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


def _diverge_kernel():
    """A per-lane ``if`` in the middle of a crossed run; its end (the
    lanes' reconvergence point) is a shared load."""
    b = KernelBuilder("k_diverge", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    acc = b.i2f(b.reg("acc"), tid)
    few = b.pred()
    b.setp("lt", few, _lanes_of(b, tid), 5)
    with b.loop(0, 3) as j:
        b.add(acc, acc, b.ld_shared(b.reg("z0"), b.shl("ja", j, 2)))
        jb = b.shl("jb", j, 3)
        with b.if_(few):
            b.mul(acc, acc, 3.0)
        b.add(acc, acc, b.ld_shared(b.reg("z1"), jb))
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


def _exit_kernel():
    """Lanes ``tid % 32 >= 20`` exit first: the rest of every warp runs
    partially active, so nothing is crossed."""
    b = KernelBuilder("k_exits", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    gone = b.pred()
    b.setp("ge", gone, _lanes_of(b, tid), 20)
    b.exit(pred=gone)
    acc = b.i2f(b.reg("acc"), tid)
    with b.loop(0, 4) as j:
        b.mad(acc, b.ld_shared(b.reg("z"), b.shl("ja", j, 2)), 0.5, acc)
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


def _wake_kernel():
    """Two warps per block: warp 1 first waits on a global load, so
    warp 0's crossed tile loop runs until warp 1 wakes mid-run; then
    both sweep the tile."""
    b = KernelBuilder("k_wake", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    i = b.imad("i", b.sreg("ctaid"), b.sreg("ntid"), tid)
    addr = b.imad("a", i, 4, b.param("dst"))
    acc = b.i2f(b.reg("acc"), tid)
    second = b.pred()
    b.setp("ge", second, tid, 32)
    with b.if_(second):
        b.add(acc, acc, b.ld_global(b.reg("g"), addr))
    with b.loop(0, 12) as j:
        z = b.ld_shared(b.reg("z"), b.shl("ja", j, 2))
        b.mad(acc, z, 0.5, acc)
        b.mul(acc, acc, 0.25)
    b.st_global(addr, acc)
    return b.build(shared_words=WORDS)


def _bad_address_kernel(addr: float, words: int):
    """A broadcast shared load of ``words`` words at byte address
    ``addr`` (a register computed at run time, so no pass folds it into
    the load)."""
    b = KernelBuilder("k_bad", params=("dst",))
    tid = b.sreg("tid")
    _fill(b, tid)
    acc = b.i2f(b.reg("acc"), tid)
    a = b.add(b.reg("ad"), b.mul(b.reg("t0"), acc, 0.0), Imm(addr))
    regs = tuple(b.reg(f"z{k}") for k in range(words))
    b.ld_shared(regs, a)
    for r in regs:
        b.add(acc, acc, r)
    _store(b, tid, acc)
    return b.build(shared_words=WORDS)


CROSSED = (Op.LD_SHARED, Op.BRA)


def _crossed_none(issued: dict, mode: int) -> None:
    for op in CROSSED:
        assert issued[mode][op] == 0, (mode, op, issued[mode])


class TestBroadcastLoads:
    @pytest.mark.parametrize("vector", (False, True), ids=("scalar", "float4"))
    def test_every_load_and_branch_crossed(self, vector):
        issued = _check(_broadcast_kernel(vector))
        assert issued[0][Op.LD_SHARED] > 0
        # One warp per SM: no cross-warp dispatch, so both compiled
        # modes leave only the boundary ops to the interpreter.
        for mode in (1, 2):
            _crossed_none(issued, mode)
            assert issued[mode][Op.ST_SHARED] == issued[0][Op.ST_SHARED]

    @pytest.mark.parametrize("degree", (2, 16))
    def test_conflicted_loads_run_through_issue(self, degree):
        issued = _check(_conflict_kernel(degree))
        for mode in (1, 2):
            assert issued[mode][Op.LD_SHARED] == issued[0][Op.LD_SHARED]
            assert issued[mode][Op.BRA] == 0

    @pytest.mark.parametrize("threshold", (32, 7, 0))
    def test_predicated_loads_run_through_issue(self, threshold):
        issued = _check(_predicated_kernel(threshold))
        for mode in (1, 2):
            assert issued[mode][Op.LD_SHARED] == issued[0][Op.LD_SHARED]


class TestUniformBranches:
    def test_taken_and_not_taken_forward_and_backward(self):
        issued = _check(_branch_kernel(), grid=4)
        assert issued[0][Op.BRA] > 0
        for mode in (1, 2):
            _crossed_none(issued, mode)

    def test_branch_diverging_mid_run_and_reconverging_at_a_load(self):
        issued = _check(_diverge_kernel())
        for mode in (1, 2):
            # Only the diverging branch reaches the interpreter (the
            # body runs on a partial mask and holds no load or branch);
            # the load at the reconvergence point is crossed on entry.
            assert 0 < issued[mode][Op.BRA] < issued[0][Op.BRA]
            assert issued[mode][Op.LD_SHARED] == 0

    def test_exited_lanes_are_never_crossed(self):
        issued = _check(_exit_kernel())
        for mode in (1, 2):
            for op in CROSSED:
                assert issued[mode][op] == issued[0][op]


class TestMultiWarp:
    def test_other_warp_wakes_mid_run(self):
        issued = _check(_wake_kernel(), grid=2, block=64)
        # v1 crosses whenever the running warp is alone; v2 keeps
        # offering the replay a dispatch and crosses only on entry.
        assert issued[1][Op.LD_SHARED] < issued[0][Op.LD_SHARED]
        assert issued[2][Op.LD_SHARED] <= issued[0][Op.LD_SHARED]

    def test_broadcast_loop_in_two_warp_blocks(self):
        _check(_broadcast_kernel(trips=6), grid=3, block=64)


class TestBadAddresses:
    @pytest.mark.parametrize(
        "addr, words",
        (
            (2.0, 1),
            (-4.0, 1),
            (4.0 * WORDS, 1),
            (4.0 * WORDS - 8.0, 4),
            (float("nan"), 1),
            (float("inf"), 1),
        ),
        ids=("misaligned", "negative", "past-end", "float4-straddles-end",
             "nan", "inf"),
    )
    @pytest.mark.parametrize("block", (32, 64))
    def test_same_error_in_every_mode(self, addr, words, block):
        errors = []
        for mode in MODES:
            with pytest.raises(Exception) as info:
                _launch(_bad_address_kernel(addr, words), 2, block, mode)
            errors.append((type(info.value), str(info.value)))
        assert errors[1] == errors[0] and errors[2] == errors[0], errors
