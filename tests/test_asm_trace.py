"""Assembler round-trips and memory-trace capture/replay."""

import numpy as np
import pytest

from repro.core import make_layout, policy_for
from repro.cudasim import (
    CompileOptions,
    Device,
    KernelBuilder,
    Op,
    compile_kernel,
    lower,
)
from repro.cudasim.asm import assemble, format_program, roundtrip
from repro.cudasim.errors import IRError, TraceError
from repro.cudasim.regalloc import allocate
from repro.cudasim.trace import TraceRecorder
from repro.gravit.gpu_kernels import ALL_FIELDS, build_membench_kernel

AXPY = """
.kernel axpy
.params x y n a
.shared 0
    imad %i, %ctaid, %ntid, %tid
    setp.ge %p$g, %i, param:n
    @%p$g exit
    imad %ax, %i, 4, param:x
    imad %ay, %i, 4, param:y
    ld.global.v1 %v, [%ax+0]
    ld.global.v1 %w, [%ay+0]
    mad %w, %v, param:a, %w
    st.global.v1 [%ay+0], %w
"""


class TestAssemble:
    def test_axpy_parses_and_runs(self):
        kernel = assemble(AXPY)
        assert kernel.name == "axpy"
        assert kernel.params == ("x", "y", "n", "a")
        lk = lower(kernel)
        allocate(lk)
        dev = Device(heap_bytes=1 << 16)
        n = 64
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        bx, by = dev.malloc(4 * n), dev.malloc(4 * n)
        dev.memcpy_htod(bx, x)
        dev.memcpy_htod(by, y)
        dev.launch(lk, 2, 32, {"x": bx, "y": by, "n": n, "a": 3.0})
        np.testing.assert_allclose(
            dev.memcpy_dtoh(by, n), 3.0 * x + 1.0, rtol=1e-6
        )

    def test_labels_and_branches(self):
        text = """
        .kernel looped
        .params dst
            mov %acc, 0.0
            mov %j, 0
        head:
            add %acc, %acc, 1.0
            iadd %j, %j, 1
            setp.lt %p$l, %j, 5
            @%p$l bra head
            imad %o, %tid, 4, param:dst
            st.global.v1 [%o+0], %acc
        """
        lk = lower(assemble(text))
        allocate(lk)
        dev = Device(heap_bytes=1 << 16)
        dst = dev.malloc(128)
        dev.launch(lk, 1, 32, {"dst": dst})
        np.testing.assert_array_equal(dev.memcpy_dtoh(dst, 32), 5.0)

    def test_comments_and_blank_lines(self):
        kernel = assemble("// nothing\n.kernel k\n\n# more\n    mov %x, 1\n")
        assert kernel.name == "k"

    def test_vector_memory_ops(self):
        text = """
        .kernel v
        .params src dst
            mov %a, param:src
            ld.global.v4 %q0, %q1, %q2, %q3, [%a+16]
            mov %b, param:dst
            st.global.v2 [%b+8], %q1, %q3
        """
        kernel = assemble(text)
        lk = lower(kernel)
        ld = lk.instructions[1]
        assert ld.op is Op.LD_GLOBAL and len(ld.dsts) == 4 and ld.offset == 16
        st = lk.instructions[3]
        assert st.op is Op.ST_GLOBAL and st.offset == 8

    def test_bad_mnemonic(self):
        with pytest.raises(IRError, match="unknown mnemonic"):
            assemble(".kernel k\n    frobnicate %a, %b\n")

    def test_bad_operand(self):
        with pytest.raises(IRError):
            assemble(".kernel k\n    mov %a, @@@\n")

    def test_bad_cmp(self):
        with pytest.raises(IRError):
            assemble(".kernel k\n    setp.zz %p$0, %a, %b\n")

    def test_negated_predicate(self):
        kernel = assemble(
            ".kernel k\n    setp.lt %p$0, %a, 1\n    @!%p$0 mov %x, 1\n"
        )
        ins = lower(kernel).instructions[1]
        assert ins.pred is not None and ins.pred_neg


class TestRoundtrip:
    @pytest.mark.parametrize("kw", [{}, {"unroll": 4}, {"unroll": "full", "licm": True}])
    def test_force_kernel_roundtrip(self, kw):
        from repro.gravit.gpu_kernels import build_force_kernel

        lay = make_layout("soaoas", 64)
        kernel, _ = build_force_kernel(lay, block_size=64)
        lk = compile_kernel(kernel, CompileOptions(**kw))
        rt = roundtrip(lk)
        assert [i.op for i in rt.instructions] == [
            i.op for i in lk.instructions
        ]
        assert rt.static_instruction_count == lk.static_instruction_count

    def test_format_is_stable(self):
        lay = make_layout("soa", 64)
        kernel, _ = build_membench_kernel(lay)
        lk = compile_kernel(kernel)
        once = format_program(lk)
        twice = format_program(roundtrip(lk))
        assert once == twice


class TestTrace:
    def _run_membench(self, kind, recorder, n=64, block=32):
        lay = make_layout(kind, n)
        kernel, plan = build_membench_kernel(lay)
        lk = compile_kernel(kernel)
        dev = Device(heap_bytes=1 << 20)
        buf = dev.malloc(lay.size_bytes)
        data = {f: np.ones(n, np.float32) for f in ALL_FIELDS}
        dev.memcpy_htod(buf, lay.pack(data))
        out = dev.malloc(8 * block)
        params = {
            p: buf.addr + s.base
            for p, s in zip(plan.param_for_step, lay.read_plan(ALL_FIELDS))
        }
        params["out"] = out
        dev.launch(lk, 1, block, params, trace=recorder)
        return lay

    def test_trace_counts_loads_and_stores(self):
        rec = TraceRecorder("membench")
        self._run_membench("soa", rec)
        # 7 loads + 1 store per warp, 1 warp... block=32 → 1 warp.
        assert len(rec.trace.loads()) == 7
        assert len(rec.trace.stores()) == 1

    def test_replay_matches_policy_expectations(self):
        rec = TraceRecorder()
        self._run_membench("unopt", rec)
        strict = rec.report(policy_for("1.0"))
        merged = rec.report(policy_for("1.1"))
        assert strict.transactions > merged.transactions
        assert strict.bytes_moved >= merged.bytes_moved
        # 28-byte-stride AoS: both end up moving ~6.5x the useful bytes.
        assert 0 < strict.efficiency <= merged.efficiency <= 1.0
        assert strict.efficiency < 0.2
        assert strict.transactions_per_access > 20
        assert "efficiency" in strict.describe()

    def test_efficiency_ordering_matches_paper(self):
        """SoAoaS traffic efficiency >> AoS under CUDA 1.0."""
        effs = {}
        for kind in ("unopt", "soa", "soaoas"):
            rec = TraceRecorder()
            self._run_membench(kind, rec)
            effs[kind] = rec.report(policy_for("1.0")).efficiency
        assert effs["unopt"] < 0.2
        assert effs["soa"] > 0.8
        assert effs["soaoas"] > 0.8

    def test_limit_guard(self):
        rec = TraceRecorder(limit=2)
        self._run_membench("soa", rec)
        assert rec.dropped > 0
        with pytest.raises(TraceError):
            rec.report(policy_for("1.0"))

    def test_record_halfwarp_split(self):
        rec = TraceRecorder()
        self._run_membench("soa", rec, block=32)
        record = rec.trace.loads()[0]
        halves = record.halfwarp_accesses()
        assert len(halves) == 2
        assert halves[0].size_bytes == 4
