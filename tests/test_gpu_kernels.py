"""The paper's kernels: structure, register ladder, per-layout plans."""

import pytest

from repro.core import LAYOUT_KINDS, make_layout, sbp_counts
from repro.cudasim import CompileOptions, Op, compile_kernel, lower
from repro.cudasim.ir import LoopStmt, Seq, walk_instrs
from repro.gravit.gpu_kernels import (
    ALL_FIELDS,
    POSMASS_FIELDS,
    build_force_kernel,
    build_membench_kernel,
)


def _inner_loop(kernel):
    def find(stmt):
        if isinstance(stmt, LoopStmt):
            inner = [s for s in _walk(stmt.body) if isinstance(s, LoopStmt)]
            return inner[0] if inner else stmt
        if isinstance(stmt, Seq):
            for s in stmt:
                got = find(s)
                if got is not None:
                    return got
        return None

    return find(kernel.body)


def _walk(stmt):
    if isinstance(stmt, Seq):
        for s in stmt:
            yield s
            yield from _walk(s)
    elif isinstance(stmt, LoopStmt):
        yield from _walk(stmt.body)


class TestForceKernelStructure:
    def test_register_ladder_18_17_16(self):
        """The paper's Sec. IV-A register chain, end to end."""
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        assert compile_kernel(kernel).reg_count == 18
        assert compile_kernel(kernel, CompileOptions(unroll="full")).reg_count == 17
        full_licm = CompileOptions(unroll="full", licm=True)
        assert compile_kernel(kernel, full_licm).reg_count == 16

    def test_inner_loop_is_twenty_instructions(self):
        """16-instruction body + 1 induction add + 3 loop bookkeeping."""
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        inner = _inner_loop(kernel)
        body = sum(1 for i in walk_instrs(inner.body) if i.is_real)
        assert body == 17  # 16 + induction add; +3 bookkeeping on lowering

    def test_sbp_decomposition(self):
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        counts = sbp_counts(kernel)
        assert counts.per_iteration == 20  # the paper's P
        assert counts.inner_trip == 128
        assert counts.setup > 0 and counts.per_slice > 0

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_loads_match_layout_plan(self, kind):
        """S and B sections issue exactly the layout's posmass plan."""
        lay = make_layout(kind, 128)
        kernel, plan = build_force_kernel(lay, block_size=128)
        expected = len(lay.read_plan(POSMASS_FIELDS))
        assert plan.loads_per_record == expected
        loads = [
            i for i in walk_instrs(kernel.body) if i.op is Op.LD_GLOBAL
        ]
        assert len(loads) == 2 * expected  # my-particle + tile fetch

    def test_param_names_cover_steps(self):
        lay = make_layout("soa", 64)
        kernel, plan = build_force_kernel(lay, block_size=64)
        for p in plan.param_for_step:
            assert p in kernel.params
        assert {"out", "nslices", "eps"} <= set(kernel.params)

    def test_shared_tile_sized_for_block(self):
        lay = make_layout("soaoas", 256)
        kernel, _ = build_force_kernel(lay, block_size=256)
        assert kernel.shared_words == 256 * 4  # float4 per thread

    def test_block_size_must_be_warp_multiple(self):
        lay = make_layout("soaoas", 64)
        with pytest.raises(ValueError):
            build_force_kernel(lay, block_size=48)

    def test_barriers_present(self):
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        bars = [i for i in walk_instrs(kernel.body) if i.op is Op.BAR_SYNC]
        assert len(bars) == 2  # before and after the interaction loop

    def test_unroll_pragma_passthrough(self):
        lay = make_layout("soaoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128, unroll=4)
        assert _inner_loop(kernel).unroll == 4

    def test_dce_does_not_break_force_kernel(self):
        lay = make_layout("aoas", 128)
        kernel, _ = build_force_kernel(lay, block_size=128)
        lk = compile_kernel(kernel, CompileOptions(unroll="full", licm=True))
        assert lk.static_instruction_count > 100


class TestMembenchKernel:
    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_builds_and_compiles(self, kind):
        lay = make_layout(kind, 64)
        kernel, plan = build_membench_kernel(lay)
        lk = compile_kernel(kernel)
        loads = [i for i in lk.instructions if i.op is Op.LD_GLOBAL]
        assert len(loads) == plan.loads_per_record
        clocks = [i for i in lk.instructions if i.op is Op.CLOCK]
        assert len(clocks) == 2

    def test_every_element_used(self):
        """The protocol's 'sum up all the data' — one ADD per element."""
        lay = make_layout("soaoas", 64)
        kernel, plan = build_membench_kernel(lay)
        adds = [i for i in walk_instrs(kernel.body) if i.op is Op.ADD]
        assert len(adds) == plan.elements_per_record

    def test_loads_interleaved_with_uses(self):
        """Each load is consumed before the next issues (serialization)."""
        lay = make_layout("soa", 64)
        kernel, _ = build_membench_kernel(lay)
        lk = lower(kernel)
        ops = [i.op for i in lk.instructions]
        first_add = ops.index(Op.ADD)
        second_load = [j for j, op in enumerate(ops) if op is Op.LD_GLOBAL][1]
        assert first_add < second_load

    def test_records_per_thread(self):
        lay = make_layout("soa", 64)
        kernel, plan = build_membench_kernel(lay, records_per_thread=3)
        loads = [i for i in walk_instrs(kernel.body) if i.op is Op.LD_GLOBAL]
        assert len(loads) == 3 * plan.loads_per_record
        with pytest.raises(ValueError):
            build_membench_kernel(lay, records_per_thread=0)

    def test_plan_metrics(self):
        lay = make_layout("aoas", 64)
        _, plan = build_membench_kernel(lay)
        assert plan.elements_per_record == 8
        assert plan.loads_per_record == 2
