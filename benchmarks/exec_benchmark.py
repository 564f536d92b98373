"""Executor wall-clock benchmark: codegen fastpath vs the interpreter.

Times the paper's two simulation-heavy sweeps — the Fig. 10 layout ×
toolchain grid (which also powers Fig. 11's derived speedups) and the
unroll-factor sweep — under all three execution modes of
:mod:`repro.cudasim.fastpath`: the reference interpreter
(``REPRO_EXEC_FASTPATH=0``), the per-warp compiled path (``1``) and the
cross-warp vectorized path (``2``).  Each mode gets one warm-up pass so
the kernel-compilation and fastpath-codegen caches are hot and the
numbers measure cycle simulation, not compilation; the reported time is
then the best of ``--repeats`` runs.

A paper-scale point (the largest n that fits the CI budget, unroll 16)
is timed under the two compiled modes only — the interpreter needs
minutes per repeat there, which is exactly the affordability problem the
vectorized executor solves.  The v2 runs also report scheduler shape:
warps per vector dispatch and the fraction of warp-stretches that fell
back to the per-warp path.

One driver step at n=1024 (soaoas, block 128: 8 blocks on 8 busy SMs)
is timed under both compiled modes as the median and interquartile
range of ``STEP_REPEATS`` steps, with ``step_sms_per_group`` — the SMs
each v2 replay plan ran for at once (SM folding, see
:func:`repro.cudasim.fastpath.run_lockstep`).

One ``step-ooc``-shaped out-of-core step (n=256, block 32, 32-row
tiles: 72 one-warp launches) is timed under the default mode as the
median and IQR of ``STEP_REPEATS`` steps.  ``ooc_step_interpreted_issues``
counts the warp-instructions of one such step that still run through
the reference interpreter's ``SMExecutor._issue`` (the fused driver
executes the rest in place) — a deterministic count.

Every mode is bit-identical to the interpreter by construction
(``tests/test_fastpath.py`` pins memory images, stats and cycle counts),
so this benchmark only reports time.

Writes ``BENCH_exec.json`` at the repository root::

    python benchmarks/exec_benchmark.py [--repeats 3] [--out BENCH_exec.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Unroll factors for the sweep: rolled, the paper's plateau entry
#: points, and fully unrolled (the largest generated kernel).
UNROLL_FACTORS = (1, 4, 16, 128)

#: The paper-scale point: largest n affordable in the CI budget under
#: the compiled modes (the source paper sweeps 40k..1M; the cycle-level
#: interpreter needs ~1 min per repeat already at this size).
PAPER_N = 2048
PAPER_UNROLL = 16

#: The driver-step point: n, and the steps timed per compiled mode.
STEP_N = 1024
STEP_REPEATS = 5

#: The out-of-core step point: n, block size and tile rows.
OOC_N = 256
OOC_BLOCK = 32
OOC_TILE_ROWS = 32

#: Execution modes: env value -> report key suffix.
MODES = (("0", "interpreter"), ("1", "fastpath_v1"), ("2", "fastpath_v2"))


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _median_iqr(times: list[float]) -> tuple[float, float]:
    """Median and interquartile range (linear interpolation)."""
    import numpy as np

    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return float(med), float(q3 - q1)


def bench_step() -> dict:
    """Host time of one n=1024 driver step under v1 and v2."""
    from repro.cudasim import fastpath
    from repro.gravit import Simulation, SimulationConfig, plummer

    out: dict = {"step_n": STEP_N}
    for mode, suffix in ((1, "fastpath_v1"), (2, "fastpath_v2")):
        sim = Simulation.create(
            SimulationConfig(fastpath=mode), plummer(STEP_N, seed=0)
        )
        sim.step(0.01)  # warm the compile, codegen and replay caches
        fastpath.reset_vec_counters()
        times = []
        for _ in range(STEP_REPEATS):
            t0 = time.perf_counter()
            sim.step(0.01)
            times.append(time.perf_counter() - t0)
        sim.close()
        med, iqr = _median_iqr(times)
        out[f"step_{suffix}_s"] = med
        out[f"step_{suffix}_iqr_s"] = iqr
        if mode == 2:
            vec = fastpath.vec_counters()
            out["step_sms_per_group"] = vec["group_sms"] / vec["groups"]
    out["step_speedup_v2_vs_v1"] = (
        out["step_fastpath_v1_s"] / out["step_fastpath_v2_s"]
    )
    return out


def bench_ooc_step() -> dict:
    """Host time of one out-of-core driver step, and how many of its
    warp-instructions the interpreter's ``_issue`` executes."""
    from repro.cudasim.executor import SMExecutor
    from repro.gravit import Simulation, SimulationConfig, plummer

    cfg = SimulationConfig(
        block_size=OOC_BLOCK, out_of_core=True, tile_rows=OOC_TILE_ROWS
    )
    sim = Simulation.create(cfg, plummer(OOC_N, seed=0))
    try:
        sim.step(0.01)  # warm the compile and codegen caches
        times = []
        for _ in range(STEP_REPEATS):
            t0 = time.perf_counter()
            sim.step(0.01)
            times.append(time.perf_counter() - t0)
        issue = SMExecutor._issue
        calls = 0

        def counted(self, warp, now):
            nonlocal calls
            calls += 1
            return issue(self, warp, now)

        SMExecutor._issue = counted
        try:
            sim.step(0.01)
        finally:
            SMExecutor._issue = issue
    finally:
        sim.close()
    med, iqr = _median_iqr(times)
    return {
        "ooc_step_n": OOC_N,
        "ooc_step_tile_rows": OOC_TILE_ROWS,
        "ooc_step_s": med,
        "ooc_step_iqr_s": iqr,
        "ooc_step_interpreted_issues": calls,
    }


def _vec_shape(counters: dict) -> dict:
    """Scheduler shape of the vectorized executor from its counters."""
    dispatches = counters.get("dispatches", 0)
    warps = counters.get("warps", 0)
    fallbacks = counters.get("fallbacks", 0)
    return {
        "warps_per_dispatch": warps / dispatches if dispatches else 0.0,
        "fallback_fraction": (
            fallbacks / (warps + fallbacks) if warps + fallbacks else 0.0
        ),
    }


def bench_sweeps(repeats: int) -> dict:
    from repro.cudasim import fastpath
    from repro.cudasim.fastpath import FASTPATH_ENV
    from repro.cudasim.kernel_cache import KernelCache, set_default_cache
    from repro.experiments import (
        fig10_memory_cycles,
        fig11_layout_speedup,
        unrolling_sweep,
    )

    def sweep_fig10_fig11():
        fig10 = fig10_memory_cycles.run(serial=True)
        fig11_layout_speedup.run(fig10=fig10)

    def sweep_unroll():
        unrolling_sweep.run(factors=UNROLL_FACTORS, serial=True)

    def sweep_paper_scale():
        unrolling_sweep.run(
            factors=(PAPER_UNROLL,), serial=True, n=PAPER_N
        )

    saved = os.environ.get(FASTPATH_ENV)
    out: dict = {}

    def timed(name, sweep, env, suffix):
        os.environ[FASTPATH_ENV] = env
        set_default_cache(KernelCache())
        sweep()  # warm the compile + codegen caches
        fastpath.reset_vec_counters()
        out[f"{name}_{suffix}_s"] = _best_of(sweep, repeats)
        if env == "2":
            for key, val in _vec_shape(fastpath.vec_counters()).items():
                out[f"{name}_{key}"] = val

    try:
        for name, sweep in (
            ("fig10_fig11", sweep_fig10_fig11),
            ("unroll", sweep_unroll),
        ):
            for env, suffix in MODES:
                timed(name, sweep, env, suffix)
            for env, suffix in MODES[1:]:
                out[f"{name}_speedup_{suffix[-2:]}"] = (
                    out[f"{name}_interpreter_s"] / out[f"{name}_{suffix}_s"]
                )
        # Paper-scale point: compiled modes only (see module docstring).
        for env, suffix in MODES[1:]:
            timed("paper_scale", sweep_paper_scale, env, suffix)
        out["paper_scale_n"] = PAPER_N
        out["paper_scale_unroll"] = PAPER_UNROLL
        out["paper_scale_speedup_v2_vs_v1"] = (
            out["paper_scale_fastpath_v1_s"] / out["paper_scale_fastpath_v2_s"]
        )
    finally:
        if saved is None:
            os.environ.pop(FASTPATH_ENV, None)
        else:
            os.environ[FASTPATH_ENV] = saved
        set_default_cache(None)
    out.update(bench_step())
    out.update(bench_ooc_step())
    interp = out["fig10_fig11_interpreter_s"] + out["unroll_interpreter_s"]
    fast = out["fig10_fig11_fastpath_v2_s"] + out["unroll_fastpath_v2_s"]
    out["total_interpreter_s"] = interp
    out["total_fastpath_s"] = fast
    out["overall_speedup"] = interp / fast
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_exec.json")
    args = parser.parse_args(argv)

    report = {
        "benchmark": (
            "executor fastpath v1/v2 vs interpreter "
            "(fig10+fig11 / unroll / paper-scale / n=1024 step / "
            "n=256 out-of-core step)"
        ),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "unroll_factors": list(UNROLL_FACTORS),
        "note": (
            "best-of-N with warm compile/codegen caches; all modes "
            "produce bit-identical memory, stats and cycles "
            "(tests/test_fastpath.py); paper-scale point runs the "
            "compiled modes only; step_* is the median and IQR of "
            f"{STEP_REPEATS} n={STEP_N} driver steps, ooc_step_* of "
            f"{STEP_REPEATS} n={OOC_N} out-of-core steps"
        ),
        "results": bench_sweeps(args.repeats),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
