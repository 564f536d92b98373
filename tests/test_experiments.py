"""The evaluation harness: every figure/table reproduces its paper claim.

These are the repository's acceptance tests — each asserts the *shape*
targets from DESIGN.md §4 (who wins, by roughly what factor), not exact
silicon numbers.
"""

import numpy as np
import pytest

from repro.cudasim import Toolchain
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import fig10_memory_cycles, fig11_layout_speedup
from repro.experiments.report import ascii_bars, format_table, write_dat


@pytest.fixture(scope="module")
def fig10():
    return fig10_memory_cycles.run()


@pytest.fixture(scope="module")
def fig11(fig10):
    return fig11_layout_speedup.run(fig10=fig10)


class TestFig10(object):
    def test_band_200_500(self, fig10):
        values = [
            m["cycles_per_element"]
            for m in fig10.data["measurements"].values()
        ]
        assert min(values) > 150 and max(values) < 550

    def test_ordering_cuda_10(self, fig10):
        meas = fig10.data["measurements"]

        def c(kind):
            return meas[f"{kind}/1.0"]["cycles_per_element"]

        assert c("unopt") >= c("soa") > c("aoas") > c("soaoas")

    def test_ordering_cuda_22(self, fig10):
        meas = fig10.data["measurements"]

        def c(kind):
            return meas[f"{kind}/2.2"]["cycles_per_element"]

        assert c("aos") > c("soa") > c("soaoas")

    def test_checksums_valid(self, fig10):
        assert all(
            m["checksum_ok"] for m in fig10.data["measurements"].values()
        )

    def test_transaction_counts_follow_layout(self, fig10):
        meas = fig10.data["measurements"]
        assert meas["unopt/1.0"]["transactions"] > meas["soa/1.0"]["transactions"]
        assert meas["soaoas/1.0"]["loads"] == 2
        assert meas["soa/1.0"]["loads"] == 7

    def test_analytic_model_tracks_simulation(self, fig10):
        """The closed-form estimator predicts the simulated microbench
        within 20 % for every layout × toolchain."""
        for m in fig10.data["measurements"].values():
            ratio = m["analytic_cycles_per_element"] / m["cycles_per_element"]
            assert 0.8 < ratio < 1.2, m

    def test_summary_mentions_band(self, fig10):
        assert "inside" in fig10.summary()


class TestFig11:
    def test_soa_speedup_about_10pct(self, fig11):
        s = fig11.data["speedups"]["soa"]["1.0"]
        assert 1.05 < s < 1.20

    def test_soaoas_speedup_about_50pct_cuda10(self, fig11):
        s = fig11.data["speedups"]["soaoas"]["1.0"]
        assert 1.35 < s < 1.60

    def test_soaoas_speedup_about_30pct_cuda22(self, fig11):
        s = fig11.data["speedups"]["soaoas"]["2.2"]
        assert 1.20 < s < 1.40

    def test_cuda11_flattened(self, fig11):
        sp = fig11.data["speedups"]
        for kind in ("soa", "aoas", "soaoas"):
            assert sp[kind]["1.1"] <= sp[kind]["1.0"] + 0.02
        assert max(sp[k]["1.1"] for k in sp) < 1.30

    def test_combination_beats_parts(self, fig11):
        """Sec. II-D: SoAoaS ≥ both SoA and AoaS on every revision."""
        sp = fig11.data["speedups"]
        for tc in fig11.data["toolchains"]:
            assert sp["soaoas"][tc] >= sp["soa"][tc] - 0.02
            assert sp["soaoas"][tc] >= sp["aoas"][tc] - 0.02


class TestOccupancyExperiment:
    @pytest.fixture(scope="class")
    def occ(self):
        return run_experiment("occupancy")

    def test_register_ladder(self, occ):
        assert occ.measured_claims["registers rolled/unrolled/ICM"] == "18/17/16"

    def test_occupancy_jump(self, occ):
        assert occ.measured_claims["occupancy rolled -> ICM"] == "50% -> 67%"

    def test_unroll_speedup_band(self, occ):
        value = float(
            occ.measured_claims["unroll speedup over rolled"].rstrip("x")
        )
        assert 1.10 < value < 1.25  # paper: ~1.18

    def test_icm_occupancy_gain(self, occ):
        value = float(
            occ.measured_claims["ICM+occupancy speedup over unrolled"].rstrip("x")
        )
        assert 1.01 < value < 1.12  # paper: ~1.06

    def test_block_sweep_peaks_at_67(self, occ):
        best = max(r["blocks_per_sm"] * r["block_size"] for r in occ.data["block_sweep"])
        assert best == 512  # 16 warps = 67 % is the ceiling at 16 regs


class TestUnrollExperiment:
    @pytest.fixture(scope="class")
    def unroll(self):
        from repro.experiments import unrolling_sweep

        return unrolling_sweep.run(factors=(1, 4, 128), n=256, block=128)

    def test_instruction_reduction_near_20pct(self, unroll):
        claim = unroll.measured_claims["instruction reduction at full unroll"]
        assert 15.0 < float(claim.rstrip("%")) < 24.0

    def test_speedup_band(self, unroll):
        s = float(unroll.measured_claims["speedup at full unroll"].rstrip("x"))
        assert 1.10 < s < 1.30

    def test_iterator_freed(self, unroll):
        assert "yes" in unroll.measured_claims["iterator register freed"]

    def test_eq3_tracks_measurement(self, unroll):
        for f, m in unroll.data["measurements"].items():
            if f == 1:
                continue
            assert m["eq3_prediction"] == pytest.approx(
                m["measured_speedup"], rel=0.15
            )


class TestRegistryAndReport:
    def test_registry_lists_all(self):
        assert set(EXPERIMENTS) == {
            "fig10", "fig11", "fig12", "unroll", "occupancy",
            "diagrams", "ablation", "portability", "warps", "model", "bh",
            "bhgpu", "frag", "multigpu", "outofcore", "profile", "service",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_format_table_alignment(self):
        t = format_table(["a", "bb"], [["x", 1.5], ["yy", 10.25]])
        lines = t.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_ascii_bars(self):
        art = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        assert art.count("█") == 15

    def test_write_dat(self, tmp_path):
        path = str(tmp_path / "series.dat")
        write_dat(path, {"x": [1, 2], "y": [3.5, 4.5]}, comment="demo")
        content = open(path).read()
        assert "# demo" in content and "2 4.5" in content

    def test_write_dat_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_dat(str(tmp_path / "bad.dat"), {"x": [1], "y": [1, 2]})

    def test_save_dat(self, fig10, tmp_path):
        files = fig10.save_dat(str(tmp_path))
        assert files and all(f.endswith(".dat") for f in files)


@pytest.mark.slow
class TestFig12Full:
    def test_headlines(self):
        result = run_experiment("fig12", quick=True)
        claims = result.measured_claims
        total = float(
            claims["total GPU speedup (opt vs AoS baseline)"].rstrip("x")
        )
        assert 1.15 < total < 1.40  # paper 1.27x
        cpu = float(claims["speedup vs serial CPU"].rstrip("x"))
        assert 70 < cpu < 105  # paper 87x
        unroll = float(
            claims["full unroll over rolled SoAoaS"].rstrip("x")
        )
        assert 1.10 < unroll < 1.26  # paper ~1.18x
