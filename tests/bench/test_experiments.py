"""Unit tests for the experiment definitions (tiny scale, shape only)."""

import pytest

from repro.bench import experiments as E


class TestTables:
    def test_table1_rows(self):
        rows = E.table1_devices()
        assert [r["device"] for r in rows] == ["Tesla C2070", "GTX680",
                                               "Tesla K20"]

    def test_table2_covers_suite(self):
        rows = E.table2_suite(scale=0.01)
        assert len(rows) == 31  # Table 2's thirty plus the dense2 control
        assert {r["test_set"] for r in rows} == {1, 2}

    def test_table3_structure(self):
        rows = E.table3_savings(scale=0.02)
        # The paper's Table 3: Test Set 1 without the dense control matrix.
        assert len(rows) == 16
        assert "dense2" not in {r["matrix"] for r in rows}
        for r in rows:
            assert 0 < r["eta_pct"] < 100
            assert r["kappa"] > 1.0
            assert r["compressed_bytes"] < r["original_bytes"]

    def test_table4_structure(self):
        rows = E.table4_hyb_split(scale=0.02)
        assert len(rows) == 14
        for r in rows:
            assert 0 <= r["pct_bro_ell"] <= 100

    def test_table5_structure(self):
        rows = E.table5_bar_savings(scale=0.01, h=64)
        # The paper's Table 5: Test Set 1 without the dense control matrix.
        assert len(rows) == 16
        assert "dense2" not in {r["matrix"] for r in rows}
        for r in rows:
            assert r["delta_pp"] == pytest.approx(
                r["eta_after_pct"] - r["eta_before_pct"], abs=1e-9
            )


class TestFigures:
    def test_fig3_rows_and_break_even(self):
        rows = E.fig3_savings_sweep(m=2048, k=16, bit_widths=(32, 16, 1),
                                    devices=("k20",))
        assert len(rows) == 3
        eta = {r["bits"]: r["eta_pct"] for r in rows}
        assert eta[32] == 0.0
        assert eta[16] == 50.0
        be = E.fig3_break_even(rows)
        assert "k20" in be

    def test_fig4_speedups_computed(self):
        rows = E.fig4_bro_ell(scale=0.01, devices=("k20",),
                              matrices=("epb3",), h=64)
        assert len(rows) == 1
        r = rows[0]
        assert r["speedup_vs_ellpack"] == pytest.approx(
            r["gflops_bro_ell"] / r["gflops_ellpack"]
        )

    def test_fig5_derived_from_fig4(self):
        rows = E.fig5_eai(scale=0.01, h=64)
        assert len(rows) == 17
        for r in rows:
            assert r["eai_ratio"] == pytest.approx(
                r["eai_bro_ell"] / r["eai_ellpack"]
            )

    def test_fig6_first_six_only(self):
        rows = E.fig6_bandwidth(scale=0.01, devices=("k20",), h=64)
        assert [r["matrix"] for r in rows] == [
            "cage12", "cant", "consph", "e40r5000", "epb3", "lhr71"]

    def test_fig7_subset(self):
        rows = E.fig7_bro_coo(scale=0.01, devices=("k20",),
                              matrices=("epb3", "scircuit"))
        assert len(rows) == 2
        for r in rows:
            assert r["speedup_vs_coo"] > 0

    def test_fig8_k20_default(self):
        rows = E.fig8_bro_hyb(scale=0.01)
        assert len(rows) == 14
        assert all(r["device_key"] == "k20" for r in rows)

    def test_fig9_single_matrix(self):
        rows = E.fig9_reordering(scale=0.01, matrices=("epb3",), h=64)
        assert len(rows) == 1
        r = rows[0]
        for label in ("bar", "rcm", "amd"):
            assert f"gflops_{label}" in r
            assert f"{label}_gain_pct" in r


class TestScaleBench:
    def test_rows_carry_modeled_and_measured_columns(self):
        rows = E.scale_bench(scale=0.02, devices=(1, 2), repeats=1)
        assert [r["devices"] for r in rows] == [1, 2]
        single, sharded = rows
        assert single["backend"] == "single"
        assert sharded["backend"] == "process"
        for r in rows:
            assert r["speedup"] > 0 and 0 < r["efficiency"] <= 1.0 + 1e-9
            assert r["wallclock_ms"] > 0
            assert 0 < r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"]
        # modeled columns are deterministic, so they can gate --compare
        again = E.scale_bench(scale=0.02, devices=(1, 2), repeats=1)
        assert [r["speedup"] for r in again] == [r["speedup"] for r in rows]

    def test_measured_columns_never_gate_ci(self):
        from repro.telemetry.benchreport import metric_direction

        for col in ("wallclock_ms", "p50_ms", "p95_ms", "p99_ms",
                    "efficiency"):
            assert metric_direction(col) == 0  # informational only
        assert metric_direction("speedup") == 1
