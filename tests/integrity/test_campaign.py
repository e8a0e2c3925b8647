"""Fault-injection campaign: the PR's acceptance criterion lives here.

A seeded campaign of >= 500 injected faults across BRO-ELL, BRO-COO and
BRO-HYB must report zero silent corruptions: every fault is either
detected (typed error / fallback) or provably benign.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.integrity import (
    DEFAULT_FORMATS,
    build_campaign_matrix,
    run_campaign,
    verify_integrity,
)


class TestBuildFixture:
    @pytest.mark.parametrize("fmt", DEFAULT_FORMATS)
    def test_fixture_is_sealed_and_faithful(self, fmt):
        mat, coo = build_campaign_matrix(fmt, seed=1)
        verify_integrity(mat)
        x = np.random.default_rng(1).standard_normal(coo.shape[1])
        np.testing.assert_allclose(mat.spmv(x), coo.to_dense() @ x, rtol=1e-9)

    def test_unknown_format_rejected(self):
        with pytest.raises(ReproError, match="does not support"):
            build_campaign_matrix("dia", seed=0)


class TestCampaign:
    def test_acceptance_500_faults_zero_silent(self):
        # ISSUE acceptance: >= 500 faults across all three BRO formats,
        # zero silent corruption. 510 divides evenly round-robin by 3.
        report = run_campaign(n_faults=510, seed=0)
        assert report.injected == 510
        assert report.clean, [
            (r.format_name, r.kind, r.target) for r in report.silent_records()
        ]
        assert report.silent == 0
        # Every fault is accounted for as detected or benign, and the
        # fallback actually served recovered results (not just raises).
        assert report.detected + report.benign == report.injected
        assert report.recovered > 0
        fmts = {r.format_name for r in report.records}
        assert fmts == set(DEFAULT_FORMATS)

    def test_campaign_deterministic(self):
        a = run_campaign(n_faults=30, seed=42)
        b = run_campaign(n_faults=30, seed=42)
        assert [(r.kind, r.target) for r in a.records] == [
            (r.kind, r.target) for r in b.records
        ]

    def test_rows_aggregate_to_totals(self):
        report = run_campaign(n_faults=60, seed=7)
        rows = report.rows()
        assert sum(r["injected"] for r in rows) == report.injected
        assert sum(r["detected"] for r in rows) == report.detected
        assert sum(r["silent"] for r in rows) == report.silent
        for row in rows:
            assert set(row) == {
                "format", "fault", "injected", "detected", "recovered",
                "benign", "silent",
            }

    def test_plan_array_faults_ride_the_round_robin(self):
        report = run_campaign(n_faults=120, seed=0)
        plan = [r for r in report.records if r.kind == "plan_bit_flip"]
        assert plan and {r.format_name for r in plan} == set(DEFAULT_FORMATS)
        assert all(r.detected and r.recovered for r in plan)

    def test_unverified_campaign_reports_silent_plan_faults(self):
        # Negative control: without the per-call plan check, flipped
        # plan bits do reach y, and the classifier says so.
        report = run_campaign(n_faults=200, seed=0, verify=False)
        assert any(r.silent for r in report.records
                   if r.kind == "plan_bit_flip")

    def test_single_format_campaign(self):
        report = run_campaign(formats=("bro_coo",), n_faults=25, seed=3)
        assert report.injected == 25
        assert {r.format_name for r in report.records} == {"bro_coo"}
        assert report.clean
