"""Fault-injection campaign: the zero-silent-corruption contract.

A seeded campaign of >= 500 injected faults across BRO-ELL, BRO-COO and
BRO-HYB must report zero silent corruptions and zero untyped errors:
every fault is detected (a typed error) or recovered (the fallback's
bit-identical product).
"""

import hashlib

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
            (t.format_name, t.kind, t.target, t.outcome)
            for t in report.trials if t.outcome in ("silent", "untyped")
        ]
        assert report.silent == 0 and report.untyped == 0
        # Every fault is accounted for as detected or recovered, and the
        # fallback actually served recovered results (not just raises).
        assert report.detected + report.recovered == report.injected
        assert report.recovered > 0
        fmts = {t.format_name for t in report.trials}
        assert fmts == set(DEFAULT_FORMATS)

    def test_campaign_deterministic(self):
        a = run_campaign(n_faults=30, seed=42)
        b = run_campaign(n_faults=30, seed=42)
        assert [(t.kind, t.target) for t in a.trials] == [
            (t.kind, t.target) for t in b.trials
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
                "unaffected", "silent", "untyped",
            }

    def test_plan_array_faults_ride_the_round_robin(self):
        report = run_campaign(n_faults=120, seed=0)
        plan = [t for t in report.trials if t.kind == "plan_bit_flip"]
        assert plan and {t.format_name for t in plan} == set(DEFAULT_FORMATS)
        # The checksum caught each flip (a typed error, recorded in the
        # detail) and the fallback served the bit-identical product.
        assert all(t.outcome == "recovered" and t.fallback_used
                   and t.detail.startswith("IntegrityError") for t in plan)

    def test_unverified_campaign_reports_silent_plan_faults(self):
        # Negative control: without the per-call plan check, flipped
        # plan bits do reach y, and the classifier says so.
        report = run_campaign(n_faults=200, seed=0, verify=False)
        assert any(t.outcome == "silent" for t in report.trials
                   if t.kind == "plan_bit_flip")

    def test_unverified_campaign_counts_faults_below_tolerance_as_silent(self):
        # These two flips move y by less than rtol=1e-9: a tolerance
        # check called them benign, the bit-exact check does not.
        report = run_campaign(n_faults=200, seed=0, verify=False)
        outcomes = {t.target: t.outcome for t in report.trials
                    if t.format_name == "bro_coo" and t.kind == "plan_bit_flip"}
        assert outcomes["plan _vals byte 4833 bit 1"] == "silent"
        assert outcomes["plan _vals byte 5810 bit 1"] == "silent"

    def test_unverified_campaign_ignores_the_global_plan_cache(self):
        # A faulted copy keeps its twin's seal: with the twin's plan in
        # the process-wide cache, an unverified call would replay it.
        from repro.kernels.dispatch import run_spmv

        cold = run_campaign(n_faults=200, seed=0, verify=False)
        for i, fmt in enumerate(DEFAULT_FORMATS):
            sealed, coo = build_campaign_matrix(fmt, seed=17 * i)
            run_spmv(sealed, np.ones(coo.shape[1]), "k20")
        warm = run_campaign(n_faults=200, seed=0, verify=False)
        assert warm.to_dict() == cold.to_dict()

    def test_single_format_campaign(self):
        report = run_campaign(formats=("bro_coo",), n_faults=25, seed=3)
        assert report.injected == 25
        assert {t.format_name for t in report.trials} == {"bro_coo"}
        assert report.clean

    def test_fault_sequence_is_pinned(self):
        # sha256 of the (format, kind, target) sequence, captured before
        # the campaign's classifier was rewritten: seeds and draw order
        # must not move.
        report = run_campaign(n_faults=510, seed=0)
        seq = [(t.format_name, t.kind, t.target) for t in report.trials]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == (
            "ecdd09d0cbea92e271a1dbfb02b887d17a2dd95c6babf7d45c325ec7d52de598")


class TestUntypedErrors:
    @pytest.fixture
    def crash_first_faulted_call(self, monkeypatch):
        """Make dispatch raise a ``RuntimeError`` for the first faulted copy."""
        from repro.integrity import campaign
        from repro.kernels import dispatch

        faulted = []
        inject_fault, run_spmv = campaign.inject_fault, dispatch.run_spmv

        def recording(*args, **kwargs):
            injected = inject_fault(*args, **kwargs)
            if injected.matrix is not None:
                faulted.append(injected.matrix)
            return injected

        def crashing(matrix, *args, **kwargs):
            if faulted and matrix is faulted[0]:
                raise RuntimeError("executor crashed")
            return run_spmv(matrix, *args, **kwargs)

        monkeypatch.setattr(campaign, "inject_fault", recording)
        monkeypatch.setattr(dispatch, "run_spmv", crashing)

    def test_counted_and_the_campaign_runs_to_its_budget(
            self, crash_first_faulted_call):
        report = run_campaign(n_faults=30, seed=0)
        assert report.injected == 30
        (crash,) = [t for t in report.trials if t.outcome == "untyped"]
        assert crash.detail == "RuntimeError: executor crashed"
        assert not report.clean

    def test_verify_exits_1(self, crash_first_faulted_call, capsys):
        from repro.cli import main

        assert main(["verify", "--faults", "30", "--seed", "0"]) == 1
        assert "UNTYPED" in capsys.readouterr().out
