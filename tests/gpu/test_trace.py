"""Unit tests for the per-block kernel traces (slice/interval/part)."""

import numpy as np
import pytest

from repro.core.bro_coo import BROCOOMatrix
from repro.core.bro_ell import BROELLMatrix
from repro.errors import ValidationError
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.gpu.device import TESLA_K20
from repro.gpu.memory import contiguous_transactions
from repro.gpu.trace import (
    IntervalTrace,
    PartTrace,
    SliceTrace,
    trace_bro_coo,
    trace_bro_ell,
    trace_hyb,
)
from repro.kernels import run_spmv
from repro.registry import tracer_for
from tests.conftest import random_coo


@pytest.fixture(scope="module")
def traced():
    coo = random_coo(300, 300, density=0.04, seed=1)
    bro = BROELLMatrix.from_coo(coo, h=64)
    return coo, bro, trace_bro_ell(bro, TESLA_K20)


class TestTrace:
    def test_one_row_per_slice(self, traced):
        _, bro, traces = traced
        assert len(traces) == bro.num_slices
        assert [t.slice_id for t in traces] == list(range(bro.num_slices))

    def test_nnz_adds_up(self, traced):
        coo, _, traces = traced
        assert sum(t.nnz for t in traces) == coo.nnz

    def test_rows_add_up(self, traced):
        coo, _, traces = traced
        assert sum(t.rows for t in traces) == coo.shape[0]

    def test_totals_match_kernel_counters(self, traced):
        coo, bro, traces = traced
        # BRO-ELL-VC shares the slice tracer. Values on a quarter grid
        # compress, so its rows must charge the dictionary channel as the
        # kernel does.
        quarters = COOMatrix(coo.row_idx, coo.col_idx,
                             np.round(4 * coo.vals) / 4, coo.shape)
        vc = convert(quarters, "bro_ell_vc", h=64)
        assert vc.compressed_slices == vc.num_slices
        cases = [(bro, traces), (vc, tracer_for("bro_ell_vc").rows(vc, TESLA_K20))]
        for mat, rows in cases:
            res = run_spmv(mat, np.ones(coo.shape[1]), "k20")
            assert sum(t.stream_bytes for t in rows) == res.counters.index_bytes
            assert sum(t.value_bytes for t in rows) == res.counters.value_bytes
            assert sum(t.x_bytes for t in rows) == res.counters.x_bytes
            assert sum(t.decode_ops for t in rows) == res.counters.decode_ops

    def test_padding_fraction_bounds(self, traced):
        _, _, traces = traced
        for t in traces:
            assert 0.0 <= t.padding_fraction < 1.0

    def test_row_rendering(self, traced):
        _, _, traces = traced
        header = SliceTrace.header()
        line = traces[0].row()
        assert "slice" in header
        assert str(traces[0].nnz) in line

    def test_rejects_non_bro_matrix(self, paper_matrix):
        with pytest.raises(ValidationError):
            trace_bro_ell(paper_matrix, TESLA_K20)

    def test_empty_slice_handled(self):
        from repro.formats.coo import COOMatrix

        # Rows 64.. empty: their slice has num_col == 0.
        coo = COOMatrix([0], [0], [1.0], (128, 4))
        bro = BROELLMatrix.from_coo(coo, h=64)
        traces = trace_bro_ell(bro, TESLA_K20)
        assert traces[1].num_col == 0
        assert traces[1].nnz == 0


@pytest.fixture(scope="module")
def traced_coo():
    coo = random_coo(300, 300, density=0.04, seed=1)
    bro = BROCOOMatrix.from_coo(coo)
    return coo, bro, trace_bro_coo(bro, TESLA_K20)


class TestIntervalTrace:
    def test_one_row_per_interval(self, traced_coo):
        _, bro, traces = traced_coo
        assert len(traces) == bro.num_intervals
        assert [t.interval_id for t in traces] == list(range(bro.num_intervals))

    def test_entries_add_up_to_padded_nnz(self, traced_coo):
        _, bro, traces = traced_coo
        assert sum(t.entries for t in traces) == bro.padded_nnz

    def test_nnz_adds_up(self, traced_coo):
        coo, _, traces = traced_coo
        assert sum(t.nnz for t in traces) == coo.nnz

    def test_bits_match_interval_allocation(self, traced_coo):
        _, bro, traces = traced_coo
        assert [t.bits for t in traces] == [int(b) for b in bro.bit_alloc]

    def test_decode_ops_match_kernel_counters(self, traced_coo):
        coo, bro, traces = traced_coo
        res = run_spmv(bro, np.ones(coo.shape[1]), "k20")
        assert sum(t.decode_ops for t in traces) == res.counters.decode_ops

    def test_totals_match_kernel_counters(self, traced_coo):
        coo, bro, traces = traced_coo
        res = run_spmv(bro, np.ones(coo.shape[1]), "k20")
        tb = TESLA_K20.transaction_bytes
        col_bytes = contiguous_transactions(bro.padded_nnz, 4, 32, tb) * tb
        assert (sum(t.stream_bytes for t in traces) + col_bytes
                == res.counters.index_bytes)
        assert sum(t.value_bytes for t in traces) == res.counters.value_bytes
        assert sum(t.x_bytes for t in traces) == res.counters.x_bytes
        assert sum(t.decode_ops for t in traces) == res.counters.decode_ops

    def test_atomic_pressure_bounds(self, traced_coo):
        _, bro, traces = traced_coo
        w = bro.warp_size
        for t in traces:
            # At least the final flush per lane, at most one per iteration
            # per lane plus the flush.
            assert w <= t.atomics <= t.lanes * w + w
            assert 1 <= t.segments <= t.entries

    def test_row_rendering(self, traced_coo):
        _, _, traces = traced_coo
        header = IntervalTrace.header()
        assert "intvl" in header
        assert "atomic" in header
        assert str(traces[0].nnz) in traces[0].row()

    def test_rejects_non_bro_coo_matrix(self, paper_matrix):
        with pytest.raises(ValidationError):
            trace_bro_coo(paper_matrix, TESLA_K20)


@pytest.fixture(scope="module")
def hyb_pair():
    coo = random_coo(300, 300, density=0.04, seed=1)
    return coo, convert(coo, "hyb"), convert(coo, "bro_hyb", h=64)


class TestPartTrace:
    def test_two_parts_in_order(self, hyb_pair):
        _, hyb, bro_hyb = hyb_pair
        for mat in (hyb, bro_hyb):
            traces = trace_hyb(mat, TESLA_K20)
            assert [t.part for t in traces] == ["ell", "coo"]

    def test_nnz_split_adds_up(self, hyb_pair):
        coo, hyb, bro_hyb = hyb_pair
        for mat in (hyb, bro_hyb):
            traces = trace_hyb(mat, TESLA_K20)
            assert sum(t.nnz for t in traces) == coo.nnz
            assert sum(t.frac_nnz for t in traces) == pytest.approx(1.0)

    def test_part_formats(self, hyb_pair):
        _, hyb, bro_hyb = hyb_pair
        assert [t.format_name for t in trace_hyb(hyb, TESLA_K20)] == [
            "ellpack",
            "coo",
        ]
        assert [t.format_name for t in trace_hyb(bro_hyb, TESLA_K20)] == [
            "bro_ell",
            "bro_coo",
        ]

    def test_traffic_and_time_positive(self, hyb_pair):
        _, _, bro_hyb = hyb_pair
        for t in trace_hyb(bro_hyb, TESLA_K20):
            assert t.dram_bytes > 0
            assert t.t_us > 0
            assert t.dram_bytes >= t.index_bytes + t.value_bytes + t.x_bytes

    def test_bro_parts_decode(self, hyb_pair):
        _, hyb, bro_hyb = hyb_pair
        # The classical HYB parts never decode; the BRO parts always do.
        assert all(t.decode_ops == 0 for t in trace_hyb(hyb, TESLA_K20))
        assert all(t.decode_ops > 0 for t in trace_hyb(bro_hyb, TESLA_K20))

    def test_rows_sum_to_kernel_counters(self, hyb_pair):
        # Includes a split with no ELL part: its row stays, with no traffic.
        _, hyb, bro_hyb = hyb_pair
        tail = COOMatrix([3, 3, 9], [0, 5, 7], [1.0, 2.0, 3.0], (64, 64))
        for mat in (hyb, bro_hyb, convert(tail, "hyb"), convert(tail, "bro_hyb")):
            traces = trace_hyb(mat, TESLA_K20)
            assert [t.part for t in traces] == ["ell", "coo"]
            c = run_spmv(mat, np.ones(mat.shape[1]), "k20").counters
            assert sum(t.dram_bytes for t in traces) == c.dram_bytes
            assert sum(t.x_bytes for t in traces) == c.x_bytes
            assert sum(t.decode_ops for t in traces) == c.decode_ops

    def test_row_rendering(self, hyb_pair):
        _, hyb, _ = hyb_pair
        traces = trace_hyb(hyb, TESLA_K20)
        assert "part" in PartTrace.header()
        assert "ell" in traces[0].row()

    def test_rejects_non_hybrid_matrix(self, paper_matrix):
        with pytest.raises(ValidationError):
            trace_hyb(paper_matrix, TESLA_K20)
