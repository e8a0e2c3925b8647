"""Per-kernel counter details not covered by the cross-format tests."""

import numpy as np
import pytest

from repro.errors import DecompressionError, ValidationError
from repro.exec.policy import ExecutionPolicy
from repro.formats import convert
from repro.formats.coo import COOMatrix
from repro.gpu.device import TESLA_K20
from repro.kernels import run_spmv
from repro.registry import kernel_for


def uniform_band(m=2048, k=8):
    cols = np.minimum(np.arange(k) + np.maximum(0, np.arange(m)[:, None] - k),
                      m - 1)
    return COOMatrix(np.repeat(np.arange(m), k), cols.reshape(-1),
                     np.ones(m * k), (m, m))


class TestELLPACKCounters:
    def test_exact_streaming_traffic(self):
        coo = uniform_band()
        res = run_spmv(convert(coo, "ellpack"), np.ones(2048), "k20")
        m, k = 2048, 8
        # Column-major streaming: exactly m*k int32 + m*k float64.
        assert res.counters.index_bytes == m * k * 4
        assert res.counters.value_bytes == m * k * 8
        assert res.counters.issued_flops == 2 * m * k
        assert res.counters.useful_flops == 2 * coo.nnz

    def test_padding_inflates_issued_flops(self):
        # One long row forces k=32 for everyone.
        rows = np.concatenate([np.repeat(np.arange(100), 2), np.zeros(30)])
        cols = np.concatenate(
            [np.tile([0, 50], 100), np.arange(10, 40)]  # distinct from 0, 50
        )
        coo = COOMatrix(rows, cols, np.ones(rows.size), (100, 100))
        res = run_spmv(convert(coo, "ellpack"), np.ones(100), "k20")
        assert res.counters.issued_flops == 2 * 100 * 32
        assert res.counters.useful_flops == 2 * coo.nnz


class TestELLPACKRCounters:
    def test_warp_granularity(self):
        # 64 rows: first warp rows all length 2, second warp has one
        # length-30 row -> warp iterations 2 + 30.
        lengths = np.full(64, 2)
        lengths[40] = 30
        rows = np.repeat(np.arange(64), lengths)
        cols = np.concatenate([np.arange(k) for k in lengths])
        coo = COOMatrix(rows, cols, np.ones(rows.size), (64, 64))
        res = run_spmv(convert(coo, "ellpack_r"), np.ones(64), "k20")
        # index traffic = (2 + 30) warp-iterations x 128 B.
        assert res.counters.index_bytes == (2 + 30) * 128
        assert res.counters.value_bytes == (2 + 30) * 256
        assert res.counters.aux_bytes > 0  # row_length array


class TestCSRCounters:
    def test_warp_per_row_reduction_flops(self):
        coo = uniform_band(m=256, k=8)
        res = run_spmv(convert(coo, "csr"), np.ones(256), "k20")
        # 2 flops/entry + a 5-step warp tree per row.
        assert res.counters.issued_flops == 2 * coo.nnz + 5 * 32 * 256

    def test_empty_rows_cost_nothing_per_entry(self):
        coo = COOMatrix([5], [5], [1.0], (64, 64))
        res = run_spmv(convert(coo, "csr"), np.ones(64), "k20")
        assert res.counters.index_bytes <= 2 * 128


class TestHYBCounters:
    def test_sum_of_parts_plus_two_launches(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 6, size=512)
        lengths[::64] = 60
        rows = np.repeat(np.arange(512), lengths)
        cols = np.concatenate(
            [np.sort(rng.choice(512, k, replace=False)) for k in lengths]
        )
        coo = COOMatrix(rows, cols, np.ones(rows.size), (512, 512))
        hyb = convert(coo, "hyb")
        assert hyb.coo.nnz > 0
        res = run_spmv(hyb, np.ones(512), "k20")
        assert res.counters.launches == 3  # ELL + COO main + COO carry
        ell_res = kernel_for("ellpack").run(hyb.ell, np.ones(512), TESLA_K20)
        assert res.counters.index_bytes > ell_res.counters.index_bytes

    def test_pure_ell_single_launch(self):
        coo = uniform_band(m=512, k=4)
        hyb = convert(coo, "hyb")
        assert hyb.coo.nnz == 0
        res = run_spmv(hyb, np.ones(512), "k20")
        assert res.counters.launches == 1


class TestSlicedELLCounters:
    def test_traffic_below_full_ellpack_on_variable_rows(self):
        rng = np.random.default_rng(1)
        lengths = np.where(np.arange(1024) < 512, 2, 20)
        rows = np.repeat(np.arange(1024), lengths)
        cols = np.concatenate(
            [np.sort(rng.choice(1024, k, replace=False)) for k in lengths]
        )
        coo = COOMatrix(rows, cols, np.ones(rows.size), (1024, 1024))
        x = np.ones(1024)
        full = run_spmv(convert(coo, "ellpack"), x, "k20")
        sliced = run_spmv(convert(coo, "sliced_ellpack", h=256), x, "k20")
        assert sliced.counters.value_bytes < full.counters.value_bytes
        assert sliced.counters.issued_flops < full.counters.issued_flops


class TestBROELLDetails:
    def test_stream_bytes_equal_symbol_loads(self):
        coo = uniform_band(m=512, k=8)
        bro = convert(coo, "bro_ell", h=128)
        res = run_spmv(bro, np.ones(512), "k20")
        # Every packed symbol is loaded exactly once, coalesced.
        assert res.counters.index_bytes >= bro.stream.nbytes
        # Transaction rounding can only add, never drop, bytes.
        assert res.counters.index_bytes <= 2 * bro.stream.nbytes + 4 * 128

    def test_x_gather_respects_validity(self):
        # A single valid entry per row: x traffic must be tiny even though
        # slices are padded to the max width.
        coo = COOMatrix(np.arange(256), np.zeros(256), np.ones(256), (256, 256))
        res = run_spmv(convert(coo, "bro_ell", h=64), np.ones(256), "k20")
        assert res.counters.x_bytes <= 64 * TESLA_K20.tex_line_bytes


def _with_spare_symbol_row(mat):
    """A copy of a BRO-ELL-family container whose last slice carries one
    symbol row (one symbol per thread) that no column ever loads."""
    import copy

    from repro.bitstream.multiplex import concat_slices

    edges = mat.chunk_edges if mat.format_name == "bro_sell" else mat.slice_edges
    h_last = int(edges[-1] - edges[-2])
    views = list(mat.stream)
    views[-1] = np.concatenate(
        [views[-1], np.zeros(h_last, dtype=views[-1].dtype)]
    )
    tampered = copy.copy(mat)
    tampered._stream = concat_slices(views, sym_len=mat.stream.sym_len)
    return tampered


class TestSpareSymbols:
    """Every BRO-ELL-family reference kernel walks the same stepwise
    decoder, so each rejects a slice stream with unread trailing symbols
    (the plan rejects it at build, from the stream length)."""

    @pytest.mark.parametrize("fmt", ["bro_ell", "bro_sell", "bro_ell_vc"])
    def test_reference_kernel_rejects_spare_symbols(self, fmt):
        coo = COOMatrix.from_dense(
            np.round(4 * np.random.default_rng(5).standard_normal((128, 128)))
            * (np.random.default_rng(6).random((128, 128)) < 0.05)
            / 4
        )
        tampered = _with_spare_symbol_row(convert(coo, fmt))
        x = np.ones(128)
        with pytest.raises(DecompressionError, match="not fully consumed"):
            run_spmv(tampered, x, "k20", policy=ExecutionPolicy(engine="reference"))
        with pytest.raises(ValidationError):
            run_spmv(tampered, x, "k20")
