"""Every simulated kernel must compute exactly the reference product."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats import convert
from repro.gpu.device import DEVICES
from repro.kernels import run_spmv
from repro.registry import kernel_for, kernel_formats
from tests.conftest import PAPER_A, random_coo

ALL_KERNELS = [
    "coo",
    "csr",
    "ellpack",
    "ellpack_r",
    "sliced_ellpack",
    "hyb",
    "bro_ell",
    "bro_coo",
    "bro_hyb",
]


class TestRegistry:
    def test_every_format_has_a_kernel(self):
        assert set(ALL_KERNELS) <= set(kernel_formats())

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            kernel_for("nope")

    def test_wrong_format_rejected(self, paper_matrix):
        with pytest.raises(KernelError, match="needs a"):
            kernel_for("ellpack").run(paper_matrix, np.ones(5), DEVICES["k20"])


class TestPaperExample:
    @pytest.mark.parametrize("fmt", ALL_KERNELS)
    def test_kernel_matches_dense(self, fmt, paper_matrix):
        kwargs = {"h": 2} if fmt in ("sliced_ellpack", "bro_ell", "bro_hyb") else {}
        mat = convert(paper_matrix, fmt, **kwargs)
        x = np.arange(1.0, 6.0)
        res = run_spmv(mat, x, "k20")
        np.testing.assert_allclose(res.y, PAPER_A @ x)


class TestRandomMatrices:
    @pytest.mark.parametrize("fmt", ALL_KERNELS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernel_matches_reference(self, fmt, seed):
        coo = random_coo(130, 110, density=0.05, seed=seed)
        kwargs = {"h": 32} if fmt in ("sliced_ellpack", "bro_ell", "bro_hyb") else {}
        mat = convert(coo, fmt, **kwargs)
        x = np.random.default_rng(seed + 100).standard_normal(110)
        res = run_spmv(mat, x, "c2070")
        np.testing.assert_allclose(res.y, coo.spmv(x), rtol=1e-10)

    @pytest.mark.parametrize("device", list(DEVICES))
    def test_result_independent_of_device(self, device):
        coo = random_coo(90, 90, density=0.06, seed=5)
        mat = convert(coo, "bro_ell", h=16)
        x = np.random.default_rng(6).standard_normal(90)
        res = run_spmv(mat, x, device)
        np.testing.assert_allclose(res.y, coo.spmv(x), rtol=1e-10)


class TestEdgeCases:
    def test_matrix_with_empty_rows(self):
        from repro.formats.coo import COOMatrix

        coo = COOMatrix([0, 7], [1, 2], [1.0, 2.0], (9, 4))
        x = np.ones(4)
        for fmt in ALL_KERNELS:
            kwargs = {"h": 4} if fmt in ("sliced_ellpack", "bro_ell", "bro_hyb") else {}
            res = run_spmv(convert(coo, fmt, **kwargs), x, "k20")
            np.testing.assert_allclose(res.y, coo.spmv(x))

    def test_single_entry_matrix(self):
        from repro.formats.coo import COOMatrix

        coo = COOMatrix([2], [3], [5.0], (4, 4))
        for fmt in ALL_KERNELS:
            res = run_spmv(convert(coo, fmt), np.ones(4), "gtx680")
            np.testing.assert_allclose(res.y, [0, 0, 5.0, 0])

    def test_dense_matrix(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((40, 24))
        from repro.formats.coo import COOMatrix

        coo = COOMatrix.from_dense(dense)
        x = rng.standard_normal(24)
        for fmt in ("ellpack", "bro_ell", "bro_coo"):
            res = run_spmv(convert(coo, fmt, **({"h": 8} if fmt == "bro_ell" else {})),
                           x, "k20")
            np.testing.assert_allclose(res.y, dense @ x, rtol=1e-10)

    def test_run_spmv_accepts_device_spec(self, paper_matrix):
        res = run_spmv(paper_matrix, np.ones(5), DEVICES["k20"])
        assert res.device is DEVICES["k20"]
