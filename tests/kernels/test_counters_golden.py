"""Golden ``KernelCounters`` for every plannable format on device ``k20``.

The traffic model (paper Eqn. 1) makes each format's counters a pure
function of the container's structure and the device. These values pin
every field, for all 15 plannable formats and three small seeded
matrices, so a refactor of the accounting cannot move a single byte
unnoticed. Both engines are checked: the stepwise reference kernel and
the prepared-plan replay (``engine="auto"``).

The matrices cover the structural corner cases of the model: a band of
empty rows, one dense row (with values on a quarter grid, so BRO-ELL-VC's
dictionary channel engages), and a handful of entries so sparse that the
HYB and BRO-HYB splits leave the ELL part empty.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro import registry
from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.gpu.counters import KernelCounters
from repro.kernels import plannable_formats, run_spmv
from tests.conftest import random_coo

FIELDS = tuple(f.name for f in fields(KernelCounters))


def _empty_rows() -> COOMatrix:
    a = random_coo(300, 260, density=0.03, seed=21)
    keep = (a.row_idx < 100) | (a.row_idx >= 140)
    return COOMatrix(a.row_idx[keep], a.col_idx[keep], a.vals[keep], a.shape)


def _dense_row() -> COOMatrix:
    a = random_coo(180, 200, density=0.04, seed=22)
    row = np.concatenate([a.row_idx, np.full(200, 57)])
    col = np.concatenate([a.col_idx, np.arange(200)])
    vals = np.round(4 * np.concatenate([a.vals, np.linspace(-2, 2, 200)])) / 4
    return COOMatrix(row, col, vals, a.shape)


def _sparse_tail() -> COOMatrix:
    return COOMatrix(
        [3, 3, 9, 40, 41], [0, 5, 7, 2, 60], [1.0, 2.0, 3.0, 4.0, 5.0], (64, 64)
    )


MATRICES = {
    "empty_rows": _empty_rows,
    "dense_row": _dense_row,
    "sparse_tail": _sparse_tail,
}

#: (matrix, format) -> counters in ``FIELDS`` order.
GOLDEN = {
    ('empty_rows', 'bellpack'): (16384, 233472, 2080, 2432, 400, 4058, 57600, 0, 1, 512, 0),
    ('empty_rows', 'bro_coo'): (10240, 16384, 16256, 4336, 8, 4058, 14336, 14336, 2, 256, 0),
    ('empty_rows', 'bro_ell'): (4352, 35072, 10304, 2432, 93, 4058, 4058, 30704, 1, 320, 0),
    ('empty_rows', 'bro_ell_mt'): (4864, 31232, 18528, 2432, 112, 4058, 4358, 31008, 1, 640, 0),
    ('empty_rows', 'bro_ell_vc'): (4352, 35072, 10304, 2432, 93, 4058, 4058, 30704, 1, 320, 0),
    ('empty_rows', 'bro_hyb'): (4480, 24320, 11264, 3532, 66, 4058, 4870, 20760, 3, 320, 0),
    ('empty_rows', 'bro_sell'): (3200, 23296, 17408, 2432, 1411, 4058, 4058, 19792, 1, 320, 0),
    ('empty_rows', 'cmrs'): (16384, 16256, 52704, 4160, 600, 4058, 18778, 4058, 1, 2560, 0),
    ('empty_rows', 'coo'): (16384, 16384, 16256, 4336, 0, 4058, 14336, 0, 2, 256, 0),
    ('empty_rows', 'csr'): (65536, 64896, 62816, 2432, 1280, 4058, 52058, 0, 1, 9728, 0),
    ('empty_rows', 'ellpack'): (21760, 41344, 4160, 2432, 0, 4058, 10200, 0, 1, 512, 0),
    ('empty_rows', 'ellpack_r'): (17536, 35072, 4160, 2432, 1280, 4058, 4058, 0, 1, 512, 0),
    ('empty_rows', 'hyb'): (12800, 23168, 5120, 3532, 0, 4058, 6520, 0, 3, 512, 0),
    ('empty_rows', 'sell_c_sigma'): (11648, 22528, 17440, 2432, 1364, 4058, 5584, 0, 1, 320, 0),
    ('empty_rows', 'sliced_ellpack'): (18688, 35840, 10304, 2432, 20, 4058, 8864, 0, 1, 320, 0),
    ('dense_row', 'bellpack'): (17152, 291584, 1600, 1536, 240, 2928, 72360, 0, 1, 256, 0),
    ('dense_row', 'bro_coo'): (7936, 12800, 10528, 3060, 7, 3192, 11200, 11136, 2, 224, 0),
    ('dense_row', 'bro_ell'): (3840, 69632, 4800, 1536, 241, 3192, 3192, 90624, 1, 192, 0),
    ('dense_row', 'bro_ell_mt'): (4608, 45056, 9440, 1536, 161, 3192, 3372, 56160, 1, 384, 0),
    ('dense_row', 'bro_ell_vc'): (3840, 10152, 4800, 1536, 241, 3192, 3192, 177552, 1, 192, 0),
    ('dense_row', 'bro_hyb'): (3200, 16384, 7040, 2328, 41, 3192, 4808, 13464, 3, 192, 0),
    ('dense_row', 'bro_sell'): (2688, 62464, 9280, 1536, 1036, 3192, 3192, 49008, 1, 192, 0),
    ('dense_row', 'cmrs'): (12800, 12800, 34464, 2880, 360, 3192, 14072, 3192, 1, 1536, 0),
    ('dense_row', 'coo'): (12800, 12800, 10528, 3060, 0, 3192, 11200, 0, 2, 224, 0),
    ('dense_row', 'csr'): (46080, 46208, 44032, 1536, 768, 3192, 31992, 0, 1, 5888, 0),
    ('dense_row', 'ellpack'): (153600, 307200, 1600, 1536, 0, 3192, 72000, 0, 1, 256, 0),
    ('dense_row', 'ellpack_r'): (34816, 69632, 1600, 1536, 768, 3192, 3192, 0, 1, 256, 0),
    ('dense_row', 'hyb'): (9472, 16384, 3840, 2328, 0, 3192, 5480, 0, 3, 256, 0),
    ('dense_row', 'sell_c_sigma'): (31232, 62464, 9280, 1536, 820, 3192, 15472, 0, 1, 192, 0),
    ('dense_row', 'sliced_ellpack'): (58624, 117248, 4800, 1536, 12, 3192, 28976, 0, 1, 192, 0),
    ('sparse_tail', 'bellpack'): (256, 3328, 96, 512, 88, 10, 792, 0, 1, 256, 0),
    ('sparse_tail', 'bro_coo'): (256, 256, 96, 76, 1, 10, 224, 320, 2, 32, 0),
    ('sparse_tail', 'bro_ell'): (256, 768, 96, 512, 6, 10, 10, 1024, 1, 64, 0),
    ('sparse_tail', 'bro_ell_mt'): (512, 512, 128, 512, 10, 10, 74, 1280, 1, 128, 0),
    ('sparse_tail', 'bro_ell_vc'): (256, 304, 96, 512, 6, 10, 10, 1792, 1, 64, 0),
    ('sparse_tail', 'bro_hyb'): (256, 256, 96, 76, 1, 10, 224, 320, 2, 32, 0),
    ('sparse_tail', 'bro_sell'): (128, 512, 96, 512, 266, 10, 10, 512, 1, 64, 0),
    ('sparse_tail', 'cmrs'): (256, 128, 160, 64, 128, 10, 490, 10, 1, 512, 0),
    ('sparse_tail', 'coo'): (256, 256, 96, 76, 0, 10, 224, 0, 2, 32, 0),
    ('sparse_tail', 'csr'): (896, 896, 160, 512, 384, 10, 10250, 0, 1, 2048, 0),
    ('sparse_tail', 'ellpack'): (512, 1024, 96, 512, 0, 10, 256, 0, 1, 256, 0),
    ('sparse_tail', 'ellpack_r'): (384, 768, 96, 512, 256, 10, 10, 0, 1, 256, 0),
    ('sparse_tail', 'hyb'): (256, 256, 96, 76, 0, 10, 224, 0, 2, 32, 0),
    ('sparse_tail', 'sell_c_sigma'): (256, 512, 96, 512, 276, 10, 128, 0, 1, 64, 0),
    ('sparse_tail', 'sliced_ellpack'): (512, 1024, 96, 512, 4, 10, 256, 0, 1, 64, 0),
}


def _matrix(name: str, fmt: str):
    kwargs = {"h": 64} if registry.get_spec(fmt).accepts("h") else {}
    return convert(MATRICES[name](), fmt, **kwargs)


def test_golden_covers_every_plannable_format():
    assert {fmt for _, fmt in GOLDEN} == set(plannable_formats())
    assert len(GOLDEN) == len(MATRICES) * len(plannable_formats())


@pytest.mark.parametrize("engine", ["reference", "auto"])
@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_counters_match_golden(name, fmt, engine):
    mat = _matrix(name, fmt)
    x = np.ones(mat.shape[1])
    c = run_spmv(mat, x, "k20", policy=ExecutionPolicy(engine=engine)).counters
    assert dict(zip(FIELDS, (int(getattr(c, f)) for f in FIELDS))) == dict(
        zip(FIELDS, GOLDEN[(name, fmt)])
    )
