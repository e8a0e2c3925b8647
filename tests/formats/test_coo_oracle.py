"""``COOMatrix`` pinned to the constructor it replaced.

``_coo_oracle`` keeps the previous ``lexsort`` constructor verbatim. The
one-key constructor must store the same bytes and dtypes on every input,
including duplicate runs whose float sum depends on their order, and
must reject duplicates under ``sum_duplicates=False`` on the same inputs.
"""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.coo import COOMatrix

from ._coo_oracle import coo_arrays

BIG = 2**31 - 1


def _shuffled(seed, m=300, n=200, nnz=4000):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, m, nnz), rng.integers(0, n, nnz),
            rng.standard_normal(nnz), (m, n))


def _sorted(seed):
    rows, cols, vals, shape = _shuffled(seed)
    key = rows * shape[1] + cols
    order = np.argsort(key, kind="stable")
    return rows[order], cols[order], vals[order], shape


def _reversed(seed):
    rows, cols, vals, shape = _sorted(seed)
    return rows[::-1], cols[::-1], vals[::-1], shape


def _two_runs(seed):
    # Two sorted runs back to back, as BRO-HYB concatenates its parts.
    a, b = _sorted(seed), _sorted(seed + 1)
    return (np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]),
            np.concatenate([a[2], b[2]]), a[3])


def _order_dependent_sums(seed):
    # Each run sums to 0.0 or 1.0 depending on the order it is added in.
    rng = np.random.default_rng(seed)
    rows = np.repeat(rng.permutation(50)[:20], 3)
    cols = np.repeat(rng.integers(0, 40, 20), 3)
    vals = np.tile([1e16, 1.0, -1e16], 20)
    order = rng.permutation(rows.size)
    return rows[order], cols[order], vals[order], (50, 40)


CASES = {
    "unsorted": lambda: _shuffled(0),
    "unsorted-int32": lambda: tuple(
        a.astype(np.int32) if i < 2 else a for i, a in enumerate(_shuffled(1))),
    "sorted": lambda: _sorted(2),
    "reversed": lambda: _reversed(3),
    "two-sorted-runs": lambda: _two_runs(4),
    "order-dependent-duplicates": lambda: _order_dependent_sums(5),
    "sorted-duplicates": lambda: ([0, 0, 0, 1], [2, 2, 2, 0],
                                  [1e16, 1.0, -1e16, 3.0], (2, 3)),
    "empty": lambda: (np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0), (4, 4)),
    "one-entry": lambda: ([3], [1], [2.5], (4, 2)),
    "int32-bounds": lambda: ([BIG - 1, 0, BIG - 1, 5, 0],
                             [BIG - 1, BIG - 1, 0, 7, 0],
                             [1.0, 2.0, 3.0, 4.0, 5.0], (BIG, BIG)),
    "int32-bounds-duplicates": lambda: ([BIG - 1, 0, BIG - 1],
                                        [BIG - 1, 3, BIG - 1],
                                        [1e16, 1.0, -1e16], (BIG, BIG)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_match_oracle(case):
    rows, cols, vals, shape = CASES[case]()
    got = COOMatrix(rows, cols, vals, shape)
    want = coo_arrays(rows, cols, vals, shape)
    for name, w in zip(("row_idx", "col_idx", "vals"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name
    assert got.shape == want[3]


@pytest.mark.parametrize("case", sorted(CASES))
def test_duplicates_rejected_like_oracle(case):
    rows, cols, vals, shape = CASES[case]()
    try:
        coo_arrays(rows, cols, vals, shape, sum_duplicates=False)
    except FormatError:
        with pytest.raises(FormatError):
            COOMatrix(rows, cols, vals, shape, sum_duplicates=False)
    else:
        COOMatrix(rows, cols, vals, shape, sum_duplicates=False)


def test_duplicate_cases_do_reject():
    # The rejection test above is not vacuous: these inputs repeat keys.
    for case in ("unsorted", "order-dependent-duplicates", "sorted-duplicates",
                 "int32-bounds-duplicates"):
        with pytest.raises(FormatError):
            coo_arrays(*CASES[case]()[:4], sum_duplicates=False)


def test_input_arrays_are_not_aliased():
    rows, cols, vals, shape = _sorted(6)
    coo = COOMatrix(rows, cols, vals, shape)
    vals[:] = 0.0
    assert np.any(coo.vals != 0.0)
