"""Adversarial equivalence of the jagged replay.

Every plannable format's plan replays width-sorted, column-major lane
arrays: one gather-multiply-prefix-add per ELL column, masked lanes (and
BELLPACK's zero-padded ``x`` tail) gathering a zero slot appended to
``x``. Entry-list formats (coo, bro_coo, cmrs, csr) are lowered as rows
grouped by length, each row keeping its stored entry order; hyb and
bro_hyb sum part plans, bro_ell_mt folds one. The generator below aims
at what that layout and those lowerings can get wrong:

* slice widths and row lengths that differ widely — empty slices, an
  all-empty matrix, one dense row among empty ones — so the per-column
  prefix counts and the stable width sort matter;
* ``n = 1``, non-square shapes, slice heights ``h >= m`` and BELLPACK
  blocks that do not divide ``n``;
* ``x`` holding ``inf``, ``nan``, ``-0.0`` and ``+0.0``, and explicit
  ``±0.0`` matrix values, where a dropped or reordered ``+0.0`` add
  or a masked ``0 * inf`` would show in the bits (BRO-COO's phantom
  padding must still turn ``x[0] = inf`` into NaN);
* stored COO entries that are unsorted and hold a duplicated ``(r, c)``,
  where the reference scatter adds in stored order.

For each format the plan's ``y`` bits must equal the stepwise reference
kernel's, every SpMM column (k = 1, 3, 8) must equal the single-vector
replay, the interpreted twin of the compiled loop must agree, and the
``KernelCounters`` must equal the reference engine's. The whole
differential runs twice, with the same budget: on the numpy jagged
replay and on SciPy's CSR row loops (the ``"scipy"`` executor, skipped
where the host refuses it). The ``@example``
cases are committed regressions and named edge shapes; Hypothesis
explores around them with a bounded budget.

"Bits" means every bit of every non-NaN element (so ``-0.0``/``+0.0``
and ``±inf`` are told apart) and NaN exactly where the other side has
NaN. When an add meets two NaNs (say ``inf - inf`` and a NaN from
``x``), IEEE 754 leaves the result's sign and payload open, and NumPy's
choice depends on the element's position in the array (SIMD body or
scalar tail), not on the operation order: the parent's per-slice SpMM
columns already differed from its own SpMV there.
"""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.exec.policy import ExecutionPolicy
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.gpu.device import get_device
from repro.kernels import prepare, run_spmm, run_spmv
from repro.kernels.plan import JaggedELLPlan
from repro.registry import planner_for
from tests.conftest import requires_scipy_executor

_REF = ExecutionPolicy(engine="reference")

FORMATS = ("bro_ell", "bro_ell_vc", "bro_sell", "sliced_ellpack",
           "sell_c_sigma", "bro_hyb", "coo", "bro_coo", "cmrs", "csr",
           "ellpack", "ellpack_r", "bellpack", "hyb", "bro_ell_mt")

SPECIALS = (np.inf, -np.inf, np.nan, -0.0, 0.0)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_same(a: np.ndarray, b: np.ndarray, label) -> None:
    """Equal bits off NaN, NaN in the same places (see module docstring)."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b)), label
    assert np.array_equal(_bits(a[~nan]), _bits(b[~nan])), label


def _case(rows, shape, h, sigma=1, x=None):
    """An explicit case: ``rows`` maps row -> [(col, val), ...]."""
    entries = [(r, c, v) for r, cols in rows.items() for c, v in cols]
    r, c, v = (zip(*entries) if entries else ((), (), ()))
    coo = COOMatrix(np.array(r, dtype=np.int64), np.array(c, dtype=np.int64),
                    np.array(v, dtype=np.float64), shape)
    if x is None:
        x = np.arange(1.0, shape[1] + 1.0)
    return coo, h, sigma, np.asarray(x, dtype=np.float64)


@st.composite
def jagged_cases(draw, max_dim=36):
    """(coo, h, sigma, x) with deliberately uneven row lengths."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    kinds = draw(st.lists(st.sampled_from(("empty", "short", "long", "dense")),
                          min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols, vals = [], [], []
    for r, kind in enumerate(kinds):
        length = {"empty": 0, "short": min(2, n), "dense": n,
                  "long": int(rng.integers(1, n + 1))}[kind]
        rows += [r] * length
        cols += rng.choice(n, size=length, replace=False).tolist()
        v = rng.standard_normal(length)
        v[rng.random(length) < 0.1] = 0.0
        v[rng.random(length) < 0.1] = -0.0
        vals += v.tolist()
    coo = COOMatrix(np.array(rows, dtype=np.int64),
                    np.array(cols, dtype=np.int64),
                    np.array(vals, dtype=np.float64), (m, n))
    h = draw(st.sampled_from((1, 2, 3, 8, 64)))
    sigma = draw(st.sampled_from((1, 4, 128)))
    x = draw(st.lists(st.one_of(st.sampled_from(SPECIALS),
                                st.floats(-1e3, 1e3)),
                      min_size=n, max_size=n))
    return coo, h, sigma, np.array(x, dtype=np.float64)


def _convert(coo, fmt, h, sigma):
    if fmt in ("sell_c_sigma", "bro_sell"):
        return convert(coo, fmt, c=min(h, coo.shape[0]), sigma=sigma)
    if fmt == "bellpack":
        # c = 3 leaves n % c != 0 for most drawn n.
        return convert(coo, fmt, r=min(h, 4), c=min(sigma, 3))
    if fmt == "cmrs":
        return convert(coo, fmt, height=h)
    if fmt in ("coo", "bro_coo", "csr", "ellpack", "ellpack_r", "hyb"):
        return convert(coo, fmt)
    return convert(coo, fmt, h=h)


def _block(x, k):
    """``k`` columns: x itself, then rolls and sign flips of it."""
    cols = [x] + [np.roll(x, j) * (-1.0) ** j for j in range(1, k)]
    return np.stack(cols, axis=1)


def _check_format(coo, fmt, h, sigma, x, executor="numpy"):
    _check_matrix(_convert(coo, fmt, h, sigma), x, executor)


def _check_matrix(mat, x, executor="numpy"):
    fmt = mat.format_name
    ref = run_spmv(mat, x, "k20", policy=_REF)
    plan = prepare(mat, "k20", backend=executor)
    fast = plan.execute(x)
    _assert_same(fast.y, ref.y, fmt)
    assert fast.counters == ref.counters, fmt

    for k in (1, 3, 8):
        X = _block(x, k)
        many = plan.execute_many(X)
        for j in range(k):
            _assert_same(many.y[:, j], plan.execute(X[:, j]).y, (fmt, k, j))
        assert many.counters == run_spmm(mat, X, "k20", policy=_REF).counters

    # The compiled loop's interpreted twin (what Numba compiles) agrees:
    # without Numba, a plan built for "jit" runs it.
    jit = planner_for(fmt)(mat, get_device("k20"), "jit")
    _assert_same(jit.execute(x).y, fast.y, (fmt, "jit"))
    X = _block(x, 3)
    many = jit.execute_many(X).y
    for j in range(3):
        _assert_same(many[:, j], jit.execute(X[:, j]).y, (fmt, "jit", j))


def _differential(executor):
    """The Hypothesis differential, replaying on ``executor``."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @given(case=jagged_cases())
    @settings(max_examples=25, deadline=None)
    # All-empty matrix: no slice has a column, y is all +0.0.
    @example(case=_case({}, (5, 4), h=2, x=[np.nan, np.inf, -0.0, 1.0]))
    # n = 1, one empty slice between two non-empty ones.
    @example(case=_case({0: [(0, 2.0)], 3: [(0, -0.0)]}, (4, 1), h=1,
                        x=[np.inf]))
    # One dense row among empty rows; h >= m; non-square.
    @example(case=_case({2: [(c, 1.0 + c) for c in range(7)]}, (3, 7), h=64,
                        x=[-0.0, 0.0, np.inf, 1.0, np.nan, -2.0, 3.0]))
    # Narrow slice before a wide one: the width sort must be stable and
    # the narrow slice's rows must still get their own lanes only.
    @example(case=_case({0: [(1, 1.0)], 2: [(0, 1.0), (1, -1.0), (2, 0.5)]},
                        (4, 3), h=2, sigma=1, x=[np.inf, -0.0, 2.0]))
    # Shrunk from a failure of a bit-for-bit NaN comparison: inf - inf meets
    # the NaN from x in one row, and which NaN survives depends on where the
    # row sits in the arrays NumPy adds (see module docstring).
    @example(case=_case({0: [(0, 1.0), (1, -1.0), (2, 1.0)]}, (1, 3), h=1,
                        x=[np.inf, np.inf, np.nan]))
    # A row whose only products are -0.0 (stored -0.0, and x = -0.0): its
    # sum is +0.0, never -0.0.
    @example(case=_case({0: [(0, 1.0), (1, -0.0)], 1: [(1, 2.0)]}, (2, 2),
                        h=2, x=[-0.0, 3.0]))
    # BRO-COO pads its intervals with phantom (row, col 0, 0.0) entries;
    # x[0] = inf turns their rows NaN in the reference scatter too.
    @example(case=_case({0: [(1, 1.0)], 2: [(2, 1.0)]}, (3, 3), h=1,
                        x=[np.inf, 1.0, 2.0]))
    # BELLPACK with n % c != 0: the last block column reads x's zero padding.
    @example(case=_case({0: [(6, 2.0)], 4: [(5, -1.0), (6, 1.0)]}, (5, 7),
                        h=2, sigma=4, x=[1.0, 2.0, 3.0, 4.0, 5.0, np.inf, -0.0]))
    def test(fmt, case):
        coo, h, sigma, x = case
        _check_format(coo, fmt, h, sigma, x, executor)

    return test


test_jagged_replay_matches_reference = _differential("numpy")
test_jagged_replay_matches_reference_on_scipy = requires_scipy_executor(
    _differential("scipy"))


def _leaves(plan):
    """The plan's :class:`JaggedELLPlan` leaves (parts, folded inner)."""
    if isinstance(plan, JaggedELLPlan):
        return [plan]
    return [leaf for child in plan._children() for leaf in _leaves(child)]


def _no_op_lanes(leaf) -> int:
    """Lanes that gather the zero slot with a ``+0.0`` value."""
    n = leaf.matrix.shape[1]
    return int(np.count_nonzero(
        (leaf._gather == n) & (leaf._vals.view(np.uint64) == 0)))


def _lane_bytes(plan) -> int:
    """Bytes of the plan's lane arrays (``_gather`` and ``_vals``)."""
    return sum(a.nbytes for name, a in plan.replay_arrays().items()
               if name.endswith(("_gather", "_vals")))


def _check_reference_bits(mat, plan, x, label):
    ref = run_spmv(mat, x, "k20", policy=_REF).y
    _assert_same(plan.execute(x).y, ref, (label, "spmv"))
    X = _block(x, 3)
    ref = run_spmm(mat, X, "k20", policy=_REF).y
    _assert_same(plan.execute_many(X).y, ref, (label, "spmm"))


@requires_scipy_executor
@pytest.mark.parametrize("fmt", FORMATS)
@seed(20240)
@given(case=jagged_cases())
@settings(max_examples=20, deadline=None)
# BRO-ELL slices with masked lanes: one long row among short ones.
@example(case=_case({0: [(c, 1.0 + c) for c in range(6)], 1: [(2, -0.0)],
                     3: [(5, 2.0)]}, (4, 6), h=4))
def test_row_major_layout_drops_no_op_lanes(fmt, case):
    """A plan built for scipy keeps only the lanes that can change ``y``,
    and still gives the reference engine's bits."""
    coo, h, sigma, x = case
    x = x.copy()
    specials = (np.nan, np.inf, -np.inf, -0.0)
    x[: len(specials)] = specials[: x.shape[0]]
    mat = _convert(coo, fmt, h, sigma)
    jagged = prepare(mat, "k20", backend="numpy")
    dropped = sum(_no_op_lanes(leaf) for leaf in _leaves(jagged))
    plan = prepare(mat, "k20", backend="scipy")
    assert all(_no_op_lanes(leaf) == 0 for leaf in _leaves(plan))
    # Exactly the no-op lanes of the jagged plan are gone, and the lane
    # arrays shrink only when some were there.
    assert (sum(leaf._vals.size for leaf in _leaves(plan))
            == sum(leaf._vals.size for leaf in _leaves(jagged)) - dropped)
    assert _lane_bytes(plan) <= _lane_bytes(jagged)
    assert (_lane_bytes(plan) < _lane_bytes(jagged)) == (dropped > 0)
    plan.verify_arrays()
    plan.verify_bounds()
    _check_reference_bits(mat, plan, x, fmt)


def _unsorted_duplicates():
    """Stored COO entries out of row order, with a repeated ``(r, c)``."""
    coo = _case({r: [(0, 1.0), (1, 1.0)] for r in range(3)}, (3, 4), h=1)[0]
    coo.row_idx[:] = [2, 0, 2, 1, 0, 2]
    coo.col_idx[:] = [3, 1, 3, 0, 1, 2]
    coo.vals[:] = [1e16, 1.0, -1e16, 2.0, -0.0, 1.0]
    return coo, np.array([0.5, -0.0, 7.0, 1.0])


def test_unsorted_coo_with_duplicate_entries():
    """Stored COO entries out of row order, with a repeated ``(r, c)``:
    the stable row sort must keep each row's stored order, which is the
    order the reference ``np.add.at`` scatter adds in."""
    coo, x = _unsorted_duplicates()
    _check_matrix(coo, x)
    # Stored order gives 1e16 - 1e16 + 7; column order would lose the 7.
    assert prepare(coo, "k20").execute(x).y[2] == 7.0


@requires_scipy_executor
def test_unsorted_coo_with_duplicate_entries_on_scipy():
    """The same stored order survives the row-major (CSR) lane layout."""
    coo, x = _unsorted_duplicates()
    _check_matrix(coo, x, "scipy")
    assert prepare(coo, "k20", backend="scipy").execute(x).y[2] == 7.0


def test_corrupt_column_index_is_rejected_at_build():
    """An out-of-range stored index fails the build instead of reading
    (or, compiled, silently gathering) past the end of ``x``."""
    coo, _, _, _ = _case({0: [(0, 1.0)], 1: [(2, 2.0)]}, (2, 3), h=2)
    mat = convert(coo, "sliced_ellpack", h=2)
    cols, _ = mat.slice_block(0)  # a view of the stored index array
    cols[cols == 2] = 3
    with pytest.raises(IndexError, match="out of range"):
        prepare(mat, "k20")



def _stored_columns(mat):
    """The stored column-index array each lowering gathers through."""
    attr = {"csr": "indices", "bellpack": "block_col_idx"}
    return getattr(mat, attr.get(mat.format_name, "col_idx"))


@pytest.mark.parametrize("fmt,bad", [
    ("coo", -1), ("bro_coo", 3), ("cmrs", 9), ("csr", -1),
    ("ellpack", 3), ("ellpack_r", -1), ("bellpack", 2),
])
def test_corrupt_stored_column_is_rejected_at_build(fmt, bad):
    """A negative or out-of-range stored column (a BELLPACK block column
    past the zero-padded ``x``) fails the build with IndexError."""
    coo, _, _, _ = _case({0: [(0, 1.0)], 1: [(2, 2.0)]}, (2, 3), h=2)
    mat = convert(coo, fmt, **({"r": 1, "c": 2} if fmt == "bellpack" else {}))
    cols = _stored_columns(mat)  # a view of the stored index array
    cols.reshape(-1)[0] = bad
    with pytest.raises(IndexError, match="out of range"):
        prepare(mat, "k20")


@pytest.mark.parametrize("bad", [[0, 0, 2], [0, 1, 3]])
def test_corrupt_row_permutation_is_rejected_at_build(bad):
    """A SELL-C-sigma ``row_ids`` table mutated after construction into a
    repeated or out-of-range row fails the build: the row-major lane
    layout needs every output row at most once."""
    coo, _, _, _ = _case({0: [(0, 1.0)], 1: [(1, 2.0)], 2: [(2, 3.0)]},
                         (3, 3), h=1)
    mat = convert(coo, "sell_c_sigma", c=1, sigma=1)
    mat.row_ids[:] = bad  # the stored table, not a copy
    with pytest.raises(IndexError, match="out of range or repeated"):
        prepare(mat, "k20")
