"""The generators' window sampler pinned to the sampler it replaced.

``_window_oracle`` keeps the previous full-argsort ``_window_sample``
verbatim. The partial-sort sampler must give the same positions and
leave the random stream in the same state, so every suite matrix built
on it keeps its exact bytes.
"""

import numpy as np
import pytest

from repro.matrices import generators
from repro.matrices.suite import TABLE2, generate

from ._window_oracle import _window_sample as oracle_window_sample


def assert_same_coo(a, b):
    assert a.shape == b.shape
    for name in ("row_idx", "col_idx", "vals"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("scale", [0.01, 0.02])
@pytest.mark.parametrize("name", sorted(TABLE2))
def test_suite_matrix_matches_oracle(name, scale, monkeypatch):
    got = generate(name, scale)
    monkeypatch.setattr(generators, "_window_sample", oracle_window_sample)
    want = generate(name, scale)
    assert_same_coo(got, want)


@pytest.mark.parametrize(
    "lengths, domain, window",
    [
        ([3, 1, 4, 1, 5], 1000, 20),  # L < width: partial sort
        ([41, 41, 2], 1000, 20),  # L == width (2 * window + 1)
        ([9, 2, 9], 9, 20),  # width clipped to the domain, L == width
        ([12, 30, 7], 25, 3),  # L > window width: width grows to L
        ([0, 0, 0], 100, 5),  # nothing sampled
        ([0, 6, 0], 100, 5),
    ],
)
def test_window_sample_matches_oracle(lengths, domain, window):
    lengths = np.asarray(lengths, dtype=np.int64)
    centers = np.linspace(0, domain - 1, lengths.size).astype(np.int64)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    sel_a, pos_a = generators._window_sample(centers, lengths, domain, window, rng_a)
    sel_b, pos_b = oracle_window_sample(centers, lengths, domain, window, rng_b)
    assert sel_a.tobytes() == sel_b.tobytes()
    assert pos_a.tobytes() == pos_b.tobytes()
    # Same draws consumed: the values drawn next are the same too.
    assert rng_a.random() == rng_b.random()


def test_empty_chunk():
    empty = np.zeros(0, np.int64)
    sel, pos = generators._window_sample(
        empty, empty, 10, 2, np.random.default_rng(0)
    )
    assert sel.size == pos.size == 0
