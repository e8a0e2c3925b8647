"""``partition`` and ``model_comms`` pinned to the code they replaced.

``_partition_oracle`` keeps the previous ``partition``,
``partition_bounds`` and ``model_comms`` verbatim. The partitioner now
decodes its source once and records each shard's distinct columns, and
the comms model reads those instead of decoding every shard; bounds,
shard bytes and reports must not change, and a ``.brx`` round trip (no
recorded columns) must give the same report as a fresh partition.
"""

import numpy as np
import pytest

from repro.exec.comms import model_comms
from repro.exec.partition import partition, partition_bounds
from repro.formats.conversion import convert
from repro.formats.coo import COOMatrix
from repro.gpu.device import get_device
from repro.matrices.suite import generate
from repro.serialize import load_container, save_container

from . import _partition_oracle as oracle

FORMATS = ("bro_hyb", "bro_ell", "csr", "coo")
PARTITIONERS = ("contiguous", "greedy-nnz", "slice-aligned")
K20 = get_device("k20")


def _source():
    # A suite matrix with a few empty rows and one long row added, so the
    # shards differ in length and greedy-nnz moves off the even split.
    base = generate("cop20k_A", scale=0.02)
    keep = base.row_idx % 97 != 5
    rows = np.concatenate([base.row_idx[keep], np.full(300, 7)])
    cols = np.concatenate([base.col_idx[keep], np.arange(300) * 3])
    vals = np.concatenate([base.vals[keep], np.linspace(-1.0, 1.0, 300)])
    return COOMatrix(rows, cols, vals, base.shape)


@pytest.fixture(scope="module")
def sources():
    coo = _source()
    return {fmt: convert(coo, fmt, h=64) if fmt.startswith("bro") else
            convert(coo, fmt) for fmt in FORMATS}


def assert_same_state(a, b):
    meta_a, arrays_a = a.to_state()
    meta_b, arrays_b = b.to_state()
    assert meta_a == meta_b
    assert sorted(arrays_a) == sorted(arrays_b)
    for name in arrays_a:
        assert arrays_a[name].dtype == arrays_b[name].dtype, name
        assert arrays_a[name].tobytes() == arrays_b[name].tobytes(), name


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("devices", [2, 3, 4])
@pytest.mark.parametrize("fmt", FORMATS)
def test_partition_matches_oracle(sources, fmt, devices, partitioner):
    matrix = sources[fmt]
    want = oracle.partition(matrix, devices, partitioner)
    got = partition(matrix, devices, partitioner)
    assert got.bounds.tobytes() == want.bounds.tobytes()
    assert (partition_bounds(matrix, devices, partitioner).tobytes()
            == oracle.partition_bounds(matrix, devices, partitioner).tobytes())
    assert_same_state(got, want)
    for strategy in ("auto", "broadcast", "halo"):
        assert (model_comms(got, K20, strategy)
                == oracle.model_comms(want, K20, strategy))


@pytest.mark.parametrize("fmt", FORMATS)
def test_comms_survive_a_brx_round_trip(sources, fmt, tmp_path):
    fresh = partition(sources[fmt], 3, "greedy-nnz")
    path = tmp_path / "sharded.brx"
    save_container(fresh, path)
    loaded = load_container(path)
    assert loaded._columns is None  # nothing recorded: decoded on first use
    for strategy in ("auto", "broadcast", "halo"):
        assert model_comms(loaded, K20, strategy) == model_comms(
            fresh, K20, strategy)
    for a, b in zip(loaded.shard_columns(), fresh.shard_columns()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_recorded_columns_are_each_shards_distinct_columns(sources):
    sharded = partition(sources["bro_hyb"], 4, "greedy-nnz")
    for shard, cols in zip(sharded.shards, sharded.shard_columns()):
        assert np.array_equal(cols, np.unique(shard.to_coo().col_idx))
