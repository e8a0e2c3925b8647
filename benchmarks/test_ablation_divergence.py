"""Design-choice ablation: why bit widths per COLUMN of a slice?

The paper's Section 3 argues CPU compression schemes "cannot be directly
applied on GPUs" (divergence, uncoalesced access) and picks one shared
width per slice column. This ablation prices the alternatives on real
suite matrices:

* **per-column** (the paper): provably divergence-free (all lanes consume
  the same bits per iteration) and coalesced by construction;
* **per-row** (`RowwiseBROELL`): each row at its own width — a quarter of
  warp iterations diverge, loads scatter, and compression is *worse*
  because one wide first delta poisons the row's entire stream;
* **per-entry varint** (the CPU-scheme limit, computed analytically as a
  4-bit-nibble continuation code): the best compression, but every lane
  consumes a data-dependent bit count every iteration — the maximally
  divergent design the paper rejects.
"""

import numpy as np
from conftest import save_table

from repro.bench.harness import bench_scale, cached_matrix
from repro.core.bro_ell import BROELLMatrix
from repro.core.delta import delta_encode_columns
from repro.core.rowwise_codec import RowwiseBROELL
from repro.formats.ellpack import ellpack_arrays_from_coo
from repro.utils.bits import bit_width_array

COLUMNS = [
    "matrix",
    "bytes_per_column", "bytes_per_row", "bytes_varint",
    "divergent_iter_pct", "mean_load_offsets",
]


def varint_bytes(coo) -> int:
    """Size of a 4-bit-nibble continuation varint over the delta stream."""
    col_idx, _v, stored = ellpack_arrays_from_coo(coo)
    valid = np.arange(col_idx.shape[1])[None, :] < stored[:, None]
    deltas = delta_encode_columns(col_idx, valid)[valid]
    bits = bit_width_array(deltas)
    nibbles = np.maximum(1, -(-bits // 3))  # 3 payload bits + 1 continuation
    return int(nibbles.sum() * 4 // 8)


def test_ablation_divergence(benchmark):
    scale = bench_scale()
    rows = []
    for name in ("lhr71", "venkat01", "stomach"):
        coo = cached_matrix(name, scale)
        per_col = BROELLMatrix.from_coo(coo, h=256)
        per_row = RowwiseBROELL.from_coo(coo, h=256)
        # Exact round trip on the canonical (row-sorted) COO arrays: no
        # dense copies, which for stomach are two ~1.3 GB matrices at
        # the default scale.
        decoded = per_row.to_coo()
        assert decoded.shape == coo.shape
        assert np.array_equal(decoded.row_idx, coo.row_idx)
        assert np.array_equal(decoded.col_idx, coo.col_idx)
        assert decoded.vals.tobytes() == coo.vals.tobytes()
        profile = per_row.divergence_profile()
        rows.append(
            {
                "matrix": name,
                "bytes_per_column": per_col.device_bytes()["index"],
                "bytes_per_row": per_row.device_bytes()["index"],
                "bytes_varint": varint_bytes(coo),
                "divergent_iter_pct": 100.0 * profile["divergent_fraction"],
                "mean_load_offsets": profile["mean_distinct_offsets"],
            }
        )
    save_table("ablation_divergence", rows, COLUMNS,
               "Ablation: per-column vs per-row vs per-entry index coding")

    for r in rows:
        # Per-column beats per-row on compression too (the wide first
        # delta poisons a whole per-row stream)...
        assert r["bytes_per_column"] < r["bytes_per_row"], r["matrix"]
        # ...while per-entry varints compress best of all (why CPU papers
        # use them) but the execution proxies show the cost:
        assert r["bytes_varint"] < r["bytes_per_column"] * 1.6
        # per-row decoding diverges on a substantial share of iterations
        # (per-column is 0% by construction) ...
        assert r["divergent_iter_pct"] > 5.0, r["matrix"]
        # ... and its loads scatter far from the 1-2 coalesced word groups
        # the multiplexed layout guarantees.
        assert r["mean_load_offsets"] > 4.0, r["matrix"]

    coo = cached_matrix("venkat01", scale)
    benchmark.pedantic(
        lambda: RowwiseBROELL.from_coo(coo, h=256), rounds=1, iterations=1
    )
