"""Extension: the format advisor vs exhaustive search (clSpMV direction).

The advisor must agree with brute force: for every suite matrix, the
format it recommends (on a row sample) must be within a small factor of
the best format found by exhaustively running the model on the full
matrix — i.e. sampling plus the per-nnz figure of merit transfer.
"""

import numpy as np
from conftest import save_table

from repro.bench.harness import bench_scale, cached_matrix
from repro.formats.conversion import convert
from repro.gpu.device import TESLA_K20
from repro.registry import kernel_for
from repro.tuner.advisor import default_candidates, rank_formats

COLUMNS = ["matrix", "advisor_pick", "exhaustive_best", "agreement",
           "pick_penalty_pct"]

MATRICES = ("shipsec1", "epb3", "lhr71", "scircuit", "rail4284")


def exhaustive_best(coo) -> dict:
    """Run every candidate on the full matrix; return name -> time/nnz."""
    x = np.random.default_rng(1).standard_normal(coo.shape[1])
    lengths = coo.row_lengths()
    padding = float(lengths.max()) / max(float(lengths.mean()), 1e-9)
    out = {}
    for fmt in default_candidates():
        if fmt in ("ellpack", "ellpack_r", "bellpack") and padding > 20.0:
            continue
        kwargs = {"h": 256} if fmt in ("sliced_ellpack", "bro_ell",
                                       "bro_hyb") else {}
        mat = convert(coo, fmt, **kwargs)
        res = kernel_for(fmt).run(mat, x, TESLA_K20)
        out[fmt] = res.timing.time / coo.nnz
    return out


def test_extension_advisor(benchmark):
    scale = bench_scale()
    rows = []
    for name in MATRICES:
        coo = cached_matrix(name, scale)
        pick = rank_formats(coo, "k20", sample_rows_limit=4096)[0].format_name
        full = exhaustive_best(coo)
        best = min(full, key=full.get)
        penalty = 100.0 * (full[pick] / full[best] - 1.0)
        rows.append(
            {
                "matrix": name,
                "advisor_pick": pick,
                "exhaustive_best": best,
                "agreement": pick == best,
                "pick_penalty_pct": penalty,
            }
        )
    save_table("extension_advisor", rows, COLUMNS,
               "Extension: advisor (sampled) vs exhaustive model search (K20)")

    # The sampled pick is never more than 15% off the exhaustive optimum,
    # and agrees outright on the majority of matrices.
    for r in rows:
        assert r["pick_penalty_pct"] < 15.0, r["matrix"]
    assert sum(r["agreement"] for r in rows) >= 3

    coo = cached_matrix("epb3", scale)
    benchmark.pedantic(
        lambda: rank_formats(coo, "k20", sample_rows_limit=4096),
        rounds=1, iterations=1,
    )
