#!/usr/bin/env python
"""Format explorer: compare every storage format on a Table 2 matrix.

For a named matrix of the paper's evaluation suite (Table 2), prints the
device bytes, compression, and modeled SpMV GFlop/s of every registered
format on every simulated GPU — the decision view a downstream user needs
when picking a format.

Run:  python examples/format_explorer.py [matrix] [scale]
      python examples/format_explorer.py shipsec1 0.08
"""

import sys

import numpy as np

from repro.formats import available_formats, convert
from repro.kernels import run_spmv
from repro.matrices import TABLE2, analyze, generate
from repro.registry import kernel_formats


def main(name: str = "shipsec1", scale: float = 0.08) -> None:
    if name not in TABLE2:
        raise SystemExit(f"unknown matrix {name!r}; pick one of {sorted(TABLE2)}")
    spec = TABLE2[name]
    print(f"Generating {name} at scale {scale} "
          f"(paper: {spec.rows}x{spec.cols}, nnz={spec.nnz}, mu={spec.mu}) ...")
    coo = generate(name, scale=scale)
    stats = analyze(coo, name)
    print(f"  generated: {stats.rows}x{stats.cols}, nnz={stats.nnz}, "
          f"mu={stats.mu:.1f}, sigma={stats.sigma:.1f}, "
          f"mean delta width {stats.mean_delta_bits:.2f} bits")

    x = np.random.default_rng(0).standard_normal(coo.shape[1])
    reference = coo.spmv(x)

    header = (f"{'format':<16s} {'index MB':>9s} {'total MB':>9s} "
              f"{'C2070':>8s} {'GTX680':>8s} {'K20':>8s}")
    print("\n" + header)
    print("-" * len(header))
    for fmt in sorted(set(available_formats()) & set(kernel_formats())):
        kwargs = {"h": 256} if fmt in ("sliced_ellpack", "bro_ell", "bro_hyb") else {}
        try:
            mat = convert(coo, fmt, **kwargs)
        except Exception as exc:  # e.g. ELLPACK blow-up on a huge-row matrix
            print(f"{fmt:<16s} (skipped: {exc})")
            continue
        gflops = []
        for device in ("c2070", "gtx680", "k20"):
            res = run_spmv(mat, x, device)
            assert np.allclose(res.y, reference, rtol=1e-8)
            gflops.append(res.gflops)
        db = mat.device_bytes()
        print(
            f"{fmt:<16s} {db['index'] / 1e6:>9.2f} {mat.total_bytes / 1e6:>9.2f} "
            f"{gflops[0]:>8.2f} {gflops[1]:>8.2f} {gflops[2]:>8.2f}"
        )

    print("\nGFlop/s are modeled from counted memory transactions, decode "
          "work and occupancy (see repro.gpu.timing).")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(
        args[0] if args else "shipsec1",
        float(args[1]) if len(args) > 1 else 0.08,
    )
