#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every metric checked.

Usage::

    python3 perfbench/run.py --workload serve-ndjson --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the benchmark's own spans on
and prints the per-layer metrics instead. The last line of standard
output is the JSON result; the lines above it are a readable report.
See ``perfbench/README.md`` for why each workload exists and which
layer metric should move which end-to-end metric.

Run it from the root of a checkout. It reads the program from ``src/``
and writes only under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-ndjson", "solve-cg", "shard-spmm")

# One BLAS/OpenMP thread everywhere: the program's own parallelism (the
# serve executor, shard workers) is what is measured, and pinned
# processes must not spawn helpers onto the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class Context:
    """Arguments and places shared by every workload."""

    def __init__(self, args, spec, work, program_cpus, generator_cpus, env):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.root = ROOT
        self.work = work
        self.program_cpus = program_cpus
        self.generator_cpus = generator_cpus
        self.env = env
        #: the metrics this run prints, with their units, in order
        kind = "per_layer" if self.trace else "end_to_end"
        self.units = {m["name"]: m["unit"] for m in spec[kind]}

    def spans_path(self) -> str:
        return os.path.join(self.root, ".bench_work",
                            f"spans-{self.workload}-{self.seed}.json")

    def finish(self, outcome, metrics, report) -> None:
        import harness

        report = dict(report, workload=self.workload, seed=self.seed,
                      seconds=self.seconds, trace=self.trace,
                      outcome=outcome.describe(), environment=self.env)
        harness.emit(outcome, metrics, report, self.units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    # Everything the program and the benchmark write stays in the checkout.
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    os.environ["REPRO_MATRIX_CACHE"] = os.path.join(work, "cache")
    tempfile.tempdir = os.environ["TMPDIR"]
    sys.path[:0] = [src, HERE]

    import harness

    program, generator = harness.placement()
    ctx = Context(args, spec, work, program, generator,
                  harness.environment(program, generator))
    try:
        if args.workload == "serve-ndjson":
            import serve_ndjson as workload
        elif args.workload == "solve-cg":
            import solve_cg as workload
        else:
            import shard_spmm as workload
        workload.run(ctx)
    finally:
        from repro.exec.workers import shutdown_pools

        shutdown_pools()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
