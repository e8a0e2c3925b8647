"""Multi-device sharded execution and the first-class execution API.

This package turns the single-device simulator into a (simulated)
multi-GPU one, and owns the configuration object every execution entry
point now shares:

* :class:`~repro.exec.policy.ExecutionPolicy` — one frozen dataclass for
  engine/verify/fallback/plan-cache/compute_backend/devices/partitioner
  plus the fault-tolerance knobs (backend/shard_timeout_s/max_retries/
  chaos), accepted by ``run_spmv``/``run_spmm``,
  :class:`~repro.pipeline.Session` and
  :class:`~repro.solvers.operators.SimulatedOperator`;
* :func:`~repro.exec.partition.partition` and the registered
  ``"sharded"`` container — contiguous row blocks re-encoded per device,
  serializable to ``.brx`` with a shard manifest;
* :func:`~repro.exec.comms.model_comms` — broadcast vs halo-exchange
  x-distribution accounting at interconnect-cacheline granularity;
* :func:`~repro.exec.engine.execute_sharded` — the shard executor
  producing bit-identical results and merged counters, in process with
  the shards one after another (replay holds the GIL, so threads would
  not overlap them) or on the fault-tolerant :mod:`~repro.exec.workers`
  process pool (heartbeats, shard failover, respawn of lost workers);
* :class:`~repro.exec.chaos.ChaosPolicy` and
  :func:`~repro.exec.chaos.run_chaos_campaign` — seeded fault injection
  into the sharded engines and the zero-silent-corruption campaign
  behind ``repro chaos``;
* :func:`~repro.exec.scaling.strong_scaling` /
  :func:`~repro.exec.scaling.weak_scaling` — the 1..N device sweeps
  behind ``repro scale``.

Exports resolve lazily (PEP 562): the kernel dispatcher imports
:mod:`repro.exec.policy` at module scope, and an eager ``__init__``
would close the ``kernels ↔ exec`` cycle before either side finished
initializing. See docs/scaling.md for the model and the experiment.
"""

import importlib
from typing import Any

__all__ = [
    "ExecutionPolicy",
    "PARTITIONERS",
    "ShardedMatrix",
    "partition",
    "partition_bounds",
    "recover_conversion_kwargs",
    "CommsReport",
    "model_comms",
    "ShardedSpMVResult",
    "execute_sharded",
    "sharded_view",
    "shutdown_pools",
    "ChaosPolicy",
    "PROCESS_FAULT_KINDS",
    "run_chaos_campaign",
    "WorkerPool",
    "worker_pool",
    "strong_scaling",
    "weak_scaling",
]

#: export name -> submodule that defines it.
_EXPORTS = {
    "ExecutionPolicy": ".policy",
    "PARTITIONERS": ".partition",
    "ShardedMatrix": ".partition",
    "partition": ".partition",
    "partition_bounds": ".partition",
    "recover_conversion_kwargs": ".partition",
    "CommsReport": ".comms",
    "model_comms": ".comms",
    "ShardedSpMVResult": ".engine",
    "execute_sharded": ".engine",
    "sharded_view": ".engine",
    "shutdown_pools": ".engine",
    "ChaosPolicy": ".chaos",
    "PROCESS_FAULT_KINDS": ".chaos",
    "run_chaos_campaign": ".chaos",
    "WorkerPool": ".workers",
    "worker_pool": ".workers",
    "strong_scaling": ".scaling",
    "weak_scaling": ".scaling",
}


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(submodule, __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
