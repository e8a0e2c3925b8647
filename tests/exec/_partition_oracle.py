"""Test-only oracle: ``partition``, ``partition_bounds`` and ``model_comms``
as they stood before the partitioner decoded its source once and the
comms model read recorded shard columns, kept verbatim (the old code
decoded the source twice and every shard once more) so the tests can pin
the new code to its exact bounds, shard bytes and reports.

Do not optimise this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro import registry as _registry
from repro.errors import ValidationError
from repro.exec.comms import _ELEM_BYTES, CommsReport
from repro.exec.partition import (
    _DEFAULT_SLICE_H,
    PARTITIONERS,
    ShardedMatrix,
    _bounds_contiguous,
    _bounds_greedy_nnz,
    _dedupe_bounds,
    _snap_to_slices,
    recover_conversion_kwargs,
)
from repro.formats.base import SparseFormat
from repro.formats.coo import COOMatrix
from repro.gpu.device import DeviceSpec


def partition_bounds(
    matrix: SparseFormat,
    devices: int,
    partitioner: str = "greedy-nnz",
) -> np.ndarray:
    """Row boundaries of every shard: ``devices + 1`` strictly increasing
    values from ``0`` to ``m`` — shard ``d`` owns rows
    ``[bounds[d], bounds[d+1])`` and every shard has at least one row."""
    if partitioner not in PARTITIONERS:
        raise ValidationError(
            f"partitioner must be one of {PARTITIONERS}, got {partitioner!r}"
        )
    if not isinstance(devices, int) or devices < 1:
        raise ValidationError(f"devices must be a positive integer, got {devices!r}")
    m = matrix.shape[0]
    if devices > m:
        raise ValidationError(
            f"cannot split {m} rows across {devices} devices "
            f"(every shard needs at least one row)"
        )
    nnz_per_row = matrix.to_coo().row_lengths()
    if partitioner == "contiguous":
        bounds = _bounds_contiguous(m, nnz_per_row, devices)
    else:
        bounds = _bounds_greedy_nnz(m, nnz_per_row, devices)
        if partitioner == "slice-aligned":
            h = int(getattr(matrix, "h", None)
                    or getattr(getattr(matrix, "ell", None), "h", None)
                    or _DEFAULT_SLICE_H)
            bounds = _snap_to_slices(bounds, m, h)
    return _dedupe_bounds(bounds, m)


def _sub_coo(coo: COOMatrix, start: int, end: int) -> COOMatrix:
    """Rows ``[start, end)`` of a sorted COO with shard-local numbering."""
    lo = int(np.searchsorted(coo.row_idx, start, side="left"))
    hi = int(np.searchsorted(coo.row_idx, end, side="left"))
    return COOMatrix(
        coo.row_idx[lo:hi].astype(np.int64) - start,
        coo.col_idx[lo:hi],
        coo.vals[lo:hi],
        (end - start, coo.shape[1]),
    )


def partition(
    matrix: SparseFormat,
    devices: int,
    partitioner: str = "greedy-nnz",
    *,
    conversion_kwargs: Optional[Dict[str, Any]] = None,
) -> ShardedMatrix:
    """Split ``matrix`` into ``devices`` contiguous row shards.

    Every shard is re-encoded in the matrix's own format with the
    conversion parameters recovered from the source container
    (:func:`recover_conversion_kwargs`), so the per-shard kernels decode
    exactly the same bit layout and the concatenated result is
    bit-identical to the single-device run. ``conversion_kwargs``
    overrides the recovered parameters.

    A ``devices == 1`` partition is valid (one shard, whole matrix) and
    useful for testing; passing a :class:`ShardedMatrix` re-partitions
    its gathered COO in the *inner* format.
    """
    if isinstance(matrix, ShardedMatrix):
        inner = _registry.get_spec(matrix.inner_format).container
        source = matrix.to_coo()
        kwargs = conversion_kwargs or {}
        matrix = inner.from_coo(source, **kwargs) if kwargs else inner.from_coo(source)
        return partition(matrix, devices, partitioner,
                         conversion_kwargs=conversion_kwargs)

    bounds = partition_bounds(matrix, devices, partitioner)
    kwargs = recover_conversion_kwargs(matrix)
    if conversion_kwargs:
        kwargs.update(conversion_kwargs)
    container = type(matrix)
    coo = matrix.to_coo()
    shards = tuple(
        container.from_coo(
            _sub_coo(coo, int(bounds[d]), int(bounds[d + 1])), **kwargs
        )
        for d in range(devices)
    )
    return ShardedMatrix(shards, bounds, matrix.shape, partitioner=partitioner)


def _lines(nbytes: int, line: int) -> int:
    """Whole transfer lines needed for ``nbytes``."""
    return -(-int(nbytes) // line) if nbytes else 0


def model_comms(
    sharded: ShardedMatrix,
    device: DeviceSpec,
    strategy: str = "auto",
) -> CommsReport:
    """Account the interconnect traffic of one SpMV over ``sharded``.

    Results are cached on the matrix per ``(line size, strategy)`` —
    solver loops re-running the same sharded operator pay the column
    scan once.
    """
    if strategy not in ("auto", "broadcast", "halo"):
        raise ValidationError(
            f"comms strategy must be 'auto', 'broadcast' or 'halo', "
            f"got {strategy!r}"
        )
    cache = getattr(sharded, "_comms_cache", None)
    if cache is None:
        cache = {}
        sharded._comms_cache = cache  # type: ignore[attr-defined]
    key = (device.interconnect_line_bytes, strategy)
    if key in cache:
        return cache[key]

    n_dev = sharded.n_shards
    n = sharded.shape[1]
    line = device.interconnect_line_bytes
    per_line = max(1, line // _ELEM_BYTES)

    if n_dev == 1:
        # Everything lives on the one device: nothing crosses a link.
        report = CommsReport(
            strategy="broadcast" if strategy == "broadcast" else "halo",
            devices=1, line_bytes=line, broadcast_bytes=0, halo_bytes=0,
            x_bytes_per_device=(0,), gather_bytes=0, messages=0,
        )
        cache[key] = report
        return report

    # Column ownership: equal contiguous split of x across devices.
    col_bounds = np.linspace(0, n, n_dev + 1).round().astype(np.int64)
    total_x_lines = _lines(n * _ELEM_BYTES, line)

    # Broadcast: each device receives the x-lines it does not own.
    bcast_per_dev = []
    for d in range(n_dev):
        own = _lines(int(col_bounds[d + 1] - col_bounds[d]) * _ELEM_BYTES, line)
        bcast_per_dev.append((total_x_lines - own) * line)
    broadcast_bytes = int(sum(bcast_per_dev))
    # Critical path: each device receives the other owners' chunks on its
    # own link, so the slowest link sees n-1 inbound transfers.
    bcast_messages = n_dev - 1

    # Halo: per device, the distinct remote cachelines its columns reach.
    halo_per_dev = []
    halo_messages = 0
    for d, shard in enumerate(sharded.shards):
        cols = shard.to_coo().col_idx
        remote = cols[(cols < col_bounds[d]) | (cols >= col_bounds[d + 1])]
        if remote.size == 0:
            halo_per_dev.append(0)
            continue
        lines_needed = np.unique(remote.astype(np.int64) // per_line)
        halo_per_dev.append(int(lines_needed.size) * line)
        # One inbound transfer per remote owner this device pulls lines
        # from; the critical path is the device talking to the most peers.
        owners = np.unique(
            np.searchsorted(col_bounds, lines_needed * per_line, side="right") - 1
        )
        halo_messages = max(halo_messages, int(owners.size))
    halo_bytes = int(sum(halo_per_dev))

    if strategy == "auto":
        chosen = "halo" if halo_bytes <= broadcast_bytes else "broadcast"
    else:
        chosen = strategy
    per_dev = halo_per_dev if chosen == "halo" else bcast_per_dev
    x_messages = halo_messages if chosen == "halo" else bcast_messages

    # Informational only: what a full y-gather to one device would cost.
    gather_bytes = sum(
        _lines(int(b1 - b0) * _ELEM_BYTES, line) * line
        for b0, b1 in zip(sharded.bounds[:-1], sharded.bounds[1:])
    )
    report = CommsReport(
        strategy=chosen,
        devices=n_dev,
        line_bytes=line,
        broadcast_bytes=broadcast_bytes,
        halo_bytes=halo_bytes,
        x_bytes_per_device=tuple(int(b) for b in per_dev),
        gather_bytes=int(gather_bytes),
        messages=int(x_messages),
    )
    cache[key] = report
    return report
