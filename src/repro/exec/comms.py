"""Interconnect traffic model for sharded SpMV.

The only data that must cross devices in a row-partitioned SpMV is the
input vector ``x``: ownership is modeled the usual way — device ``d``
holds the contiguous slice of ``x`` matching an equal column split and
keeps the ``y`` rows of its shard resident (in an iterative solver
those rows *are* the next iteration's local x chunk, so no gather is
charged; :attr:`CommsReport.gather_bytes` reports what one would cost).
Two distribution strategies are accounted, at cacheline granularity
(``DeviceSpec.interconnect_line_bytes``):

* ``"broadcast"`` — every owner sends its full ``x`` slice to all other
  devices; traffic is independent of the sparsity pattern.
* ``"halo"`` — each device fetches only the remote cachelines its
  shard's column reach actually touches (Kreutzer et al.'s "ghost"
  elements). Cheap for banded/local patterns, can exceed broadcast for
  scattered ones because a line is re-sent to every device needing it.

``"auto"`` picks whichever moves fewer x-bytes. The ``y`` gather is
charged identically under both strategies. The resulting byte total
feeds :attr:`KernelCounters.interconnect_bytes` and, with the message
count, the ``t_comm`` term of
:func:`repro.gpu.timing.predict_sharded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ValidationError
from ..gpu.device import DeviceSpec
from ..types import VALUE_DTYPE
from .partition import ShardedMatrix

__all__ = ["CommsReport", "model_comms"]

#: Bytes per ``x``/``y`` element (float64 everywhere in the library).
_ELEM_BYTES = np.dtype(VALUE_DTYPE).itemsize


@dataclass(frozen=True)
class CommsReport:
    """Modeled device-to-device traffic of one sharded SpMV."""

    strategy: str  #: x-distribution actually charged ("broadcast"/"halo")
    devices: int
    line_bytes: int
    #: x-traffic under each strategy (the cheaper one is charged).
    broadcast_bytes: int
    halo_bytes: int
    #: per-device inbound x-bytes under the charged strategy.
    x_bytes_per_device: Tuple[int, ...]
    #: informational: bytes a full y-gather to one device would move.
    #: NOT charged — like distributed-memory solvers, the engine keeps
    #: ``y`` resident per device (the next iteration's x chunks).
    gather_bytes: int
    #: critical-path messages: serialized transfers on the busiest
    #: device's link during the x distribution. Feeds the latency term
    #: of the timing model; links run in parallel, so this is NOT the
    #: total transfer count.
    messages: int

    @property
    def x_bytes(self) -> int:
        """Charged x-distribution bytes."""
        return self.broadcast_bytes if self.strategy == "broadcast" else self.halo_bytes

    @property
    def total_bytes(self) -> int:
        """Charged interconnect bytes for one SpMV (the x distribution)."""
        return self.x_bytes

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "devices": self.devices,
            "line_bytes": self.line_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "halo_bytes": self.halo_bytes,
            "x_bytes": self.x_bytes,
            "x_bytes_per_device": list(self.x_bytes_per_device),
            "gather_bytes": self.gather_bytes,
            "total_bytes": self.total_bytes,
            "messages": self.messages,
        }


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
    for d, cols in enumerate(sharded.shard_columns()):
        remote = cols[(cols < col_bounds[d]) | (cols >= col_bounds[d + 1])]
        if remote.size == 0:
            halo_per_dev.append(0)
            continue
        lines_needed = np.unique(remote // per_line)
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
