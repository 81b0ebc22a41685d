"""Partitioning a columnar store into shared-memory shards.

**The partitioning invariant.** Shards split the *object* axis, never
the list axis: each object lands in exactly one shard, carrying all m
grade columns. Because :func:`~repro.access.columnar.rank_orders`
sorts by the total order ``(-grade, tie_break_key)``, a shard's local
rank order is exactly the restriction of the global order to its
objects, whatever the membership — so a shard is itself a complete,
self-consistent :class:`~repro.access.columnar.ColumnarScoringDatabase`
over its sub-population, and any exact top-k algorithm run against it
returns a true local top-k under the tie-break the global store uses.
That is the property the threshold-exchange merge builds on.

**Strided membership.** Shard ``s`` of S holds the interned positions
``s, s+S, s+2S, …``. The interned order is not neutral: a store built
with ``from_scoring_database`` interns its objects in list 0's ranking,
so contiguous slices would hand shard 0 the best list-0 grades and the
last shard the worst — and shard 0 would hold most queries' global
top-k, which defeats probes of size near k/S. A strided split gives
every shard a sample of the whole grade range, and shard sizes differ
by at most one.

**Segment layout.** One segment per shard::

    [0:8)                    little-endian uint64 L = len(header)
    [8:8+L)                  pickled header dict (objects, dims, offsets)
    [columns_offset: +8mn)   m x n float64 grade columns, C order
    [orders_offset:  +8mn)   m x n int64 rank permutations, C order

Both array blocks are 64-byte aligned. The header carries the object
ids (pickled — ids are arbitrary hashables), the dimensions, and the
two offsets, so attaching is self-describing: a worker needs only the
``(backend, name, size)`` token.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

import numpy as _np

from repro.access.columnar import ColumnarScoringDatabase, rank_orders
from repro.exceptions import ShardingError
from repro.sharding.shm import attach_segment, create_segment

__all__ = ["ShardSpec", "attach_store", "partition_columnar"]

_ALIGN = 64


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """The picklable description of one shard a worker can attach."""

    index: int
    token: tuple
    num_objects: int
    num_lists: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def partition_columnar(
    store: ColumnarScoringDatabase,
    num_shards: int,
    *,
    backend: str | None = None,
) -> tuple[list[ShardSpec], list]:
    """Split ``store`` into shards backed by owned segments.

    Returns ``(specs, segments)``: the picklable specs workers attach
    from, and the segment handles the **caller now owns** — it must
    ``close()`` and ``unlink()`` each when done (ShardedEngine does
    this in :meth:`~repro.sharding.engine.ShardedEngine.close`).
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    if num_shards > store.num_objects:
        raise ValueError(
            f"cannot split {store.num_objects} objects into {num_shards} "
            "non-empty shards"
        )
    objects = store.interned_objects
    matrix = store.grades_matrix()  # (m, N) float64, ground truth
    m = store.num_lists

    specs: list[ShardSpec] = []
    segments: list = []
    try:
        for s in range(num_shards):
            shard_objects = objects[s::num_shards]
            shard_matrix = _np.ascontiguousarray(matrix[:, s::num_shards])
            n = len(shard_objects)
            orders = rank_orders(shard_objects, list(shard_matrix))

            header_probe = pickle.dumps(
                {
                    "objects": shard_objects,
                    "num_lists": m,
                    "num_objects": n,
                    "columns_offset": 0,
                    "orders_offset": 0,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            # Offsets depend on the header length; re-pickling with the
            # real offsets keeps the length stable because the ints
            # occupy fixed-width pickle frames only past 2**31 — guard
            # by padding the probe, not by assuming.
            columns_offset = _aligned(8 + len(header_probe) + 64)
            orders_offset = _aligned(columns_offset + 8 * m * n)
            total = orders_offset + 8 * m * n
            header = pickle.dumps(
                {
                    "objects": shard_objects,
                    "num_lists": m,
                    "num_objects": n,
                    "columns_offset": columns_offset,
                    "orders_offset": orders_offset,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if 8 + len(header) > columns_offset:  # pragma: no cover
                raise ShardingError("shard header overflowed its slack")

            segment = create_segment(total, prefer=backend)
            segments.append(segment)
            buf = segment.buf
            buf[0:8] = struct.pack("<Q", len(header))
            buf[8 : 8 + len(header)] = header
            columns_view = _np.frombuffer(
                buf, dtype=_np.float64, count=m * n, offset=columns_offset
            ).reshape(m, n)
            columns_view[:] = shard_matrix
            orders_view = _np.frombuffer(
                buf, dtype=_np.int64, count=m * n, offset=orders_offset
            ).reshape(m, n)
            for i, order in enumerate(orders):
                orders_view[i] = order
            # Drop the writing views before returning so the owner's
            # later close() is not pinned by leftover exports.
            del columns_view, orders_view, buf

            specs.append(
                ShardSpec(
                    index=s,
                    token=segment.token(),
                    num_objects=n,
                    num_lists=m,
                )
            )
    except BaseException:
        for segment in segments:
            segment.close()
            segment.unlink()
        raise
    return specs, segments


def attach_store(spec: ShardSpec):
    """Attach a shard and wrap it as a columnar store (worker side).

    Returns ``(segment, store)``. The store's columns and orders are
    zero-copy views over the segment buffer; the caller must keep the
    segment handle alive as long as the store is used and ``close()``
    it afterwards. No grades are re-validated and no orders recomputed
    — attach is O(m) plus the header unpickle.
    """
    segment = attach_segment(spec.token)
    try:
        buf = segment.buf
        (header_len,) = struct.unpack("<Q", bytes(buf[0:8]))
        header = pickle.loads(bytes(buf[8 : 8 + header_len]))
        m = header["num_lists"]
        n = header["num_objects"]
        columns = _np.frombuffer(
            buf,
            dtype=_np.float64,
            count=m * n,
            offset=header["columns_offset"],
        ).reshape(m, n)
        orders = _np.frombuffer(
            buf,
            dtype=_np.int64,
            count=m * n,
            offset=header["orders_offset"],
        ).reshape(m, n)
        store = ColumnarScoringDatabase.from_frozen_arrays(
            header["objects"],
            [columns[i] for i in range(m)],
            [orders[i] for i in range(m)],
        )
    except ShardingError:
        segment.close()
        raise
    except Exception as exc:
        segment.close()
        raise ShardingError(
            f"could not attach shard {spec.index} from segment "
            f"{spec.token[1]!r}: {exc}"
        ) from exc
    return segment, store
