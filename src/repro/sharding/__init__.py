"""Sharded multi-process execution: shared-memory columnar shards.

The first component that scales past one interpreter. A
:class:`~repro.access.columnar.ColumnarScoringDatabase` is partitioned
into S strided shards whose float64 columns live in shared-memory
segments (:mod:`~repro.sharding.shm`); a persistent pool of worker
processes runs per-shard top-k probes (:mod:`~repro.sharding.worker`);
and :class:`~repro.sharding.engine.ShardedEngine` merges them by
threshold exchange into the single store's answers at ε = 0, with
access ledgers identical across pool widths. See DESIGN.md, "Sharded
execution".

Most callers never import this package directly:
``Engine.over_shards(store, shards=8, processes=4)`` builds and owns a
sharded engine behind the usual facade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "ShardSpec",
    "ShardedEngine",
    "partition_columnar",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding.engine import ShardedEngine
    from repro.sharding.partition import ShardSpec, partition_columnar

_EXPORTS = {
    "ShardedEngine": ("repro.sharding.engine", "ShardedEngine"),
    "ShardSpec": ("repro.sharding.partition", "ShardSpec"),
    "partition_columnar": ("repro.sharding.partition", "partition_columnar"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
