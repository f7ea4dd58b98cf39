"""Intra-host sharded serving: tile-range shards over the packed base.

The paper's §VII-D result — the two-layer grid beating a distributed
framework by orders of magnitude because *coordination* dominates —
motivates this subsystem's shape: scale out on one host with the
cheapest possible coordination.  The domain is split into K contiguous
tile-id ranges over the packed CSR fused key (so each shard's rows are
one contiguous slab, per Aji et al.'s tile-space partitioning), worker
processes map the immutable columns from POSIX shared memory (zero
copy), and an asyncio router scatter-gathers queries to the shards whose
tile range intersects the query's footprint.

Modules
-------

:mod:`~repro.shard.partition`
    :class:`ShardBand` table + balanced band planning + footprint
    routing.
:mod:`~repro.shard.banded`
    :class:`BandedTwoLayerGrid` — the full index with every fused kernel
    clamped to an owned tile band; band unions partition the global
    result exactly (the duplicate-avoidance accounting is per tile, so
    banding commutes with it).
:mod:`~repro.shard.shm`
    Single-arena ``multiprocessing.shared_memory`` publication of the
    PackedStore columns + dataset columns + window query matrix.
:mod:`~repro.shard.wire`
    The internal router<->worker NDJSON envelope protocol.
:mod:`~repro.shard.worker`
    The ShardWorker process entrypoint: a sequential asyncio loop over
    one connection back to the router.
:mod:`~repro.shard.router`
    :class:`ShardedQueryService` — the public NDJSON server in router
    mode (``python -m repro --serve HOST:PORT --shards K``).
"""

from repro.shard.banded import BandedTwoLayerGrid
from repro.shard.partition import (
    ShardBand,
    bands_for_range,
    plan_bands,
    shard_for_tile,
)
from repro.shard.router import ShardedQueryService

__all__ = [
    "BandedTwoLayerGrid",
    "ShardBand",
    "ShardedQueryService",
    "bands_for_range",
    "plan_bands",
    "shard_for_tile",
]
