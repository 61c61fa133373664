"""Online serving of fitted interval decompositions.

The subsystem has seven layers, each usable on its own (see
``docs/ARCHITECTURE.md`` for the data-flow walkthrough):

* :class:`~repro.serve.store.ModelStore` — publishes fitted decompositions
  (factors + metadata) to a directory, atomically;
* :class:`~repro.serve.foldin.FoldInProjector` — maps unseen interval rows
  into a stored model's latent space via least squares, so queries never
  re-run a factorization;
* :class:`~repro.serve.query.QueryEngine` — batched, vectorized top-k
  recommendation and nearest-neighbour retrieval over one model, with
  :class:`~repro.serve.batching.MicroBatcher` stacking concurrent
  single-row queries into single BLAS calls;
* :mod:`repro.serve.shard` — row-range sharding:
  :class:`~repro.serve.shard.ShardPlanner` splits a model along the user
  dimension, :class:`~repro.serve.shard.ShardedModelStore` publishes
  generation-versioned per-shard archives (hitless republish), and
  :class:`~repro.serve.shard.ShardedQueryEngine` scatter-gathers queries
  across per-shard engines with a byte-stable merge;
* :mod:`repro.serve.protocol` — the length-prefixed npy frame format
  between the front end and shard workers (no pickle on the wire);
* :mod:`repro.serve.worker` — per-shard **worker processes**:
  :class:`~repro.serve.worker.ShardWorkerSupervisor` spawns, health-checks
  and restarts one worker per shard, and
  :class:`~repro.serve.worker.WorkerShardedQueryEngine` routes queries
  across them with the same byte-identical answers as the in-process
  router; :mod:`repro.serve.resilience` supplies the deadlines, retry
  backoff and per-shard circuit breakers that keep one stalled or
  crash-looping worker from taking the service with it, and
  :mod:`repro.serve.faults` is the deterministic fault-injection harness
  the chaos test tier proves all of it against;
* :mod:`repro.serve.http` / :mod:`repro.serve.async_http` — a stdlib-only
  HTTP JSON service (``/models``, ``/recommend``, ``/neighbors``,
  ``/healthz``) exposed by the CLI as ``repro serve`` / ``repro query``;
  the asyncio front end (``repro serve --workers N``) parses requests on
  the event loop so slow clients cannot exhaust worker threads.
"""

import importlib
from typing import Dict

#: Public name -> defining submodule.  Re-exports resolve lazily (PEP 562):
#: a shard worker process imports only the layers it runs, never the HTTP
#: front ends, which keeps worker start-up (and so crash recovery) short.
_EXPORTS: Dict[str, str] = {
    "AsyncServingServer": "async_http",
    "create_async_server": "async_http",
    "MicroBatcher": "batching",
    "FoldInProjector": "foldin",
    "ServingApp": "http",
    "create_server": "http",
    "ProtocolError": "protocol",
    "decode_frame": "protocol",
    "encode_frame": "protocol",
    "read_frame": "protocol",
    "write_frame": "protocol",
    "QueryEngine": "query",
    "TopKResult": "query",
    "top_k": "query",
    "top_k_from_candidates": "query",
    "ShardedModelStore": "shard",
    "ShardedQueryEngine": "shard",
    "ShardManifest": "shard",
    "ShardPlanner": "shard",
    "merge_shards": "shard",
    "plan_row_ranges": "shard",
    "usable_cpu_count": "shard",
    "FaultInjected": "faults",
    "FaultPlan": "faults",
    "FaultSpecError": "faults",
    "CircuitBreaker": "resilience",
    "Deadline": "resilience",
    "RetryPolicy": "resilience",
    "current_deadline": "resilience",
    "deadline_scope": "resilience",
    "ModelRecord": "store",
    "ModelStore": "store",
    "ModelStoreError": "store",
    "DeadlineExceededError": "worker",
    "ShardUnavailableError": "worker",
    "ShardWorkerSupervisor": "worker",
    "WorkerError": "worker",
    "WorkerRequestError": "worker",
    "WorkerShardedQueryEngine": "worker",
    "collect_missing_shards": "worker",
}


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "AsyncServingServer",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "FaultInjected",
    "FaultPlan",
    "FaultSpecError",
    "FoldInProjector",
    "MicroBatcher",
    "ModelRecord",
    "ModelStore",
    "ModelStoreError",
    "ProtocolError",
    "QueryEngine",
    "RetryPolicy",
    "ServingApp",
    "ShardManifest",
    "ShardPlanner",
    "ShardUnavailableError",
    "ShardWorkerSupervisor",
    "ShardedModelStore",
    "ShardedQueryEngine",
    "TopKResult",
    "WorkerError",
    "WorkerRequestError",
    "WorkerShardedQueryEngine",
    "collect_missing_shards",
    "create_async_server",
    "create_server",
    "current_deadline",
    "deadline_scope",
    "decode_frame",
    "encode_frame",
    "merge_shards",
    "plan_row_ranges",
    "read_frame",
    "top_k",
    "top_k_from_candidates",
    "usable_cpu_count",
    "write_frame",
]
