"""Seeded workload inputs: model factors, published stores, request bodies,
arrival schedules and the fit input.  The program only ever sees what these
functions generate; the same seed always yields the same inputs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ServingSpec:
    """One serving workload: model geometry, how it is published, and the
    traffic sent to the default ``repro serve`` over it."""

    name: str
    model: str
    n_users: int
    n_items: int
    rank: int
    shards: Optional[int]  # None: single-file model
    operation: str  # "recommend" or "neighbors"
    rows_per_request: int
    #: Offered open-loop rate (requests/s): about a third of the closed-loop
    #: throughput of the code this benchmark was defined on.
    open_rate: Optional[float] = None


K = 10
#: Distinct generated requests per run; traffic cycles through them.
REQUEST_POOL = 16

RECOMMEND = ServingSpec("recommend-wide", "wide", 100_000, 2_000, 16, None,
                        "recommend", 1, open_rate=14.0)
#: The sharded neighbours path, measured per layer only (in the traced run
#: of ``recommend-wide``): served by ``repro serve`` with thread scatter and
#: with ``--workers 2``.  Its end-to-end figures are not steady enough on a
#: 2-core host to gate on (see README.md).
NEIGHBORS = ServingSpec("neighbors", "narrow", 200_000, 200, 16, 2, "neighbors", 4)
FIT_WORKLOAD = "fit-webscale"
FIT_RANK = 16
FIT_MODEL = "fit"
#: Distinct fit inputs, each with reference Sigma endpoints recorded in
#: ``sigma_reference.json``.  A benchmark seed picks input
#: ``seed % FIT_SEEDS``, so the Sigma value check runs for every seed.
FIT_SEEDS = 100


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input kind, all derived from one seed."""
    return np.random.default_rng([int(seed), stream])


def synthetic_decomposition(spec: ServingSpec, seed: int):
    """Target-b factors at the workload's geometry (serving needs no fit)."""
    from repro.core.result import IntervalDecomposition
    from repro.interval.array import IntervalMatrix

    rng = _rng(seed, 1)
    u = rng.normal(size=(spec.n_users, spec.rank))
    centre = np.sort(rng.uniform(1.0, 10.0, size=spec.rank))[::-1]
    radius = rng.uniform(0.0, 0.2, size=spec.rank)
    sigma = IntervalMatrix(np.diag(centre - radius), np.diag(centre + radius),
                           check=False)
    v = rng.normal(size=(spec.n_items, spec.rank))
    return IntervalDecomposition(u=u, sigma=sigma, v=v, target="b",
                                 method="synthetic", rank=spec.rank)


def publish(spec: ServingSpec, decomposition, store_dir: Path) -> None:
    """Publish the model the way ``repro decompose --save-model [--shards]``
    does, so ``repro serve`` finds it in the store."""
    if spec.shards:
        from repro.serve.shard import ShardedModelStore

        ShardedModelStore(store_dir).save_sharded(spec.model, decomposition,
                                                  spec.shards)
    else:
        from repro.serve.store import ModelStore

        ModelStore(store_dir).save(spec.model, decomposition)


def query_rows(spec: ServingSpec, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``REQUEST_POOL * rows_per_request`` unseen interval user rows."""
    rng = _rng(seed, 2)
    shape = (REQUEST_POOL * spec.rows_per_request, spec.n_items)
    mid = rng.uniform(1.0, 5.0, size=shape)
    radius = rng.uniform(0.0, 0.5, size=shape)
    return mid - radius, mid + radius


def request_payloads(spec: ServingSpec, lower: np.ndarray,
                     upper: np.ndarray) -> List[Dict[str, object]]:
    """One JSON payload per pooled request.  A single row is sent as flat
    ``lower``/``upper`` lists (the micro-batched path), several rows as
    nested lists."""
    payloads = []
    per = spec.rows_per_request
    for i in range(REQUEST_POOL):
        lo, hi = lower[i * per:(i + 1) * per], upper[i * per:(i + 1) * per]
        if per == 1:
            lo, hi = lo[0], hi[0]
        payloads.append({"model": spec.model, "k": K,
                         "lower": lo.tolist(), "upper": hi.tolist()})
    return payloads


def body_template(payload: Dict[str, object]) -> bytes:
    """The request body minus its leading ``{``, to be prefixed with a
    per-send ``{"id": n, `` (which the server ignores; the traced run uses
    it to pair client-side and server-side timings of one request)."""
    return json.dumps(payload).encode("utf-8")[1:]


def with_id(template: bytes, request_id: int) -> bytes:
    return b'{"id": %d, ' % request_id + template


def arrivals(seed: int, rate: float, count: int) -> List[float]:
    """``count`` Poisson arrival offsets (seconds from phase start) at ``rate``."""
    rng = _rng(seed, 3)
    return np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()


def fit_seed(seed: int) -> int:
    """The fit input a benchmark seed selects (the key of its reference)."""
    return int(seed) % FIT_SEEDS


def fit_matrix(seed: int):
    """The fit workload's input for a benchmark seed: webscale sparse
    ratings (100k x 2k, 1%) generated from ``fit_seed(seed)``."""
    from repro.datasets.ratings import make_sparse_rating_matrix

    return make_sparse_rating_matrix(preset="webscale", seed=fit_seed(seed))
