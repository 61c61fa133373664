"""Parallel, cached execution engine for the paper's experiment grids.

The experiments all share one shape of work: a grid of *cells*, each cell one
``(trial matrix, method, target, rank)`` decomposition followed by a scoring
function.  This module runs such grids

* **reproducibly** — every cell gets a seed derived deterministically from the
  engine's base seed and the cell coordinates (:func:`derive_seed`), so a
  parallel run produces records identical to a serial run;
* **in parallel** — cells fan out over a thread pool (``jobs`` knob; numpy's
  linear-algebra kernels release the GIL, so threads scale without the pickling
  cost of process pools);
* **with caching** — an on-disk :class:`DecompositionCache` keyed by
  (data fingerprint, method, target, rank[, seed for stochastic methods])
  reuses the NPZ round-trip of :mod:`repro.io`, so re-running a grid skips
  every decomposition already computed.

Results are structured :class:`ExperimentRecord` rows that export to JSON and
CSV (:func:`records_to_json` / :func:`records_to_csv`).
"""

from __future__ import annotations

import csv
import hashlib
import io as _stdio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import io as repro_io
from repro.core import registry
from repro.core.accuracy import harmonic_mean_accuracy
from repro.core.result import IntervalDecomposition
from repro.interval.array import IntervalMatrix
from repro.interval.sparse import as_interval_operand, is_sparse_interval

PathLike = Union[str, Path]

#: Phase names recorded by the ISVD timing breakdown (Figure 6(b)).
TIMING_PHASES = ("preprocessing", "decomposition", "alignment", "recomposition")


def derive_seed(base_seed: Optional[int], *parts: object) -> int:
    """Derive a stable 32-bit seed from a base seed and cell coordinates.

    The same inputs always produce the same seed, independent of process,
    platform and execution order — the property that makes parallel runs
    byte-identical to serial ones.
    """
    text = "|".join([str(base_seed), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class GridSpec:
    """One method/target cell of an experiment grid (registry-keyed).

    :class:`repro.experiments.runner.MethodSpec` satisfies the same attribute
    shape; the engine accepts either interchangeably.
    """

    label: str
    method: str
    target: str


@dataclass
class ExperimentRecord:
    """One scored decomposition cell, as produced by the engine.

    ``to_dict`` omits the runtime diagnostics (wall-clock duration, cache
    hits, per-phase timings) by default so exported records are deterministic
    across re-runs and across ``jobs`` settings.
    """

    experiment: str
    trial: int
    method: str
    label: str
    target: str
    rank: int
    seed: Optional[int]
    metric: str
    value: float
    duration: float = 0.0
    cache_hit: bool = False
    timings: Dict[str, float] = field(default_factory=dict)

    #: Fields included in the canonical (deterministic) export, in order.
    CANONICAL_FIELDS = (
        "experiment", "trial", "method", "label", "target",
        "rank", "seed", "metric", "value",
    )

    def to_dict(self, include_runtime: bool = False) -> Dict[str, object]:
        """Record as a plain dict; runtime diagnostics only on request."""
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in self.CANONICAL_FIELDS
        }
        if include_runtime:
            payload["duration"] = self.duration
            payload["cache_hit"] = self.cache_hit
            payload["timings"] = dict(self.timings)
        return payload


def records_to_json(records: Sequence[ExperimentRecord],
                    path: Optional[PathLike] = None,
                    include_runtime: bool = False) -> str:
    """Serialize records to deterministic JSON; optionally write it to a file."""
    text = json.dumps(
        [record.to_dict(include_runtime=include_runtime) for record in records],
        indent=2, sort_keys=True,
    )
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def records_to_csv(records: Sequence[ExperimentRecord],
                   path: Optional[PathLike] = None,
                   include_runtime: bool = False) -> str:
    """Serialize records to CSV; optionally write it to a file."""
    fields = list(ExperimentRecord.CANONICAL_FIELDS)
    if include_runtime:
        fields += ["duration", "cache_hit"]
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for record in records:
        payload = record.to_dict(include_runtime=include_runtime)
        writer.writerow([payload[name] for name in fields])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


class DecompositionCache:
    """On-disk cache of decompositions, one NPZ file per cell.

    Keys are SHA-256 digests over (data fingerprint, method, target, rank) —
    plus the seed and any extra fit options for stochastic methods, whose
    output depends on them.  Writes go through a temp file + ``os.replace`` so
    concurrent workers never observe half-written archives.
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _option_token(value: object) -> str:
        """Stable string for one fit option (repr truncates large arrays)."""
        if is_sparse_interval(value):
            return f"sparse-interval:{repro_io.interval_fingerprint(value)}"
        if isinstance(value, IntervalMatrix):
            return f"interval:{repro_io.interval_fingerprint(value)}"
        if isinstance(value, np.ndarray):
            digest = hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest()
            return f"ndarray:{value.shape}:{value.dtype}:{digest}"
        return repr(value)

    def key(self, fingerprint: str, method: str, target: str, rank: int,
            seed: Optional[int] = None, options: Optional[Dict] = None) -> str:
        """Digest identifying one decomposition cell."""
        parts = [fingerprint, str(method), str(target), str(rank)]
        if seed is not None:
            parts.append(str(seed))
        if options:
            parts.append(repr(sorted(
                (name, self._option_token(value)) for name, value in options.items()
            )))
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def load(self, key: str) -> Optional[IntervalDecomposition]:
        """Cached decomposition for a key, or None on a miss."""
        path = self._path(key)
        if not path.exists():
            return None
        return repro_io.load_decomposition_npz(path)

    def store(self, key: str, decomposition: IntervalDecomposition) -> None:
        """Persist a decomposition under a key (atomic within the cache dir)."""
        with repro_io.atomic_write(self._path(key)) as tmp:
            repro_io.save_decomposition_npz(decomposition, tmp)

    def __len__(self) -> int:
        # Dot-prefixed names are in-flight temp files, not cache entries.
        return sum(1 for path in self.directory.glob("*.npz")
                   if not path.name.startswith("."))


@dataclass
class GridResult:
    """Records of one grid run plus the aggregations the experiments need."""

    records: List[ExperimentRecord]

    def scores(self) -> Dict[str, float]:
        """Mean metric value per label, in first-appearance (spec) order."""
        by_label: Dict[str, List[float]] = {}
        for record in self.records:
            by_label.setdefault(record.label, []).append(record.value)
        return {label: float(np.mean(values)) for label, values in by_label.items()}

    def mean_timings(self, phases: Sequence[str] = TIMING_PHASES) -> Dict[str, Dict[str, float]]:
        """Mean per-phase wall-clock timings per label (Figure 6(b) layout).

        Cache hits carry no timings (nothing was computed) and contribute
        zeros, like the phases a method skips.
        """
        by_label: Dict[str, List[Dict[str, float]]] = {}
        for record in self.records:
            by_label.setdefault(record.label, []).append(record.timings)
        return {
            label: {
                phase: float(np.mean([t.get(phase, 0.0) for t in timings]))
                for phase in phases
            }
            for label, timings in by_label.items()
        }

    def cache_hits(self) -> int:
        """Number of cells served from the decomposition cache."""
        return sum(1 for record in self.records if record.cache_hit)


#: Scoring function signature: (matrix, decomposition) -> float.
ScoreFn = Callable[[IntervalMatrix, IntervalDecomposition], float]


class ExperimentEngine:
    """Runs experiment grids with seeded, parallel, cached execution.

    Parameters
    ----------
    jobs:
        Number of worker threads for cell fan-out.  ``1`` (default) runs
        serially; ``0`` or negative means one worker per CPU.
    cache_dir:
        Directory for the on-disk decomposition cache, or ``None`` (default)
        to disable caching.
    base_seed:
        Root of the per-cell seed derivation (:func:`derive_seed`).  Two
        engines with the same base seed produce identical records for the
        same grid, regardless of ``jobs`` or cache state.
    kernel:
        Interval-product kernel (:mod:`repro.interval.kernels`) passed to
        every kernel-aware method the engine runs (see
        :attr:`~repro.core.registry.FactorizerInfo.kernel_aware`).  ``None``
        (default) keeps the paper-faithful ``endpoint4`` construction so
        reproduced numbers match the paper; a non-default kernel becomes part
        of each cell's cache key, so cached ``endpoint4`` results are never
        served for a ``rump``/``exact`` run or vice versa.  Selecting the
        default kernel explicitly is normalized to ``None``, so it reuses
        (and feeds) the same cache entries as a default run.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[PathLike] = None,
                 base_seed: int = 0, kernel: Optional[str] = None):
        if jobs < 1:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        self.cache = DecompositionCache(cache_dir) if cache_dir else None
        self.base_seed = base_seed
        if kernel is not None:
            from repro.interval.kernels import DEFAULT_KERNEL, get_kernel

            kernel = get_kernel(kernel).key  # fail fast on typos, store the key
            if kernel == DEFAULT_KERNEL:
                kernel = None  # byte-identical to a default run: share its cache
        self.kernel = kernel

    # ------------------------------------------------------------------ #
    # Generic parallel primitives
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item, in input order, fanning out over jobs."""
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))

    # ------------------------------------------------------------------ #
    # Single-cell execution
    # ------------------------------------------------------------------ #
    def decompose(
        self,
        matrix: Union[IntervalMatrix, np.ndarray],
        method: str,
        rank: int,
        target: Optional[str] = None,
        seed: Optional[int] = None,
        fingerprint: Optional[str] = None,
        **options: object,
    ) -> Tuple[IntervalDecomposition, bool]:
        """Decompose one matrix through the registry, consulting the cache.

        Returns ``(decomposition, cache_hit)``.  Cached decompositions carry
        factors, target, method and rank but no timings (nothing ran).
        ``fingerprint`` lets grid runs pass a precomputed data fingerprint so
        the matrix is not re-hashed for every spec.  A stochastic method with
        no seed is a fresh random draw each call, so it is never cached.

        Sparse matrices pass through untouched (sparse-aware methods execute
        them in sparse BLAS; others densify at the registry boundary) and
        fingerprint via their CSR representation — a sparse matrix never
        shares cache entries with its dense equivalent, because the two
        representations take different execution paths.
        """
        info = registry.get(method)
        if target is None:
            target = info.default_target
        matrix = as_interval_operand(matrix)
        if self.kernel is not None and info.kernel_aware:
            options.setdefault("kernel", self.kernel)

        cache_key = None
        if self.cache is not None and not (info.stochastic and seed is None):
            if fingerprint is None:
                fingerprint = repro_io.interval_fingerprint(matrix)
            cache_key = self.cache.key(
                fingerprint, info.key, target, rank,
                seed=seed if info.stochastic else None,
                options=dict(options) if options else None,
            )
            cached = self.cache.load(cache_key)
            if cached is not None:
                return cached, True

        decomposition = info.fit(matrix, rank, target=target, seed=seed, **options)
        if cache_key is not None:
            self.cache.store(cache_key, decomposition)
        return decomposition, False

    # ------------------------------------------------------------------ #
    # Grid execution
    # ------------------------------------------------------------------ #
    def evaluate_grid(
        self,
        matrices: Sequence[IntervalMatrix],
        specs: Sequence[GridSpec],
        rank: int,
        experiment: str = "",
        score_fn: ScoreFn = harmonic_mean_accuracy,
        metric: str = "h_mean",
    ) -> GridResult:
        """Score every (trial x method/target) cell of a grid.

        ``specs`` is any sequence of objects with ``label`` / ``method`` /
        ``target`` attributes (:class:`GridSpec`, or the runner's
        ``MethodSpec``).  The requested rank is clipped to each trial matrix,
        matching the behaviour of the serial harness.
        """
        matrices = list(matrices)
        specs = list(specs)
        cells = [(spec, trial) for spec in specs for trial in range(len(matrices))]
        fingerprints = (
            [repro_io.interval_fingerprint(matrix) for matrix in matrices]
            if self.cache is not None else [None] * len(matrices)
        )

        def run_cell(cell: Tuple[GridSpec, int]) -> ExperimentRecord:
            spec, trial = cell
            matrix = matrices[trial]
            effective_rank = min(rank, min(matrix.shape))
            seed = derive_seed(
                self.base_seed, experiment, spec.method, spec.target,
                effective_rank, trial,
            )
            start = time.perf_counter()
            decomposition, cache_hit = self.decompose(
                matrix, spec.method, effective_rank, target=spec.target, seed=seed,
                fingerprint=fingerprints[trial],
            )
            value = float(score_fn(matrix, decomposition))
            return ExperimentRecord(
                experiment=experiment,
                trial=trial,
                method=spec.method,
                label=spec.label,
                target=spec.target,
                rank=effective_rank,
                seed=seed,
                metric=metric,
                value=value,
                duration=time.perf_counter() - start,
                cache_hit=cache_hit,
                timings=dict(decomposition.timings),
            )

        return GridResult(records=self.map(run_cell, cells))
