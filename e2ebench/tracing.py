"""Span recording around the program's public layer entry points.

Only the traced run uses this module.  :func:`install_serving` and
:func:`install_fit` wrap each timed function where it is defined *and* where
it was imported by name (e.g. ``top_k`` inside ``repro.serve.http`` and
``repro.serve.shard``), so every call site records.  A span is
``(id, name, start, end, parent, request, extra)``: the parent comes from a
thread-local stack, the request is the ``"id"`` of the HTTP payload at the
root of the stack.  Pool threads of the scatter routers get their caller's
context through a wrapper around the router's task runner, so per-shard work
stays attached to its request.  Spans stay in memory and are written out once,
when the process exits.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.batch_waits: List[Tuple[Optional[int], float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._batch_runs: Dict[int, Tuple[float, float]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Tuple[Optional[int], Optional[int]]:
        """``(parent span id, request id)`` of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def span(self, name: str, fn: Callable, *args, request=None, extra=None,
             context=None, **kwargs):
        """Run ``fn`` inside a span; ``context`` overrides the thread's own
        (for work handed to a pool thread)."""
        parent, inherited = context if context is not None else self.context()
        request = inherited if request is None else request
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, request))
        start = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _clock()
            stack.pop()
            size = extra(args, result) if extra is not None else None
            with self._lock:
                self.spans.append([span_id, name, start, end, parent, request, size])

    # -- micro-batcher bookkeeping --------------------------------------- #
    def note_batch(self, requests, start: float, end: float) -> None:
        with self._lock:
            for request in requests:
                self._batch_runs[id(request)] = (start, end)

    def note_batch_wait(self, request, duration: float) -> None:
        with self._lock:
            run = self._batch_runs.pop(id(request), None)
            if run is not None:
                self.batch_waits.append((self.context()[1], duration - (run[1] - run[0])))

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": self.spans, "batch_waits": self.batch_waits}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _patch(recorder: Recorder, owners, attribute: str, name: str, extra=None) -> None:
    """Wrap ``attribute`` on every owner (module or class) that holds the same
    original function object."""
    original = getattr(owners[0], attribute)

    def traced(*args, **kwargs):
        return recorder.span(name, original, *args, extra=extra, **kwargs)

    for owner in owners:
        if getattr(owner, attribute, None) is original:
            setattr(owner, attribute, traced)


def _request_root(recorder: Recorder, name: str, fn: Callable) -> Callable:
    def traced(self, payload):
        request = payload.get("id") if isinstance(payload, dict) else None
        return recorder.span(name, fn, self, payload, request=request)

    return traced


def _propagating_run(recorder: Recorder, fn: Callable) -> Callable:
    """Wrap a router's ``_run(tasks)`` so each task, on whatever pool thread
    runs it, records a ``scatter.task`` span under the caller's context."""
    def traced(self, tasks):
        context = recorder.context()
        bound = [(lambda task=task: recorder.span("scatter.task", task,
                                                  context=context))
                 for task in tasks]
        return fn(self, bound)

    return traced


def install_serving(recorder: Recorder) -> None:
    """Wrap every serving-side layer entry point the per-layer metrics use."""
    from repro.serve import batching, foldin, http, protocol, query, shard, worker, store

    http.ServingApp.recommend = _request_root(recorder, "app", http.ServingApp.recommend)
    http.ServingApp.neighbors = _request_root(recorder, "app", http.ServingApp.neighbors)
    _patch(recorder, [http.ServingApp], "engine", "app.engine")
    _patch(recorder, [store.ModelStore], "record", "store.record")
    _patch(recorder, [store.ModelStore], "load", "store.load")
    _patch(recorder, [shard.ShardedModelStore], "load_shards", "store.load")
    _patch(recorder, [shard.ShardedModelStore], "load_shard", "store.load")

    submit = batching.MicroBatcher.submit
    init = batching.MicroBatcher.__init__

    def traced_init(self, run_batch, *args, **kwargs):
        def traced_batch(requests):
            start = _clock()
            try:
                return recorder.span("batching.run", run_batch, requests)
            finally:
                recorder.note_batch(requests, start, _clock())

        init(self, traced_batch, *args, **kwargs)

    def traced_submit(self, request):
        start = _clock()
        try:
            return recorder.span("batching.submit", submit, self, request)
        finally:
            recorder.note_batch_wait(request, _clock() - start)

    batching.MicroBatcher.__init__ = traced_init
    batching.MicroBatcher.submit = traced_submit

    _patch(recorder, [foldin.FoldInProjector], "reconstruct_rows", "foldin")
    _patch(recorder, [foldin.FoldInProjector], "latent_features", "foldin")
    _patch(recorder, [query.QueryEngine], "squared_distances_to_references", "knn")
    _patch(recorder, [query, http, shard, worker], "top_k", "query.topk")
    _patch(recorder, [query, http, shard, worker], "top_k_from_candidates", "query.topk")
    _patch(recorder, [shard.ShardedQueryEngine], "nearest_neighbor_candidates",
           "shard.candidates")
    shard.ShardedQueryEngine._run = _propagating_run(recorder, shard.ShardedQueryEngine._run)

    router = worker.WorkerShardedQueryEngine
    for method in ("nearest_neighbors", "nearest_neighbor_candidates",
                   "top_k_items", "reconstruct_rows"):
        _patch(recorder, [router], method, "worker.router")
    router._run = _propagating_run(recorder, router._run)
    _patch(recorder, [worker.ShardWorkerSupervisor], "call", "worker.call")
    _patch(recorder, [worker.ShardWorkerSupervisor], "start", "worker.spawn")
    # Front-end side of the worker wire.  write_frame encodes through the
    # module-global encode_frame; read_frame decodes through _decode_body
    # (read_frame itself also waits for the worker, so it is not the span).
    _patch(recorder, [protocol], "encode_frame", "protocol.encode",
           extra=lambda args, result: len(result) if result is not None else 0)
    _patch(recorder, [protocol], "_decode_body", "protocol.decode",
           extra=lambda args, result: len(args[0]) + 12)


def install_fit(recorder: Recorder) -> None:
    """Wrap the fit path's layer entry points (load, gram, publish)."""
    import importlib

    from repro import io as repro_io
    from repro.interval import linalg
    from repro.serve import store

    # ``repro.core`` re-exports the ``isvd`` function under the module's name.
    isvd = importlib.import_module("repro.core.isvd")

    _patch(recorder, [repro_io], "load_interval_npz", "io.load")
    _patch(recorder, [linalg, isvd], "interval_gram", "linalg.gram")
    _patch(recorder, [store.ModelStore], "save", "store.save")


# --------------------------------------------------------------------- #
# Analysis (runs in the benchmark process, on a dumped trace)
# --------------------------------------------------------------------- #
ID, NAME, START, END, PARENT, REQUEST, EXTRA = range(7)


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class Trace:
    """Spans of one traced server or fit process, with self times."""

    def __init__(self, path) -> None:
        with open(path) as handle:
            payload = json.load(handle)
        self.spans = payload["spans"]
        self.batch_waits = payload["batch_waits"]
        self.by_id = {span[ID]: span for span in self.spans}
        self.children: Dict[int, list] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                self.children.setdefault(span[PARENT], []).append(span)

    def named(self, name: str, requests=None) -> list:
        """Spans called ``name``; with ``requests``, only those serving one
        of the given request ids."""
        return [s for s in self.spans if s[NAME] == name
                and (requests is None or s[REQUEST] in requests)]

    def outermost(self, name: str, requests=None) -> list:
        """``named`` minus spans nested inside a span of the same name."""
        result = []
        for span in self.named(name, requests):
            parent = self.by_id.get(span[PARENT])
            while parent is not None and parent[NAME] != name:
                parent = self.by_id.get(parent[PARENT])
            if parent is None:
                result.append(span)
        return result

    def self_time(self, span) -> float:
        kids = self.children.get(span[ID], [])
        return (span[END] - span[START]) - _covered(
            span[START], span[END], [(k[START], k[END]) for k in kids])


def _total(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def serving_layers(trace: Trace, client_ms: Dict[int, float],
                   health: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics of a traced closed-loop phase.

    ``client_ms`` maps each measured request id to its client-side latency;
    only spans of those requests count towards per-request figures (the
    warm-up request that loads the engine is excluded).  Store loads and
    worker spawns are counted over the whole server life."""
    from common import percentile

    apps = {s[REQUEST]: s for s in trace.named("app") if s[REQUEST] in client_ms}
    requests = set(apps)
    n = max(1, len(apps))
    front = [client_ms[r] - 1e3 * (apps[r][END] - apps[r][START]) for r in apps]
    calls = [1e3 * (s[END] - s[START]) for s in trace.named("worker.call", requests)]
    encodes = trace.named("protocol.encode", requests)
    decodes = trace.named("protocol.decode", requests)
    waits = [w for r, w in trace.batch_waits if r in requests]
    serving = health.get("serving", {})
    workers = [w for entry in serving.values() for w in entry.get("workers", [])]
    batching = list(health.get("batching", {}).values())
    served = sum(b.get("requests_served", 0) for b in batching)
    batches = sum(b.get("batches_run", 0) for b in batching)

    def per_req_ms(spans) -> float:
        return 1e3 * _total(spans) / n

    return {
        "http.front_ms_per_req": sum(front) / n if front else 0.0,
        "http.front_p95_ms": percentile(front, 95) if front else 0.0,
        "http.app_self_ms_per_req": 1e3 * sum(trace.self_time(s) for s in apps.values()) / n,
        "store.record_calls_per_req": len(trace.named("store.record", requests)) / n,
        "store.ms_per_req": per_req_ms(trace.outermost("store.record", requests)),
        "store.load_s": _total(trace.outermost("store.load")),
        "batching.wait_ms_per_req": 1e3 * sum(waits) / n,
        "batching.mean_batch": served / batches if batches else 0.0,
        "foldin.ms_per_req": per_req_ms(trace.outermost("foldin", requests)),
        "knn.ms_per_req": per_req_ms(trace.named("knn", requests)),
        "query.topk_ms_per_req": per_req_ms(trace.outermost("query.topk", requests)),
        "shard.scatter_self_ms_per_req": 1e3 * sum(
            trace.self_time(s) for s in trace.named("shard.candidates", requests)) / n,
        "worker.call_p50_ms": percentile(calls, 50) if calls else 0.0,
        "worker.call_p95_ms": percentile(calls, 95) if calls else 0.0,
        "worker.calls_per_req": len(calls) / n,
        "worker.router_self_ms_per_req": 1e3 * sum(
            trace.self_time(s) for s in trace.named("worker.router", requests)) / n,
        "worker.restarts": float(sum(w.get("restarts", 0) for w in workers)),
        "worker.spawn_s": _total(trace.named("worker.spawn")),
        "protocol.encode_ms_per_req": per_req_ms(encodes),
        "protocol.decode_ms_per_req": per_req_ms(decodes),
        "protocol.bytes_per_req": float(sum(s[EXTRA] or 0 for s in encodes + decodes)) / n,
    }
