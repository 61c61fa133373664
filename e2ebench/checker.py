"""Answer checking: every served reply and every published fit is compared
against a reference computed outside the server.

Serving is byte-identical by contract (docs/ARCHITECTURE.md): batching,
sharding and worker processes never change an answer.  So the reference for a
request is an in-process :class:`~repro.serve.query.QueryEngine` over the
unsharded decomposition the benchmark generated, and a reply must match it
exactly — indices equal and floats equal after the JSON round trip.

The fit is checked by loading the published model through
``ModelStore.load`` (rank, shape) and comparing its Sigma endpoints with
values recorded per seed in ``sigma_reference.json``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import WORK

SIGMA_REFERENCE = Path(__file__).resolve().parent / "sigma_reference.json"
#: Relative tolerance on Sigma endpoints.  The fit is deterministic on one
#: machine; the slack absorbs BLAS reduction-order differences between
#: thread counts and CPU kernels, and is far below any algorithmic change.
SIGMA_RTOL = 1e-6


def expected_reply(operation: str, model: str, k: int, result) -> Dict[str, object]:
    """The JSON object a correct server returns for one query."""
    index_key, value_key = (("items", "scores") if operation == "recommend"
                            else ("neighbors", "distances"))
    return {"model": model, "k": k, index_key: result.indices.tolist(),
            value_key: result.scores.tolist()}


def reference_answers(operation: str, model: str, k: int, decomposition,
                      payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Expected reply for every payload, from an in-process reference engine."""
    from repro.interval.array import IntervalMatrix
    from repro.serve.query import QueryEngine

    engine = QueryEngine(decomposition)
    answers = []
    for payload in payloads:
        lower = np.atleast_2d(np.asarray(payload["lower"], dtype=float))
        upper = np.atleast_2d(np.asarray(payload["upper"], dtype=float))
        rows = IntervalMatrix(lower, upper)
        result = (engine.top_k_items(rows, k) if operation == "recommend"
                  else engine.nearest_neighbors(rows, k))
        answers.append(expected_reply(operation, model, k, result))
    return answers


class ReplyChecker:
    """Compares raw HTTP replies with the expected answers of a request pool."""

    def __init__(self, expected: Sequence[Dict[str, object]]):
        # Normalise through one JSON round trip, as the reply itself went.
        self.expected = [json.loads(json.dumps(answer)) for answer in expected]

    def check(self, index: int, status: Optional[int], body: Optional[bytes]) -> bool:
        """True only for a 200 whose JSON equals the expected answer."""
        if status != 200 or body is None:
            return False
        try:
            reply = json.loads(body)
        except ValueError:
            return False
        return reply == self.expected[index % len(self.expected)]


def sigma_endpoints(decomposition) -> Dict[str, List[float]]:
    sigma = decomposition.sigma
    return {"lower": np.diag(sigma.lower).tolist(),
            "upper": np.diag(sigma.upper).tolist()}


def compare_sigma(actual: Dict[str, Sequence[float]],
                  reference: Dict[str, Sequence[float]]) -> Optional[str]:
    """``None`` when every endpoint agrees within ``SIGMA_RTOL``, else the reason."""
    for side in ("lower", "upper"):
        got = np.asarray(actual[side], dtype=float)
        want = np.asarray(reference[side], dtype=float)
        if got.shape != want.shape:
            return f"sigma {side} has shape {got.shape}, expected {want.shape}"
        if not np.allclose(got, want, rtol=SIGMA_RTOL, atol=0.0):
            worst = float(np.max(np.abs(got - want) / np.abs(want)))
            return f"sigma {side} differs from the reference (max rel err {worst:.3g})"
    return None


def load_sigma_reference() -> Dict[str, Dict[str, List[float]]]:
    if not SIGMA_REFERENCE.is_file():
        return {}
    return json.loads(SIGMA_REFERENCE.read_text())["seeds"]


def check_published_fit(store_dir: Path, model: str, rank: int,
                        shape: Sequence[int],
                        reference: Dict[str, List[float]]) -> Optional[str]:
    """Load the published fit as a server would and check it (loadable,
    rank, shape, finite ordered Sigma equal to ``reference``); ``None`` = ok."""
    from repro.serve.store import ModelStore, ModelStoreError

    try:
        decomposition, record = ModelStore(store_dir).load(model)
    except (ModelStoreError, OSError, ValueError, KeyError) as error:
        return f"published model does not load: {error}"
    if record.rank != rank or decomposition.rank != rank:
        return f"published rank {record.rank}, expected {rank}"
    if tuple(record.shape) != tuple(shape):
        return f"published shape {tuple(record.shape)}, expected {tuple(shape)}"
    actual = sigma_endpoints(decomposition)
    lower, upper = np.asarray(actual["lower"]), np.asarray(actual["upper"])
    if lower.shape != (rank,) or not (np.isfinite(lower).all()
                                      and np.isfinite(upper).all()
                                      and (lower <= upper).all()):
        return "published sigma is not a finite ordered rank-length interval vector"
    return compare_sigma(actual, reference)


def self_test() -> None:
    """Prove the checkers catch what they exist to catch: a reply that does
    not match a (deliberately corrupted) expected answer, and a corrupted
    Sigma.  Raises ``AssertionError`` if either slips through."""
    from repro.serve.http import ServingApp
    from repro.serve.store import ModelStore

    from inputs import ServingSpec, query_rows, request_payloads, \
        synthetic_decomposition, publish

    spec = ServingSpec("selftest", "tiny", 60, 12, 3, None, "recommend", 1, 1.0)
    decomposition = synthetic_decomposition(spec, seed=0)
    store_dir = WORK / "selftest-store"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        publish(spec, decomposition, store_dir)
        payloads = request_payloads(spec, *query_rows(spec, seed=0))[:2]
        expected = reference_answers("recommend", spec.model, 3,
                                     decomposition, [dict(p, k=3) for p in payloads])
        app = ServingApp(ModelStore(store_dir), max_batch=1)
        try:
            reply = json.dumps(app.recommend(dict(payloads[0], k=3))).encode()
        finally:
            app.close()
        if not ReplyChecker(expected).check(0, 200, reply):
            raise AssertionError("checker rejected a correct reply")
        corrupted = json.loads(json.dumps(expected))
        last = corrupted[0]["scores"][0]
        last[-1] = float(np.nextafter(last[-1], np.inf))
        if ReplyChecker(corrupted).check(0, 200, reply):
            raise AssertionError("checker accepted a reply against a corrupted answer")
        if ReplyChecker(expected).check(0, 503, reply):
            raise AssertionError("checker accepted a non-200 reply")
        sigma = sigma_endpoints(decomposition)
        if compare_sigma(sigma, sigma) is not None:
            raise AssertionError("sigma check rejected identical endpoints")
        bad = {"lower": list(sigma["lower"]), "upper": list(sigma["upper"])}
        bad["upper"][0] *= 1.0 + 10 * SIGMA_RTOL
        if compare_sigma(sigma, bad) is None:
            raise AssertionError("sigma check accepted a corrupted reference")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
