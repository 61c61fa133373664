"""Load generation from one process over at most two keep-alive connections.

* :func:`closed_loop` — each client sends its next request when the reply to
  the previous one has arrived (callers that wait for an answer);
* :func:`open_loop` — a dispatcher releases requests on a seeded Poisson
  schedule whatever the server's state (independent users); latency is timed
  from when each request was *due*, so a stall also charges the requests
  queued behind it, and the dispatcher's own lateness is recorded.

Every reply is checked as it arrives; a wrong answer, non-200 status, timeout
or dropped connection counts as failed, and failed requests count as
exceeding every latency (``inf``).
"""

from __future__ import annotations

import http.client
import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Keep-alive connections (clients) in either loop: one per core of the
#: 2-core host the benchmark was defined on.
CONNECTIONS = 2

Check = Callable[[int, Optional[int], Optional[bytes]], bool]


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after any failure."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[Optional[int], Optional[bytes]]:
        """``(status, body)``, or ``(None, None)`` when the exchange failed."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
                self._conn.connect()
                # http.client sends a request's headers and body in two
                # writes; without TCP_NODELAY (which curl and urllib3 set
                # too) the client's own Nagle delay would stall the body's
                # tail.  Replies are untouched: the server's sends and the
                # client's delayed ACKs behave as for any client.
                self._conn.sock.setsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY, 1)
            headers = {"Content-Type": "application/json"} if body else {}
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class PhaseResult:
    name: str
    latencies_ms: List[float] = field(default_factory=list)  # inf = failed
    by_request: Dict[int, float] = field(default_factory=dict)
    failed: int = 0
    elapsed_s: float = 0.0
    late_ms: List[float] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.latencies_ms)

    @property
    def correct(self) -> int:
        return self.sent - self.failed

    def record(self, request_id: int, latency_ms: float, ok: bool) -> None:
        if not ok:
            self.failed += 1
            latency_ms = float("inf")
        self.latencies_ms.append(latency_ms)
        self.by_request[request_id] = latency_ms


class Traffic:
    """The request stream: pooled body templates, ids, and the checker."""

    def __init__(self, path: str, bodies: Sequence[Callable[[int], bytes]],
                 check: Check):
        self.path = path
        self.bodies = bodies
        self.check = check
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def send(self, connection: Connection, request_id: int) -> Tuple[bool, float]:
        """Send one request; returns (correct, completion time)."""
        index = request_id % len(self.bodies)
        status, body = connection.request("POST", self.path,
                                          self.bodies[index](request_id))
        done = time.perf_counter()
        return self.check(index, status, body), done


def closed_loop(port: int, traffic: Traffic, duration: float) -> PhaseResult:
    result = PhaseResult("closed")
    lock = threading.Lock()
    start = time.perf_counter()
    stop = start + duration
    finished: List[float] = []

    def client() -> None:
        connection = Connection(port)
        try:
            while time.perf_counter() < stop:
                request_id = traffic.next_id()
                sent = time.perf_counter()
                ok, done = traffic.send(connection, request_id)
                with lock:
                    result.record(request_id, 1e3 * (done - sent), ok)
        finally:
            connection.close()
            with lock:
                finished.append(time.perf_counter())

    threads = [threading.Thread(target=client, name=f"closed-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration + REQUEST_TIMEOUT + 5.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("closed-loop client did not finish")
    result.elapsed_s = max(finished) - start
    return result


def open_loop(port: int, traffic: Traffic, offsets: Sequence[float]) -> PhaseResult:
    result = PhaseResult("open")
    lock = threading.Lock()
    due_queue: "queue.Queue[Optional[Tuple[int, float]]]" = queue.Queue()

    def sender() -> None:
        connection = Connection(port)
        try:
            while True:
                item = due_queue.get()
                if item is None:
                    return
                request_id, due = item
                ok, done = traffic.send(connection, request_id)
                with lock:
                    result.record(request_id, 1e3 * (done - due), ok)
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, name=f"open-{i}")
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    for offset in offsets:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result.late_ms.append(1e3 * max(0.0, time.perf_counter() - due))
        due_queue.put((traffic.next_id(), due))
    for _ in threads:
        due_queue.put(None)
    for thread in threads:
        thread.join(REQUEST_TIMEOUT * (1 + due_queue.qsize()) + 5.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop sender did not finish")
    result.elapsed_s = time.perf_counter() - start
    return result
