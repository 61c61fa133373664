"""Tests of the asyncio serving front end.

Three properties anchor the suite:

* **byte parity** — every response body (success *and* error paths) is
  byte-identical to the threaded server's over the same store;
* **slow-client isolation** — clients trickling their requests occupy
  coroutines, not executor threads, so healthy clients keep (almost) full
  throughput while a crowd of slow clients is connected;
* **hitless reshard** — a query loop running across a live republish sees
  zero non-200 responses and byte-identical bodies throughout, served by
  the worker-process backend.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core import registry
from repro.interval.random import random_interval_matrix
from repro.serve.async_http import AsyncServingServer, create_async_server
from repro.serve.http import ServingApp, create_server
from repro.serve.shard import ShardedModelStore
from repro.serve.store import ModelStore


def _request(address, method, path, payload=None):
    """One HTTP exchange; returns (status, raw body bytes)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module")
def model_matrix():
    matrix = random_interval_matrix((20, 12), interval_intensity=0.5, rng=42)
    decomposition = registry.get("isvd4").fit(matrix, 5, target="b")
    return matrix, decomposition


@pytest.fixture(scope="module")
def both_servers(tmp_path_factory, model_matrix):
    """The async and the threaded server over one shared store."""
    matrix, decomposition = model_matrix
    store = ModelStore(tmp_path_factory.mktemp("store"))
    store.save("m1", decomposition, matrix=matrix)

    threaded = create_server(store, port=0, max_batch=8, batch_delay=0.001)
    threaded_address = threaded.server_address[:2]
    thread = threading.Thread(target=threaded.serve_forever, daemon=True)
    thread.start()

    asynchronous = create_async_server(store, port=0, max_batch=8,
                                       batch_delay=0.001)
    async_address = asynchronous.start_background()
    try:
        yield {"matrix": matrix, "async": async_address,
               "threaded": threaded_address}
    finally:
        asynchronous.stop()
        threaded.shutdown()
        threaded.server_close()
        threaded.app.close()
        thread.join(timeout=5)


class TestByteParityWithThreadedServer:
    def _assert_both(self, servers, method, path, payload=None):
        expected = _request(servers["threaded"], method, path, payload)
        actual = _request(servers["async"], method, path, payload)
        assert actual == expected  # status AND body, byte for byte
        return actual

    def test_models_and_healthz(self, both_servers):
        self._assert_both(both_servers, "GET", "/models")
        status, body = _request(both_servers["async"], "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_recommend_and_neighbors(self, both_servers):
        matrix = both_servers["matrix"]
        payload = {"model": "m1", "k": 4,
                   "lower": matrix.lower.tolist(),
                   "upper": matrix.upper.tolist()}
        self._assert_both(both_servers, "POST", "/recommend", payload)
        self._assert_both(both_servers, "POST", "/neighbors",
                          dict(payload, k=3))

    def test_error_paths_match(self, both_servers):
        matrix = both_servers["matrix"]
        rows = {"lower": matrix.lower.tolist(),
                "upper": matrix.upper.tolist()}
        for method, path, payload in [
            ("POST", "/recommend", {"model": "absent", "k": 2, **rows}),
            ("POST", "/recommend", {"model": "m1"}),  # no rows
            ("POST", "/recommend", {"model": "m1", "k": 0, **rows}),
            ("POST", "/nowhere", {"model": "m1"}),
            ("GET", "/nowhere", None),
        ]:
            status, _ = self._assert_both(both_servers, method, path, payload)
            assert status in (400, 404)

    def test_keep_alive_carries_multiple_requests(self, both_servers):
        connection = http.client.HTTPConnection(*both_servers["async"],
                                                timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/models")
                response = connection.getresponse()
                assert response.status == 200
                response.read()  # drain so the connection is reusable
        finally:
            connection.close()


class TestProtocolErrors:
    def _raw(self, address, data, timeout=10):
        with socket.create_connection(address, timeout=timeout) as raw:
            raw.sendall(data)
            raw.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_malformed_request_line_is_400(self, both_servers):
        reply = self._raw(both_servers["async"], b"NONSENSE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_bad_json_body_is_400(self, both_servers):
        body = b"{not json"
        head = (f"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        reply = self._raw(both_servers["async"], head + body)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_non_object_json_body_is_400(self, both_servers):
        body = b"[1, 2, 3]"
        head = (f"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        reply = self._raw(both_servers["async"], head + body)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_invalid_content_length_is_400(self, both_servers):
        reply = self._raw(both_servers["async"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: banana\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_body_is_413_before_reading_it(self, both_servers):
        reply = self._raw(both_servers["async"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: 99999999999\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 413")

    def test_chunked_bodies_are_rejected(self, both_servers):
        reply = self._raw(both_servers["async"],
                          b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                          b"Transfer-Encoding: chunked\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")

    def test_clean_disconnect_gets_no_error_response(self, both_servers):
        # Opening and closing without sending anything is not an error the
        # server should answer (or log a traceback for).
        with socket.create_connection(both_servers["async"], timeout=10):
            pass
        status, _ = _request(both_servers["async"], "GET", "/models")
        assert status == 200  # server is unbothered


class TestCleanShutdown:
    def test_stop_with_parked_keep_alive_connection_is_silent(
            self, tmp_path, capfd, caplog):
        # A keep-alive connection parked between requests is cancelled by
        # stop(); that must not surface as a CancelledError traceback.
        server = create_async_server(ModelStore(tmp_path / "store"), port=0)
        address = server.start_background()
        connection = http.client.HTTPConnection(*address, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            capfd.readouterr()
            with caplog.at_level("ERROR"):
                server.stop()
        finally:
            connection.close()
        assert capfd.readouterr().err == ""
        assert [r for r in caplog.records if r.levelname == "ERROR"] == []


class TestSlowClientsDoNotStarveHealthyOnes:
    N_SLOW = 8
    WINDOW = 1.5  # seconds per measurement

    def _measure_throughput(self, address, payload, n_threads=4):
        """Completed healthy requests across a fixed wall-clock window."""
        body = json.dumps(payload).encode()
        stop = time.monotonic() + self.WINDOW
        counts = [0] * n_threads

        def client(slot):
            connection = http.client.HTTPConnection(*address, timeout=30)
            try:
                while time.monotonic() < stop:
                    connection.request(
                        "POST", "/recommend", body=body,
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    counts[slot] += 1
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(counts)

    def test_healthy_throughput_survives_a_crowd_of_slow_clients(
            self, tmp_path, model_matrix):
        matrix, decomposition = model_matrix
        store = ModelStore(tmp_path / "models")
        store.save("m1", decomposition, matrix=matrix)
        # A small executor: if slow clients reached it, 8 of them would
        # starve all 4 threads and healthy throughput would collapse.
        server = AsyncServingServer(
            ServingApp(store, max_batch=8, batch_delay=0.001),
            port=0, executor_threads=4)
        address = server.start_background()
        payload = {"model": "m1", "k": 3,
                   "lower": matrix.lower[:1].tolist(),
                   "upper": matrix.upper[:1].tolist()}
        slow_sockets = []
        try:
            baseline = self._measure_throughput(address, payload)
            # Slow clients: a valid request head opening, then… nothing.
            # Each holds a coroutine inside the head-read timeout forever
            # (from the test's perspective).
            for _ in range(self.N_SLOW):
                slow = socket.create_connection(address, timeout=30)
                slow.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n")
                slow_sockets.append(slow)
            time.sleep(0.1)  # let the server park them all
            contended = self._measure_throughput(address, payload)
        finally:
            for slow in slow_sockets:
                slow.close()
            server.stop()
        assert baseline > 0
        assert contended >= 0.8 * baseline, (
            f"slow clients cut healthy throughput to {contended}/{baseline} "
            f"requests per {self.WINDOW}s window"
        )


class TestHitlessReshard:
    def test_zero_non_200_and_identical_bodies_across_republish(
            self, tmp_path, model_matrix):
        matrix, decomposition = model_matrix
        store = ShardedModelStore(tmp_path / "models")
        store.save_sharded("m1", decomposition, 2, matrix=matrix)
        server = create_async_server(store, port=0, max_batch=8,
                                     batch_delay=0.001, workers=True)
        address = server.start_background()
        payload = {"model": "m1", "k": 4,
                   "lower": matrix.lower.tolist(),
                   "upper": matrix.upper.tolist()}
        failures = []
        bodies = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, body = _request(address, "POST", "/recommend",
                                            payload)
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    failures.append(repr(error))
                    return
                if status != 200:
                    failures.append((status, body))
                    return
                bodies.append(body)

        try:
            # Pin down the pre-reshard answer first.
            status, reference = _request(address, "POST", "/recommend",
                                         payload)
            assert status == 200
            client = threading.Thread(target=hammer)
            client.start()
            try:
                # Republish the same factors mid-traffic: generation 1 -> 2.
                # The swap must be invisible except for generation metadata.
                store.save_sharded("m1", decomposition, 2, matrix=matrix)
                # Keep querying until the app has demonstrably swapped to
                # the new generation, then a little longer.
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    status, body = _request(address, "GET", "/healthz")
                    assert status == 200
                    serving = json.loads(body)["serving"]
                    if serving.get("m1", {}).get("generation") == 2:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("app never served generation 2")
            finally:
                stop.set()
                client.join(timeout=60)
            assert not failures, f"non-200 during reshard: {failures[:3]}"
            assert bodies, "the query loop never completed a request"
            assert all(body == reference for body in bodies), \
                "a response changed bytes across the reshard"
        finally:
            server.stop()
