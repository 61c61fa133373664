"""A ``repro serve`` child process started through the benchmark's launcher."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import child_env, free_port, vm_hwm_mb, wait_gone
from loadgen import Connection

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
#: Seconds a server may take from process start to its first correct answer.
READY_TIMEOUT = 120.0
#: Seconds a server may take to exit (and reap its workers) after SIGINT.
STOP_TIMEOUT = 30.0


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """``repro serve --store DIR --port P [--workers 2]`` via the CLI entry
    point; with ``trace_out`` the launcher records spans into that file."""

    def __init__(self, store_dir: Path, workers: bool, log_path: Path,
                 trace_out: Optional[Path] = None):
        self.port = free_port()
        command = [sys.executable, str(LAUNCHER)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["serve", "--store", str(store_dir), "--port", str(self.port)]
        if workers:
            command += ["--workers", "2"]
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, env=child_env(),
                                        stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL,
                                        stderr=self._log)
        self.worker_pids: List[int] = []

    def wait_ready(self, path: str, body: bytes, check) -> float:
        """Seconds from process start until ``body`` got a correct answer."""
        connection = Connection(self.port)
        deadline = self.started + READY_TIMEOUT
        try:
            while time.perf_counter() < deadline:
                if self.process.poll() is not None:
                    raise ServerError(
                        f"server exited with {self.process.returncode} during "
                        f"start-up; see {self.log_path}")
                status, reply = connection.request("POST", path, body)
                if status is None:  # not listening yet
                    time.sleep(0.005)
                    continue
                if not check(status, reply):
                    raise ServerError(f"first reply was wrong (status {status})")
                return time.perf_counter() - self.started
        finally:
            connection.close()
        raise ServerError(f"server not ready after {READY_TIMEOUT}s")

    def health(self) -> Dict[str, object]:
        connection = Connection(self.port)
        try:
            status, body = connection.request("GET", "/healthz")
        finally:
            connection.close()
        if status != 200:
            raise ServerError(f"/healthz answered {status}")
        payload = json.loads(body)
        self.worker_pids = [worker["pid"]
                            for entry in payload.get("serving", {}).values()
                            for worker in entry.get("workers", [])
                            if worker.get("pid") is not None]
        return payload

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus every worker process it reported."""
        total = 0.0
        for pid in [self.process.pid] + self.worker_pids:
            peak = vm_hwm_mb(pid)
            if peak is None:
                raise ServerError(f"no memory figures for pid {pid}")
            total += peak
        return total

    def stop(self) -> List[str]:
        """Ctrl-C the server, wait for it and its workers to exit; returns
        hygiene problems (a process that had to be killed or outlived it)."""
        problems: List[str] = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                problems.append(f"server pid {self.process.pid} ignored SIGINT")
                self.process.kill()
                self.process.wait()
        if self.process.returncode not in (0, -signal.SIGINT):
            problems.append(f"server exited with {self.process.returncode}")
        for pid in wait_gone(self.worker_pids, 5.0):
            problems.append(f"worker pid {pid} outlived its server")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self._log.close()
        return problems
