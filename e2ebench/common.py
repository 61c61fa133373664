"""Shared helpers: checkout paths, statistics, process inspection, run fingerprint."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import socket
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs from: the directory above ``e2ebench/``.
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is imported from the checkout's own sources only.
SRC = ROOT / "src"
#: Scratch space for generated stores, inputs and traces (git-ignored).
WORK = ROOT / ".e2ebench-work"


def use_checkout_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` and fail
    loudly when it is missing, so the benchmark never measures another copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: this checkout's sources first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample;
    ``inf`` entries (failed requests) sort above every latency."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def free_port() -> int:
    """A localhost port that was free a moment ago.  ``repro serve --workers``
    echoes ``--port 0`` instead of the bound port, so the launcher picks one."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process in MB, or ``None``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def pid_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] != "Z"


def wait_gone(pids: Iterable[int], timeout: float) -> List[int]:
    """Wait up to ``timeout`` seconds for every pid to exit; returns the
    ones still running."""
    pending = list(pids)
    deadline = time.monotonic() + timeout
    while True:
        pending = [pid for pid in pending if pid_running(pid)]
        if not pending or time.monotonic() >= deadline:
            return pending
        time.sleep(0.02)


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """``(busy, steal)`` clock ticks of all CPUs so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal ...
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - fields[3] - fields[4] - steal, steal


def steal_frac(start: Optional[Tuple[int, int]]) -> Optional[float]:
    """Share of the CPU time wanted since ``start`` that the hypervisor took
    (steal): a slow host shows here, not as a change of the code."""
    end = cpu_ticks()
    if start is None or end is None:
        return None
    busy, steal = end[0] - start[0], end[1] - start[1]
    return round(steal / (busy + steal), 4) if busy + steal else 0.0


def fingerprint(seed: int, workload: str, rate: Optional[float],
                cpu_start: Optional[Tuple[int, int]]) -> Dict[str, object]:
    """What a result depends on besides the code: cores, BLAS, versions,
    seed, and how much CPU the host took away during the run."""
    import numpy as np
    import scipy

    from repro.serve.shard import usable_cpu_count

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "workload": workload,
        "seed": seed,
        "open_loop_rate_rps": rate,
        "usable_cores": usable_cpu_count(),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "host_steal_frac": steal_frac(cpu_start),
    }
