"""The repository benchmark: live-HTTP serving over both shard backends plus
the sparse ISVD fit, end to end, with a traced per-layer run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload recommend-wide --seed 1 --seconds 30 --trace 0

Workloads: ``recommend-wide`` and ``fit-webscale`` (see e2ebench/README.md
for what each stresses and why, and where the sharded neighbours path is
measured).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any answer was wrong or any process outlived the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import common
from common import WORK, child_env, percentile

HERE = Path(__file__).resolve().parent
#: Server starts per untraced serving run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Model publishes per serving run; ``fit_s`` is their median.
PUBLISH_REPEATS = 3
#: Open-loop requests per untraced run: 400 puts twenty samples beyond p95.
OPEN_SAMPLES = 400
#: Shortest closed-loop phase; the closed loop gets what ``--seconds`` leaves
#: after the open loop (``OPEN_SAMPLES / rate`` seconds).
MIN_CLOSED_S = 5.0
#: Fewest fit jobs an untraced ``fit-webscale`` run makes.
MIN_FIT_JOBS = 3

UNITS = {
    "setup_s": "s", "throughput_rps": "req/s", "latency_p50_ms": "ms",
    "latency_p95_ms": "ms", "fit_s": "s", "peak_rss_mb": "MB",
    "http.front_ms_per_req": "ms", "http.front_p95_ms": "ms",
    "http.app_self_ms_per_req": "ms", "store.record_calls_per_req": "count",
    "store.ms_per_req": "ms", "store.load_s": "s", "store.save_s": "s",
    "batching.wait_ms_per_req": "ms", "batching.mean_batch": "count",
    "foldin.ms_per_req": "ms", "knn.ms_per_req": "ms",
    "query.topk_ms_per_req": "ms", "shard.scatter_self_ms_per_req": "ms",
    "worker.call_p50_ms": "ms", "worker.call_p95_ms": "ms",
    "worker.calls_per_req": "count", "worker.router_self_ms_per_req": "ms",
    "worker.restarts": "count", "worker.spawn_s": "s",
    "protocol.encode_ms_per_req": "ms", "protocol.decode_ms_per_req": "ms",
    "protocol.bytes_per_req": "bytes", "io.load_s": "s", "linalg.gram_s": "s",
    "linalg.gram_ops": "flop", "linalg.gram_bytes": "bytes",
    "isvd.decomposition_s": "s", "isvd.alignment_s": "s",
    "isvd.recomposition_s": "s", "loadgen.late_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
}
END_TO_END = ["setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms",
              "fit_s", "peak_rss_mb"]
PER_LAYER = [name for name in UNITS if name not in END_TO_END]


class Run:
    """Counters and findings of one benchmark invocation."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, object]] = {}
        self.problems: List[str] = []

    def phase(self, name: str, sent: int, failed: int, **extra) -> None:
        entry = self.phases.setdefault(name, {"ops_sent": 0, "ops_failed": 0})
        entry["ops_sent"] += sent
        entry["ops_failed"] += failed
        entry.update(extra)

    @property
    def attempted(self) -> int:
        return sum(p["ops_sent"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["ops_failed"] for p in self.phases.values())


# --------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------- #
def _prepare_serving(spec, seed: int, work: Path, publishes: int):
    import inputs
    from checker import ReplyChecker, reference_answers

    decomposition = inputs.synthetic_decomposition(spec, seed)
    publish_s = []
    for i in range(publishes):
        store_dir = work / f"store-{i}"
        start = time.perf_counter()
        inputs.publish(spec, decomposition, store_dir)
        publish_s.append(time.perf_counter() - start)
    payloads = inputs.request_payloads(spec, *inputs.query_rows(spec, seed))
    expected = reference_answers(spec.operation, spec.model, inputs.K,
                                 decomposition, payloads)
    checker = ReplyChecker(expected)
    templates = [inputs.body_template(p) for p in payloads]
    bodies = [(lambda request_id, t=t: inputs.with_id(t, request_id))
              for t in templates]
    return store_dir, publish_s, checker, bodies


def _start(store_dir: Path, work: Path, traffic, run: Run, probe_id: int,
           workers: bool = False, trace_out: Optional[Path] = None):
    from server import ServerProcess

    server = ServerProcess(store_dir, workers, work / "server.log",
                           trace_out=trace_out)
    try:
        setup = server.wait_ready(traffic.path, traffic.bodies[0](probe_id),
                                  lambda status, body: traffic.check(0, status, body))
        server.health()
    except Exception:
        run.phase("setup", 1, 1)
        run.problems.extend(server.stop())
        raise
    run.phase("setup", 1, 0)
    return server, setup


def _stop(server, run: Run) -> None:
    run.problems.extend(server.stop())


def _record_phase(run: Run, result) -> None:
    run.phase(result.name, result.sent, result.failed,
              samples=result.sent, elapsed_s=round(result.elapsed_s, 3))


def run_serving(spec, seed: int, seconds: float, trace: bool, work: Path,
                run: Run) -> Dict[str, float]:
    import inputs
    from loadgen import REQUEST_TIMEOUT, Traffic, closed_loop, open_loop

    if trace:
        return _traced_layers(spec, seed, seconds, work, run)
    store_dir, publish_s, checker, bodies = _prepare_serving(
        spec, seed, work, PUBLISH_REPEATS)
    traffic = Traffic("/" + spec.operation, bodies, checker.check)
    setups = []
    for attempt in range(SETUP_REPEATS):
        server, setup = _start(store_dir, work, traffic, run, -1 - attempt)
        setups.append(setup)
        if attempt < SETUP_REPEATS - 1:
            _stop(server, run)
    try:
        closed = closed_loop(server.port, traffic, max(
            MIN_CLOSED_S, seconds - OPEN_SAMPLES / spec.open_rate))
        _record_phase(run, closed)
        opened = open_loop(server.port, traffic,
                           inputs.arrivals(seed, spec.open_rate, OPEN_SAMPLES))
        _record_phase(run, opened)
        server.health()
        rss = server.peak_rss_mb()
    finally:
        _stop(server, run)
    beyond = sum(1 for v in opened.latencies_ms
                 if v > percentile(opened.latencies_ms, 95))
    run.phases["open"].update(beyond_p95=beyond,
                              late_p95_ms=percentile(opened.late_ms, 95))
    if beyond < 10:
        run.problems.append(f"only {beyond} open-loop samples beyond p95 (need 10)")
    # A failed request sorts above every latency; where one lands on a
    # reported percentile, it is charged the request timeout (JSON has no
    # infinity).
    charged = [min(v, REQUEST_TIMEOUT * 1e3) for v in opened.latencies_ms]
    return {
        "setup_s": median(setups),
        "throughput_rps": closed.correct / closed.elapsed_s,
        "latency_p50_ms": percentile(charged, 50),
        "latency_p95_ms": percentile(charged, 95),
        "fit_s": median(publish_s),
        "peak_rss_mb": rss,
    }


#: Per-layer metrics read from the traced neighbours phases, by backend
#: (``--workers`` or not); everything else comes from the workload's own
#: traced server.
NEIGHBOR_LAYERS = {False: ("knn.", "query.topk", "shard."),
                   True: ("worker.", "protocol.")}


def _traced_phase(store_dir: Path, work: Path, traffic, run: Run, seconds: float,
                  workers: bool, name: str):
    """Closed loop against a traced server; returns (layers, phase result)."""
    from loadgen import closed_loop
    from tracing import Trace, serving_layers

    trace_path = work / f"{name}.json"
    server, _ = _start(store_dir, work, traffic, run, -1,
                       workers=workers, trace_out=trace_path)
    try:
        traced = closed_loop(server.port, traffic, seconds)
        traced.name = name
        _record_phase(run, traced)
        health = server.health()
    finally:
        _stop(server, run)
    client_ms = {r: ms for r, ms in traced.by_request.items() if ms != float("inf")}
    return serving_layers(Trace(trace_path), client_ms, health), traced


def _traced_layers(spec, seed: int, seconds: float, work: Path, run: Run) -> Dict[str, float]:
    """The per-layer run, in five equal slots: the untraced server (closed
    loop, then an open loop for generator lateness), the same server traced
    (closed loop), then the sharded neighbours model traced behind
    ``repro serve`` (thread scatter) and ``repro serve --workers 2``."""
    import inputs
    from loadgen import Traffic, closed_loop, open_loop

    slot = seconds / 5
    store_dir, _, checker, bodies = _prepare_serving(spec, seed, work, 1)
    traffic = Traffic("/" + spec.operation, bodies, checker.check)
    server, _ = _start(store_dir, work, traffic, run, -1)
    try:
        baseline = closed_loop(server.port, traffic, slot)
        _record_phase(run, baseline)
        opened = open_loop(server.port, traffic, inputs.arrivals(
            seed, spec.open_rate, max(1, round(spec.open_rate * slot))))
        _record_phase(run, opened)
    finally:
        _stop(server, run)
    metrics = {name: 0.0 for name in PER_LAYER}
    layers, traced = _traced_phase(store_dir, work, traffic, run, slot, False, "traced")
    metrics.update(layers)
    metrics["trace.overhead_frac"] = ((baseline.correct / baseline.elapsed_s)
                                      / (traced.correct / traced.elapsed_s) - 1.0)
    metrics["loadgen.late_p95_ms"] = percentile(opened.late_ms, 95)

    neighbors_work = work / "neighbors"
    neighbors_work.mkdir()
    store_dir, _, checker, bodies = _prepare_serving(inputs.NEIGHBORS, seed,
                                                     neighbors_work, 1)
    traffic = Traffic("/neighbors", bodies, checker.check)
    for workers, prefixes in NEIGHBOR_LAYERS.items():
        name = "traced-neighbors-" + ("workers" if workers else "threads")
        layers, _ = _traced_phase(store_dir, neighbors_work, traffic, run, slot,
                                  workers, name)
        metrics.update({key: value for key, value in layers.items()
                        if key.startswith(prefixes)})
    return metrics


# --------------------------------------------------------------------- #
# Fit workload
# --------------------------------------------------------------------- #
def _fit_job(input_path: Path, store_dir: Path, rank: int,
             trace_out: Optional[Path] = None) -> Dict[str, object]:
    import inputs

    command = [sys.executable, str(HERE / "fitjob.py"), "--input", str(input_path),
               "--store", str(store_dir), "--model", inputs.FIT_MODEL,
               "--rank", str(rank)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    done = subprocess.run(command, env=child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"fit job failed ({done.returncode}):\n"
                           + done.stderr.decode(errors="replace")[-2000:])
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    report["setup_s"] = report["loaded"] - spawned
    report["fit_s"] = report["published"] - report["loaded"]
    report["latency_s"] = report["published"] - spawned
    return report


def run_fit(seed: int, seconds: float, trace: bool, work: Path, run: Run) -> Dict[str, float]:
    import inputs
    from checker import check_published_fit, load_sigma_reference
    from repro import io as repro_io

    matrix = inputs.fit_matrix(seed)
    shape = matrix.shape
    input_path = work / "ratings.npz"
    repro_io.save_interval_npz(matrix, input_path)
    del matrix
    store_dir = work / "fit-store"
    fit_seed = inputs.fit_seed(seed)
    reference = load_sigma_reference().get(str(fit_seed))
    if reference is None:
        raise RuntimeError(f"no reference Sigma recorded for fit input {fit_seed}")
    run.phases["fit"] = {"ops_sent": 0, "ops_failed": 0, "fit_input": fit_seed}

    def job(trace_out: Optional[Path] = None) -> Dict[str, object]:
        report = _fit_job(input_path, store_dir, inputs.FIT_RANK, trace_out)
        problem = check_published_fit(store_dir, inputs.FIT_MODEL, inputs.FIT_RANK,
                                      shape, reference)
        run.phase("fit", 1, 0 if problem is None else 1)
        if problem is not None:
            run.problems.append(problem)
        return report

    start = time.perf_counter()
    if not trace:
        reports = []
        # Stop when the next job would end past --seconds (jobs take ~6 s).
        while len(reports) < MIN_FIT_JOBS or (
                time.perf_counter() - start) * (len(reports) + 1) / len(reports) <= seconds:
            reports.append(job())
        latencies = [1e3 * r["latency_s"] for r in reports]
        return {
            "setup_s": median([r["setup_s"] for r in reports]),
            # Jobs over their own spawn-to-published time: the checks the
            # benchmark runs between jobs are not the program's time.
            "throughput_rps": len(reports) / sum(r["latency_s"] for r in reports),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "fit_s": median([r["fit_s"] for r in reports]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        }

    from tracing import Trace

    untraced, traced = [], []
    while not (untraced and traced) or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(job())
        else:
            path = work / f"fit-trace-{len(traced)}.json"
            report = job(path)
            report["trace"] = Trace(path)
            traced.append(report)

    def span_s(report, name: str) -> float:
        spans = report["trace"].outermost(name)
        return sum(s[3] - s[2] for s in spans)

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "store.save_s": median([span_s(r, "store.save") for r in traced]),
        "io.load_s": median([span_s(r, "io.load") for r in traced]),
        "linalg.gram_s": median([span_s(r, "linalg.gram") for r in traced]),
        "linalg.gram_ops": traced[0]["gram"]["ops"],
        "linalg.gram_bytes": traced[0]["gram"]["bytes"],
        "isvd.decomposition_s": median([r["timings"]["decomposition"] for r in traced]),
        "isvd.alignment_s": median([r["timings"]["alignment"] for r in traced]),
        "isvd.recomposition_s": median([r["timings"]["recomposition"] for r in traced]),
        "trace.overhead_frac": median([r["fit_s"] for r in traced])
        / median([r["fit_s"] for r in untraced]) - 1.0,
    })
    return metrics


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.use_checkout_sources()
    import inputs
    from checker import self_test

    workloads = (inputs.RECOMMEND.name, inputs.FIT_WORKLOAD)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    cpu_start = common.cpu_ticks()
    try:
        self_test()
        if args.workload == inputs.FIT_WORKLOAD:
            metrics = run_fit(args.seed, args.seconds, bool(args.trace), work, run)
        else:
            metrics = run_serving(inputs.RECOMMEND, args.seed, args.seconds,
                                  bool(args.trace), work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rate = None if args.workload == inputs.FIT_WORKLOAD else inputs.RECOMMEND.open_rate
    correct = run.failed == 0 and not run.problems
    names = PER_LAYER if args.trace else END_TO_END
    detail = {"fingerprint": common.fingerprint(args.seed, args.workload, rate,
                                                 cpu_start),
              "phases": run.phases, "problems": run.problems}
    print(json.dumps({"detail": detail}))
    for name in names:
        print(f"{args.workload:>18}  {name:<32} {metrics[name]:>14.6g} {UNITS[name]}")
    for phase, counts in run.phases.items():
        print(f"{args.workload:>18}  {phase:<8} ops_sent={counts['ops_sent']} "
              f"ops_failed={counts['ops_failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
