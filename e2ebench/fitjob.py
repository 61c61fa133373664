"""One fit job in a fresh process: what ``repro decompose --npz IN --sparse
--method isvd4 --target b --rank R --save-model NAME`` does, timed by phase.

Usage: ``python3 e2ebench/fitjob.py --input IN.npz --store DIR --model NAME
--rank R [--trace-out FILE]``

Prints one JSON line: monotonic instants at which the input was loaded and
the model published (the parent holds the process start instant), the
decomposition's own per-phase timings, the process's peak RSS, and with
``--trace-out`` the computed work of the interval gram.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import use_checkout_sources


def gram_work(matrix) -> dict:
    """Computed (not measured) work of the sparse endpoint gram ``M^T M``.

    The endpoint4 gram runs three sparse products (``L^T L``, ``L^T U``,
    ``U^T U``); a product of CSR operands with row counts ``c_i`` costs
    ``sum(c_i^2)`` multiply-adds, and reads both operands' CSR arrays and
    writes one dense ``m x m`` float64 result."""
    import numpy as np

    counts = np.diff(matrix.lower.indptr).astype(np.float64)
    csr_bytes = sum(a.nbytes for side in (matrix.lower, matrix.upper)
                    for a in (side.data, side.indices, side.indptr)) / 2
    m = matrix.shape[1]
    return {"ops": 3 * 2 * float(np.sum(counts ** 2)),
            "bytes": 3 * (2 * csr_bytes + m * m * 8.0)}


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--input", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("--rank", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    use_checkout_sources()
    recorder = None
    if args.trace_out:
        from tracing import Recorder, install_fit

        recorder = Recorder()
        install_fit(recorder)
    from repro import io as repro_io
    from repro.core.isvd import isvd
    from repro.serve.store import ModelStore

    matrix = repro_io.load_interval_npz(args.input)
    loaded = time.monotonic()
    decomposition = isvd(matrix, args.rank, method="isvd4", target="b")
    ModelStore(args.store).save(args.model, decomposition, matrix=matrix)
    published = time.monotonic()
    report = {
        "loaded": loaded,
        "published": published,
        "timings": decomposition.timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.dump(args.trace_out)
        report["gram"] = gram_work(matrix)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
