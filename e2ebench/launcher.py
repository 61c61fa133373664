"""Start ``repro serve`` through the CLI entry point, optionally traced.

Usage: ``python3 e2ebench/launcher.py [--trace-out FILE] serve ARGS...``

Without ``--trace-out`` this is exactly ``repro serve ARGS``.  With it, the
layer entry points listed in :mod:`tracing` are wrapped before
``repro.cli.main`` runs, and the recorded spans are written to ``FILE`` when
the server exits (it stops on SIGINT, like Ctrl-C).
"""

from __future__ import annotations

import sys

from common import use_checkout_sources


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    use_checkout_sources()
    recorder = None
    if trace_out is not None:
        from tracing import Recorder, install_serving

        recorder = Recorder()
        install_serving(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
