"""Run ``python -m avipack serve`` with the tracing wrappers installed.

Usage: ``python perfbench/traced_server.py TRACE_DIR [serve options]``.
The wrappers are installed before the server starts, so every process
pool the server forks inherits them; the server's own trace is written
to ``TRACE_DIR`` when it exits and each pool worker writes its own.
"""

import os
import sys

import tracing


def main() -> int:
    trace_dir = sys.argv[1]
    tracer = tracing.Tracer()
    tracing.install(tracer, server=True, dump_dir=trace_dir)
    from avipack.__main__ import main as avipack_main
    try:
        return avipack_main(["serve"] + sys.argv[2:])
    finally:
        tracer.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.npz"))


if __name__ == "__main__":
    sys.exit(main())
