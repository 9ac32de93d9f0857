"""One cold start of a workload, timed by the parent process.

Usage: ``python perfbench/coldstart.py WORKLOAD SEED WORKDIR``.
Imports avipack, builds the workload's inputs from the seed and, for
``service_jobs``, starts the job server and waits for its ``ping``.
It then prints one ``ready {...}`` line (with the import time and the
number of modules the import loaded), cleans up untimed and exits.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    before = len(sys.modules)
    started = time.perf_counter()
    import avipack  # noqa: F401
    import_s = time.perf_counter() - started
    modules = len(sys.modules) - before

    import workloads
    server = client = None
    if workload == "sweep_campaign":
        workloads.sweep_inputs(seed)
    elif workload == "paper_figures":
        workloads.paper_inputs(seed)
    else:
        import serving
        workloads.service_inputs(seed)
        server = serving.start_server(
            workdir, os.path.join(workdir, "server.stderr"))
        try:
            client = serving.wait_ready(server, workdir)
        except BaseException:
            server.kill()
            server.wait()
            raise
    try:
        print("ready " + json.dumps({"import_s": import_s,
                                     "modules": modules}), flush=True)
    finally:
        if server is not None:
            serving.stop_server(server, client)
    return 0


if __name__ == "__main__":
    sys.exit(main())
