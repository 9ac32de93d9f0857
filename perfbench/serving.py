"""Start, probe and stop the job server the service workload runs against."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Optional

#: How long a server may take to answer its first ping.
READY_TIMEOUT_S = 60.0
#: How long a drained server may take to exit.
EXIT_TIMEOUT_S = 60.0


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    return env


def start_server(workdir: str, stderr_path: str,
                 trace_dir: Optional[str] = None) -> subprocess.Popen:
    """Launch ``python -m avipack serve`` at its defaults.

    With ``trace_dir`` the server is started through
    ``traced_server.py``, which installs the tracing wrappers before
    the first job forks its process pool.  Paths are relative to the
    checkout root, which keeps the Unix socket path short.
    """
    socket_path = os.path.join(workdir, "s.sock")
    args = ["--socket", socket_path,
            "--journal-dir", os.path.join(workdir, "jobs")]
    if trace_dir is None:
        command = [sys.executable, "-m", "avipack", "serve"] + args
    else:
        launcher = os.path.join(os.path.dirname(__file__),
                                "traced_server.py")
        command = [sys.executable, launcher, trace_dir] + args
    with open(stderr_path, "wb") as stderr:
        return subprocess.Popen(command, env=server_env(),
                                stdout=subprocess.DEVNULL, stderr=stderr)


def socket_of(workdir: str) -> str:
    return os.path.join(workdir, "s.sock")


def wait_ready(server: subprocess.Popen, workdir: str):
    """Ping until the server answers; returns a client for it."""
    from avipack.errors import ServiceError
    from avipack.service import ServiceClient

    probe = ServiceClient(socket_of(workdir), retries=1)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode} "
                               "before answering ping")
        try:
            probe.ping()
            return ServiceClient(socket_of(workdir))
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def stop_server(server: subprocess.Popen, client) -> int:
    """Drain the server with a ``shutdown`` request and reap it."""
    from avipack.errors import ServiceError

    try:
        client.shutdown()
    except ServiceError:
        server.terminate()
    try:
        return server.wait(timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.kill()
        return server.wait()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of ``pid`` and of its reaped children."""
    with open(f"/proc/{pid}/stat") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def count_tracebacks(stderr_path: str) -> int:
    with open(stderr_path, "rb") as stream:
        return stream.read().count(b"Traceback (most recent call last)")
