"""Host-speed reference: a fixed task timed alongside the workload.

The 2-core VM this benchmark was built on runs the same work 15-30 %
slower or faster from one minute to the next (noisy neighbours; steal
time stays near zero, and process CPU time drifts as much as wall
time).  Run-to-run spreads of raw timings therefore exceed any useful
regression bound.  Each run times a fixed reference task -- pure Python
plus a SciPy sparse LU, no avipack code -- next to the workload, and
the end-to-end timings are reported *host-adjusted*: scaled by
``REFERENCE_NOMINAL_S / reference time``, i.e. expressed in seconds of
a host on which the reference takes ``REFERENCE_NOMINAL_S``.  Each op
latency uses the median of the samples taken nearest to it in time, so
short slow spells of the host do not land in the tail; rates and CPU
per item use those per-op factors weighted by op time.
``service_jobs`` op timings stay raw (see ``run.ServiceJobs``).

Set-up time drifts with the host in a way the reference task does not
track (it is mostly process start-up and module loading), so each cold
start is paired with a *reference start* taken just before it: a fresh
interpreter that loads only the numerical libraries avipack imports.
``setup_s`` is the median ratio of the pairs, scaled by
``REFERENCE_START_NOMINAL_S``, on every workload.
A change to avipack cannot move the reference, so adjusted timings
move exactly with the program; a slower host slows both and cancels.
The raw timings and the factor are printed on every run.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: Reference time of the host the benchmark was calibrated on; only
#: the scale of adjusted figures depends on it.
REFERENCE_NOMINAL_S = 0.010
#: Least time between two samples taken inside a timed loop.
SAMPLE_INTERVAL_S = 0.5
#: Samples (nearest in time) behind the factor of one timing.
NEAREST_SAMPLES = 3
#: The reference for set-up time: a fresh interpreter that loads only
#: the numerical libraries avipack imports.
REFERENCE_START = ("import numpy, scipy.linalg, scipy.sparse.linalg; "
                   "print('ready', flush=True)")
#: :data:`REFERENCE_START`'s time on the calibration host.
REFERENCE_START_NOMINAL_S = 0.4


class HostClock:
    """Samples the reference task and turns raw timings into adjusted."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sparse
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(7)
        size = 300
        rows = rng.integers(0, size, 1800)
        cols = rng.integers(0, size, 1800)
        matrix = sparse.coo_matrix((rng.random(1800), (rows, cols)),
                                   shape=(size, size))
        self._matrix = (matrix + 4.0 * sparse.identity(size)).tocsc()
        self._splu = splu
        self.samples: List[float] = []
        self._at: List[float] = []
        #: Wall and CPU seconds spent sampling (excluded from the timed
        #: loop's wall and CPU time).
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._last = 0.0

    def _task(self) -> float:
        total = 0.0
        table = {}
        for i in range(50_000):
            total += i * 0.5
            table[i & 255] = total
        for _ in range(2):
            self._splu(self._matrix)
        return total

    def sample(self) -> None:
        """Time the reference task once.

        The garbage collector is off while it runs, so the size of the
        program's heap cannot move the reference.
        """
        cpu = time.process_time()
        gc.disable()
        try:
            started = time.perf_counter()
            self._task()
            finished = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(finished - started)
        self._at.append((started + finished) / 2.0)
        self.spent_s += finished - started
        self.spent_cpu_s += time.process_time() - cpu
        self._last = finished

    def maybe_sample(self) -> None:
        """Sample once if :data:`SAMPLE_INTERVAL_S` has passed."""
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    @property
    def reference_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to get the host-adjusted time."""
        return REFERENCE_NOMINAL_S / self.reference_s

    def factor_at(self, moment: float) -> float:
        """:attr:`factor` from the :data:`NEAREST_SAMPLES` samples
        nearest to ``moment``."""
        near = sorted(range(len(self.samples)),
                      key=lambda i: abs(self._at[i] - moment)
                      )[:NEAREST_SAMPLES]
        return REFERENCE_NOMINAL_S / statistics.median(
            self.samples[i] for i in near)


def time_until_ready(argv: List[str], env=None) -> Tuple[float, str]:
    """Start ``argv``; seconds until it prints a ``ready`` line, and
    that line.  The child is waited for; a failed start raises."""
    started = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    try:
        line = child.stdout.readline().decode()
        ready = time.perf_counter() - started
        child.stdout.read()
    finally:
        code = child.wait(timeout=120)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"{argv[1:]} failed to start ({code})")
    return ready, line


def reference_start_s() -> float:
    """Seconds until a fresh :data:`REFERENCE_START` prints ``ready``."""
    return time_until_ready([sys.executable, "-c", REFERENCE_START])[0]
