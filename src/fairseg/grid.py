"""Many ``fairseg`` runs side by side, each a fresh one-BLAS-thread process.

A BLAS build may round a product differently with more threads, so each
run's environment sets the thread variables to 1 before NumPy is
imported; the caller's is not changed.  (A ``multiprocessing`` spawn
child inherits the caller's environment and re-imports its main script,
and so NumPy, before any worker code runs.)
"""

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(argv, env):
    start = time.monotonic()
    code = subprocess.run([sys.executable, "-m", "fairseg", *argv], env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL).returncode
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return time.monotonic() - start


def run_grid(argvs):
    """Run each ``fairseg`` argument list, as many at a time as this process
    has CPUs, and return each run's wall time in seconds, in order.

    A run's standard output is discarded.  A run that exits non-zero raises
    CalledProcessError with its argument list and exit code once the runs
    already started have ended; no later run starts.
    """
    argvs = [list(argv) for argv in argvs]
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONPATH": path}
    workers = max(1, min(len(os.sched_getaffinity(0)), len(argvs)))
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda argv: _run(argv, env), argvs))
