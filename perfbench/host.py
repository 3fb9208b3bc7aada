"""Host readings: the reference loop that every timing is scaled by, and the
machine description recorded with each result.

A shared two-vCPU virtual machine (Intel Xeon, 2.1 GHz) shifts between a fast
state and states up to about 1.7x slower, for a fraction of a second to
minutes at a time, whatever the benchmark runs (CPU time equals wall time, so
the time is lost to neighbours on the host, not to waiting).  Raw times of identical runs
spread far wider than any useful regression bound.  So the reference loop
below is timed between the benchmark's steps, and each step's time is
multiplied by ``REF_S`` over the mean of the two readings around it.  That
expresses it on a host where one loop takes ``REF_S`` seconds, about that
machine's fast state.  The loop is benchmark code, identical on every commit,
so it scales parent and change alike; the unscaled figures are printed beside
the scaled ones.
"""

import os
import platform
import time

import numpy as np
import scipy

REF_S = 2.0e-3


def reference_loop(scale=1):
    """A fixed mix of small-object Python and small-array numpy work, like the
    package's own; its time tracks the host, not nbibp."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(100 * scale):
        cols = tuple((j, j + k, j % 3) for j in range(24))
        seen = {col: sum(col) for col in cols}
        a = np.asarray(cols, dtype=np.float64)
        acc += float(np.sqrt(a @ a.T + 1.0).sum()) + len(seen)
    return time.perf_counter() - t0


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
