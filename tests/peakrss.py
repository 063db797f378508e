"""Peak-memory measurements of a step: padded peak RSS in a fresh Python
process, or traced bytes in this one.

``run(script, cwd)`` runs ``PRELUDE + script`` with the package's ``src/``
on the path and returns the JSON object the script prints on its last line.
The prelude defines ``peak_mb()`` (the process's peak RSS so far),
``rss_mb()`` (its RSS now) and ``padded()``.  ``padded()`` returns the free
heap to the system with ``malloc_trim``, then fills the RSS up to the peak
so far and returns the filler.  While the filler is alive, every page a step
touches raises the peak, so ``peak_mb()`` after the step minus ``peak_mb()``
before it is the step's own high-water mark.  Without the trim, pages freed
earlier in the process but still held by the heap would absorb part of the
step, by an amount that depends on the heap's history.

``traced(call)`` measures in-process instead, in numpy and Python bytes as
``tracemalloc`` counts them: what one call keeps and its peak, both above
the bytes traced when it starts.  It does not depend on the state of the
heap, which can make the same step's RSS peak read two different values.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import ctypes, json, resource
import numpy as np


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2.0 ** 20


def padded():
    ctypes.CDLL(None).malloc_trim(0)
    return np.ones(max(0, int((peak_mb() - rss_mb()) * 2 ** 17)))
"""


def run(script, cwd, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def traced(call):
    """(kept, peak): the bytes ``call()`` allocates and its result still
    holds when it returns, and the most it held at once, both counted by
    ``tracemalloc`` from the start of the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept - start, peak - start
