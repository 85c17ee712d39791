"""How many CPUs this process may run on.

The one count both pools size themselves by: the thread pool of
timedomain._map_scales and the process pool of the bench suites.  It follows
the CPU affinity mask, so ``taskset -c 0`` runs both serially.  Callers read
it as ``_cpus.usable_cpus()`` at call time, so a test can patch it in one
place.
"""

import os


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1
