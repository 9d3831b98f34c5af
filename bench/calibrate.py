"""Machine-speed probe.

The benchmark's machine shares its CPUs with other work, and the speed of
pure-Python code there drifts by up to 1.8x within seconds to minutes.
calibrate() times a fixed pure-Python kernel that does not use quandleworks:
a union-find closure, whose mix of calls, list reads and list writes is the
one whose speed tracked all three workloads best among the kernels tried
(list and dict reads, small-object arithmetic, union-find).  The benchmark
scales each op's wall time by REFERENCE_S over the kernel's time just
before and after it.  So its times read as seconds on this machine when the
kernel takes REFERENCE_S.
"""

from __future__ import annotations

from time import perf_counter

# the kernel's time in the machine's fast phases on a 2-vCPU Intel Xeon VM,
# Python 3.11 (the slow phases take up to 2 ms)
REFERENCE_S = 0.001


def calibrate() -> float:
    """Wall time of one fixed union-find closure over 64 elements."""
    start = perf_counter()
    parent = list(range(64))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r in range(3):
        parent[:] = range(64)
        for i in range(64):
            for j in range(0, 64, 4):
                ra, rb = find((i * 5 + j) % 64), find((i * j + r) % 64)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return perf_counter() - start
